"""Gate-level netlist IR with a bit-parallel simulator.

A :class:`Netlist` is a flat list of nodes in topological order (construction
order; every node's inputs must already exist).  Buses are plain Python lists
of node ids, LSB first.

Simulation is *bit-parallel*: the value of one net across N samples is a
single arbitrary-precision integer whose bit ``i`` is the net's value in
sample ``i``.  One topological sweep therefore evaluates every sample at
once, which is what makes the paper's 10,000-input-pair fault-injection
campaigns tractable in pure Python.

Fault injection flips one node's output (for any subset of samples),
mirroring the Hamartia methodology of Section IV-A, and is event-driven:
only consumers of nets whose value actually changed are recomputed, in node
id (topological) order along a memoized fan-out map, so a fault that is
masked a few gates downstream costs a few gate evaluations.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import NetlistError

Bus = List[int]


class Op(enum.Enum):
    """Primitive node kinds.

    DFF nodes are pipeline registers: combinationally they pass their input
    through (the simulator treats a feed-forward pipeline as one unrolled
    combinational evaluation), but they are distinct fault sites, count as
    flip-flops for area, and mark retiming stage boundaries.
    """

    CONST0 = "const0"
    CONST1 = "const1"
    INPUT = "input"
    NOT = "not"
    AND = "and"
    OR = "or"
    XOR = "xor"
    NAND = "nand"
    NOR = "nor"
    XNOR = "xnor"
    MUX = "mux"  # inputs (sel, a, b): sel ? a : b
    DFF = "dff"


#: NAND2 gate-equivalent area per node kind (typical standard-cell ratios).
GATE_AREA = {
    Op.CONST0: 0.0,
    Op.CONST1: 0.0,
    Op.INPUT: 0.0,
    Op.NOT: 0.67,
    Op.AND: 1.33,
    Op.OR: 1.33,
    Op.XOR: 2.33,
    Op.NAND: 1.0,
    Op.NOR: 1.0,
    Op.XNOR: 2.33,
    Op.MUX: 2.33,
    Op.DFF: 4.33,
}


@dataclass
class Node:
    """One gate, register, input, or constant.

    Not frozen: a frozen dataclass sets each field through
    ``object.__setattr__``, which cost more than all the rest of
    building a netlist.  A node is never changed once added (netlists
    are append-only).
    """

    op: Op
    inputs: Tuple[int, ...]
    name: str = ""


class Netlist:
    """A feed-forward gate netlist with named input and output buses."""

    def __init__(self, name: str = ""):
        self.name = name
        self.nodes: List[Node] = []
        self.input_buses: Dict[str, Bus] = {}
        self.output_buses: Dict[str, Bus] = {}
        self._const_cache: Dict[Op, int] = {}
        self._fanout: List[List[int]] = []

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _add(self, op: Op, inputs: Tuple[int, ...] = (), name: str = "") -> int:
        nodes = self.nodes
        count = len(nodes)
        for node_id in inputs:
            if not 0 <= node_id < count:
                raise NetlistError(
                    f"node input {node_id} does not exist yet (netlists are "
                    f"built in topological order)")
        nodes.append(Node(op, inputs, name))
        return count

    def const(self, bit: int) -> int:
        """A constant-0 or constant-1 net (cached)."""
        op = Op.CONST1 if bit else Op.CONST0
        if op not in self._const_cache:
            self._const_cache[op] = self._add(op)
        return self._const_cache[op]

    def input_bus(self, name: str, width: int) -> Bus:
        """Declare a ``width``-bit input bus."""
        if name in self.input_buses:
            raise NetlistError(f"duplicate input bus {name!r}")
        bus = [self._add(Op.INPUT, name=f"{name}[{bit}]")
               for bit in range(width)]
        self.input_buses[name] = bus
        return bus

    def set_output(self, name: str, bus: Sequence[int]) -> None:
        """Name ``bus`` as an output of the netlist."""
        if name in self.output_buses:
            raise NetlistError(f"duplicate output bus {name!r}")
        self.output_buses[name] = list(bus)

    def not_(self, a: int) -> int:
        return self._add(Op.NOT, (a,))

    def and_(self, a: int, b: int) -> int:
        return self._add(Op.AND, (a, b))

    def or_(self, a: int, b: int) -> int:
        return self._add(Op.OR, (a, b))

    def xor(self, a: int, b: int) -> int:
        return self._add(Op.XOR, (a, b))

    def nand(self, a: int, b: int) -> int:
        return self._add(Op.NAND, (a, b))

    def nor(self, a: int, b: int) -> int:
        return self._add(Op.NOR, (a, b))

    def xnor(self, a: int, b: int) -> int:
        return self._add(Op.XNOR, (a, b))

    def mux(self, sel: int, a: int, b: int) -> int:
        """Return ``sel ? a : b``."""
        return self._add(Op.MUX, (sel, a, b))

    def dff(self, a: int) -> int:
        """A pipeline register on net ``a``."""
        return self._add(Op.DFF, (a,))

    def stage(self, bus: Sequence[int]) -> Bus:
        """Register every net of ``bus`` (one retiming stage boundary)."""
        return [self.dff(net) for net in bus]

    # ------------------------------------------------------------------
    # multi-input conveniences (balanced trees)
    # ------------------------------------------------------------------
    def _tree(self, op, nets: Sequence[int]) -> int:
        nets = list(nets)
        if not nets:
            raise NetlistError("reduction over empty net list")
        while len(nets) > 1:
            nxt = []
            for i in range(0, len(nets) - 1, 2):
                nxt.append(op(nets[i], nets[i + 1]))
            if len(nets) % 2:
                nxt.append(nets[-1])
            nets = nxt
        return nets[0]

    def xor_tree(self, nets: Sequence[int]) -> int:
        return self._tree(self.xor, nets)

    def and_tree(self, nets: Sequence[int]) -> int:
        return self._tree(self.and_, nets)

    def or_tree(self, nets: Sequence[int]) -> int:
        return self._tree(self.or_, nets)

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.nodes)

    def gate_count(self) -> int:
        """Logic gates, excluding inputs, constants, and DFFs."""
        skip = (Op.INPUT, Op.CONST0, Op.CONST1, Op.DFF)
        return sum(1 for node in self.nodes if node.op not in skip)

    def flip_flop_count(self) -> int:
        dff = Op.DFF  # an enum member lookup is a Python call; once here
        return sum(1 for node in self.nodes if node.op is dff)

    def area(self) -> float:
        """Total area in NAND2 gate-equivalents."""
        return sum(GATE_AREA[node.op] for node in self.nodes)

    def fault_sites(self) -> List[int]:
        """Node ids eligible for single-event injection: gates and DFFs."""
        skip = (Op.INPUT, Op.CONST0, Op.CONST1)
        return [node_id for node_id, node in enumerate(self.nodes)
                if node.op not in skip]

    # ------------------------------------------------------------------
    # simulation
    # ------------------------------------------------------------------
    def pack_inputs(self, samples: Dict[str, Sequence[int]]) -> "PackedInputs":
        """Bit-pack per-sample input values for bit-parallel evaluation.

        ``samples`` maps each input bus name to a sequence of integer values
        (one per sample).  Returns a :class:`PackedInputs` reusable across
        baseline and fault evaluations.
        """
        missing = set(self.input_buses) - set(samples)
        if missing:
            raise NetlistError(f"missing input buses: {sorted(missing)}")
        counts = {len(values) for values in samples.values()}
        if len(counts) != 1:
            raise NetlistError(
                f"all input buses need the same sample count, got {counts}")
        sample_count = counts.pop()
        packed: Dict[int, int] = {}
        for name, bus in self.input_buses.items():
            values = samples[name]
            for bit, net in enumerate(bus):
                word = 0
                for index, value in enumerate(values):
                    if (value >> bit) & 1:
                        word |= 1 << index
                packed[net] = word
        return PackedInputs(packed, sample_count)

    def evaluate(self, packed: "PackedInputs") -> List[int]:
        """One topological sweep; returns the packed value of every node."""
        full = (1 << packed.sample_count) - 1
        inputs = packed.values
        AND, XOR, OR, MUX, DFF, NOT = (Op.AND, Op.XOR, Op.OR, Op.MUX,
                                       Op.DFF, Op.NOT)
        values: List[int] = [0] * len(self.nodes)
        for node_id, node in enumerate(self.nodes):
            op = node.op
            ins = node.inputs
            if op is AND:
                value = values[ins[0]] & values[ins[1]]
            elif op is XOR:
                value = values[ins[0]] ^ values[ins[1]]
            elif op is OR:
                value = values[ins[0]] | values[ins[1]]
            elif op is MUX:
                sel = values[ins[0]]
                value = (sel & values[ins[1]]) | \
                    ((sel ^ full) & values[ins[2]])
            elif op is DFF:
                value = values[ins[0]]
            elif op is NOT:
                value = values[ins[0]] ^ full
            elif op is Op.NAND:
                value = (values[ins[0]] & values[ins[1]]) ^ full
            elif op is Op.NOR:
                value = (values[ins[0]] | values[ins[1]]) ^ full
            elif op is Op.XNOR:
                value = values[ins[0]] ^ values[ins[1]] ^ full
            elif op is Op.INPUT:
                value = inputs.get(node_id, 0)
            elif op is Op.CONST0:
                value = 0
            elif op is Op.CONST1:
                value = full
            else:
                raise NetlistError(f"unknown op {op}")
            values[node_id] = value
        return values

    def read_bus(self, values: Sequence[int], bus: Sequence[int],
                 sample: int) -> int:
        """Extract one sample's integer value of ``bus`` from a value table."""
        result = 0
        for bit, net in enumerate(bus):
            if (values[net] >> sample) & 1:
                result |= 1 << bit
        return result

    def read_output(self, values: Sequence[int], name: str,
                    sample: int) -> int:
        return self.read_bus(values, self.output_buses[name], sample)

    # ------------------------------------------------------------------
    # fault injection support
    # ------------------------------------------------------------------
    def fanout_map(self) -> List[List[int]]:
        """For each node, the ids of nodes that consume it directly.

        Built on first use and kept until nodes are appended (netlists are
        append-only), so area-only netlists never carry one.  Each list is
        ascending; callers must not mutate it.
        """
        if len(self._fanout) != len(self.nodes):
            fanout: List[List[int]] = [[] for _ in self.nodes]
            for node_id, node in enumerate(self.nodes):
                for source in node.inputs:
                    fanout[source].append(node_id)
            self._fanout = fanout
        return self._fanout

    def evaluate_with_fault(self, packed: "PackedInputs",
                            baseline: Sequence[int], site: int,
                            flip_mask: Optional[int] = None
                            ) -> Dict[int, int]:
        """Re-evaluate what flipping ``site``'s output changes downstream.

        ``flip_mask`` selects which samples see the flip (default: all).
        Returns a sparse map node id -> new packed value; nodes absent from
        the map keep their baseline value.

        Event-driven: a min-heap holds the consumers of nets that changed,
        and the lowest id pops first.  Ids are topological, so every input
        of a popped node is final; a node that recomputes to its baseline
        value stops the propagation there, so the cost is proportional to
        the nets the fault actually changes.
        """
        full = (1 << packed.sample_count) - 1
        if flip_mask is None:
            flip_mask = full
        changed: Dict[int, int] = {}
        value = baseline[site] ^ flip_mask
        if value == baseline[site]:
            return changed
        changed[site] = value
        get = changed.get
        nodes = self.nodes
        fanout = self.fanout_map()
        AND, XOR, OR, MUX, DFF, NOT = (Op.AND, Op.XOR, Op.OR, Op.MUX,
                                       Op.DFF, Op.NOT)
        heap = list(fanout[site])  # ascending, so already a heap
        last = -1
        while heap:
            node_id = heappop(heap)
            if node_id == last:
                continue  # queued by more than one changed input
            last = node_id
            node = nodes[node_id]
            op = node.op
            ins = node.inputs
            a = get(ins[0], baseline[ins[0]])
            if op is DFF:
                value = a
            elif op is NOT:
                value = a ^ full
            elif op is MUX:
                value = (a & get(ins[1], baseline[ins[1]])) | \
                    ((a ^ full) & get(ins[2], baseline[ins[2]]))
            else:
                b = get(ins[1], baseline[ins[1]])
                if op is AND:
                    value = a & b
                elif op is XOR:
                    value = a ^ b
                elif op is OR:
                    value = a | b
                elif op is Op.NAND:
                    value = (a & b) ^ full
                elif op is Op.NOR:
                    value = (a | b) ^ full
                elif op is Op.XNOR:
                    value = a ^ b ^ full
                else:
                    raise NetlistError(f"unknown op {op}")
            if value != baseline[node_id]:
                changed[node_id] = value
                for consumer in fanout[node_id]:
                    heappush(heap, consumer)
        return changed

    def __repr__(self) -> str:
        return (f"Netlist(name={self.name!r}, nodes={len(self.nodes)}, "
                f"gates={self.gate_count()}, ffs={self.flip_flop_count()})")


@dataclass
class PackedInputs:
    """Bit-packed input values: net id -> packed word, plus sample count."""

    values: Dict[int, int]
    sample_count: int
