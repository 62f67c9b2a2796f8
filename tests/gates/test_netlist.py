"""Tests for the netlist IR and the bit-parallel simulator."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NetlistError
from repro.gates import Netlist, Op
from repro.inject import UNIT_ORDER, build_unit, unit_inputs


def build_xor_chain(width=4):
    netlist = Netlist("chain")
    a = netlist.input_bus("a", width)
    b = netlist.input_bus("b", width)
    out = [netlist.xor(x, y) for x, y in zip(a, b)]
    netlist.set_output("out", out)
    return netlist


class TestConstruction:
    def test_forward_reference_rejected(self):
        netlist = Netlist()
        with pytest.raises(NetlistError):
            netlist.and_(0, 5)

    def test_duplicate_input_bus_rejected(self):
        netlist = Netlist()
        netlist.input_bus("a", 2)
        with pytest.raises(NetlistError):
            netlist.input_bus("a", 2)

    def test_duplicate_output_rejected(self):
        netlist = Netlist()
        bus = netlist.input_bus("a", 2)
        netlist.set_output("o", bus)
        with pytest.raises(NetlistError):
            netlist.set_output("o", bus)

    def test_const_cached(self):
        netlist = Netlist()
        assert netlist.const(0) == netlist.const(0)
        assert netlist.const(1) == netlist.const(1)
        assert netlist.const(0) != netlist.const(1)

    def test_counts(self):
        netlist = build_xor_chain(4)
        assert netlist.gate_count() == 4
        assert netlist.flip_flop_count() == 0
        staged = netlist.stage(netlist.output_buses["out"])
        assert netlist.flip_flop_count() == 4
        assert len(staged) == 4

    def test_empty_reduction_rejected(self):
        netlist = Netlist()
        with pytest.raises(NetlistError):
            netlist.xor_tree([])


class TestEvaluation:
    @given(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)),
                    min_size=1, max_size=40))
    def test_xor_bus(self, pairs):
        netlist = build_xor_chain(4)
        packed = netlist.pack_inputs({
            "a": [a for a, __ in pairs],
            "b": [b for __, b in pairs],
        })
        values = netlist.evaluate(packed)
        for index, (a, b) in enumerate(pairs):
            assert netlist.read_output(values, "out", index) == a ^ b

    def test_all_primitive_ops(self):
        netlist = Netlist()
        a = netlist.input_bus("a", 1)[0]
        b = netlist.input_bus("b", 1)[0]
        s = netlist.input_bus("s", 1)[0]
        ops = {
            "not": netlist.not_(a),
            "and": netlist.and_(a, b),
            "or": netlist.or_(a, b),
            "xor": netlist.xor(a, b),
            "nand": netlist.nand(a, b),
            "nor": netlist.nor(a, b),
            "xnor": netlist.xnor(a, b),
            "mux": netlist.mux(s, a, b),
            "dff": netlist.dff(a),
        }
        for name, net in ops.items():
            netlist.set_output(name, [net])
        cases = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
        packed = netlist.pack_inputs({
            "a": [c[0] for c in cases],
            "b": [c[1] for c in cases],
            "s": [c[2] for c in cases],
        })
        values = netlist.evaluate(packed)
        for index, (x, y, z) in enumerate(cases):
            assert netlist.read_output(values, "not", index) == 1 - x
            assert netlist.read_output(values, "and", index) == (x & y)
            assert netlist.read_output(values, "or", index) == (x | y)
            assert netlist.read_output(values, "xor", index) == (x ^ y)
            assert netlist.read_output(values, "nand", index) == 1 - (x & y)
            assert netlist.read_output(values, "nor", index) == 1 - (x | y)
            assert netlist.read_output(values, "xnor", index) == 1 - (x ^ y)
            assert netlist.read_output(values, "mux", index) == (x if z else y)
            assert netlist.read_output(values, "dff", index) == x

    def test_missing_input_bus_rejected(self):
        netlist = build_xor_chain(4)
        with pytest.raises(NetlistError):
            netlist.pack_inputs({"a": [1]})

    def test_mismatched_sample_counts_rejected(self):
        netlist = build_xor_chain(4)
        with pytest.raises(NetlistError):
            netlist.pack_inputs({"a": [1], "b": [1, 2]})


class TestFaultInjection:
    def test_flip_propagates_downstream(self):
        netlist = Netlist()
        a = netlist.input_bus("a", 1)[0]
        mid = netlist.not_(a)
        out = netlist.not_(mid)
        netlist.set_output("out", [out])
        packed = netlist.pack_inputs({"a": [0, 1]})
        baseline = netlist.evaluate(packed)
        changed = netlist.evaluate_with_fault(packed, baseline, mid)
        assert changed[mid] == baseline[mid] ^ 0b11
        assert changed[out] == baseline[out] ^ 0b11

    def test_flip_mask_selects_samples(self):
        netlist = build_xor_chain(1)
        packed = netlist.pack_inputs({"a": [0, 0, 0], "b": [0, 0, 0]})
        baseline = netlist.evaluate(packed)
        site = netlist.output_buses["out"][0]
        changed = netlist.evaluate_with_fault(packed, baseline, site,
                                              flip_mask=0b010)
        assert changed[site] == 0b010

    def test_masked_fault_leaves_no_trace(self):
        # AND gate with the other input 0: a flip on one side is masked.
        netlist = Netlist()
        a = netlist.input_bus("a", 1)[0]
        b = netlist.input_bus("b", 1)[0]
        anded = netlist.and_(a, b)
        netlist.set_output("out", [anded])
        packed = netlist.pack_inputs({"a": [1], "b": [0]})
        baseline = netlist.evaluate(packed)
        changed = netlist.evaluate_with_fault(packed, baseline, a)
        assert anded not in changed  # flip of `a` masked by b == 0

    def test_fanout_map_follows_appended_nodes(self):
        netlist = Netlist()
        a = netlist.input_bus("a", 1)[0]
        left = netlist.not_(a)
        first = netlist.fanout_map()
        assert first[a] == [left]
        assert netlist.fanout_map() is first
        right = netlist.xor(a, left)
        assert netlist.fanout_map()[a] == [left, right]
        assert netlist.fanout_map()[left] == [right]

    def test_fault_sites_exclude_inputs_and_consts(self):
        netlist = Netlist()
        a = netlist.input_bus("a", 2)
        c = netlist.const(1)
        g = netlist.and_(a[0], a[1])
        d = netlist.dff(g)
        netlist.set_output("out", [d])
        sites = netlist.fault_sites()
        assert g in sites and d in sites
        assert a[0] not in sites and c not in sites


#: reference semantics of every op, written independently of the
#: simulator: (input values, all-ones mask of the sample count) -> value
REFERENCE_OPS = {
    Op.CONST0: lambda x, full: 0,
    Op.CONST1: lambda x, full: full,
    Op.NOT: lambda x, full: ~x[0] & full,
    Op.AND: lambda x, full: x[0] & x[1],
    Op.OR: lambda x, full: x[0] | x[1],
    Op.XOR: lambda x, full: x[0] ^ x[1],
    Op.NAND: lambda x, full: ~(x[0] & x[1]) & full,
    Op.NOR: lambda x, full: ~(x[0] | x[1]) & full,
    Op.XNOR: lambda x, full: ~(x[0] ^ x[1]) & full,
    Op.MUX: lambda x, full: (x[0] & x[1]) | (~x[0] & x[2]),
    Op.DFF: lambda x, full: x[0],
}

#: Netlist method and input count of every op that has inputs
GATE_METHODS = {
    Op.NOT: ("not_", 1), Op.AND: ("and_", 2), Op.OR: ("or_", 2),
    Op.XOR: ("xor", 2), Op.NAND: ("nand", 2), Op.NOR: ("nor", 2),
    Op.XNOR: ("xnor", 2), Op.MUX: ("mux", 3), Op.DFF: ("dff", 1),
}


def reference_values(netlist, packed, site=None, forced=0):
    """Full re-evaluation, with node ``site`` forced to ``forced``."""
    full = (1 << packed.sample_count) - 1
    values = []
    for node_id, node in enumerate(netlist.nodes):
        if node_id == site:
            value = forced
        elif node.op is Op.INPUT:
            value = packed.values[node_id]
        else:
            value = REFERENCE_OPS[node.op](
                [values[source] for source in node.inputs], full)
        values.append(value)
    return values


def check_against_reference(netlist, packed, faults):
    """``evaluate`` equals the reference, and ``evaluate_with_fault``
    equals the reference's sparse diff against the baseline."""
    baseline = netlist.evaluate(packed)
    assert baseline == reference_values(netlist, packed)
    for site, flip_mask in faults:
        faulty = reference_values(netlist, packed, site,
                                  baseline[site] ^ flip_mask)
        expected = {node_id: value for node_id, value in enumerate(faulty)
                    if value != baseline[node_id]}
        assert netlist.evaluate_with_fault(packed, baseline, site,
                                           flip_mask) == expected


@st.composite
def random_circuits(draw):
    """A random netlist over every op, its packed inputs, and faults."""
    netlist = Netlist("random")
    widths = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    for index, width in enumerate(widths):
        netlist.input_bus(f"in{index}", width)
    for bit in draw(st.lists(st.sampled_from((0, 1)), max_size=2)):
        netlist.const(bit)
    ops = draw(st.lists(st.sampled_from(list(GATE_METHODS)), min_size=1,
                        max_size=40))
    for op in ops:
        method, arity = GATE_METHODS[op]
        # Drawing from every earlier id makes repeats such as xor(a, a)
        # common in small netlists.
        inputs = [draw(st.integers(0, len(netlist) - 1))
                  for __ in range(arity)]
        getattr(netlist, method)(*inputs)
    sample_count = draw(st.integers(1, 8))
    packed = netlist.pack_inputs({
        name: draw(st.lists(st.integers(0, (1 << len(bus)) - 1),
                            min_size=sample_count, max_size=sample_count))
        for name, bus in netlist.input_buses.items()})
    full = (1 << sample_count) - 1
    faults = draw(st.lists(st.tuples(st.integers(0, len(netlist) - 1),
                                     st.integers(0, full)),
                           min_size=1, max_size=6))
    return netlist, packed, faults


class TestReferenceOracle:
    """Both evaluators against a plain full re-evaluation."""

    @settings(max_examples=200, deadline=None)
    @given(random_circuits())
    def test_random_netlists(self, circuit):
        check_against_reference(*circuit)

    def test_repeated_inputs(self):
        netlist = Netlist()
        a = netlist.input_bus("a", 1)[0]
        s = netlist.input_bus("s", 1)[0]
        nets = [netlist.xor(a, a), netlist.and_(a, a), netlist.xnor(a, a),
                netlist.mux(s, a, a), netlist.mux(a, a, s)]
        netlist.set_output("out", nets)
        packed = netlist.pack_inputs({"a": [0, 1, 0, 1], "s": [0, 0, 1, 1]})
        faults = [(site, mask) for site in range(len(netlist))
                  for mask in (0, 0b0101, 0b1111)]
        check_against_reference(netlist, packed, faults)

    @pytest.mark.parametrize("unit", UNIT_ORDER)
    def test_figure10_units(self, unit):
        netlist = build_unit(unit)
        packed = netlist.pack_inputs(unit_inputs(unit, 16, seed=5))
        rng = random.Random(UNIT_ORDER.index(unit))
        full = (1 << packed.sample_count) - 1
        faults = [(site, rng.randint(0, full))
                  for site in rng.sample(netlist.fault_sites(), 20)]
        check_against_reference(netlist, packed, faults)
