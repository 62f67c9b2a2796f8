"""Hamartia-style gate-level single-event fault injection (Section IV-A).

The paper's methodology: for every input pair, randomly inject single-event
transients (one gate or flip-flop output flip) until one corrupts the unit
output — i.e. study the distribution of *unmasked* errors, one per input
pair, with the fault site uniform over the sites that are unmasked for that
input.

The bit-parallel simulator lets us evaluate one fault site across every
input sample in a single event-driven sweep that touches only the nets the
flip changes, so the campaign loops over (possibly subsampled) fault sites
and maintains, per input sample, a uniform reservoir over the unmasked sites
seen — exactly the conditional distribution the paper samples, computed for
all inputs at once.  Per site, only the output bits the fault reached are
read, and the affected samples are visited lowest set bit first, in
ascending sample order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.errors import InjectionError
from repro.gates.netlist import Netlist


@dataclass(frozen=True)
class InjectionRecord:
    """One unmasked injection: where it struck and what it did."""

    site: int
    pattern: int  # XOR of faulty vs golden output
    golden: int   # fault-free output value


@dataclass
class CampaignResult:
    """Outcome of a fault-injection campaign over one arithmetic unit."""

    unit_name: str
    output_bits: int
    sample_count: int
    sites_evaluated: int
    #: per input sample, one unmasked injection (None if every evaluated
    #: site was masked for that input)
    chosen: List[Optional[InjectionRecord]]
    #: per input sample, number of evaluated sites that were unmasked
    unmasked_site_counts: List[int]
    #: per input sample, counts of unmasked patterns by severity class
    class_counts: List[Dict[str, int]]

    @property
    def records(self) -> List[InjectionRecord]:
        """The unmasked injections, one per input pair that produced one."""
        return [record for record in self.chosen if record is not None]

    @property
    def masked_input_fraction(self) -> float:
        """Inputs for which every evaluated site was masked."""
        if not self.chosen:
            return 0.0
        missing = sum(1 for record in self.chosen if record is None)
        return missing / len(self.chosen)

    def to_dict(self) -> Dict:
        """JSON-serializable form (the campaign engine journals these)."""
        return {
            "unit_name": self.unit_name,
            "output_bits": self.output_bits,
            "sample_count": self.sample_count,
            "sites_evaluated": self.sites_evaluated,
            "chosen": [None if record is None
                       else [record.site, record.pattern, record.golden]
                       for record in self.chosen],
            "unmasked_site_counts": list(self.unmasked_site_counts),
            "class_counts": [dict(counts) for counts in self.class_counts],
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "CampaignResult":
        return cls(
            unit_name=payload["unit_name"],
            output_bits=payload["output_bits"],
            sample_count=payload["sample_count"],
            sites_evaluated=payload["sites_evaluated"],
            chosen=[None if item is None else InjectionRecord(*item)
                    for item in payload["chosen"]],
            unmasked_site_counts=list(payload["unmasked_site_counts"]),
            class_counts=[dict(counts)
                          for counts in payload["class_counts"]])


def merge_results(parts: Sequence[CampaignResult]) -> CampaignResult:
    """Concatenate per-batch campaign results over the same unit.

    Batches sweep independently subsampled fault-site sets, so the merged
    ``sites_evaluated`` reports the largest single-batch sweep while the
    per-sample statistics simply concatenate.
    """
    if not parts:
        raise InjectionError("cannot merge zero campaign results")
    first = parts[0]
    for part in parts[1:]:
        if part.unit_name != first.unit_name or \
                part.output_bits != first.output_bits:
            raise InjectionError(
                f"cannot merge campaigns over different units: "
                f"{first.unit_name!r} vs {part.unit_name!r}")
    return CampaignResult(
        unit_name=first.unit_name,
        output_bits=first.output_bits,
        sample_count=sum(part.sample_count for part in parts),
        sites_evaluated=max(part.sites_evaluated for part in parts),
        chosen=[record for part in parts for record in part.chosen],
        unmasked_site_counts=[count for part in parts
                              for count in part.unmasked_site_counts],
        class_counts=[dict(counts) for part in parts
                      for counts in part.class_counts])


def classify_severity(pattern: int) -> str:
    """Figure 10's three severity classes, by erroneous output bit count."""
    bits = pattern.bit_count()
    if bits == 0:
        raise InjectionError("masked pattern has no severity class")
    if bits == 1:
        return "1"
    if bits <= 3:
        return "2-3"
    return ">=4"


SEVERITY_CLASSES = ("1", "2-3", ">=4")


class FaultInjector:
    """Runs single-event injection campaigns on one netlist output."""

    def __init__(self, netlist: Netlist, output: str = None):
        self.netlist = netlist
        if output is None:
            if len(netlist.output_buses) != 1:
                raise InjectionError(
                    f"netlist has outputs {sorted(netlist.output_buses)}; "
                    f"specify one")
            output = next(iter(netlist.output_buses))
        if output not in netlist.output_buses:
            raise InjectionError(f"unknown output bus {output!r}")
        self.output = output
        self.output_bus = netlist.output_buses[output]

    def run(self, samples: Dict[str, Sequence[int]],
            site_count: Optional[int] = None,
            seed: int = 0) -> CampaignResult:
        """Inject at (up to) ``site_count`` random sites across all samples.

        ``samples`` maps input bus names to equal-length value sequences.
        ``site_count=None`` evaluates every fault site (exact conditional
        distribution); smaller counts subsample sites uniformly, which is
        how large units stay tractable.  A count below one raises
        :class:`InjectionError`.
        """
        if site_count is not None and site_count < 1:
            raise InjectionError(
                f"site count must be positive (or None for every site), "
                f"got {site_count}; an empty sweep would make the campaign "
                f"vacuously masked")
        rng = random.Random(seed)
        packed = self.netlist.pack_inputs(samples)
        baseline = self.netlist.evaluate(packed)
        sample_count = packed.sample_count

        sites = self.netlist.fault_sites()
        if site_count is not None and site_count < len(sites):
            sites = rng.sample(sites, site_count)

        chosen: List[Optional[InjectionRecord]] = [None] * sample_count
        unmasked_counts = [0] * sample_count
        class_counts = [dict.fromkeys(SEVERITY_CLASSES, 0)
                        for _ in range(sample_count)]
        golden = [self.netlist.read_bus(baseline, self.output_bus, index)
                  for index in range(sample_count)]

        for site in sites:
            changed = self.netlist.evaluate_with_fault(packed, baseline, site)
            # Per-bit delta masks, for the output bits the fault reached,
            # tell us which samples saw which flipped output bits.
            deltas = [(bit, changed[net] ^ baseline[net])
                      for bit, net in enumerate(self.output_bus)
                      if net in changed]
            affected = 0
            for __, delta in deltas:
                affected |= delta
            # Lowest set bit first is ascending sample order, the order
            # the reservoir's rng draws are defined in.
            while affected:
                low = affected & -affected
                affected ^= low
                index = low.bit_length() - 1
                pattern = 0
                for bit, delta in deltas:
                    if delta & low:
                        pattern |= 1 << bit
                unmasked_counts[index] += 1
                class_counts[index][classify_severity(pattern)] += 1
                # Reservoir sampling: keep each unmasked site with
                # probability 1/n so the kept site is uniform.
                if rng.randrange(unmasked_counts[index]) == 0:
                    chosen[index] = InjectionRecord(
                        site=site, pattern=pattern, golden=golden[index])

        return CampaignResult(
            unit_name=self.netlist.name,
            output_bits=len(self.output_bus),
            sample_count=sample_count,
            sites_evaluated=len(sites),
            chosen=chosen,
            unmasked_site_counts=unmasked_counts,
            class_counts=class_counts)
