#!/usr/bin/env python3
"""End-to-end fault injection: what happens to a real kernel's output?

For one workload, injects random single-bit datapath transients into
running kernels under four protections and classifies each run with the
engine's outcome taxonomy:

* ``due``/``trap`` — a register-file DUE (Swap-ECC) or checking trap
  (SW-Dup) caught the error;
* ``crash``   — the corrupted value (usually an address) aborted the run,
  which the hardware reports as a detectable fault;
* ``sdc``     — the kernel finished with a wrong result;
* ``masked``  — the flipped value never influenced the output;
* ``not-hit`` — the planned fault never fired (too few dynamic ops).

Each protection scheme sweeps as one work unit of the resilient campaign
engine: trials run in a crash-isolated worker, results stream to an
optional ``--journal`` checkpoint (rerun the same command to resume), and
the detection rate is reported with its Wilson 95% confidence interval.

Exits 1 when a unit's worker fails or when a SwapCodes scheme
(``swap-ecc``, ``pre-mad``) lets any SDC through — the paper's
guarantee that no single-bit pipeline error escapes.

Usage::

    python examples/end_to_end_faults.py [workload] [trials]
        [--journal PATH]
"""

import argparse
import sys

from repro.inject import CampaignEngine, EngineConfig, gpu_work_unit

SCHEMES = ("baseline", "swdup", "swap-ecc", "pre-mad")
#: schemes that must never bin an SDC
NO_SDC = ("swap-ecc", "pre-mad")


def main():
    parser = argparse.ArgumentParser(
        description="end-to-end FaultPlan sweep per protection scheme")
    parser.add_argument("workload", nargs="?", default="pathfinder")
    parser.add_argument("trials", nargs="?", type=int, default=40)
    parser.add_argument("--journal", default=None, metavar="PATH",
                        help="JSONL checkpoint journal for resume")
    args = parser.parse_args()

    units = [
        gpu_work_unit(args.workload, scheme, scale=0.25, build_seed=1,
                      seed=index)
        for index, scheme in enumerate(SCHEMES)
    ]
    config = EngineConfig(batch_size=args.trials, max_batches=1,
                          ci_half_width=None, timeout_s=600.0)
    report = CampaignEngine(config).run(units, args.journal)

    print(f"single-bit transients into {args.workload} "
          f"({args.trials} trials per scheme)")
    header = (f"{'scheme':12s} {'due':>5s} {'trap':>5s} {'crash':>6s} "
              f"{'sdc':>5s} {'masked':>7s} {'not-hit':>8s} "
              f"{'hang':>5s} {'detection rate (95% CI)':>28s}")
    print(header)
    failures = []
    for unit in units:
        result = report.units[unit.unit_id]
        counts = result.counts
        scheme = unit.params["compile_scheme"]
        label = str(result.estimate) if result.trials else "n/a"
        if result.failed:
            label = f"worker {result.status}: {result.detail[:40]}"
            failures.append(f"{scheme} worker {result.status}")
        elif scheme in NO_SDC and counts["sdc"]:
            failures.append(f"{scheme} binned {counts['sdc']} SDC(s)")
        print(f"{scheme:12s} {counts['due']:5d} {counts['trap']:5d} "
              f"{counts['crash']:6d} {counts['sdc']:5d} "
              f"{counts['masked']:7d} {counts['not_hit']:8d} "
              f"{counts['hang']:5d} {label:>28s}")
    print("\nexpectation: the unprotected baseline shows SDCs; the "
          "SwapCodes variants (swap-ecc, pre-mad) detect, correct or mask "
          "every single-bit pipeline error. SW-Dup can let SDCs through: "
          "it copies S2R results into the shadow with a MOV, and covers "
          "control flow only incidentally.")
    if failures:
        print("FAILED: " + "; ".join(failures))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
