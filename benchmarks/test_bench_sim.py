"""Simulator throughput: trial-batched tensor executor vs. scalar loop.

Drives ``benchmarks/run_bench.py --sim`` (the ``BENCH_sim.json``
harness) at smoke scale and asserts the performance contract from
EXPERIMENTS.md: every benched workload's batched campaign path must
beat its scalar loop by at least 5x, and the campaign headline row must
clear a conservative smoke-scale samples/s floor.
"""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import run_bench  # noqa: E402

#: smoke-scale floors, deliberately far below the committed
#: BENCH_sim.json numbers so slow shared CI runners still pass while a
#: real regression (a scalar fallback sneaking into the batched path,
#: an O(trials) scan reappearing) still trips them
SMOKE_SPEEDUP_FLOOR = 5.0
SMOKE_CAMPAIGN_FLOOR = 5_000.0


def test_sim_throughput(once, tmp_path):
    output = tmp_path / "BENCH_sim.json"
    report = once(run_bench.run_sim, smoke=True, output=str(output))
    print()
    print(run_bench.summarize(report))

    assert report["schema"] == run_bench.SIM_SCHEMA
    written = json.loads(output.read_text())
    assert written["schema"] == run_bench.SIM_SCHEMA

    for name in run_bench.SIM_WORKLOADS:
        row = report["workloads"][name]
        assert row["speedup"] >= SMOKE_SPEEDUP_FLOOR, (name, row)
        assert row["fallbacks"] == 0, (name, row)

    campaign = report["campaign"]
    # "trials" counts architecturally visible faults only (not_hit is
    # excluded), so it is at most the number of simulated samples.
    assert 0 < campaign["trials"] <= campaign["samples"]
    assert campaign["samples_per_s"] >= SMOKE_CAMPAIGN_FLOOR, campaign
