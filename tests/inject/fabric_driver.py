"""Chaos-test driver: run one toy campaign on the distributed fabric.

The coordinator-crash tests need a coordinator they can SIGKILL from
outside, so this module is runnable as a process of its own::

    PYTHONPATH=src python -m tests.inject.fabric_driver \
        --fabric-dir /tmp/fab --shards 4

It registers a deterministic toy unit kind, runs (or resumes) the
fabric, and prints one ``FABRIC_DONE`` line on success.  Everything
about the campaign is a pure function of the CLI arguments, so two
drivers pointed at different fabric dirs are same-seed twins.
"""

import argparse
import json
import os
import random
import time

from repro.inject.engine import (EngineConfig, WorkUnit,
                                 register_unit_kind)
from repro.inject.fabric import FabricConfig, run_fabric_campaign


def toy_runner(params, context, batch):
    """Deterministic Bernoulli batch, optionally slowed for chaos tests."""
    delay = params.get("delay", 0.0)
    if delay:
        time.sleep(delay)
    rng = random.Random(batch.seed)
    rate = params.get("rate", 0.3)
    successes = sum(rng.random() < rate for _ in range(batch.size))
    return {"trials": batch.size, "successes": successes,
            "counts": {"detected": successes,
                       "masked": batch.size - successes}}


register_unit_kind("fabric-toy", toy_runner, replace=True)


def toy_units(count, seed=0, delay=0.0):
    return [WorkUnit(unit_id=f"u{index}", kind="fabric-toy",
                     params={"seed": seed + index * 17, "delay": delay})
            for index in range(count)]


def toy_config(shards=4, batch_size=20, max_batches=6, **fabric_knobs):
    return FabricConfig(
        shards=shards,
        engine=EngineConfig(batch_size=batch_size,
                            max_batches=max_batches, ci_half_width=None,
                            timeout_s=None, backoff_s=0.01),
        **fabric_knobs)


def granted_holders(fabric_dir):
    """holder id -> shard, from the ``worker`` field of lease grants."""
    path = os.path.join(fabric_dir, "coordinator.jsonl")
    if not os.path.exists(path):
        return {}
    granted = {}
    with open(path) as handle:
        for line in handle:
            try:
                record = json.loads(line)
            except ValueError:
                continue  # a line the coordinator is still writing
            if record.get("type") == "lease_granted":
                granted[record["worker"]] = record["shard"]
    return granted


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fabric-dir", required=True)
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--units", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--delay", type=float, default=0.0)
    parser.add_argument("--batch-size", type=int, default=20)
    parser.add_argument("--batches", type=int, default=6)
    args = parser.parse_args(argv)
    report = run_fabric_campaign(
        toy_units(args.units, seed=args.seed, delay=args.delay),
        args.fabric_dir,
        toy_config(shards=args.shards, batch_size=args.batch_size,
                   max_batches=args.batches))
    print(f"FABRIC_DONE paused={report.paused}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
