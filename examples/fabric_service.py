#!/usr/bin/env python3
"""Network-attached campaign fabric: coordinator and worker CLI.

The service deployment of the distributed injection fabric.  One
process *listens* on a Unix socket and coordinates the Figure 10
gate-level campaign as leased shards; any number of worker processes
*attach* to that socket, lease shards, journal their batches, and
complete them.  All durable state (coordinator journal, per-lease shard
journals, ``merged_report.json``) is identical to the local fabric of
``examples/injection_campaign.py --shards N``, which runs the same
coordinator with forked holders — byte-identical merged reports, and
either deployment can resume the other's fabric dir.

Coordinator::

    python examples/fabric_service.py --listen /tmp/fab.sock \
        --fabric-dir /tmp/fab --shards 3 [samples] [sites]

The coordinator narrates its own journal: every record it appends to
``coordinator.jsonl`` (plan, lease grants, expiries, completions,
global stop) is printed as it lands, read back through a
:class:`~repro.inject.journal.JournalCursor`.

Workers (as many as you like, from other terminals)::

    python examples/fabric_service.py --attach /tmp/fab.sock \
        --worker-id w0

Chaos-hardening demo: make a worker's transport hostile and watch the
run converge anyway (dropped frames are resent, duplicated completions
are acknowledged-and-dropped, a torn connection reattaches and
re-validates its fencing token)::

    python examples/fabric_service.py --attach /tmp/fab.sock \
        --chaos-seed 42 --drop 0.1 --dup 0.1 --delay 0.1 --delay-max 0.05

Kill a worker mid-shard (``kill -9``) and start a new one: the lease
TTL expires, the shard is re-granted under a fresh fencing token, and
the new holder's journal is rebased from every durable batch the dead
worker wrote — no redone work, no double counts.
"""

import argparse
import os
import sys
import threading

from repro.inject.coordinator import CoordinatorService
from repro.inject.engine import EngineConfig, gate_work_unit
from repro.inject.fabric import COORDINATOR_JOURNAL, FabricConfig
from repro.inject.journal import JournalCursor
from repro.inject.transport import (ChaosConfig, ChaosDialer,
                                    UnixSocketListener, unix_connect)
from repro.inject.worker import ShardWorker, WorkerConfig

UNIT_ORDER = ("fxp-add-32", "fxp-mad-32", "fp-add-32", "fp-mad-32",
              "fp-add-64", "fp-mad-64")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="network-attached campaign fabric (coordinator/worker)")
    role = parser.add_mutually_exclusive_group(required=True)
    role.add_argument("--listen", metavar="SOCK",
                      help="coordinate: listen on this Unix socket path")
    role.add_argument("--attach", metavar="SOCK",
                      help="work: attach to a coordinator at this socket")
    parser.add_argument("samples", nargs="?", type=int, default=600,
                        help="input pairs per unit (coordinator)")
    parser.add_argument("sites", nargs="?", default="200",
                        help="fault sites per unit, or 'None' for all")
    parser.add_argument("--fabric-dir", default=None, metavar="DIR",
                        help="durable fabric state dir (coordinator)")
    parser.add_argument("--shards", type=int, default=3,
                        help="leased shards to split the campaign into")
    parser.add_argument("--lease-ttl", type=float, default=30.0,
                        metavar="S", help="lease TTL in seconds")
    parser.add_argument("--seed", type=int, default=0,
                        help="campaign base seed (coordinator)")
    parser.add_argument("--worker-id", default="worker-0",
                        help="this worker's stable identity")
    parser.add_argument("--chaos-seed", type=int, default=None,
                        metavar="N", help="enable a deterministic chaos "
                        "schedule on this worker's transport")
    parser.add_argument("--drop", type=float, default=0.0,
                        help="chaos: per-frame drop probability")
    parser.add_argument("--dup", type=float, default=0.0,
                        help="chaos: per-frame duplication probability")
    parser.add_argument("--delay", type=float, default=0.0,
                        help="chaos: per-frame delay probability")
    parser.add_argument("--delay-max", type=float, default=0.05,
                        metavar="S", help="chaos: max injected delay")
    return parser.parse_args(argv)


def run_coordinator(args) -> int:
    if args.fabric_dir is None:
        print("--listen requires --fabric-dir", file=sys.stderr)
        return 2
    sites = None if str(args.sites) == "None" else int(args.sites)
    units = [gate_work_unit(name, site_count=sites,
                            seed=args.seed + index)
             for index, name in enumerate(UNIT_ORDER)]
    config = FabricConfig(
        shards=args.shards, lease_ttl_s=args.lease_ttl,
        install_signal_handlers=False,
        engine=EngineConfig(batch_size=args.samples, max_batches=1,
                            ci_half_width=None, timeout_s=None))
    listener = UnixSocketListener(args.listen)
    service = CoordinatorService(args.fabric_dir, config=config,
                                 listener=listener)
    service.submit(units)
    served = threading.Event()

    def narrate():
        cursor = JournalCursor(os.path.join(args.fabric_dir,
                                            COORDINATOR_JOURNAL))
        while True:
            final = served.is_set()  # one last poll after serve returns
            for record in cursor.poll():
                kind = record.pop("type")
                record.pop("rix", None)
                detail = " ".join(f"{key}={value}"
                                  for key, value in sorted(record.items()))
                print(f"[{kind}] {detail}", flush=True)
            if final:
                return
            served.wait(0.2)

    printer = threading.Thread(target=narrate, daemon=True)
    printer.start()
    try:
        report = service.serve()
    finally:
        listener.close()
        served.set()
        printer.join(timeout=5.0)
    print(f"SERVICE_DONE paused={report.paused} "
          f"stopped_globally={report.stopped_globally} "
          f"merged={report.merged_report_path}")
    return 0


def run_worker(args) -> int:
    dial = lambda: unix_connect(args.attach, timeout=5.0)  # noqa: E731
    if args.chaos_seed is not None:
        chaos = ChaosConfig(seed=args.chaos_seed, drop=args.drop,
                            dup=args.dup, delay=args.delay,
                            delay_max_s=args.delay_max)
        dial = ChaosDialer(dial, chaos)
        print(f"chaos transport armed: {chaos}")
    worker = ShardWorker(dial, worker_id=args.worker_id,
                         config=WorkerConfig(
                             seed=args.chaos_seed or 0))
    report = worker.run()
    for entry in report.shards:
        print(f"[shard] {entry['shard']} token={entry['token']} "
              f"outcome={entry['outcome']}")
    print(f"WORKER_DONE worker={report.worker_id} "
          f"shards={len(report.shards)} "
          f"reconnects={report.reconnect_attempts} "
          f"reason={report.reason!r}")
    return 0 if not report.paused else 3


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.listen:
        return run_coordinator(args)
    return run_worker(args)


if __name__ == "__main__":
    raise SystemExit(main())
