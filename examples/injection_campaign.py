#!/usr/bin/env python3
"""Gate-level fault-injection campaign (Figures 10 and 11).

Builds the six pipelined arithmetic units, injects single-event transients
at random gates/flip-flops until each input pair sees an unmasked error
(the Hamartia methodology), then reports the output error patterns and the
SDC risk of SwapCodes under every register-file code.

The sweep runs on the resilient campaign engine: each unit executes in a
crash-isolated worker subprocess, and with ``--journal`` every batch
streams to an append-only, CRC-sealed JSONL checkpoint — kill the run at
any point and re-invoking the same command resumes where it stopped.
``--ci`` switches to batched sweeps with Wilson-interval early stopping.

The campaign supervisor is on by default: Ctrl-C or SIGTERM drains the
run gracefully (the batches in flight finish, a ``campaign_paused``
record lands in the journal, and resuming reaches counts identical to an
uninterrupted run), and crash-looping units are quarantined after
``--quarantine`` consecutive failures instead of aborting anything.
``--max-rss``/``--max-cpu`` cap each worker subprocess;
``--salvage`` resumes past a corrupted journal record by truncating at
the first bad line.

``--shards N`` runs the campaign on the distributed fabric instead of a
single engine: the units are split across ``N`` leased shards under
``<journal>.fabric``, one coordinator forks a holder process per lease,
and each shard runs its own supervised engine and tamper-evident
journal.  When a holder dies, its shard is re-granted to a fresh holder
under a new fencing token as soon as it exits.  A killed coordinator
resumes from its own journal, and the per-shard journals merge
deterministically into ``merged_report.json``, whose tables match the
single-engine run's.

Usage::

    python examples/injection_campaign.py [samples] [sites]
        [--journal PATH] [--ci HALF_WIDTH] [--batch N] [--timeout S]
        [--max-rss MB] [--max-cpu S] [--quarantine K]
        [--salvage] [--no-supervisor] [--shards N]

On a shared 2-vCPU VM the defaults (600 samples, 200 sites) finish in
about 2 s, and EXPERIMENTS.md's setting ``2000 400`` in about 6 s, with
the engine keeping one batch worker in flight per CPU.  Running one
worker at a time, the same commands took 2.6-3.0 s and 9.3-9.4 s (21 s
and 53 s with the earlier fan-out-cone re-sweep); the tables are
byte-identical.  The paper's 10,000-pair setting is
``python examples/injection_campaign.py 10000 None``.
"""

import argparse

from repro.experiments import (render_figure10, render_figure11,
                               run_injection_study)
from repro.inject import EngineConfig, ResourceBudget, SupervisorConfig


def parse_args():
    parser = argparse.ArgumentParser(
        description="Figure 10/11 gate-level injection campaign")
    parser.add_argument("samples", nargs="?", type=int, default=600,
                        help="input pairs per unit (paper: 10000)")
    parser.add_argument("sites", nargs="?", default="200",
                        help="fault sites per unit, or 'None' for all")
    parser.add_argument("--journal", default=None, metavar="PATH",
                        help="JSONL checkpoint journal; rerun with the "
                             "same path to resume an interrupted campaign")
    parser.add_argument("--ci", type=float, default=None,
                        metavar="HALF_WIDTH",
                        help="early-stop a unit once its Wilson 95%% CI "
                             "half-width drops below this (e.g. 0.01)")
    parser.add_argument("--batch", type=int, default=None, metavar="N",
                        help="samples per engine batch (default: all "
                             "samples in one batch)")
    parser.add_argument("--timeout", type=float, default=None, metavar="S",
                        help="per-batch wall-clock timeout in seconds")
    parser.add_argument("--max-rss", type=float, default=None, metavar="MB",
                        help="address-space cap per worker subprocess "
                             "(hogs die with MemoryError, binned as "
                             "resource_exhausted)")
    parser.add_argument("--max-cpu", type=float, default=None, metavar="S",
                        help="CPU-seconds cap per worker subprocess")
    parser.add_argument("--quarantine", type=int, default=5, metavar="K",
                        help="dead-letter a unit after K consecutive "
                             "failed batch attempts (default 5)")
    parser.add_argument("--salvage", action="store_true",
                        help="truncate a corrupt journal at its first bad "
                             "record instead of refusing to resume")
    parser.add_argument("--no-supervisor", action="store_true",
                        help="run the bare engine: no signal-safe drain, "
                             "no quarantine, no resource budgets")
    parser.add_argument("--shards", type=int, default=None, metavar="N",
                        help="run on the distributed fabric: split the "
                             "units across N leased shards, one forked "
                             "holder per lease (requires --journal for "
                             "the fabric dir)")
    return parser.parse_args()


def main():
    args = parse_args()
    if args.samples < 1:
        raise SystemExit(f"samples must be >= 1, got {args.samples}")
    if args.batch is not None and args.batch < 1:
        raise SystemExit(f"--batch must be >= 1, got {args.batch}")
    sites = None if args.sites == "None" else int(args.sites)
    if sites is not None and sites < 1:
        raise SystemExit(f"sites must be >= 1 or None, got {sites}")
    engine_config = None
    if args.ci is not None or args.batch is not None or \
            args.timeout is not None:
        batch = args.batch if args.batch is not None else \
            max(1, args.samples // 8)
        engine_config = EngineConfig(
            batch_size=batch,
            max_batches=max(1, -(-args.samples // batch)),
            ci_half_width=args.ci, timeout_s=args.timeout)
    if args.no_supervisor:
        supervisor = False
    else:
        budget = None
        if args.max_rss is not None or args.max_cpu is not None:
            budget = ResourceBudget(max_rss_mb=args.max_rss,
                                    max_cpu_s=args.max_cpu)
        supervisor = SupervisorConfig(budget=budget,
                                      quarantine_after=args.quarantine)
    if args.shards is not None:
        if args.shards < 1:
            raise SystemExit(f"--shards must be >= 1, got {args.shards}")
        if args.journal is None:
            raise SystemExit("--shards needs --journal (the fabric keeps "
                             "its journals under <journal>.fabric)")
    print(f"running campaigns: {args.samples} input pairs, "
          f"{'all' if sites is None else sites} fault sites per unit"
          + (f", journal={args.journal}" if args.journal else "")
          + (f", shards={args.shards}" if args.shards else ""))
    study = run_injection_study(
        sample_count=args.samples, site_count=sites,
        journal_path=args.journal, engine_config=engine_config,
        supervisor=supervisor, salvage=args.salvage, shards=args.shards)

    print("\nFigure 10 — unmasked error severity per unit")
    print(render_figure10(study))
    print("\nFigure 11 — SwapCodes SDC risk per register-file code")
    print(render_figure11(study))
    print("\npaper expectations: single-bit errors dominate; fp64 units "
          "show ~25% >=4-bit patterns;\nMod-3 stays under 5% SDC risk and "
          "Mod-127/TED under ~1%.")


if __name__ == "__main__":
    main()
