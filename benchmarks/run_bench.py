#!/usr/bin/env python
"""Benchmark driver — emits ``BENCH_codec.json`` / ``BENCH_sim.json``.

The default (codec) mode measures the scalar Python ECC codec against
the vectorized batch layer (:mod:`repro.ecc.vectorized`) on three axes:

* per-code encode/decode ops/s over a large word batch;
* warp-wide register reads (32 lanes per call) through
  ``SwapScheme.read_many`` versus 32 scalar ``read`` calls — the GPU
  simulator's hot path;
* end-to-end gate-campaign trials/s through the injection engine's
  batched classification.

``--sim`` switches to the simulator benchmark, which measures the
trial-batched tensor executor (:mod:`repro.gpu.tensor`) against the
scalar per-trial loop through the injection engine's GPU fault sweeps:

* per-workload scalar vs. batched campaign trials/s and the speedup;
* a campaign headline row — engine-level trials/s on the ``saxpy``
  micro-workload, the number the BENCH_sim performance contract in
  EXPERIMENTS.md pins a floor under.

Run either from the repo root::

    PYTHONPATH=src python benchmarks/run_bench.py [--smoke] \
        [--output BENCH_codec.json]
    PYTHONPATH=src python benchmarks/run_bench.py --sim [--smoke] \
        [--output BENCH_sim.json]

``--smoke`` shrinks every workload for CI; the JSON schemas are
documented in EXPERIMENTS.md ("Codec benchmark harness" and "Simulator
benchmark harness").  Compare two runs of the same schema with::

    python benchmarks/run_bench.py --compare old.json new.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from datetime import datetime, timezone
from typing import Callable, Dict, Sequence

SCHEMA = "swapcodes-bench-codec/1"
SIM_SCHEMA = "swapcodes-bench-sim/2"

#: workloads timed by the simulator benchmark: the two bench
#: micro-kernels plus three paper programs spanning the instruction mix
#: (fp64 elimination, divergent int traversal, shuffle-heavy fp32)
SIM_WORKLOADS = ("saxpy", "fxp-stream", "gaussian", "bfs", "snap")


def _best_seconds(func: Callable[[], None], repeats: int) -> float:
    """Wall-clock seconds of the fastest of ``repeats`` runs of ``func``."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def bench_codes(words: int, repeats: int, rng) -> Dict[str, Dict[str, float]]:
    """Scalar vs. vectorized encode/decode ops/s for each swept code."""
    import numpy as np
    from repro.ecc import HammingSec, HsiaoSecDed, ParityCode, ResidueCode, \
        TedCode

    codes = {
        "secded-39-32": HsiaoSecDed(),
        "sec-38-32": HammingSec(),
        "ted-39-32": TedCode(),
        "mod7": ResidueCode(7),
        "parity-32": ParityCode(),
    }
    data = rng.integers(0, 2**32, size=words, dtype=np.uint64)
    results: Dict[str, Dict[str, float]] = {}
    for name, code in codes.items():
        check = code.encode_many(data)
        # Corrupt a third of the words with single-bit data errors so the
        # decoder exercises every verdict, not just the clean fast path.
        bad = data.copy()
        struck = rng.integers(0, 3, size=words) == 0
        bad[struck] ^= np.uint64(1) << rng.integers(
            0, code.data_bits, size=int(struck.sum()), dtype=np.uint64)

        bad_list = [int(value) for value in bad]
        check_list = [int(value) for value in check]
        scalar_decode = _best_seconds(
            lambda: [code.decode(d, c)
                     for d, c in zip(bad_list, check_list)], repeats)
        vector_decode = _best_seconds(
            lambda: code.decode_many(bad, check), repeats)
        scalar_encode = _best_seconds(
            lambda: [code.encode(d) for d in bad_list], repeats)
        vector_encode = _best_seconds(
            lambda: code.encode_many(bad), repeats)
        results[name] = {
            "scalar_decode_ops_per_s": words / scalar_decode,
            "vector_decode_ops_per_s": words / vector_decode,
            "decode_speedup": scalar_decode / vector_decode,
            "scalar_encode_ops_per_s": words / scalar_encode,
            "vector_encode_ops_per_s": words / vector_encode,
            "encode_speedup": scalar_encode / vector_encode,
        }
    return results


def bench_warp_read(batches: int, repeats: int, rng) -> Dict[str, float]:
    """Warp-wide register-read decode: scalar loop vs. ``read_many``.

    Mirrors the simulator's read-port granularity: ``WarpState`` gathers
    every tainted lane of every source register of an instruction —
    up to 3 registers x 32 lanes — into ONE ``read_many`` call (see
    ``repro.gpu.warp._check_tainted_read``).  The scalar baseline is the
    pre-batching behaviour: one ``scheme.read`` per lane.  A
    single-register (32-lane) breakdown is reported alongside.
    """
    import numpy as np
    from repro.ecc import SecDedDpSwap

    scheme = SecDedDpSwap()
    lanes = 32
    registers = 3  # a 3-operand instruction (e.g. fused multiply-add)
    span = lanes * registers
    values = rng.integers(0, 2**32, size=batches * span, dtype=np.uint64)
    words = [scheme.write_pair(int(value)) for value in values]
    # Strike one lane per warp-read so each batch carries a real error.
    for index in range(0, len(words), span):
        words[index] = words[index].with_data_error(
            1 << int(rng.integers(0, 32)))
    data = np.array([word.data for word in words], dtype=np.uint64)
    check = np.array([word.check for word in words], dtype=np.uint64)
    dp = np.array([word.dp for word in words], dtype=np.uint64)

    def scalar_pass():
        for word in words:
            scheme.read(word)

    def warp_pass(width):
        def run():
            for start in range(0, len(words), width):
                end = start + width
                scheme.read_many(data[start:end], check[start:end],
                                 dp[start:end])
        return run

    scalar = _best_seconds(scalar_pass, repeats)
    vector = _best_seconds(warp_pass(span), repeats)
    single = _best_seconds(warp_pass(lanes), repeats)
    reads = batches * span
    return {
        "scheme": scheme.name,
        "lanes": lanes,
        "registers_per_read": registers,
        "words_per_call": span,
        "batches": batches,
        "scalar_reads_per_s": reads / scalar,
        "vector_reads_per_s": reads / vector,
        "speedup": scalar / vector,
        "single_register": {
            "words_per_call": lanes,
            "vector_reads_per_s": reads / single,
            "speedup": scalar / single,
        },
    }


def bench_campaign(samples: int, sites: int) -> Dict[str, float]:
    """Gate-campaign trials/s through the engine's batched classification."""
    from repro.inject.engine import BatchSpec, run_gate_batch

    params = {"unit": "fxp-add-32", "site_count": sites,
              "scheme": "secded-dp"}
    batch = BatchSpec(index=0, size=samples, seed=3)
    start = time.perf_counter()
    payload = run_gate_batch(params, None, batch)
    seconds = time.perf_counter() - start
    return {
        "unit": params["unit"],
        "scheme": params["scheme"],
        "samples": samples,
        "sites": sites,
        "trials": payload["trials"],
        "seconds": seconds,
        "trials_per_s": payload["trials"] / seconds if seconds else 0.0,
    }


def bench_sim_workloads(names: Sequence[str], trials: int,
                        scalar_trials: int, trial_batch: int,
                        seed: int) -> Dict[str, Dict[str, float]]:
    """Scalar vs. trial-batched campaign trials/s per workload.

    Both paths run the same engine entry point
    (:func:`repro.inject.engine.run_gpu_batch`) under ``swap-ecc`` so
    the comparison includes plan drawing, state setup, and outcome
    classification — not just raw stepping.  The scalar loop times a
    smaller batch (``scalar_trials``) because it is orders of magnitude
    slower; rates are per-second so the rows stay comparable.
    """
    from repro.inject.engine import BatchSpec, run_gpu_batch

    rows: Dict[str, Dict[str, float]] = {}
    for name in names:
        params = {"workload": name, "compile_scheme": "swap-ecc",
                  "scale": 0.25, "trial_batch": trial_batch}
        # Warm-up: kernel compile, workload build and the tensor
        # module's first import happen once per process; keep them out
        # of both timed regions.
        run_gpu_batch(dict(params, tensor=False), None,
                      BatchSpec(index=0, size=1, seed=seed))
        run_gpu_batch(params, None, BatchSpec(index=0, size=1, seed=seed))
        start = time.perf_counter()
        run_gpu_batch(dict(params, tensor=False), None,
                      BatchSpec(index=0, size=scalar_trials, seed=seed))
        scalar_seconds = time.perf_counter() - start
        start = time.perf_counter()
        report = run_gpu_batch(params, None,
                               BatchSpec(index=0, size=trials, seed=seed))
        batched_seconds = time.perf_counter() - start
        scalar_rate = scalar_trials / scalar_seconds
        batched_rate = trials / batched_seconds
        rows[name] = {
            "compile_scheme": "swap-ecc",
            "scale": 0.25,
            "trials": trials,
            "scalar_trials": scalar_trials,
            "trial_batch": trial_batch,
            "scalar_trials_per_s": scalar_rate,
            "batched_trials_per_s": batched_rate,
            "speedup": batched_rate / scalar_rate,
            "fallbacks": report["payload"]["fallbacks"],
            "fired": report["trials"],
            "not_hit": report["counts"]["not_hit"],
        }
    return rows


def bench_sim_campaign(samples: int, trial_batch: int,
                       seed: int) -> Dict[str, float]:
    """The BENCH_sim headline: an engine GPU campaign on saxpy.

    The simulator analogue of :func:`bench_campaign`'s gate row — a
    small kernel where per-trial overhead, not kernel length, sets the
    rate.  ``samples_per_s`` counts every drawn fault plan;
    ``fired_per_s`` only the ``trials`` whose fault fired.  A short
    warm-up batch runs first so one-time costs (kernel compile, codec
    table construction) stay out of the timed region.
    """
    from repro.inject.engine import BatchSpec, run_gpu_batch

    params = {"workload": "saxpy", "compile_scheme": "swap-ecc",
              "scale": 1.0, "occurrence_max": 60,
              "trial_batch": trial_batch}
    run_gpu_batch(params, None,
                  BatchSpec(index=0, size=min(256, samples), seed=seed))
    start = time.perf_counter()
    payload = run_gpu_batch(params, None,
                            BatchSpec(index=0, size=samples, seed=seed))
    seconds = time.perf_counter() - start
    return {
        "workload": params["workload"],
        "compile_scheme": params["compile_scheme"],
        "scale": params["scale"],
        "occurrence_max": params["occurrence_max"],
        "samples": samples,
        "trial_batch": trial_batch,
        "trials": payload["trials"],
        "seconds": seconds,
        "samples_per_s": samples / seconds if seconds else 0.0,
        "fired_per_s": payload["trials"] / seconds if seconds else 0.0,
    }


def run_sim(smoke: bool = False, output: str = "BENCH_sim.json",
            seed: int = 3) -> Dict:
    """Run the simulator benchmark and write the JSON report."""
    trials = 192 if smoke else 1024
    scalar_trials = 16 if smoke else 48
    trial_batch = 96 if smoke else 512
    samples = 2048 if smoke else 16384
    campaign_batch = 1024 if smoke else 8192

    report = {
        "schema": SIM_SCHEMA,
        "generated": datetime.now(timezone.utc).isoformat(
            timespec="seconds"),
        "config": {"smoke": smoke, "trials": trials,
                   "scalar_trials": scalar_trials,
                   "trial_batch": trial_batch,
                   "campaign_samples": samples,
                   "campaign_trial_batch": campaign_batch, "seed": seed},
        "workloads": bench_sim_workloads(SIM_WORKLOADS, trials,
                                         scalar_trials, trial_batch, seed),
        "campaign": bench_sim_campaign(samples, campaign_batch, seed),
    }
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return report


def run(smoke: bool = False, output: str = "BENCH_codec.json",
        seed: int = 0) -> Dict:
    """Run every benchmark and write the JSON report to ``output``."""
    import numpy as np

    rng = np.random.default_rng(seed)
    words = 4096 if smoke else 65536
    batches = 256 if smoke else 2048
    repeats = 2 if smoke else 3
    samples = 120 if smoke else 600
    sites = 40 if smoke else 150

    report = {
        "schema": SCHEMA,
        "generated": datetime.now(timezone.utc).isoformat(
            timespec="seconds"),
        "config": {"smoke": smoke, "words": words, "warp_batches": batches,
                   "repeats": repeats, "campaign_samples": samples,
                   "campaign_sites": sites, "seed": seed},
        "codes": bench_codes(words, repeats, rng),
        "warp_read": bench_warp_read(batches, repeats, rng),
        "campaign": bench_campaign(samples, sites),
    }
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return report


def summarize_sim(report: Dict) -> str:
    """Human-readable digest of one simulator report."""
    lines = [f"simulator benchmark ({report['generated']}, "
             f"smoke={report['config']['smoke']})"]
    lines.append(f"{'workload':<12} {'scalar t/s':>12} {'batched t/s':>12} "
                 f"{'speedup':>9} {'fired':>6} {'not_hit':>8}")
    for name in SIM_WORKLOADS:
        row = report["workloads"][name]
        lines.append(f"{name:<12} {row['scalar_trials_per_s']:>12.0f} "
                     f"{row['batched_trials_per_s']:>12.0f} "
                     f"{row['speedup']:>8.1f}x {row['fired']:>6d} "
                     f"{row['not_hit']:>8d}")
    campaign = report["campaign"]
    lines.append(
        f"campaign ({campaign['workload']}, {campaign['compile_scheme']}, "
        f"batch {campaign['trial_batch']}): {campaign['samples']} samples, "
        f"{campaign['trials']} fired, in {campaign['seconds']:.2f}s "
        f"({campaign['samples_per_s']:.0f} samples/s, "
        f"{campaign['fired_per_s']:.0f} fired/s)")
    return "\n".join(lines)


def summarize(report: Dict) -> str:
    """Human-readable digest of one report (codec or simulator)."""
    if report.get("schema") == SIM_SCHEMA:
        return summarize_sim(report)
    lines = [f"codec benchmark ({report['generated']}, "
             f"smoke={report['config']['smoke']})"]
    lines.append(f"{'code':<14} {'scalar dec/s':>14} {'vector dec/s':>14} "
                 f"{'speedup':>9}")
    for name, row in sorted(report["codes"].items()):
        lines.append(f"{name:<14} {row['scalar_decode_ops_per_s']:>14.0f} "
                     f"{row['vector_decode_ops_per_s']:>14.0f} "
                     f"{row['decode_speedup']:>8.1f}x")
    warp = report["warp_read"]
    lines.append(
        f"warp read ({warp['scheme']}, {warp['registers_per_read']} regs x "
        f"{warp['lanes']} lanes/call): {warp['scalar_reads_per_s']:.0f} -> "
        f"{warp['vector_reads_per_s']:.0f} reads/s "
        f"({warp['speedup']:.1f}x; single-register "
        f"{warp['single_register']['speedup']:.1f}x)")
    campaign = report["campaign"]
    lines.append(
        f"campaign ({campaign['unit']}, {campaign['scheme']}): "
        f"{campaign['trials']} trials in {campaign['seconds']:.2f}s "
        f"({campaign['trials_per_s']:.0f} trials/s)")
    return "\n".join(lines)


def compare(old_path: str, new_path: str) -> str:
    """Delta of two same-schema benchmark reports (new relative to old)."""
    with open(old_path, encoding="utf-8") as handle:
        old = json.load(handle)
    with open(new_path, encoding="utf-8") as handle:
        new = json.load(handle)
    if old.get("schema") != new.get("schema"):
        raise SystemExit(f"schema mismatch: {old.get('schema')} vs "
                         f"{new.get('schema')}")
    lines = [f"comparing {new_path} against {old_path}"]
    if new.get("schema") == SIM_SCHEMA:
        for name in sorted(set(old["workloads"]) & set(new["workloads"])):
            before = old["workloads"][name]["batched_trials_per_s"]
            after = new["workloads"][name]["batched_trials_per_s"]
            lines.append(f"{name:<14} batched       {after / before:>6.2f}x "
                         f"of prior run")
        before = old["campaign"]["fired_per_s"]
        after = new["campaign"]["fired_per_s"]
        lines.append(f"campaign       fired/s       {after / before:>6.2f}x "
                     f"of prior run")
        return "\n".join(lines)
    for name in sorted(set(old["codes"]) & set(new["codes"])):
        before = old["codes"][name]["vector_decode_ops_per_s"]
        after = new["codes"][name]["vector_decode_ops_per_s"]
        lines.append(f"{name:<14} vector decode {after / before:>6.2f}x "
                     f"of prior run")
    before = old["warp_read"]["vector_reads_per_s"]
    after = new["warp_read"]["vector_reads_per_s"]
    lines.append(f"warp read      vector        {after / before:>6.2f}x "
                 f"of prior run")
    before = old["campaign"]["trials_per_s"]
    after = new["campaign"]["trials_per_s"]
    lines.append(f"campaign       trials/s      {after / before:>6.2f}x "
                 f"of prior run")
    return "\n".join(lines)


def main(argv=None) -> int:
    """Command-line entry point."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized workloads")
    parser.add_argument("--sim", action="store_true",
                        help="run the simulator benchmark instead of "
                             "the codec benchmark")
    parser.add_argument("--output", default=None,
                        help="where to write the JSON report "
                             "(default BENCH_codec.json, or BENCH_sim.json "
                             "with --sim; '' to skip writing)")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two existing reports and exit")
    arguments = parser.parse_args(argv)
    if arguments.compare:
        print(compare(*arguments.compare))
        return 0
    if arguments.sim:
        output = arguments.output
        if output is None:
            output = "BENCH_sim.json"
        seed = 3 if arguments.seed is None else arguments.seed
        report = run_sim(smoke=arguments.smoke, output=output, seed=seed)
    else:
        output = arguments.output
        if output is None:
            output = "BENCH_codec.json"
        seed = 0 if arguments.seed is None else arguments.seed
        report = run(smoke=arguments.smoke, output=output, seed=seed)
    arguments.output = output
    print(summarize(report))
    if arguments.output:
        print(f"wrote {arguments.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
