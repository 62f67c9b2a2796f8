#!/usr/bin/env python
"""Manufacture one repro bundle per headline failure mode, for CI.

Drives three real failures end to end and lets each one's capture hook
export a deterministic repro bundle:

1. **SIGKILL mid-lease** — a sharded toy campaign with work stealing
   disabled loses a leased holder to ``SIGKILL``; the terminal
   :class:`~repro.errors.FabricError` exports a ``journal-verify``
   bundle freezing the victim's durable lease journals.
2. **Tampered scheme certification** — the fast certifier runs a
   SEC-DED-DP scheme with a zeroed parity column; the FAILED
   certificate exports a ``certify`` bundle carrying the violated
   claims and minimal counterexample.
3. **Containment violation** — a campaign compiled with the
   ``swdup-late-check`` tampered pass leaks a detected error to memory;
   the engine's terminal-failure hook exports a ``ladder`` bundle with
   the exact fault plan, seed, and workload.

Every bundle lands under ``--out``; replay them all (in a fresh
process) with ``python examples/replay_bundle.py <out>``.  Exits
nonzero if any expected bundle failed to materialize.

Usage::

    PYTHONPATH=src python tools/make_repro_bundles.py --out bundles
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import tempfile
import threading
import time


def make_lease_bundle(out_dir: str) -> None:
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    from tests.inject.fabric_driver import (granted_holders, toy_config,
                                            toy_units)

    from repro.errors import FabricError
    from repro.inject.fabric import CampaignFabric

    with tempfile.TemporaryDirectory(prefix="fabric-") as fabric_dir:
        fabric = CampaignFabric(
            toy_units(4, delay=0.1), os.path.join(fabric_dir, "fab"),
            toy_config(shards=2, lease_ttl_s=1.0, steal=False,
                       max_batches=4, bundle_dir=out_dir))
        result = {}

        def target():
            try:
                fabric.run()
            except FabricError as exc:
                result["error"] = exc

        thread = threading.Thread(target=target, daemon=True)
        thread.start()
        deadline = time.time() + 30
        victim = None
        while time.time() < deadline and victim is None:
            granted = granted_holders(fabric.fabric_dir)
            for holder, process in sorted(fabric.processes.items()):
                if holder in granted and process.is_alive():
                    victim = process
                    break
            time.sleep(0.01)
        if victim is None:
            raise SystemExit("no leased holder appeared to SIGKILL")
        time.sleep(0.3)  # let it journal something durable first
        os.kill(victim.pid, signal.SIGKILL)
        thread.join(60)
        if "error" not in result:
            raise SystemExit("lost lease did not fail the fabric")
    print("lease bundle: fabric failed as designed "
          f"({result['error'].code})")


def make_certify_bundle(out_dir: str) -> None:
    from repro.certify import (Certifier, capture_certificate_bundle,
                               tampered_secded_dp)

    tamper = {"factory": "secded-dp", "kind": "zero-column",
              "position": 11}
    certificate = Certifier(mode="fast", seed=0).certify(
        tampered_secded_dp("zero-column", 11), name="secded-dp")
    if certificate.passed:
        raise SystemExit("tampered scheme certified clean?!")
    path = capture_certificate_bundle(certificate, out_dir,
                                      tamper=tamper)
    print(f"certify bundle: {os.path.basename(path)}")


def make_containment_bundle(out_dir: str) -> None:
    from repro.inject.engine import (CampaignEngine, EngineConfig,
                                     WorkUnit)

    config = EngineConfig(batch_size=4, max_batches=6,
                          bundle_dir=out_dir)
    unit = WorkUnit(unit_id="ladder-cv", kind="gpu-recovery", params={
        "workload": "snap", "scale": 0.1, "build_seed": 3,
        "tamper": {"pass": "swdup-late-check"}, "mode": "swdup"})
    report = CampaignEngine(config).run([unit])
    status = report.units["ladder-cv"].status
    if status != "crashed":
        raise SystemExit(f"tampered pass did not crash the unit "
                         f"(status={status})")
    print("containment bundle: unit crashed as designed")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True,
                        help="directory the bundles are exported to")
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)

    make_lease_bundle(args.out)
    make_certify_bundle(args.out)
    make_containment_bundle(args.out)

    bundles = sorted(name for name in os.listdir(args.out)
                     if name.startswith("bundle-"))
    print(f"exported {len(bundles)} bundle(s):")
    for name in bundles:
        print(f"  {name}")
    if len(bundles) < 3:
        print("expected at least 3 bundles", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
