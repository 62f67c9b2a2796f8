#!/usr/bin/env python3
"""Certify the paper's guarantees for every registered code/scheme pair.

Unlike the sampling campaigns, the certifier machine-checks the claim
matrix itself: every 1- and 2-bit strike across every Figure 5 placement
is swept exhaustively (``--fast``, the CI gate), and ``--full`` adds the
adversarial tiers — contiguous bursts, stratified random multi-bit
patterns — plus the arithmetic deltas probing residue coverage.  One
``CERTIFICATE_<scheme>.json`` artifact lands per scheme, recording each
claim's verdict, swept space, and (on failure) a weight-minimal
counterexample.  Every run sweeps from scratch: all 12 registered
schemes take a few seconds in either mode.

Exit status is the number of schemes whose certificate failed, so the
script doubles as a CI gate::

    python examples/certify_schemes.py --fast
    python examples/certify_schemes.py --full --out artifacts/
    python examples/certify_schemes.py --scheme secded-dp --scheme mod7
"""

import argparse
import sys
import time

from repro.certify import (certification_registry, certify_scheme,
                           write_certificate)


def parse_args():
    parser = argparse.ArgumentParser(
        description="machine-check the SwapCodes guarantee claim matrix")
    parser.add_argument("--scheme", action="append", default=None,
                        metavar="NAME", dest="schemes",
                        help="certify only this scheme (repeatable; "
                             "default: every registered scheme)")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--fast", action="store_true",
                      help="exhaustive 1-/2-bit sweep only (default)")
    mode.add_argument("--full", action="store_true",
                      help="add burst and random multi-bit tiers")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for the randomized tiers (default 0)")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="write CERTIFICATE_<scheme>.json files here")
    return parser.parse_args()


def main():
    args = parse_args()
    mode = "full" if args.full else "fast"
    registry = certification_registry()
    names = args.schemes or list(registry)
    unknown = [name for name in names if name not in registry]
    if unknown:
        print(f"unknown scheme(s): {', '.join(unknown)}; "
              f"registered: {', '.join(sorted(registry))}")
        return 2

    failed = 0
    print(f"certifying {len(names)} scheme(s), mode={mode}, "
          f"seed={args.seed}\n")
    width = max(len(name) for name in names)
    for name in names:
        started = time.perf_counter()
        certificate = certify_scheme(name, mode=mode, seed=args.seed)
        elapsed = time.perf_counter() - started
        verdict = "PASS" if certificate.passed else "FAIL"
        print(f"  {name:<{width}}  {verdict}  "
              f"{certificate.strikes_swept:>7} strikes  {elapsed:6.2f}s")
        if not certificate.passed:
            failed += 1
            for claim_name in certificate.violated:
                report = certificate.claims[claim_name]
                print(f"    violated: {claim_name} "
                      f"({report.violations} strikes)")
                print(f"    counterexample: {report.counterexample}")
        if args.out:
            path = write_certificate(certificate, args.out)
            print(f"    wrote {path}")
    print(f"\n{len(names) - failed}/{len(names)} schemes certified")
    return failed


if __name__ == "__main__":
    sys.exit(main())
