#!/usr/bin/env python3
"""Certify the paper's guarantees for every registered code/scheme pair.

Unlike the sampling campaigns, the certifier machine-checks the claim
matrix itself: every 1- and 2-bit strike across every Figure 5 placement
is swept exhaustively (``--fast``, the CI gate), and ``--full`` adds the
adversarial tiers — contiguous bursts, stratified random multi-bit
patterns — plus the arithmetic deltas probing residue coverage.  One
``CERTIFICATE_<scheme>.json`` artifact lands per scheme, recording each
claim's verdict, swept space, and (on failure) a weight-minimal
counterexample.

With ``--cache-dir`` the sweeps route through the crash-safe
:class:`~repro.certify.store.CertificateStore`: unchanged schemes are
served from verified cache entries (no strike re-enumerated), drifted
schemes recertify incrementally, and the summary reports hit/miss/
stale-served counters; ``--strict`` refuses degraded (stale)
certificates instead of serving them marked.

Exit status is the number of schemes whose certificate failed, so the
script doubles as a CI gate::

    python examples/certify_schemes.py --fast
    python examples/certify_schemes.py --full --out artifacts/
    python examples/certify_schemes.py --scheme secded-dp --scheme mod7
    python examples/certify_schemes.py --cache-dir .cert-cache
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
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="serve certificates from this crash-safe "
                             "store, sweeping only on miss or drift")
    parser.add_argument("--strict", action="store_true",
                        help="refuse stale certificates instead of "
                             "serving them marked (with --cache-dir)")
    return parser.parse_args()


def certify_direct(names, mode, args, registry):
    """The original store-less path: sweep every scheme, every time."""
    failed = 0
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
    return failed


def certify_cached(names, mode, args, registry):
    """Serve through the certificate store; sweep only when needed."""
    import json
    import os

    from repro.certify import CertificateService, CertificateStore
    from repro.errors import StaleCertificate

    store = CertificateStore(args.cache_dir)
    service = CertificateService(store, mode=mode, seed=args.seed,
                                 strict=args.strict)
    failed = 0
    width = max(len(name) for name in names)
    for name in names:
        started = time.perf_counter()
        try:
            served = service.lookup(name)
        except StaleCertificate as exc:
            print(f"  {name:<{width}}  REFUSED (strict): {exc}")
            failed += 1
            continue
        elapsed = time.perf_counter() - started
        certificate = served.payload["certificate"]
        verdict = "PASS" if certificate["passed"] else "FAIL"
        print(f"  {name:<{width}}  {verdict}  "
              f"{certificate['strikes_swept']:>7} strikes  "
              f"{elapsed:6.2f}s  [{served.cache}]")
        if not certificate["passed"]:
            failed += 1
            for claim_name in certificate["violated"]:
                report = certificate["claims"][claim_name]
                print(f"    violated: {claim_name} "
                      f"({report['violations']} strikes)")
                print(f"    counterexample: {report['counterexample']}")
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            path = os.path.join(args.out, f"CACHED_{name}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(served.payload, handle, sort_keys=True,
                          indent=2)
            print(f"    wrote {path}")
    stats = service.stats()
    print(f"\ncache: {stats['hits']} hit(s), {stats['misses']} miss(es), "
          f"{stats['incremental']} incremental, "
          f"{stats['stale_served']} stale-served, "
          f"{stats['refusals']} refusal(s), "
          f"{stats['quarantined']} quarantined")
    return failed


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
    if args.cache_dir:
        failed = certify_cached(names, mode, args, registry)
    else:
        failed = certify_direct(names, mode, args, registry)
    print(f"\n{len(names) - failed}/{len(names)} schemes certified")
    return failed


if __name__ == "__main__":
    sys.exit(main())
