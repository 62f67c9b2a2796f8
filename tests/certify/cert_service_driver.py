"""Crash-test processes for the certificate store and service.

The SIGKILL tests need a certificate lookup and a store writer they can
kill from outside, so this module runs each role as a process of its
own::

    PYTHONPATH=src python -m tests.certify.cert_service_driver \
        --lookup /tmp/cert-cache --scheme secded-dp

    PYTHONPATH=src python -m tests.certify.cert_service_driver \
        --churn /tmp/cert-cache --key-count 4

``--lookup`` serves one certificate through
:meth:`~repro.certify.service.CertificateService.lookup` and prints one
``LOOKUP_OK`` line.  ``--hold-file`` makes every sweep spin until the
file disappears (after printing ``SWEEP_STARTED``), giving the kill
tests a deterministic mid-sweep window.  ``--churn`` rewrites store
entries in a tight loop — the victim for the kill-during-put
torn-entry test.
"""

import argparse
import os
import sys
import time

from repro.certify.service import CertificateService
from repro.certify.store import CertificateStore


class HoldingService(CertificateService):
    """A service whose sweeps announce themselves and then wait."""

    hold_file = None

    def _sweep(self, scheme_name, scheme, key, only=None):
        print(f"SWEEP_STARTED scheme={scheme_name} key={key}",
              flush=True)
        while self.hold_file and os.path.exists(self.hold_file):
            time.sleep(0.02)
        return super()._sweep(scheme_name, scheme, key, only=only)


def run_lookup(args):
    service = HoldingService(CertificateStore(args.lookup),
                             mode=args.mode, seed=args.seed,
                             strict=args.strict)
    service.hold_file = args.hold_file
    served = service.lookup(args.scheme)
    print(f"LOOKUP_OK cache={served.cache} key={served.key} "
          f"passed={served.payload['certificate']['passed']}",
          flush=True)
    return 0


def run_churn(args):
    """Rewrite entries forever; the parent SIGKILLs us mid-write."""
    store = CertificateStore(args.churn)
    print("CHURNING", flush=True)
    iteration = 0
    while True:
        key = f"{'%02d' % (iteration % args.key_count)}" + "ab" * 31
        payload = {"version": 1, "iteration": iteration,
                   "filler": "x" * 2048}
        store.put(key, payload)
        iteration += 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    role = parser.add_mutually_exclusive_group(required=True)
    role.add_argument("--lookup", metavar="CACHE_DIR")
    role.add_argument("--churn", metavar="CACHE_DIR")
    parser.add_argument("--mode", default="fast")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--strict", action="store_true")
    parser.add_argument("--hold-file", default=None)
    parser.add_argument("--scheme", default="parity")
    parser.add_argument("--key-count", type=int, default=4)
    args = parser.parse_args(argv)
    if args.lookup:
        return run_lookup(args)
    return run_churn(args)


if __name__ == "__main__":
    sys.exit(main())
