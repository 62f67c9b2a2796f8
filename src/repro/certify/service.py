"""Certification as a service: the store first, a sweep when needed.

:class:`CertificateService` answers "is this scheme certified under
this fault model?" from the :class:`~repro.certify.store.CertificateStore`
when it can and from a supervised certify sweep when it must:

* **hit** — the store holds a verified entry for the exact cache key;
  it is served byte-identically, no sweep runs.
* **incremental** — the scheme (or claim matrix) drifted from the
  newest cached certificate, but :func:`~repro.certify.store.touched_claims`
  proves only a subset of claims could have changed verdicts.  Only
  those claims' strike tiers re-sweep (a claim-subset
  :func:`~repro.inject.engine.certify_work_unit`); untouched claims are
  stitched forward with provenance.
* **miss** — no usable prior; a full sweep runs through the
  :class:`~repro.inject.engine.CampaignEngine`, journaled under the
  store's ``sweeps/<key>/`` so a SIGKILLed sweep resumes instead of
  restarting.
* **stale** — another process holds the key's single-flight lock.
  Graceful degradation serves the newest prior certificate marked
  ``staleness: {reason, superseded_by_key, age_s}``; ``strict=True``
  turns that into a typed :class:`~repro.errors.StaleCertificate`
  refusal instead (strict callers then wait on the lock).

The store is the only record: processes that want a certificate call
:meth:`CertificateService.lookup` against a shared cache dir, and the
store's per-key lock keeps their sweeps single-flight.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Sequence

from repro.errors import (CertificationError, CertStoreError,
                          StaleCertificate)
from repro.certify.claims import claim_matrix
from repro.certify.engine import certification_registry
from repro.certify.store import (CertificateStore, build_cache_payload,
                                 scheme_cache_identity, stitch_certificate,
                                 touched_claims)

__all__ = ["ServedCertificate", "CertificateService"]


@dataclass
class ServedCertificate:
    """One answer from the service: the payload plus how it was served.

    ``cache`` is one of ``hit`` (served verbatim from the store),
    ``miss`` (full sweep ran), ``incremental`` (partial re-sweep,
    untouched claims carried forward), or ``stale`` (prior certificate
    served under degradation, see ``staleness``).
    """

    payload: Dict[str, Any]
    key: str
    cache: str
    staleness: Optional[Dict[str, Any]] = None


class CertificateService:
    """Serve certificates from the store, sweeping only when needed.

    Cross-process single-flight is the store's fcntl key lock.
    ``engine_config`` overrides the sweep engine knobs — statistical
    knobs must stay fixed across the life of a cache dir, since resumed
    sweep journals pin them.
    """

    def __init__(self, store: CertificateStore, mode: str = "fast",
                 seed: int = 0, strict: bool = False,
                 engine_config: Any = None,
                 registry: Optional[Mapping[str, Callable[[], Any]]] = None,
                 lock_timeout_s: float = 120.0):
        self.store = store
        self.mode = mode
        self.seed = seed
        self.strict = strict
        self.lock_timeout_s = lock_timeout_s
        self._engine_config = engine_config
        self._registry = dict(registry) if registry is not None \
            else certification_registry()
        self.counters: Dict[str, int] = {
            "hits": 0, "misses": 0, "incremental": 0, "stale_served": 0,
            "refusals": 0, "sweeps": 0}

    def _count(self, name: str) -> None:
        self.counters[name] += 1

    def stats(self) -> Dict[str, int]:
        merged = dict(self.counters)
        merged["quarantined"] = self.store.counters["quarantined"]
        return merged

    # -- the lookup path ---------------------------------------------------

    def lookup(self, scheme_name: str,
               strict: Optional[bool] = None) -> ServedCertificate:
        """Serve ``scheme_name``'s certificate, sweeping if needed."""
        if scheme_name not in self._registry:
            raise CertificationError(
                f"unknown scheme {scheme_name!r}; registered: "
                f"{sorted(self._registry)}")
        strict = self.strict if strict is None else strict
        scheme = self._registry[scheme_name]()
        fingerprint, versions, fault_model, key = scheme_cache_identity(
            scheme, self.mode, self.seed)
        cached = self.store.get(key)
        if cached is not None:
            self._count("hits")
            return ServedCertificate(cached, key, "hit")
        lock = self.store.lock(key)
        if not lock.acquire(blocking=False):
            # someone else is sweeping this key right now
            degraded = self._serve_stale(scheme_name, key, strict)
            if degraded is not None:
                return degraded
            # no prior to degrade onto (or strict): wait our turn
            if not lock.acquire(blocking=True,
                                timeout_s=self.lock_timeout_s,
                                seed=self.seed):
                raise CertStoreError(
                    f"timed out after {self.lock_timeout_s}s waiting "
                    f"for the in-flight sweep of {scheme_name} "
                    f"(key {key[:12]}...)",
                    context={"scheme": scheme_name, "key": key})
        try:
            # double-check under the lock: the sweep we waited out (or
            # raced) may have published the entry already
            cached = self.store.get(key)
            if cached is not None:
                self._count("hits")
                return ServedCertificate(cached, key, "hit")
            return self._certify_under_lock(
                scheme_name, scheme, key, fingerprint, versions,
                fault_model)
        finally:
            lock.release()

    def _serve_stale(self, scheme_name: str, superseding_key: str,
                     strict: bool) -> Optional[ServedCertificate]:
        """Degrade onto the newest prior certificate, or refuse."""
        prior = self.store.latest(scheme_name)
        if prior is None:
            return None
        prior_key, created_at, payload = prior
        staleness = {
            "reason": "sweep_in_flight",
            "superseded_by_key": superseding_key,
            "age_s": max(0.0, time.time() - created_at),
        }
        if strict:
            self._count("refusals")
            raise StaleCertificate(
                f"certificate for {scheme_name} is stale (a sweep for "
                f"key {superseding_key[:12]}... is in flight) and "
                f"strict mode refuses degraded service",
                context={"scheme": scheme_name, "stale_key": prior_key,
                         "staleness": staleness})
        self._count("stale_served")
        return ServedCertificate(payload, prior_key, "stale",
                                 staleness=staleness)

    def _certify_under_lock(self, scheme_name: str, scheme: Any,
                            key: str, fingerprint: Mapping[str, Any],
                            versions: Mapping[str, int],
                            fault_model: Mapping[str, Any]
                            ) -> ServedCertificate:
        """Sweep (fully or incrementally) and publish the entry."""
        claims = claim_matrix(scheme)
        prior = self.store.latest(scheme_name)
        touched = None
        parent_key = None
        prior_payload: Optional[Dict[str, Any]] = None
        if prior is not None and prior[0] != key:
            parent_key, _, prior_payload = prior
            touched = touched_claims(prior_payload, fingerprint,
                                     versions, fault_model, claims)
        if touched is not None and len(touched) < len(claims):
            if touched:
                partial = self._sweep(scheme_name, scheme, key,
                                      only=sorted(touched))
            else:
                # the delta sits in fingerprint components no claim
                # depends on: nothing to re-sweep, carry it all forward
                partial = {part: value for part, value in
                           (prior_payload.get("certificate") or {}).items()
                           if part != "claims"}
                partial["claims"] = {}
                partial["strikes_swept"] = 0
                partial["tiers"] = {}
            certificate, provenance = stitch_certificate(
                partial, prior_payload, touched, parent_key)
            cache_state = "incremental"
            self._count("incremental")
        else:
            certificate = self._sweep(scheme_name, scheme, key)
            provenance = None
            cache_state = "miss"
            self._count("misses")
        payload = build_cache_payload(key, scheme_name, certificate,
                                      fingerprint, versions, fault_model,
                                      provenance)
        self.store.put(key, payload)
        self.store.set_latest(scheme_name, key)
        return ServedCertificate(payload, key, cache_state)

    def _sweep(self, scheme_name: str, scheme: Any, key: str,
               only: Optional[Sequence[str]] = None) -> Dict[str, Any]:
        """One supervised certify sweep; the certificate dict comes back.

        The engine journal lives under the store's ``sweeps/<key>/``,
        so a service killed mid-sweep resumes the sweep on the next
        request for the same key rather than starting over — and a
        *finished* journal replays to the identical certificate without
        re-enumerating a single strike.
        """
        from repro.inject.engine import (CampaignEngine, EngineConfig,
                                         certify_work_unit)
        self._count("sweeps")
        config = self._engine_config
        if config is None:
            config = EngineConfig(batch_size=1, max_batches=1,
                                  ci_half_width=None, timeout_s=None,
                                  isolation="inline")
        unit = certify_work_unit(scheme_name, mode=self.mode,
                                 seed=self.seed, scheme_instance=scheme,
                                 claims=only)
        journal_path = self.store.sweep_journal(key)
        report = CampaignEngine(config).run(
            [unit], journal_path,
            journal_header={"kind": "cert-service-sweep", "key": key,
                            "scheme": scheme_name, "mode": self.mode,
                            "seed": self.seed,
                            "claims": sorted(only) if only else None})
        unit_report = report.units[unit.unit_id]
        if unit_report.status != "completed" or not unit_report.payloads:
            raise CertificationError(
                f"certify sweep for {scheme_name} (key {key[:12]}...) "
                f"ended {unit_report.status!r}: {unit_report.detail}",
                context={"scheme": scheme_name, "key": key,
                         "status": unit_report.status})
        return unit_report.payloads[-1]
