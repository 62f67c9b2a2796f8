"""The six-unit injection campaign behind Figures 10 and 11."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import InjectionError
from repro.gates.float_units import (FP32, FP64, build_fp_add_unit,
                                     build_fp_mad_unit)
from repro.gates.multiplier import build_add_unit, build_mad_unit
from repro.gates.netlist import Netlist
from repro.inject.hamartia import CampaignResult, FaultInjector
from repro.inject.operands import OperandTrace, synthetic_operands

#: the six arithmetic units of Figure 10, in the paper's display order
UNIT_ORDER = ("fxp-add-32", "fxp-mad-32", "fp-add-32", "fp-mad-32",
              "fp-add-64", "fp-mad-64")

_UNIT_SPECS: Dict[str, Tuple[Callable[[], Netlist], str, Sequence[str]]] = {
    "fxp-add-32": (lambda: build_add_unit(32), "int_add", ("a", "b")),
    "fxp-mad-32": (lambda: build_mad_unit(32), "int_mad", ("a", "b", "c")),
    "fp-add-32": (lambda: build_fp_add_unit(FP32), "fp32_add", ("x", "y")),
    "fp-mad-32": (lambda: build_fp_mad_unit(FP32), "fp32_mad",
                  ("a", "b", "c")),
    "fp-add-64": (lambda: build_fp_add_unit(FP64), "fp64_add", ("x", "y")),
    "fp-mad-64": (lambda: build_fp_mad_unit(FP64), "fp64_mad",
                  ("a", "b", "c")),
}


def build_unit(name: str) -> Netlist:
    """Instantiate one of the Figure 10 arithmetic units by name."""
    if name not in _UNIT_SPECS:
        raise InjectionError(
            f"unknown unit {name!r}; choose from {UNIT_ORDER}")
    builder, __, __ = _UNIT_SPECS[name]
    return builder()


def unit_inputs(name: str, count: int, seed: int = 0,
                trace: Optional[OperandTrace] = None
                ) -> Dict[str, List[int]]:
    """Operand samples for one unit, traced if available else synthetic."""
    if name not in _UNIT_SPECS:
        raise InjectionError(
            f"unknown unit {name!r}; choose from {UNIT_ORDER}")
    if count <= 0:
        raise InjectionError(
            f"operand count must be positive, got {count}; an empty "
            f"operand set would make the campaign vacuously masked")
    __, kind, buses = _UNIT_SPECS[name]
    if trace is not None:
        tuples = trace.sample(kind, count, seed)
    else:
        tuples = synthetic_operands(kind, count, seed)
    return {bus: [t[index] for t in tuples]
            for index, bus in enumerate(buses)}


def run_unit_campaign(name: str, sample_count: int = 1000,
                      site_count: Optional[int] = 300, seed: int = 0,
                      trace: Optional[OperandTrace] = None
                      ) -> CampaignResult:
    """One unit's single-event campaign (Section IV-A's 10k-pair study).

    ``sample_count`` plays the role of the paper's 10,000 input pairs and
    ``site_count`` bounds how many fault sites are swept (None = all).
    """
    unit = build_unit(name)
    samples = unit_inputs(name, sample_count, seed, trace)
    injector = FaultInjector(unit)
    return injector.run(samples, site_count=site_count, seed=seed)


def run_full_campaign(sample_count: int = 1000,
                      site_count: Optional[int] = 300, seed: int = 0,
                      trace: Optional[OperandTrace] = None,
                      units: Sequence[str] = UNIT_ORDER, *,
                      journal_path: Optional[str] = None,
                      journal_fsync: bool = False,
                      engine_config=None, supervisor=None,
                      salvage: bool = False,
                      shards: Optional[int] = None,
                      fabric_dir: Optional[str] = None
                      ) -> Dict[str, CampaignResult]:
    """Campaigns for every Figure 10 unit, keyed by unit name.

    Runs through the resilient campaign engine: each unit sweeps in a
    crash-isolated worker and, given ``journal_path``, streams its
    batches to a JSONL journal so an interrupted campaign resumes where
    it stopped.  Per-trial ECC classification inside each batch is
    vectorized (one :func:`~repro.inject.classify.detection_outcomes`
    decoder pass per batch, not one scalar decode per trial).  The default configuration reproduces the legacy
    single-shot sweep exactly (one batch of ``sample_count`` samples per
    unit, no early stopping); pass ``engine_config`` (an
    :class:`~repro.inject.engine.EngineConfig`) for batched sweeps with
    Wilson-interval early stopping, timeouts, and retries — then
    ``engine_config.batch_size``/``max_batches`` bound the work and
    ``sample_count`` is ignored.

    Units that crash or hang are recorded in the engine journal and
    omitted from the returned dict instead of aborting the campaign.
    ``journal_fsync=True`` fsyncs the journal after every record —
    slower, but a ``kill -9`` mid-campaign loses at most one torn final
    line, which :meth:`~repro.inject.journal.JournalState.load`
    tolerates on resume.

    The sweep runs under a
    :class:`~repro.inject.supervisor.CampaignSupervisor` by default:
    SIGTERM/SIGINT drain gracefully (journal a ``campaign_paused``
    record and return the units finished so far; re-invoking with the
    same journal resumes to identical final counts), crash-looping
    units are quarantined instead of retried forever, and any
    configured worker resource budget is enforced.  Pass a
    :class:`~repro.inject.supervisor.SupervisorConfig` (or a prebuilt
    supervisor) as ``supervisor`` to tune the policy, or
    ``supervisor=False`` for the bare PR 1 engine.  ``salvage=True``
    truncates a corrupt journal at its first bad record (detected by
    per-record CRC32) instead of raising, re-deriving the lost batches
    from their deterministic seeds.

    ``shards=N`` opts the campaign into the distributed fabric
    (:mod:`repro.inject.fabric`): the units are partitioned across ``N``
    leased shards under ``fabric_dir`` (defaults to
    ``<journal_path>.fabric`` when a journal path is given).  One
    coordinator forks a holder process per lease, each running its
    shard under its own supervised engine and tamper-evident journal.
    A holder that dies has its shard re-leased to a fresh holder under
    the next fencing token as soon as it exits, a crashed coordinator
    resumes from its own journal, and the per-shard journals merge
    deterministically into the counts a single engine reaches.
    ``supervisor`` is ignored in fabric mode — every holder runs under
    its own supervisor.  Shards journal and merge their units by kind
    and params alone, so ``trace`` cannot be combined with ``shards``:
    it raises :class:`~repro.errors.FabricConfigError`.
    """
    import dataclasses

    from repro.inject.engine import (CampaignEngine, EngineConfig,
                                     gate_work_unit, merged_gate_results)
    from repro.inject.supervisor import coerce_supervisor
    if engine_config is None:
        engine_config = EngineConfig(
            batch_size=sample_count, max_batches=1, ci_half_width=None,
            timeout_s=None, journal_fsync=journal_fsync, salvage=salvage)
    else:
        overrides = {}
        if journal_fsync and not engine_config.journal_fsync:
            overrides["journal_fsync"] = True
        if salvage and not engine_config.salvage:
            overrides["salvage"] = True
        if overrides:
            engine_config = dataclasses.replace(engine_config, **overrides)
    work = [gate_work_unit(name, site_count=site_count, seed=seed + index,
                           trace=trace)
            for index, name in enumerate(units)]
    if shards is not None:
        from repro.inject.fabric import FabricConfig, run_fabric_campaign
        if fabric_dir is None:
            if journal_path is None:
                raise InjectionError(
                    "a sharded campaign needs a fabric_dir (or a "
                    "journal_path to derive one from)")
            fabric_dir = f"{journal_path}.fabric"
        fabric_report = run_fabric_campaign(
            work, fabric_dir,
            FabricConfig(shards=shards, engine=engine_config))
        merged = merged_gate_results(fabric_report.report)
        return {name: merged[name] for name in units if name in merged}
    supervisor = coerce_supervisor(supervisor)
    engine = CampaignEngine(engine_config, supervisor=supervisor)
    if supervisor is None:
        report = engine.run(work, journal_path)
    else:
        with supervisor:
            report = engine.run(work, journal_path)
    merged = merged_gate_results(report)
    return {name: merged[name] for name in units if name in merged}
