"""Figures 10 and 11: gate-level error patterns and SwapCodes SDC risk."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.ecc.swap import SwapScheme
from repro.experiments.common import render_table
from repro.inject import (SEVERITY_CLASSES, UNIT_ORDER, CampaignResult,
                          Estimate, OperandTrace, make_scheme,
                          run_full_campaign, sdc_risk_sweep,
                          severity_distribution)

#: the register-file codes swept in Figure 11, in display order
FIG11_CODE_ORDER = ("parity", "mod3", "mod7", "mod15", "mod31", "mod63",
                    "mod127", "ted", "secded-dp", "sec-dp")


def figure11_schemes() -> Dict[str, SwapScheme]:
    """SwapCodes organizations for each Figure 11 register-file code."""
    return {name: make_scheme(name) for name in FIG11_CODE_ORDER}


@dataclass
class InjectionStudy:
    """Campaign results plus the derived Figure 10/11 statistics."""

    campaigns: Dict[str, CampaignResult]
    severity: Dict[str, Dict[str, Estimate]]
    sdc_risk: Dict[str, Dict[str, Estimate]]

    def mean_sdc_risk(self, code: str) -> float:
        """SDC risk for one code averaged across the six units."""
        values = [self.sdc_risk[unit][code].mean
                  for unit in self.sdc_risk]
        return sum(values) / len(values)


def run_injection_study(sample_count: int = 1000,
                        site_count: Optional[int] = 300, seed: int = 0,
                        trace: Optional[OperandTrace] = None,
                        units: Sequence[str] = UNIT_ORDER,
                        journal_path: Optional[str] = None,
                        journal_fsync: bool = False,
                        engine_config=None, supervisor=None,
                        salvage: bool = False,
                        shards: Optional[int] = None,
                        fabric_dir: Optional[str] = None) -> InjectionStudy:
    """Run the six-unit campaign and fold in every Figure 11 code.

    ``journal_path``/``journal_fsync``/``engine_config`` flow to the
    resilient campaign engine: the study then checkpoints per batch
    (fsyncing each record when asked, so even ``kill -9`` loses at most
    one torn line), resumes after interruption, and isolates unit
    crashes (crashed units drop out of the study instead of aborting
    it).  ``supervisor``/``salvage`` flow to the campaign supervisor
    (on by default — see
    :func:`~repro.inject.campaign.run_full_campaign`): SIGTERM/SIGINT
    drain the study gracefully, poison units are quarantined, worker
    resource budgets are enforced, and journal corruption is detected
    by per-record CRC (and survived, with ``salvage=True``).
    ``shards=N`` runs the campaign on the distributed fabric
    (:mod:`repro.inject.fabric`): leased shards under ``fabric_dir`` run
    by one forked holder per lease, a dead holder's shard is re-leased
    as soon as it exits, the coordinator resumes from its own journal,
    and the per-shard journals merge deterministically; it cannot be
    combined with ``trace``.
    """
    campaigns = run_full_campaign(sample_count, site_count, seed, trace,
                                  units, journal_path=journal_path,
                                  journal_fsync=journal_fsync,
                                  engine_config=engine_config,
                                  supervisor=supervisor, salvage=salvage,
                                  shards=shards, fabric_dir=fabric_dir)
    schemes = figure11_schemes()
    severity = {}
    risk = {}
    for unit, campaign in campaigns.items():
        severity[unit] = severity_distribution(campaign)
        risk[unit] = {}
        for code_name, scheme in schemes.items():
            risk[unit].update(
                {code_name: sdc_risk_sweep(campaign, [scheme])[
                    scheme.name]})
    return InjectionStudy(campaigns, severity, risk)


def render_figure10(study: InjectionStudy) -> str:
    """Figure 10 as text: severity class fractions per unit."""
    headers = ["unit"] + [f"{name}-bit" for name in SEVERITY_CLASSES]
    rows = []
    for unit, distribution in study.severity.items():
        rows.append([unit] + [str(distribution[name])
                              for name in SEVERITY_CLASSES])
    return render_table(headers, rows)


def render_figure11(study: InjectionStudy) -> str:
    """Figure 11 as text: SDC risk per unit per register-file code."""
    codes = [code for code in FIG11_CODE_ORDER
             if any(code in study.sdc_risk[unit]
                    for unit in study.sdc_risk)]
    headers = ["unit"] + list(codes)
    rows = []
    for unit, risks in study.sdc_risk.items():
        rows.append([unit] + [f"{risks[code].mean * 100:.2f}%"
                              for code in codes])
    rows.append(["MEAN"] + [f"{study.mean_sdc_risk(code) * 100:.2f}%"
                            for code in codes])
    return render_table(headers, rows)
