"""Figures 12, 13, 15, and 16: performance and code-property studies."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.compiler import MIX_CATEGORIES
from repro.experiments.common import (SchemeRun, render_table, run_matrix,
                                      slowdown)
from repro.gpu import Device
from repro.workloads import ALL_ORDER

#: Figure 12's evaluated schemes, in display order
FIG12_SCHEMES = ("baseline", "swdup", "swap-ecc", "pre-addsub", "pre-mad")

#: Figure 15's inter-thread configurations
FIG15_SCHEMES = ("baseline", "swdup", "interthread", "interthread-nocheck")

#: Figure 16's projected future-predictor tiers
FIG16_SCHEMES = ("baseline", "pre-mad", "pre-fxp", "pre-fp-addsub",
                 "pre-fp-mad")


@dataclass
class PerformanceStudy:
    """A (workload x scheme) grid plus derived slowdowns."""

    grid: Dict[str, Dict[str, SchemeRun]]
    schemes: Sequence[str]

    def slowdowns(self, scheme: str) -> Dict[str, float]:
        out = {}
        for workload, runs in self.grid.items():
            run = runs[scheme]
            if run.rejected:
                continue
            out[workload] = slowdown(run, runs["baseline"])
        return out

    def mean_slowdown(self, scheme: str) -> float:
        values = list(self.slowdowns(scheme).values())
        return sum(values) / len(values) if values else float("nan")

    def worst_slowdown(self, scheme: str):
        values = self.slowdowns(scheme)
        workload = max(values, key=values.get)
        return values[workload], workload

    def all_verified(self) -> bool:
        return all(run.verified or run.rejected
                   for runs in self.grid.values()
                   for run in runs.values())

    def bloat(self, workload: str, scheme: str) -> float:
        """Dynamic instruction bloat versus the baseline binary."""
        runs = self.grid[workload]
        return runs[scheme].mix.bloat(runs["baseline"].mix.total)

    def mix_fractions(self, workload: str, scheme: str) -> Dict[str, float]:
        """Figure 13 stack: per-category fraction of baseline dynamic count."""
        runs = self.grid[workload]
        fractions = runs[scheme].mix.as_fractions(
            runs["baseline"].mix.total)
        fractions["plain_eligible"] = (
            runs[scheme].mix.plain_eligible / runs["baseline"].mix.total)
        return fractions

    def mean_bloat(self, scheme: str) -> float:
        values = [self.bloat(workload, scheme)
                  for workload, runs in self.grid.items()
                  if not runs[scheme].rejected]
        return sum(values) / len(values)

    def mean_checking_fraction(self, scheme: str) -> float:
        values = []
        for workload, runs in self.grid.items():
            if runs[scheme].rejected:
                continue
            values.append(self.mix_fractions(workload, scheme)["checking"])
        return sum(values) / len(values)


def run_performance_study(schemes: Sequence[str] = FIG12_SCHEMES,
                          workloads: Sequence[str] = ALL_ORDER,
                          scale: float = 1.0, seed: int = 0,
                          device: Optional[Device] = None
                          ) -> PerformanceStudy:
    """Measure a scheme set over the evaluated workloads (Fig. 12/15/16)."""
    grid = run_matrix(workloads, schemes, scale=scale, seed=seed,
                      device=device)
    return PerformanceStudy(grid, schemes)


def render_slowdown_table(study: PerformanceStudy,
                          title: str = "slowdown vs baseline") -> str:
    schemes = [s for s in study.schemes if s != "baseline"]
    headers = ["workload"] + list(schemes)
    rows = []
    for workload, runs in study.grid.items():
        row = [workload]
        for scheme in schemes:
            if runs[scheme].rejected:
                row.append("rej")
            else:
                row.append(f"{slowdown(runs[scheme], runs['baseline']) * 100:+.0f}%")
        rows.append(row)
    rows.append(["MEAN"] + [f"{study.mean_slowdown(s) * 100:+.0f}%"
                            for s in schemes])
    return f"== {title} ==\n" + render_table(headers, rows)


def render_mix_table(study: PerformanceStudy) -> str:
    """Figure 13 as text: per-category instruction fractions."""
    schemes = [s for s in study.schemes if s != "baseline"]
    headers = ["workload/scheme"] + list(MIX_CATEGORIES) + ["total"]
    rows = []
    for workload in study.grid:
        for scheme in schemes:
            if study.grid[workload][scheme].rejected:
                continue
            fractions = study.mix_fractions(workload, scheme)
            total = 1.0 + study.bloat(workload, scheme)
            rows.append(
                [f"{workload}/{scheme}"] +
                [f"{fractions[name] * 100:.0f}%" for name in
                 MIX_CATEGORIES] + [f"{total * 100:.0f}%"])
    return render_table(headers, rows)
