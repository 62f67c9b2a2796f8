#!/usr/bin/env python3
"""Performance study (Figures 12, 13, 15, 16) on the GPU simulator.

Compiles every workload with each resilience scheme, runs it with timing,
verifies the outputs, and prints the paper's performance tables.  Every
(workload, scheme) cell runs once; each figure reads its schemes from the
one grid.

Usage::

    python examples/performance_study.py [scale]

``scale`` grows the problem sizes (default 0.5; the repo's full setting
is 1.0 and takes a few minutes).
"""

import sys

from repro.experiments import (FIG12_SCHEMES, FIG15_SCHEMES, FIG16_SCHEMES,
                               PerformanceStudy, render_mix_table,
                               render_slowdown_table, run_matrix)
from repro.workloads import ALL_ORDER


def main():
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 0.5

    schemes = tuple(dict.fromkeys(
        FIG12_SCHEMES + FIG15_SCHEMES + FIG16_SCHEMES))
    grid = run_matrix(ALL_ORDER, schemes, scale)
    assert PerformanceStudy(grid, schemes).all_verified(), \
        "a workload produced wrong results!"

    fig12 = PerformanceStudy(grid, FIG12_SCHEMES)
    print("Figure 12 — SwapCodes slowdowns")
    print(render_slowdown_table(fig12))

    print("\nFigure 13 — dynamic instruction mix (fractions of baseline)")
    print(render_mix_table(fig12))

    print("\nFigure 15 — inter-thread duplication")
    print(render_slowdown_table(PerformanceStudy(grid, FIG15_SCHEMES)))

    print("\nFigure 16 — projected future predictors")
    print(render_slowdown_table(PerformanceStudy(grid, FIG16_SCHEMES)))


if __name__ == "__main__":
    main()
