"""One harness per paper figure/table.

* Figures 10-11 — :mod:`repro.experiments.figures_inject`
  (gate-level error patterns; SwapCodes SDC risk per register-file code).
* Figures 12, 13, 15, 16 — :mod:`repro.experiments.figures_perf`
  (slowdowns, instruction mix, inter-thread comparison, future predictors).
* Figure 14 — :mod:`repro.experiments.fig14_power`.
* Tables I-IV — :mod:`repro.experiments.tables`.
"""

from repro.experiments.common import (SchemeRun, render_table, run_matrix,
                                      run_scheme, slowdown)
from repro.experiments.fig14_power import (FIG14_SCHEMES, FIG14_WORKLOADS,
                                           PowerStudy, render_figure14,
                                           run_power_study)
from repro.experiments.figures_inject import (FIG11_CODE_ORDER,
                                              InjectionStudy,
                                              figure11_schemes,
                                              render_figure10,
                                              render_figure11,
                                              run_injection_study)
from repro.experiments.figures_perf import (FIG12_SCHEMES, FIG15_SCHEMES,
                                            FIG16_SCHEMES, PerformanceStudy,
                                            render_mix_table,
                                            render_slowdown_table,
                                            run_performance_study)
from repro.experiments.tables import (TABLE_I, TABLE_II, format_table_iv,
                                      table_iii, table_iv_rows)

__all__ = [
    "SchemeRun", "render_table", "run_matrix", "run_scheme", "slowdown",
    "FIG14_SCHEMES", "FIG14_WORKLOADS", "PowerStudy", "render_figure14",
    "run_power_study",
    "FIG11_CODE_ORDER", "InjectionStudy", "figure11_schemes",
    "render_figure10", "render_figure11", "run_injection_study",
    "FIG12_SCHEMES", "FIG15_SCHEMES", "FIG16_SCHEMES", "PerformanceStudy",
    "render_mix_table", "render_slowdown_table", "run_performance_study",
    "TABLE_I", "TABLE_II", "format_table_iv", "table_iii", "table_iv_rows",
]
