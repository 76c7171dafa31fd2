"""Benchmark harness: one experiment per paper table/figure.

See DESIGN.md §4 for the experiment index and EXPERIMENTS.md for
paper-vs-measured results.  Each ``exp_*`` function is self-contained
and returns an :class:`~repro.bench.harness.ExperimentResult`.

:data:`GUARDS` registers the fast-path regression guards beside the
paper experiments.  Each guard module's ``run(smoke=False)`` returns an
``ExperimentResult`` whose checks are its floors; the modules are
imported on first run, so importing this package stays as cheap as
the experiments alone.
"""

from importlib import import_module
from typing import Callable, Dict

from repro.bench.configs import (
    bench_ftl_config,
    bench_iosnap_config,
    bench_nand,
    large_geometry,
    medium_geometry,
    small_geometry,
)
from repro.bench.experiments_ablation import (
    exp_ablation_cold_segregation,
    exp_ablation_destage,
    exp_ablation_gc_policy,
    exp_ablation_selective_scan,
)
from repro.bench.experiments_baseline import exp_fig11, exp_fig12
from repro.bench.experiments_interference import (
    exp_fig9,
    exp_fig10,
    exp_table4,
)
from repro.bench.experiments_supplemental import exp_recovery_time
from repro.bench.experiments_micro import (
    exp_create_delete,
    exp_fig7,
    exp_fig8,
    exp_table2,
    exp_table3,
)
from repro.bench.harness import Check, ExperimentResult, Table, ratio

ALL_EXPERIMENTS = {
    "table2": exp_table2,
    "create_delete": exp_create_delete,
    "fig7": exp_fig7,
    "fig8": exp_fig8,
    "table3": exp_table3,
    "fig9": exp_fig9,
    "table4": exp_table4,
    "fig10": exp_fig10,
    "fig11": exp_fig11,
    "fig12": exp_fig12,
    "ablation_selective_scan": exp_ablation_selective_scan,
    "ablation_gc_policy": exp_ablation_gc_policy,
    "ablation_destage": exp_ablation_destage,
    "ablation_cold_segregation": exp_ablation_cold_segregation,
    "recovery_time": exp_recovery_time,
}


def _guard(module: str) -> Callable[..., ExperimentResult]:
    def run(smoke: bool = False) -> ExperimentResult:
        return import_module(f"repro.bench.{module}").run(smoke)
    return run


GUARDS: Dict[str, Callable[..., ExperimentResult]] = {
    name: _guard(name)
    for name in ("perfguard", "activation_guard", "parallel_guard",
                 "races_guard", "replicate_guard", "mapcache_guard")
}

__all__ = [
    "ALL_EXPERIMENTS",
    "Check",
    "ExperimentResult",
    "GUARDS",
    "Table",
    "bench_ftl_config",
    "bench_iosnap_config",
    "bench_nand",
    "exp_ablation_cold_segregation",
    "exp_ablation_destage",
    "exp_ablation_gc_policy",
    "exp_ablation_selective_scan",
    "exp_create_delete",
    "exp_fig7",
    "exp_fig8",
    "exp_fig9",
    "exp_recovery_time",
    "exp_fig10",
    "exp_fig11",
    "exp_fig12",
    "exp_table2",
    "exp_table3",
    "exp_table4",
    "large_geometry",
    "medium_geometry",
    "ratio",
    "small_geometry",
]
