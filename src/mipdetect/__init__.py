"""Detection of multiple influential observations in high-dimensional regression.

The names below are re-exported lazily (PEP 562): ``import mipdetect``
loads no submodule, and so not NumPy, until one of its names is first
used. The CLI entry points rely on that to set the environment NumPy's
BLAS reads when it loads (see ``_quiet_blas_workers``).
"""

import importlib
import os

__version__ = "0.1.0"

_EXPORTS = {
    "chi2_fdr": ("BhResult", "bh_select", "chi2_1_sf_vec"),
    "mip": (
        "CleanSetResult",
        "DegenerateShrinkageError",
        "DetectionReport",
        "MipConfig",
        "checking_statistics_all",
        "checking_step",
        "first_sweep",
        "him_detect",
        "him_scores",
        "max_detect",
        "min_max_checking",
        "min_max_clean_set",
        "min_multiround_detect",
        "mip_detect",
    ),
    "robust_stats": (
        "Dataset",
        "DegenerateColumnError",
        "EstimatorMode",
        "InfluenceMatrix",
        "standardize",
    ),
    "simbench": (
        "LabeledDataset",
        "MetricRow",
        "ScenarioKind",
        "ScenarioSpec",
        "detection_metrics",
        "fit_metrics",
        "gen_base",
        "gen_scenario",
        "lasso_fit",
        "run_experiment",
    ),
    "subsample": ("min_max_sweep", "subset_size"),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_SUBMODULE]


def __getattr__(name):
    try:
        module = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *_SUBMODULE})


def _quiet_blas_workers() -> None:
    """Let OpenBLAS's idle worker threads sleep at once; a value already set wins.

    A pthreads OpenBLAS reads OPENBLAS_THREAD_TIMEOUT once, when it loads,
    and by default spins an idle worker for 2^28 cycles (about 0.1 s) at
    load and after every threaded product. 4, the minimum, changes no
    thread count and so no bits. Only the CLI entry points call this, before
    NumPy is imported; a library import leaves the environment alone.
    """
    os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")


def _console_main() -> int:
    """The ``mipdetect`` console script: ``cli.main`` with the CLI's BLAS default."""
    _quiet_blas_workers()
    from .cli import main

    return main()
