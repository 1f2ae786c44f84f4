"""Detection of multiple influential observations in high-dimensional regression."""

__version__ = "0.1.0"

from .chi2_fdr import (
    BhResult,
    bh_select,
    chi2_1_sf_vec,
)
from .mip import (
    CleanSetResult,
    DegenerateShrinkageError,
    DetectionReport,
    MipConfig,
    checking_statistics_all,
    checking_step,
    first_sweep,
    him_detect,
    him_scores,
    max_detect,
    min_max_checking,
    min_max_clean_set,
    min_multiround_detect,
    mip_detect,
)
from .robust_stats import (
    Dataset,
    DegenerateColumnError,
    EstimatorMode,
    InfluenceMatrix,
    standardize,
)
from .simbench import (
    LabeledDataset,
    MetricRow,
    ScenarioKind,
    ScenarioSpec,
    detection_metrics,
    fit_metrics,
    gen_base,
    gen_scenario,
    lasso_fit,
    run_experiment,
)
from .subsample import min_max_sweep, subset_size

__all__ = [
    "__version__",
    "BhResult",
    "bh_select",
    "chi2_1_sf_vec",
    "him_detect",
    "him_scores",
    "CleanSetResult",
    "DegenerateShrinkageError",
    "DetectionReport",
    "MipConfig",
    "checking_statistics_all",
    "checking_step",
    "first_sweep",
    "max_detect",
    "min_max_checking",
    "min_max_clean_set",
    "min_multiround_detect",
    "mip_detect",
    "Dataset",
    "DegenerateColumnError",
    "EstimatorMode",
    "InfluenceMatrix",
    "standardize",
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
    "min_max_sweep",
    "subset_size",
]
