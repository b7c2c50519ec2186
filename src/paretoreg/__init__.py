"""Pareto-optimal subset regression.

Explores the trade-off between model complexity (number of selected
predictors) and squared prediction error for linear regression, using an
elitist multi-objective genetic algorithm.  The reported output is the
non-dominated frontier of (complexity, error) pairs together with the
fitted models, rather than a single "best" subset.

Classical baselines (exhaustive best-subset search, forward/backward/
stepwise selection) and frontier diagnostics (knee detection, information
criteria scans, held-out error summaries, frontier plots) are included for
comparison.
"""

from .data import (
    Dataset,
    EvaluatedModel,
    ObjectiveVector,
    load_csv,
    mask_complexity,
    mask_from_string,
    mask_to_string,
    save_csv,
)
from .regress import FitResult, fit_ols, predict
from .objectives import (
    CROSS_VALIDATION,
    IN_SAMPLE,
    FoldPartition,
    ObjectiveEvaluator,
    ObjectiveSpec,
    aic,
    bic,
    cv_objective,
    in_sample_objective,
    make_partition,
)
from .pareto import Frontier, dominates, nondominated
from .moga import (
    GAConfig,
    MogaResult,
    Snapshot,
    crossover,
    environmental_selection,
    init_population,
    mutate,
    run_moga,
)
from .baselines import (
    Trajectory,
    backward_elimination,
    best_subset_table,
    exhaustive_frontier,
    forward_selection,
    stepwise_selection,
)
from .simdata import (
    TrueModel,
    correct_minus_incorrect,
    expand_features,
    gen_additive,
    gen_correlated,
    truncate_predictors,
)
from .analysis import (
    CriteriaScan,
    HSPlot,
    KneeResult,
    OSPlot,
    criteria_scan,
    hs_plot,
    kappa_metric,
    knee_point,
    os_plot,
)

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "EvaluatedModel",
    "ObjectiveVector",
    "load_csv",
    "save_csv",
    "mask_from_string",
    "mask_to_string",
    "mask_complexity",
    "FitResult",
    "fit_ols",
    "predict",
    "IN_SAMPLE",
    "CROSS_VALIDATION",
    "FoldPartition",
    "make_partition",
    "ObjectiveSpec",
    "ObjectiveEvaluator",
    "in_sample_objective",
    "cv_objective",
    "aic",
    "bic",
    "dominates",
    "nondominated",
    "Frontier",
    "GAConfig",
    "Snapshot",
    "MogaResult",
    "init_population",
    "crossover",
    "mutate",
    "environmental_selection",
    "run_moga",
    "Trajectory",
    "best_subset_table",
    "exhaustive_frontier",
    "forward_selection",
    "backward_elimination",
    "stepwise_selection",
    "TrueModel",
    "gen_additive",
    "gen_correlated",
    "expand_features",
    "truncate_predictors",
    "correct_minus_incorrect",
    "KneeResult",
    "knee_point",
    "CriteriaScan",
    "criteria_scan",
    "kappa_metric",
    "OSPlot",
    "os_plot",
    "HSPlot",
    "hs_plot",
]
