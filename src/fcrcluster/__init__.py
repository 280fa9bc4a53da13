"""Selective clustering with false clustering rate (FCR) control.

Fits finite mixture models, assigns cluster labels only to items that can
be classified confidently, and calibrates the abstention rule so that the
expected proportion of misclassified items among those labelled stays below
a user-chosen level.
"""

__version__ = "0.1.0"

from .bootstrap import (
    BootstrapConfig,
    BootstrapCurve,
    FullRefit,
    WarmStart,
    bootstrap_procedure,
    calibrate_level,
    level_grid,
    resample,
)
from .em import (
    EmConfig,
    FitResult,
    em_steps,
    fit_mixture,
)
from .evaluation import (
    FcrReport,
    OracleCurve,
    best_permutation,
    gaussian_t_tail,
    oracle_curve,
    sample_fcr,
)
from .harness import (
    ScenarioConfig,
    SweepResult,
    TruthSpec,
    builtin_scenarios,
    emit_outputs,
    gaussian_separation_truth,
    get_scenario,
    run_real_data,
    run_replication,
    run_scenario,
)
from .mixtures import (
    ComponentParams,
    MixtureParams,
    PosteriorMatrix,
    load_data_csv,
    load_mixture_json,
    map_labels,
    mixture_from_json,
    mixture_loglik,
    mixture_to_json,
    posterior_matrix,
    sample_mixture,
    save_data_csv,
    save_mixture_json,
    validate_data,
)
from .selection import (
    SelectionResult,
    SelectiveClustering,
    cumulative_select,
    fixed_threshold_select,
    select_and_label,
    write_clustering_csv,
)

__all__ = [name for name in dir() if not name.startswith("_")]
