"""Pareto/NBD parameter estimation with a neural surrogate.

Closed-form likelihood quantities, a data-augmented Gibbs sampler for
per-customer (lam, mu) posteriors, a small MLP trained on those posterior
means with likelihood-aware losses, and holdout forecasting metrics.
"""

import os

# Honor a single thread-count knob before numpy binds its BLAS pools.
# Results never depend on the thread count; this only bounds CPU use.
if "PARETONBD_THREADS" in os.environ:
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, os.environ["PARETONBD_THREADS"])

from .likelihood import (
    RATE_FLOOR,
    conditional_p_alive,
    expected_holdout_purchases,
    grad_log_likelihood,
    log_likelihood,
    p_alive,
)
from .data import (
    COVARIATE_NAMES,
    CalibrationTable,
    CohortSplit,
    TransactionLog,
    TransactionRecord,
    ingest_cdnow,
    ingest_csv,
    make_cohort_split,
    make_log,
    merge_same_day,
    mid_date,
    split_customers,
    summarize_rfm,
    write_transactions_csv,
)
from .gibbs import (
    ChainConfig,
    HyperParams,
    PosteriorSummary,
    read_labels_csv,
    run_chain,
    write_labels_csv,
)
from .simulate import (
    DEFAULT_HYPER,
    SyntheticCohort,
    make_cohort,
    sample_population,
    simulate_log,
)
from .network import (
    LOSS_KINDS,
    RATIO_INTERPRETATIONS,
    FeatureScaler,
    NetworkSpec,
    NetworkWeights,
    TrainingConfig,
    forward,
    init_weights,
    load_model,
    loss,
    loss_gradient,
    predict_params,
    save_model,
    train,
)
from .forecast import (
    ROUNDING_MODES,
    ForecastTable,
    count_histogram,
    make_forecast,
    read_forecast_csv,
    round_counts,
    write_forecast_csv,
)
from .metrics import (
    ConfusionMatrix,
    MetricsReport,
    accuracy,
    confusion_matrix,
    consistency,
    evaluate_forecast,
    mae_metric,
    metric_correlations,
    multi_accuracy,
)
from .config import ExperimentConfig, parse_config, write_config
from .experiment import (
    BASELINE_MODEL,
    ExperimentResult,
    StageError,
    run_experiment,
    stage_seed,
)

__version__ = "0.1.0"
