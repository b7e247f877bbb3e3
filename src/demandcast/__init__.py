"""Seasonal forecasting toolkit for daily electricity maximum-demand series.

The pipeline mirrors a complete modelling study: ingest raw daily exports,
build five imputation variants of the series, run unit-root and correlogram
diagnostics, fit seasonal ARIMA models by exact maximum likelihood, and
compare candidates on holdout accuracy and information criteria.
"""

from ._version import VERSION as __version__
from .diagnostics import (
    AdfResult,
    CorrelogramResult,
    acf,
    adf_test,
    overdifferencing_risk,
    pacf,
    recommend_differencing,
)
from .errors import (
    DataError,
    DemandcastError,
    InsufficientDataError,
    NumericalError,
    SpecError,
)
from .estimation import (
    Forecast,
    SarimaFit,
    SarimaParams,
    SarimaSpec,
    expand_polynomials,
    fit,
    forecast,
    load_fit,
    log_likelihood,
    save_fit,
    simulate,
)
from .evaluation import StudyReport, StudyTable, render_report, run_study
from .metrics import FitMetrics, mape
from .pipeline import (
    DatasetBundle,
    ImputationStrategy,
    RawRecord,
    Records,
    assemble,
    build_all,
    impute,
    parse_records,
)
from .selection import (
    CandidateSet,
    RankedResults,
    StepwiseConfig,
    evaluate_grid,
    fixed_grid,
    stepwise_search,
)
from .series import (
    DifferenceSpec,
    SplitSpec,
    TimeSeries,
    difference,
    dropped_initials,
    integrate,
    split,
)

__all__ = [
    "__version__",
    "AdfResult",
    "CandidateSet",
    "CorrelogramResult",
    "DataError",
    "DatasetBundle",
    "DemandcastError",
    "DifferenceSpec",
    "FitMetrics",
    "Forecast",
    "ImputationStrategy",
    "InsufficientDataError",
    "NumericalError",
    "RankedResults",
    "RawRecord",
    "Records",
    "SarimaFit",
    "SarimaParams",
    "SarimaSpec",
    "SpecError",
    "SplitSpec",
    "StepwiseConfig",
    "StudyReport",
    "StudyTable",
    "TimeSeries",
    "acf",
    "adf_test",
    "assemble",
    "build_all",
    "difference",
    "dropped_initials",
    "evaluate_grid",
    "expand_polynomials",
    "fit",
    "fixed_grid",
    "forecast",
    "impute",
    "integrate",
    "load_fit",
    "log_likelihood",
    "mape",
    "overdifferencing_risk",
    "pacf",
    "parse_records",
    "recommend_differencing",
    "render_report",
    "run_study",
    "save_fit",
    "simulate",
    "split",
    "stepwise_search",
]
