"""Exact verification and seeded simulation of contextual LHV models.

The package computes Bell-experiment context correlations exactly, shows
by explicit construction that every model of this class respects the CHSH
bound on one product sample space, reduces per-setting local randomness
to two shared uniforms, and backs it all with strategy search and seeded
Monte Carlo with no-signalling checks.
"""

from .chsh import (
    BoundViolationError,
    Certification,
    ChshReport,
    LhvCertificate,
    certify_lhv_bound,
    certify_model,
    chsh_from_correlations,
)
from .exact import CorrelationSet, correlation_set, verify_no_signalling
from .models import (
    Context,
    ContextualModel,
    InvalidModelError,
    JointPmf,
    LocalSetting,
    ModelFormatError,
    Pmf,
    ResponseTable,
    UnknownSettingError,
    load_model,
    model_from_dict,
    model_hash,
    model_to_dict,
    save_model,
    validate_model,
)
from .reduction import (
    IntervalPartition,
    ReducedModel,
    inverse_transform_partition,
    reduce_model,
)
from .search import (
    SearchLimitError,
    SearchMode,
    SearchResult,
    SearchSpec,
    enumerate_deterministic,
    hill_climb,
    random_model,
    random_sampling,
    run_search,
)
from .simulate import (
    EmpiricalChsh,
    EmptyContextError,
    NoSignallingReport,
    TrialLedger,
    empirical_chsh,
    no_signalling_report,
    quantum_reference,
    simulate_trials,
)
from .unified import (
    CounterfactualSet,
    SizeExceededError,
    counterfactuals,
    expectation_unified,
)

__version__ = "0.1.0"

__all__ = [
    "BoundViolationError",
    "Certification",
    "ChshReport",
    "Context",
    "ContextualModel",
    "CorrelationSet",
    "CounterfactualSet",
    "EmpiricalChsh",
    "EmptyContextError",
    "IntervalPartition",
    "InvalidModelError",
    "JointPmf",
    "LhvCertificate",
    "LocalSetting",
    "ModelFormatError",
    "NoSignallingReport",
    "Pmf",
    "ReducedModel",
    "ResponseTable",
    "SearchLimitError",
    "SearchMode",
    "SearchResult",
    "SearchSpec",
    "SizeExceededError",
    "TrialLedger",
    "UnknownSettingError",
    "certify_lhv_bound",
    "certify_model",
    "chsh_from_correlations",
    "correlation_set",
    "counterfactuals",
    "empirical_chsh",
    "enumerate_deterministic",
    "expectation_unified",
    "hill_climb",
    "inverse_transform_partition",
    "load_model",
    "model_from_dict",
    "model_hash",
    "model_to_dict",
    "no_signalling_report",
    "quantum_reference",
    "random_model",
    "random_sampling",
    "reduce_model",
    "run_search",
    "save_model",
    "simulate_trials",
    "validate_model",
    "verify_no_signalling",
]
