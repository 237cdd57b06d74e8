"""Exact verification and seeded simulation of contextual LHV models.

The package computes Bell-experiment context correlations exactly, shows
by explicit construction that every model of this class respects the CHSH
bound on one product sample space, reduces per-setting local randomness
to two shared uniforms, and backs it all with strategy search and seeded
Monte Carlo with no-signalling checks.

Only the expanded route of `certify_model` and the `simulate` module
compute with numpy, and both are imported when first used: the names
exported from `simulate` resolve through the module `__getattr__` below,
so `import bell_lab` loads no numpy.
"""

from .chsh import (
    BoundViolationError,
    Certification,
    ChshReport,
    LhvCertificate,
    SizeExceededError,
    certify_lhv_bound,
    certify_model,
    chsh_from_correlations,
)
from .exact import correlation_set, verify_no_signalling
from .models import (
    ContextualModel,
    InvalidModelError,
    JointPmf,
    LocalSetting,
    ModelFormatError,
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
    random_model,
    run_search,
)
from .unified import CounterfactualSet, counterfactuals

__version__ = "0.1.0"


# Names in `__all__` that the imports above do not bind come from
# `simulate`, which imports numpy; they resolve on first access.
def __getattr__(name: str):
    if name in __all__:
        from . import simulate

        return getattr(simulate, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


__all__ = [
    "BoundViolationError",
    "Certification",
    "ChshReport",
    "ContextualModel",
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
    "ReducedModel",
    "SearchLimitError",
    "SearchMode",
    "SearchResult",
    "SearchSpec",
    "SizeExceededError",
    "TrialLedger",
    "certify_lhv_bound",
    "certify_model",
    "chsh_from_correlations",
    "correlation_set",
    "counterfactuals",
    "empirical_chsh",
    "inverse_transform_partition",
    "load_model",
    "model_from_dict",
    "model_hash",
    "model_to_dict",
    "no_signalling_report",
    "quantum_reference",
    "random_model",
    "reduce_model",
    "run_search",
    "save_model",
    "simulate_trials",
    "validate_model",
    "verify_no_signalling",
]
