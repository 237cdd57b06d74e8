"""The package's public surface and the independence of its routes."""

import argparse
import ast
import inspect
import types
from fractions import Fraction

import pytest

import bell_lab
import bell_lab.cli
from bell_lab import chsh, exact, expanded, models, reduction, search, unified
from tests_support import PRESETS, alter_local

PUBLIC_NAMES = [
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

# Each subcommand's options, without the leading dashes; adding or removing
# an option of the CLI means editing this literal.
CLI_OPTIONS = {
    "check": ["format", "model"],
    "certify": ["format", "limit", "model", "out"],
    "search": ["budget", "cardinalities", "format", "mode", "out", "seed"],
    "simulate": ["format", "histogram", "model", "n", "out", "quantum", "seed"],
}

# Every exported function that takes a model is in exactly one group.
VALIDATING = {
    "certify_lhv_bound",
    "certify_model",
    "correlation_set",
    "counterfactuals",
    "reduce_model",
    "simulate_trials",
    "verify_no_signalling",
}
# The validator itself, and the serializers, which write any model as it is.
UNVALIDATED = {"validate_model", "model_hash", "model_to_dict", "save_model"}
# Arguments besides the model that a validating function needs to be called.
EXTRA_ARGS = {"simulate_trials": {"n": 10}}


def model_functions() -> list[str]:
    """Every exported function with a ``model`` parameter."""
    return sorted(
        name
        for name in bell_lab.__all__
        if inspect.isfunction(getattr(bell_lab, name))
        and "model" in inspect.signature(getattr(bell_lab, name)).parameters
    )


def invalid_models() -> dict:
    """A pmf that sums to 3/2, and a table with a source row missing."""
    noisy = PRESETS["noisy_readout"]()
    return {
        "pmf_sums_to_3_halves": alter_local(noisy, "alice", "x", pmf=(Fraction(3, 4),) * 2),
        "table_row_missing": alter_local(noisy, "alice", "x", table=noisy.alice["x"].table[:1]),
    }


def imported_modules(module) -> set[str]:
    """Absolute names of every module `module`'s source imports from."""
    tree = ast.parse(inspect.getsource(module))
    package = module.__name__.rpartition(".")[0]
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package.rsplit(".", node.level - 1)[0]
                target = f"{base}.{node.module}" if node.module else base
                found.add(target)
                if not node.module:
                    found.update(f"{base}.{alias.name}" for alias in node.names)
            else:
                found.add(node.module)
    return found


def test_every_exported_name_resolves():
    for name in bell_lab.__all__:
        assert getattr(bell_lab, name) is not None, name


def test_all_is_exactly_the_bound_public_names():
    # dir() lists the bound names and those the module resolves on access.
    public = {
        name
        for name in dir(bell_lab)
        if not name.startswith("_") and not isinstance(getattr(bell_lab, name), types.ModuleType)
    }
    assert sorted(bell_lab.__all__) == sorted(public)
    assert len(bell_lab.__all__) == len(set(bell_lab.__all__))


def test_simulate_names_resolve_on_access():
    lazy = sorted(set(bell_lab.__all__) - set(vars(bell_lab)))
    assert lazy == [
        "EmpiricalChsh",
        "EmptyContextError",
        "NoSignallingReport",
        "TrialLedger",
        "empirical_chsh",
        "no_signalling_report",
        "quantum_reference",
        "simulate_trials",
    ]
    assert bell_lab.simulate_trials is bell_lab.simulate.simulate_trials
    for name in lazy:
        assert getattr(bell_lab, name) is getattr(bell_lab.simulate, name), name


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'simulate_trial'"):
        bell_lab.simulate_trial
    assert not hasattr(bell_lab, "RNG_ALGORITHM")  # in `simulate`, not exported


def test_product_space_and_reduction_do_not_import_the_dedicated_route():
    for module in (unified, expanded, reduction):
        imports = imported_modules(module)
        assert "bell_lab.models" in imports  # the walk sees relative imports
        assert "bell_lab.exact" not in imports, module.__name__


def test_routes_take_only_the_model():
    # `certify_model` validates and applies the cell limit; no route does.
    for route in (exact._dedicated_route, unified._factored_route,
                  expanded._expanded_route, reduction._reduced_route):
        assert list(inspect.signature(route).parameters) == ["model"], route.__name__
    guard = {"DEFAULT_CELL_LIMIT", "SizeExceededError", "_cell_count"}
    assert guard <= set(vars(chsh))
    assert not guard & (set(vars(unified)) | set(vars(expanded)))
    assert {m for m in imported_modules(expanded) if m.startswith("bell_lab")} == {"bell_lab.models"}


def test_exact_modules_and_cli_import_no_numpy():
    # Top-level imports and imports inside functions alike.
    for module in (chsh, exact, models, reduction, search, unified, bell_lab.cli):
        assert "numpy" not in imported_modules(module), module.__name__
    assert "numpy" in imported_modules(expanded)


def test_all_is_pinned():
    assert sorted(bell_lab.__all__) == PUBLIC_NAMES


def test_cli_options_are_pinned():
    (commands,) = [
        action.choices
        for action in bell_lab.cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    options = {
        command: sorted(
            option[2:]
            for action in sub._actions
            for option in action.option_strings
            if option != "--help" and option.startswith("--")
        )
        for command, sub in commands.items()
    }
    assert options == CLI_OPTIONS


def test_every_model_function_is_classified():
    assert set(model_functions()) == VALIDATING | UNVALIDATED
    assert not VALIDATING & UNVALIDATED


@pytest.mark.parametrize("case", sorted(invalid_models()))
@pytest.mark.parametrize("name", sorted(set(model_functions()) - UNVALIDATED))
def test_every_exported_model_function_validates(name, case):
    # Every exported model function outside the exempt group, classified or not.
    model = invalid_models()[case]
    assert bell_lab.validate_model(model)
    with pytest.raises(bell_lab.InvalidModelError):
        getattr(bell_lab, name)(model, **EXTRA_ARGS.get(name, {}))
