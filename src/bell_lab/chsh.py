"""CHSH combination evaluation, the local bound certificate, and the
one-pass certification of a model (`certify_model`).

The eight sign patterns are the four with exactly one term negated plus
their negations (three terms negated); these are precisely the sign
vectors in {-1,+1}^4 with an odd number of minus signs, the family for
which the local bound |s| <= 2 holds.  The sums are taken over integer
numerators on the four correlations' common denominator, so the report is
exact without per-term Fraction arithmetic.

`chsh_from_correlations` trusts its caller for where the correlations come
from; the certificates (`certify_lhv_bound`, `certify_model`) validate the
model before computing them.

`certify_model` validates the model and refuses one of more than
`cell_limit` cells (`SizeExceededError`) before any route runs, then runs
the dedicated, factored, expanded and reduced routes.  It is the one
public way to run them: the routes are private to their modules, take
only the model, and trust that it is valid and within the limit.  The
expanded route (`bell_lab.expanded`) is the only one that computes with
numpy, and `certify_model` imports it when it runs, so importing this
module, as `search` does, loads no numpy.  Each route returns the model's four
correlations as a plain tuple in context order, (x,y), (x,y'), (x',y),
(x',y'): a context is its position, never a label lookup.
Each check in `Certification` is one exact equality between those tuples.
`CORRELATION_KEYS` names the four in the certificate's output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import _dedicated_route, correlation_set
from .models import (
    ContextualModel,
    _scaled_factors,
    decimal_str,
    format_rational,
    model_hash,
    require_valid,
)
from .reduction import _reduced_route
from .unified import _factored_route

# Canonical order: one negated term sweeping left to right, then the negations.
CHSH_PATTERNS: tuple[tuple[int, int, int, int], ...] = (
    (-1, 1, 1, 1),
    (1, -1, 1, 1),
    (1, 1, -1, 1),
    (1, 1, 1, -1),
    (1, -1, -1, -1),
    (-1, 1, -1, -1),
    (-1, -1, 1, -1),
    (-1, -1, -1, 1),
)

LHV_BOUND = Fraction(2)

DEFAULT_CELL_LIMIT = 10**7

# Output keys of the four correlations, in context order.
CORRELATION_KEYS = ("e_xy", "e_xy'", "e_x'y", "e_x'y'")


class BoundViolationError(AssertionError):
    """A valid model produced s_max > 2.

    This cannot happen for any well-formed model; raising (rather than
    reporting) makes an implementation bug impossible to overlook.
    """


class SizeExceededError(RuntimeError):
    """Expanded enumeration would exceed the configured cell limit."""

    def __init__(self, size: int, limit: int):
        self.size = size
        self.limit = limit
        super().__init__(f"unified space has {size} cells, limit is {limit}")


def _cell_count(model: ContextualModel) -> int:
    """Cells of the expanded space: the source grid times the four local sizes."""
    sizes = [len(local.weights) for side in (model.alice, model.bob) for local in side.values()]
    return math.prod(sizes, start=model.source.rows * model.source.cols)


@dataclass(frozen=True)
class ChshReport:
    sums: tuple[Fraction, ...]
    s_max: Fraction
    bound_satisfied: bool


def chsh_from_correlations(values: tuple[Fraction, ...]) -> ChshReport:
    """Evaluate all eight signed sums exactly and take the maximum magnitude.

    `values` holds the four correlations in context order; another count
    raises ValueError.  They are written as integer numerators over their
    least common denominator d, so the range check and the sums are exact.
    """
    if len(values) != 4:
        raise ValueError(f"expected 4 correlations, got {len(values)}")
    nums, d = _scaled_factors(values)
    for v, n in zip(values, nums):
        if not -d <= n <= d:
            raise ValueError(f"correlation {format_rational(v)} outside [-1, 1]")
    totals = [sum(s * n for s, n in zip(pattern, nums)) for pattern in CHSH_PATTERNS]
    s_max = Fraction(max(abs(t) for t in totals), d)
    return ChshReport(
        sums=tuple(Fraction(t, d) for t in totals),
        s_max=s_max,
        bound_satisfied=s_max <= LHV_BOUND,
    )


@dataclass(frozen=True)
class LhvCertificate:
    model_sha256: str
    correlations: tuple[Fraction, ...]
    report: ChshReport

    def to_dict(self) -> dict:
        return {
            "model_sha256": self.model_sha256,
            "correlations": dict(zip(CORRELATION_KEYS, _rationals(self.correlations))),
            "chsh_sums": [format_rational(s) for s in self.report.sums],
            "s_max": format_rational(self.report.s_max),
            "s_max_decimal": decimal_str(self.report.s_max),
            "bound_satisfied": self.report.bound_satisfied,
        }


def _bounded_report(correlations: tuple[Fraction, ...]) -> ChshReport:
    """The report for a valid model's correlations.  A score above 2 is a
    bug in this engine, not a property of the model, and raises."""
    report = chsh_from_correlations(correlations)
    if not report.bound_satisfied:
        raise BoundViolationError(
            f"valid model reached s_max = {format_rational(report.s_max)} > 2"
        )
    return report


def _lhv_certificate(model: ContextualModel, correlations: tuple[Fraction, ...]) -> LhvCertificate:
    """A valid model's certificate: its correlations' report, bound to its hash."""
    return LhvCertificate(model_hash(model), correlations, _bounded_report(correlations))


def certify_lhv_bound(model: ContextualModel) -> LhvCertificate:
    """Validate, compute the correlations, and certify the bound."""
    return _lhv_certificate(model, correlation_set(model))


def _rationals(values) -> list[str]:
    return [format_rational(v) for v in values]


@dataclass(frozen=True)
class Certification:
    """Each route's four correlations, in context order, and the CHSH
    certificate of one model; the dedicated values are the certificate's.
    `contexts` holds the matching (alice_label, bob_label) pairs."""

    contexts: tuple[tuple[str, str], ...]
    factored: tuple[Fraction, ...]
    expanded: tuple[Fraction, ...]
    reduced: tuple[Fraction, ...]
    certificate: LhvCertificate

    @property
    def dedicated(self) -> tuple[Fraction, ...]:
        return self.certificate.correlations

    @property
    def routes_equal(self) -> bool:
        return self.dedicated == self.factored == self.expanded

    @property
    def reduction_equal(self) -> bool:
        return self.dedicated == self.reduced

    @property
    def all_passed(self) -> bool:
        return (
            self.routes_equal
            and self.reduction_equal
            and self.certificate.report.bound_satisfied
        )

    def to_dict(self) -> dict:
        dedicated = _rationals(self.dedicated)
        return {
            "model_sha256": self.certificate.model_sha256,
            "equivalence": {
                "contexts": [list(c) for c in self.contexts],
                "dedicated": dedicated,
                "factored": _rationals(self.factored),
                "expanded": _rationals(self.expanded),
                "equal": self.routes_equal,
            },
            "reduction": {
                "original": dedicated,
                "reduced": _rationals(self.reduced),
                "equal": self.reduction_equal,
            },
            "chsh": self.certificate.to_dict(),
            "all_passed": self.all_passed,
        }


def certify_model(model: ContextualModel, cell_limit: int = DEFAULT_CELL_LIMIT) -> Certification:
    """The whole verification stack on one model, in one pass.

    Validates the model first, so an invalid model of any size raises
    `InvalidModelError` with its violations.  A model whose product space
    has more than `cell_limit` cells then raises `SizeExceededError`
    before any route runs, so a certificate never silently skips the
    expanded route.  The dedicated, factored, expanded and reduced routes
    then each compute their own four correlations, so the routes stay
    independent.
    """
    require_valid(model)
    size = _cell_count(model)
    if size > cell_limit:
        raise SizeExceededError(size, cell_limit)
    # Imported here: `search` imports this module and must not load numpy.
    from .expanded import _expanded_route

    return Certification(
        contexts=model.contexts(),
        factored=_factored_route(model),
        expanded=_expanded_route(model),
        reduced=_reduced_route(model),
        certificate=_lhv_certificate(model, _dedicated_route(model)),
    )
