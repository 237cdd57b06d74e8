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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import CorrelationSet, correlation_set
from .models import (
    ContextualModel,
    _scaled_factors,
    decimal_str,
    format_rational,
    model_hash,
)
from .reduction import ReductionReport, reduction_report
from .unified import DEFAULT_CELL_LIMIT, EquivalenceReport, equivalence_report

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


class BoundViolationError(AssertionError):
    """A valid model produced s_max > 2.

    This cannot happen for any well-formed model; raising (rather than
    reporting) makes an implementation bug impossible to overlook.
    """


@dataclass(frozen=True)
class ChshReport:
    sums: tuple[Fraction, ...]
    s_max: Fraction
    bound_satisfied: bool


def chsh_from_correlations(c: CorrelationSet) -> ChshReport:
    """Evaluate all eight signed sums exactly and take the maximum magnitude.

    The four correlations are written as integer numerators over their
    least common denominator d, so the range check and the eight sums are
    integer arithmetic; each sum becomes one Fraction over d at the end.
    """
    values = c.as_tuple()
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
    correlations: CorrelationSet
    report: ChshReport

    def to_dict(self) -> dict:
        e = self.correlations
        return {
            "model_sha256": self.model_sha256,
            "correlations": {
                "e_xy": format_rational(e.e_xy),
                "e_xy'": format_rational(e.e_xyp),
                "e_x'y": format_rational(e.e_xpy),
                "e_x'y'": format_rational(e.e_xpyp),
            },
            "chsh_sums": [format_rational(s) for s in self.report.sums],
            "s_max": format_rational(self.report.s_max),
            "s_max_decimal": decimal_str(self.report.s_max),
            "bound_satisfied": self.report.bound_satisfied,
        }


def lhv_certificate(model: ContextualModel, correlations: CorrelationSet) -> LhvCertificate:
    """All eight sums and the verdict for a valid model's correlations,
    bound to the model hash.

    For every valid model the verdict must be satisfied; a violation is a
    bug in this engine, not a property of the model, and raises.
    """
    report = chsh_from_correlations(correlations)
    if not report.bound_satisfied:
        raise BoundViolationError(
            f"valid model reached s_max = {format_rational(report.s_max)} > 2"
        )
    return LhvCertificate(
        model_sha256=model_hash(model), correlations=correlations, report=report
    )


def certify_lhv_bound(model: ContextualModel) -> LhvCertificate:
    """Validate, compute the correlations, and certify the bound."""
    return lhv_certificate(model, correlation_set(model))


def _rationals(values) -> list[str]:
    return [format_rational(v) for v in values]


@dataclass(frozen=True)
class Certification:
    """Route equivalence, reduction and the CHSH certificate of one model."""

    equivalence: EquivalenceReport
    reduction: ReductionReport
    certificate: LhvCertificate

    @property
    def all_passed(self) -> bool:
        return (
            self.equivalence.equal
            and self.reduction.equal
            and self.certificate.report.bound_satisfied
        )

    def to_dict(self) -> dict:
        equivalence, reduction = self.equivalence, self.reduction
        return {
            "model_sha256": self.certificate.model_sha256,
            "equivalence": {
                "contexts": [[c.alice, c.bob] for c in equivalence.contexts],
                "dedicated": _rationals(equivalence.dedicated),
                "factored": _rationals(equivalence.factored),
                "expanded": _rationals(equivalence.expanded),
                "equal": equivalence.equal,
            },
            "reduction": {
                "original": _rationals(reduction.original),
                "reduced": _rationals(reduction.reduced),
                "equal": reduction.equal,
            },
            "chsh": self.certificate.to_dict(),
            "all_passed": self.all_passed,
        }


def certify_model(model: ContextualModel, cell_limit: int = DEFAULT_CELL_LIMIT) -> Certification:
    """The whole verification stack on one model, in one pass.

    Validates the model and computes its four dedicated correlations once,
    then hands them to the route-equivalence check, the reduction check and
    the CHSH bound; the factored, expanded and reduced routes still compute
    their own values, so the routes stay independent.
    """
    correlations = correlation_set(model)
    dedicated = correlations.as_tuple()
    return Certification(
        equivalence=equivalence_report(model, dedicated, cell_limit),
        reduction=reduction_report(model, dedicated),
        certificate=lhv_certificate(model, correlations),
    )
