"""Core data structures for contextual local-hidden-variable models.

A :class:`ContextualModel` is plain data: the source distribution over
pairs of hidden values as a :class:`JointPmf`, and per side a dict from
setting label to :class:`LocalSetting`, a tuple of local weights and a
tuple of +/-1 table rows.  Alice's response for setting ``x`` reads the
source value sent to her side plus her local value for ``x``; Bob's side
is symmetric.  Each side declares exactly two settings; the first
declared label plays the unprimed role everywhere.  A setting is named
only by its dict key, so diagnostics locate it by side and key.

A context is named by its position in the context order, each side's
settings in declared order with Alice's the outer loop: (x,y), (x,y'),
(x',y), (x',y').  `ContextualModel.contexts` gives the label pairs.

All probabilities are exact rationals (:class:`fractions.Fraction`).
Floats are rejected at construction so that every downstream expectation
is computed without rounding; floats only ever appear in Monte Carlo
estimates and report rendering.  Each factor (the source and each local
pmf) also computes, when it is built, its weights as integer numerators
over their least common denominator, which validation and the integer
routes read.
"""

from __future__ import annotations

import hashlib
import json
import operator
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from math import lcm
from pathlib import Path
from typing import Iterable, Mapping

RATIONAL_PATTERN = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?")

DEFAULT_ALICE_LABELS = ("x", "x'")
DEFAULT_BOB_LABELS = ("y", "y'")
DECIMAL_DIGITS = 12  # significant digits of the decimal renderings


class ModelFormatError(ValueError):
    """A model document is structurally malformed.

    Raised for bad JSON shape, unknown or duplicate fields, wrong value
    types, or rational strings that do not match ``-?[0-9]+(/[1-9][0-9]*)?``.
    Semantic problems (weights not summing to one, outcomes outside
    {-1,+1}, dimension mismatches) are not format errors; they are
    reported by :func:`validate_model`.
    """


class InvalidModelError(ValueError):
    """A structurally well-formed model violates a semantic invariant."""

    def __init__(self, violations: Iterable[str]):
        self.violations = list(violations)
        super().__init__("invalid model: " + "; ".join(self.violations))


def parse_rational(text: str) -> Fraction:
    """Parse a canonical rational string like ``"-3"`` or ``"5/12"``."""
    if not isinstance(text, str) or RATIONAL_PATTERN.fullmatch(text) is None:
        raise ModelFormatError(f"invalid rational string {text!r}")
    # RATIONAL_PATTERN guarantees both parts are ASCII decimal integers with a nonzero denominator.
    numerator, _, denominator = text.partition("/")
    try:
        return Fraction(int(numerator), int(denominator or 1))
    except ValueError as exc:  # past the interpreter's integer-digit limit
        raise ModelFormatError(f"rational string of {len(text)} characters: {exc}") from None


def format_rational(value: Fraction) -> str:
    """Render a Fraction canonically: ``"a/b"``, or ``"a"`` when b == 1."""
    try:
        return str(value)
    except ValueError:  # past the int-to-str digit limit; Decimal prints every digit
        parts = (value.numerator,) if value.denominator == 1 else value.as_integer_ratio()
        return "/".join(str(Decimal(n)) for n in parts)


def decimal_str(value: Fraction) -> str:
    """Decimal rendering of a rational to `DECIMAL_DIGITS` significant digits.

    Convenience only; verdicts never depend on this rounding.
    """
    with localcontext() as ctx:
        ctx.prec = DECIMAL_DIGITS
        quotient = Decimal(value.numerator) / Decimal(value.denominator)
    return str(quotient)


def _scaled_factors(weights) -> tuple[list[int], int]:
    """Integer numerators over one common denominator, for fast exact sums.

    Returns ``(nums, d)`` with ``Fraction(nums[k], d) == weights[k]`` for
    every k; ``d`` is the least common denominator (1 for no weights).
    Exact kernels multiply and add these integers per cell and divide by
    the product of the factors' denominators once, at the end.
    """
    d = lcm(*[w.denominator for w in weights])
    return [w.numerator * (d // w.denominator) for w in weights], d


def _as_fraction(value, where: str) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"{where}: exact rational required, got {value!r}")


def _outcome(value) -> int:
    """A table entry as an int: numpy integers pass; bool, float and str do not."""
    try:
        if type(value) is not bool:
            return operator.index(value)
    except TypeError:
        pass
    raise TypeError(f"integer outcome required, got {value!r}")


@dataclass(frozen=True)
class JointPmf:
    """Source distribution, indexed by (alice share, bob share).

    Construction coerces the weights to exact rationals and scales them
    once: ``_scaled`` holds the flattened weights' `_scaled_factors` pair,
    which validation and the integer routes read instead of rescaling.
    """

    weights: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        coerced = tuple(
            tuple(_as_fraction(w, "source weight") for w in row) for row in self.weights
        )
        object.__setattr__(self, "weights", coerced)
        object.__setattr__(self, "_scaled", _scaled_factors(self.flattened()))

    @property
    def rows(self) -> int:
        return len(self.weights)

    @property
    def cols(self) -> int:
        return len(self.weights[0]) if self.weights else 0

    def flattened(self) -> tuple[Fraction, ...]:
        """Row-major flattening; cell (i, j) lands at index i * cols + j."""
        return tuple(w for row in self.weights for w in row)


@dataclass(frozen=True)
class LocalSetting:
    """One setting's measurement channel: local pmf plus response table.

    ``weights[k]`` is the probability of local value k and ``table[l][k]``
    the outcome at source share l and local value k.  Construction coerces
    (weights must be exact rationals and outcomes integers; numpy integers
    become int) and scales the weights once: ``_scaled`` holds their
    `_scaled_factors` pair, which validation and the integer routes read.
    Whether the fields form a valid setting is checked by
    :func:`validate_model`.
    """

    weights: tuple[Fraction, ...]
    table: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        weights = tuple(_as_fraction(w, "pmf weight") for w in self.weights)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "table", tuple(tuple(map(_outcome, row)) for row in self.table))
        object.__setattr__(self, "_scaled", _scaled_factors(weights))


@dataclass(frozen=True)
class ContextualModel:
    source: JointPmf
    alice: dict[str, LocalSetting]
    bob: dict[str, LocalSetting]

    def __post_init__(self):
        # Defensive copies; treat instances as immutable after construction.
        object.__setattr__(self, "alice", dict(self.alice))
        object.__setattr__(self, "bob", dict(self.bob))

    @property
    def alice_labels(self) -> tuple[str, ...]:
        return tuple(self.alice)

    @property
    def bob_labels(self) -> tuple[str, ...]:
        return tuple(self.bob)

    def contexts(self) -> tuple[tuple[str, str], ...]:
        """The four contexts as (alice_label, bob_label) pairs in context
        order: (x,y), (x,y'), (x',y), (x',y')."""
        a, b = self.alice_labels, self.bob_labels
        if len(a) != 2 or len(b) != 2:
            raise InvalidModelError(
                [f"expected exactly 2 settings per side, found {len(a)} alice / {len(b)} bob"]
            )
        return tuple((x, y) for x in a for y in b)


def _check_total(scaled, where: str, problems: list[str]) -> None:
    """Report weights that do not sum to 1, summed from a factor's stored
    `_scaled_factors` pair: integer numerators over their least common
    denominator."""
    nums, d = scaled
    total = sum(nums)
    if total != d:
        problems.append(
            f"{where}: weights sum to {format_rational(Fraction(total, d))}, expected 1"
        )


def _check_pmf(local: LocalSetting, where: str, problems: list[str]) -> None:
    weights = local.weights
    if not weights:
        problems.append(f"{where}: empty support")
        return
    for k, w in enumerate(weights):
        if w.numerator < 0:
            problems.append(f"{where}[{k}]: negative weight {format_rational(w)}")
    _check_total(local._scaled, where, problems)


def validate_model(model: ContextualModel) -> list[str]:
    """Collect every invariant violation; an empty list means the model is valid.

    Total by design: diagnostics are the return value and malformed input
    never raises.  Each malformed field yields one entry with a locator.
    """
    problems: list[str] = []

    src = model.source
    if src.rows == 0 or src.cols == 0:
        problems.append("source: empty support")
    else:
        width = src.cols
        ragged = False
        for i, row in enumerate(src.weights):
            if len(row) != width:
                problems.append(f"source: row {i} has {len(row)} entries, expected {width}")
                ragged = True
        for i, row in enumerate(src.weights):
            for j, w in enumerate(row):
                if w.numerator < 0:
                    problems.append(f"source[{i}][{j}]: negative weight {format_rational(w)}")
        if not ragged:
            _check_total(src._scaled, "source", problems)

    for side, settings, source_dim in (
        ("alice", model.alice, src.rows),
        ("bob", model.bob, src.cols),
    ):
        if len(settings) != 2:
            problems.append(f"{side}: expected exactly 2 settings, found {len(settings)}")
        for label, local in settings.items():
            where = f"{side}[{label!r}]"
            _check_pmf(local, f"{where}.pmf", problems)
            if len(local.table) != source_dim:
                problems.append(
                    f"{where}.table: {len(local.table)} rows, expected source support {source_dim}"
                )
            for i, row in enumerate(local.table):
                if len(row) != len(local.weights):
                    problems.append(
                        f"{where}.table: row {i} has {len(row)} entries, "
                        f"expected local support {len(local.weights)}"
                    )
            for i, row in enumerate(local.table):
                for j, v in enumerate(row):
                    if v not in (-1, 1):
                        problems.append(f"{where}.table[{i}][{j}]: outcome {v} not in {{-1,+1}}")

    return problems


def require_valid(model: ContextualModel) -> None:
    problems = validate_model(model)
    if problems:
        raise InvalidModelError(problems)


# ---------------------------------------------------------------------------
# Model documents.
#
# UTF-8 JSON with exactly these fields (unknown fields are rejected):
#
#   {
#     "alice":  {"<label>": {"pmf": ["3/4", "1/4"], "table": [[1, -1], [-1, 1]]},
#                "<label'>": {...}},
#     "bob":    {...},
#     "source": [["1/2", "0"], ["0", "1/2"]]
#   }
#
# source rows index Alice's share, columns Bob's share.  Table rows index
# the source share, columns the local value.  Declaration order of the two
# labels per side fixes which is the unprimed setting.
# ---------------------------------------------------------------------------


def model_to_dict(model: ContextualModel) -> dict:
    def side_dict(settings: Mapping[str, LocalSetting]) -> dict:
        return {
            label: {
                "pmf": [format_rational(w) for w in local.weights],
                "table": [list(row) for row in local.table],
            }
            for label, local in settings.items()
        }

    return {
        "alice": side_dict(model.alice),
        "bob": side_dict(model.bob),
        "source": [[format_rational(w) for w in row] for row in model.source.weights],
    }


def canonical_json(model: ContextualModel) -> str:
    """Canonical serialization: compact, fixed key order, declared label order."""
    return json.dumps(model_to_dict(model), separators=(",", ":"))


def model_hash(model: ContextualModel) -> str:
    return hashlib.sha256(canonical_json(model).encode("utf-8")).hexdigest()


def _expect_mapping(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ModelFormatError(f"{where}: expected an object")
    return value


def _expect_keys(doc: dict, required: tuple[str, ...], where: str) -> None:
    unknown = sorted(set(doc) - set(required))
    if unknown:
        raise ModelFormatError(f"{where}: unknown field(s) {unknown}")
    missing = sorted(set(required) - set(doc))
    if missing:
        raise ModelFormatError(f"{where}: missing field(s) {missing}")


def _rational_parser():
    """`parse_rational` that parses each distinct string once.

    The memo lives as long as the returned function, one document's
    parse.  A value that is not a string (unhashable when it is an array
    or an object) skips it, so `parse_rational` raises the same error for
    it as before.
    """
    parsed: dict[str, Fraction] = {}

    def parse(text) -> Fraction:
        if not isinstance(text, str):
            return parse_rational(text)
        value = parsed.get(text)
        if value is None:
            value = parsed[text] = parse_rational(text)
        return value

    return parse


def _parse_side(side: str, doc, parse) -> dict[str, LocalSetting]:
    _expect_mapping(doc, side)
    settings: dict[str, LocalSetting] = {}
    for label, entry in doc.items():
        if not isinstance(label, str):
            raise ModelFormatError(f"{side}: setting labels must be strings")
        try:
            label.encode()
        except UnicodeEncodeError:  # a lone surrogate, which JSON escapes can spell
            raise ModelFormatError(f"{side}: setting label {label!r} is not UTF-8 text") from None
        where = f"{side}[{label!r}]"
        _expect_mapping(entry, where)
        _expect_keys(entry, ("pmf", "table"), where)
        pmf_doc = entry["pmf"]
        if not isinstance(pmf_doc, list):
            raise ModelFormatError(f"{where}.pmf: expected an array")
        weights = tuple(map(parse, pmf_doc))
        table_doc = entry["table"]
        if not isinstance(table_doc, list) or not all(isinstance(r, list) for r in table_doc):
            raise ModelFormatError(f"{where}.table: expected an array of arrays")
        try:
            settings[label] = LocalSetting(weights, table_doc)
        except TypeError as exc:  # the weights are parsed Fractions: a table entry
            raise ModelFormatError(f"{where}.table: {exc}") from None
    return settings


def model_from_dict(doc) -> ContextualModel:
    """Strict parse of a model document; see the schema comment above.

    Each distinct weight string is parsed once per document.  Raises
    :class:`ModelFormatError` on any structural problem.  The result
    may still fail :func:`validate_model`; parsing and validation are
    separate so that diagnostics can name semantic violations precisely.
    """
    _expect_mapping(doc, "model")
    _expect_keys(doc, ("alice", "bob", "source"), "model")
    source_doc = doc["source"]
    if not isinstance(source_doc, list) or not all(isinstance(r, list) for r in source_doc):
        raise ModelFormatError("source: expected an array of arrays")
    parse = _rational_parser()
    source = JointPmf(tuple(tuple(map(parse, row)) for row in source_doc))
    alice = _parse_side("alice", doc["alice"], parse)
    bob = _parse_side("bob", doc["bob"], parse)
    return ContextualModel(source=source, alice=alice, bob=bob)


def _unique_keys(pairs) -> dict:
    """One JSON object as a dict, refusing a key given twice, of which
    `json` would silently keep the last."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ModelFormatError(f"duplicate key {key!r}")
        doc[key] = value
    return doc


def load_model(path) -> ContextualModel:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh, object_pairs_hook=_unique_keys)
        except UnicodeDecodeError as exc:
            raise ModelFormatError(f"{path}: not UTF-8 text ({exc})") from exc
        except (RecursionError, ValueError) as exc:  # also nesting, digit limits, duplicate keys
            raise ModelFormatError(f"{path}: invalid JSON ({exc})") from exc
    return model_from_dict(doc)


@contextmanager
def atomic_writer(path):
    """UTF-8 text handle on a new file beside `path`, renamed over it on
    success.  A writer may also write bytes to the handle's `fileno()`.

    On any exception the temporary file is removed and `path` is left as
    it was, so a reader never sees a partial file.  The temporary name
    carries random bytes as well as the pid, so a file left by a killed
    writer with the same pid blocks nothing and is never removed here.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_model(model: ContextualModel, path) -> None:
    """Write `model` as an indented model document, atomically."""
    with atomic_writer(path) as fh:
        json.dump(model_to_dict(model), fh, indent=2)
        fh.write("\n")
