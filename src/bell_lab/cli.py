"""Command-line front end.

Subcommands: check, certify, search, simulate.  Exit codes: 0 all passed,
1 verdict failure or invariant violation, 2 input or I/O error, 3
resource guard tripped or memory exhausted.  All JSON output is printed
with sorted keys and fixed indentation so identical inputs produce
byte-identical bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .chsh import BoundViolationError, certify_lhv_bound, certify_model
from .exact import correlation_set, verify_no_signalling
from .models import (
    InvalidModelError,
    ModelFormatError,
    atomic_writer,
    decimal_str,
    format_rational,
    load_model,
    model_hash,
    model_to_dict,
    validate_model,
)
from .search import (
    DEFAULT_ASSIGNMENT_LIMIT,
    SearchLimitError,
    SearchMode,
    SearchSpec,
    run_search,
)
from .simulate import (
    RNG_ALGORITHM,
    EmptyContextError,
    empirical_chsh,
    no_signalling_report,
    quantum_reference,
    simulate_trials,
)
from .unified import DEFAULT_CELL_LIMIT, SizeExceededError

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_INPUT = 2
EXIT_GUARD = 3


def _render(doc: dict, fmt: str) -> str:
    if fmt == "text":
        return "".join(f"{line}\n" for line in _text_lines(doc))
    if fmt == "csv":
        return "".join(f"{key},{value}\n" for key, value in _flat_items(doc, ()))
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _write_atomic(path, text: str) -> None:
    """Write beside the target, then rename over it: never a partial file."""
    with atomic_writer(path) as fh:
        fh.write(text)


def _emit(doc: dict, args) -> None:
    rendered = _render(doc, args.format)
    out = getattr(args, "out", None)
    if out:
        _write_atomic(out, rendered)
    else:
        sys.stdout.write(rendered)


def _text_lines(doc, prefix=""):
    for key in sorted(doc):
        value = doc[key]
        if isinstance(value, dict):
            yield f"{prefix}{key}:"
            yield from _text_lines(value, prefix + "  ")
        else:
            yield f"{prefix}{key}: {value}"


def _flat_items(doc, path):
    for key in sorted(doc):
        value = doc[key]
        joined = ".".join((*path, str(key)))
        if isinstance(value, dict):
            yield from _flat_items(value, (*path, str(key)))
        else:
            yield joined, json.dumps(value) if isinstance(value, (list, str)) else value


def cmd_check(args) -> int:
    model = load_model(args.model)
    problems = validate_model(model)
    if args.format == "json":
        _emit({"valid": not problems, "violations": problems}, args)
    else:
        for problem in problems:
            print(problem)
        if not problems:
            print("ok")
    return EXIT_OK if not problems else EXIT_VERDICT


def cmd_certify(args) -> int:
    if args.limit < 1:
        raise ModelFormatError(f"--limit must be at least 1, got {args.limit}")
    result = certify_model(load_model(args.model), cell_limit=args.limit)
    _emit({"command": "certify", **result.to_dict()}, args)
    return EXIT_OK if result.all_passed else EXIT_VERDICT


def _parse_cardinalities(raw: str):
    try:
        values = tuple(int(part) for part in raw.split(","))
    except ValueError:
        raise ModelFormatError(f"cardinalities must be integers, got {raw!r}") from None
    if len(values) != 6:
        raise ModelFormatError(f"expected 6 cardinalities, got {len(values)}")
    return values


def cmd_search(args) -> int:
    cardinalities = _parse_cardinalities(args.cardinalities)
    try:
        spec = SearchSpec(
            cardinalities=cardinalities,
            mode=SearchMode(args.mode),
            seed=args.seed,
            budget=args.budget,
            assignment_limit=args.limit,
        )
    except ValueError as exc:  # out-of-range flags are input errors
        raise ModelFormatError(str(exc)) from None
    result = run_search(spec)
    certificate = certify_lhv_bound(result.best_model)
    doc = {
        "command": "search",
        "mode": spec.mode.value,
        "cardinalities": list(spec.cardinalities),
        "seed": spec.seed,
        "evaluated": result.evaluated,
        "rng_algorithm": result.rng_algorithm,
        "improvements": [[k, format_rational(s)] for k, s in result.improvements],
        "best_s_max": format_rational(result.best_s_max),
        "best_s_max_decimal": decimal_str(result.best_s_max),
        "best_model": model_to_dict(result.best_model),
        "certificate": certificate.to_dict(),
    }
    _emit(doc, args)
    return EXIT_OK


def _parse_angles(raw: str):
    parts = raw.split(",")
    if len(parts) != 4:
        raise ModelFormatError(f"--quantum needs 4 comma-separated angles, got {raw!r}")
    try:
        angles = tuple(float(p) for p in parts)
    except ValueError:
        raise ModelFormatError(f"bad angle in {raw!r}") from None
    if not all(math.isfinite(angle) for angle in angles):
        raise ModelFormatError(f"--quantum angles must be finite, got {raw!r}")
    return angles


def _context_section(ledger, exact_by_context):
    empirical = empirical_chsh(ledger)
    contexts = []
    for ctx, n_ctx, e_hat, se in zip(
        empirical.contexts,
        empirical.n_per_context,
        empirical.correlations,
        empirical.standard_errors,
    ):
        entry = {
            "alice": ctx[0],
            "bob": ctx[1],
            "n": n_ctx,
            "e_hat": e_hat,
            "standard_error": se,
        }
        if exact_by_context is not None:
            entry["e_exact"] = format_rational(exact_by_context[ctx])
            entry["e_exact_decimal"] = decimal_str(exact_by_context[ctx])
        contexts.append(entry)
    return empirical, contexts


def cmd_simulate(args) -> int:
    if (args.model is None) == (args.quantum is None):
        raise ModelFormatError("simulate needs exactly one of --model or --quantum")
    if args.n < 1:
        raise ModelFormatError(f"--n must be at least 1, got {args.n}")
    if args.seed < 0:
        raise ModelFormatError(f"--seed must be non-negative, got {args.seed}")

    if args.quantum is not None:
        angles = _parse_angles(args.quantum)
        ledger = quantum_reference(angles, n=args.n, seed=args.seed)
        exact_by_context = None
        extra = {"quantum_angles": list(angles)}
    else:
        model = load_model(args.model)
        ledger = simulate_trials(model, n=args.n, seed=args.seed)
        exact_by_context = {
            (ctx.alice, ctx.bob): e
            for ctx, e in zip(model.contexts(), correlation_set(model).as_tuple())
        }
        extra = {
            "model_sha256": model_hash(model),
            "exact_no_signalling_equal": verify_no_signalling(model).equal,
        }

    try:
        empirical, contexts = _context_section(ledger, exact_by_context)
        signalling = no_signalling_report(ledger)
    except EmptyContextError as exc:
        raise ModelFormatError(f"{exc}: --n {args.n} is too small") from None
    doc = {
        "command": "simulate",
        "n": ledger.n,
        "seed": ledger.seed,
        "rng_algorithm": RNG_ALGORITHM,
        "contexts": contexts,
        "chsh": {
            "sums": list(empirical.sums),
            "s_max": empirical.s_max,
            "sum_standard_error": empirical.sum_standard_error,
        },
        "no_signalling": {
            "rows": [
                {
                    "side": row.side,
                    "setting": row.setting,
                    "outcome": row.outcome,
                    "remote": list(row.remote_labels),
                    "frequencies": list(row.frequencies),
                    "difference": row.difference,
                    "standard_error": row.standard_error,
                    "z": row.z,
                }
                for row in signalling.rows
            ],
            "max_abs_z": signalling.max_abs_z,
        },
        **extra,
    }

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    ledger.to_csv(out_dir / "ledger.csv")
    _write_atomic(out_dir / "summary.json", _render(doc, "json"))
    if args.histogram:
        _write_atomic(out_dir / "histogram.csv", _histogram_text(ledger))
    sys.stdout.write(_render(doc, args.format))
    return EXIT_OK


def _histogram_text(ledger) -> str:
    lines = ["alice_setting,bob_setting,a,b,count\n"]
    for (alice_label, bob_label), cells in ledger.context_counts().items():
        for (va, vb), count in cells.items():
            lines.append(f"{alice_label},{bob_label},{va:+d},{vb:+d},{count}\n")
    return "".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bell-lab",
        description="Exact verification and seeded simulation of contextual "
        "local hidden-variable models of Bell experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="validate a model file")
    check.add_argument("--model", required=True, help="model JSON file")
    check.add_argument("--format", choices=("json", "text"), default="text")
    check.set_defaults(func=cmd_check)

    certify = sub.add_parser(
        "certify", help="verify equivalence, reduction, and the CHSH bound"
    )
    certify.add_argument("--model", required=True, help="model JSON file")
    certify.add_argument("--out", help="write the certificate here instead of stdout")
    certify.add_argument(
        "--limit",
        type=int,
        default=DEFAULT_CELL_LIMIT,
        help="expanded product-space cell limit",
    )
    certify.add_argument("--format", choices=("json", "text", "csv"), default="json")
    certify.set_defaults(func=cmd_certify)

    search = sub.add_parser("search", help="search the strategy space")
    search.add_argument(
        "--mode",
        choices=[m.value for m in SearchMode],
        default=SearchMode.EXHAUSTIVE.value,
    )
    search.add_argument(
        "--cardinalities",
        default="2,2,1,1,1,1",
        help="six comma-separated sizes: source pair, Alice locals, Bob locals",
    )
    search.add_argument("--seed", type=int, default=0)
    search.add_argument("--budget", type=int, default=1000)
    search.add_argument(
        "--limit",
        type=int,
        default=DEFAULT_ASSIGNMENT_LIMIT,
        help="assignment-count limit for exhaustive mode",
    )
    search.add_argument("--out", help="write the result here instead of stdout")
    search.add_argument("--format", choices=("json", "text", "csv"), default="json")
    search.set_defaults(func=cmd_search)

    simulate = sub.add_parser("simulate", help="run seeded Monte Carlo trials")
    simulate.add_argument("--model", help="model JSON file")
    simulate.add_argument(
        "--quantum",
        help="four comma-separated angles: run the singlet reference instead",
    )
    simulate.add_argument("--n", type=int, default=100000)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--out", required=True, help="output directory")
    simulate.add_argument(
        "--histogram",
        action="store_true",
        help="also write per-context outcome counts",
    )
    simulate.add_argument("--format", choices=("json", "text"), default="json")
    simulate.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ModelFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InvalidModelError as exc:
        for problem in exc.violations:
            print(problem, file=sys.stderr)
        return EXIT_VERDICT
    except BoundViolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERDICT
    except (SizeExceededError, SearchLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except MemoryError as exc:
        print("error:", str(exc) or "out of memory", file=sys.stderr)
        return EXIT_GUARD
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
