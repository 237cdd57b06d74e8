"""The four benchmark workloads: seeded inputs, CLI argv and result checks.

Every op is one call of ``bell_lab.cli.main`` with a fixed argv.  Inputs
come only from the workload seed, through this module's own generators,
so an edit to the package cannot change what is measured.  Each op's
result is checked on the fields that define it: against stored reference
values when the run uses the default seed, and against invariants (plus
this module's own exact arithmetic) for any seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

DEFAULT_SEED = 0

# Odd numbers of minus signs: the eight CHSH sign patterns.
CHSH_PATTERNS = tuple(
    (a, b, c, d)
    for a in (1, -1)
    for b in (1, -1)
    for c in (1, -1)
    for d in (1, -1)
    if a * b * c * d == -1
)

WORKLOADS = {
    "certify-large": {
        "why": "exact kernels: certify on seeded random models, 2^18 unified cells each and 2^20 expanded cells per op",
        "unit": "expanded cells",
        "full": (16, 16, 8, 8, 4, 4),
        "tiny": (2, 2, 2, 2, 2, 2),
        "inputs": 3,
    },
    "search-exhaustive": {
        "why": "enumeration and the process pool: 16384 assignments scored per op, the smallest sweep that is sharded",
        "unit": "assignments",
        "full": (2, 2, 2, 2, 2, 1),
        "tiny": (2, 2, 1, 1, 1, 1),
        "inputs": 1,
    },
    "hill-climb": {
        "why": "per-call overhead of the exact kernels on thousands of tiny models",
        "unit": "evaluations",
        "full": 2000,
        "tiny": 50,
        "inputs": 8,
    },
    "simulate-ledger": {
        "why": "sampling and the 19 MB ledger write, the only large-output command",
        "unit": "trials",
        "full": 1_000_000,
        "tiny": 1000,
        "inputs": 4,
    },
}

HILL_CLIMB_CARDINALITIES = (2, 2, 2, 2, 2, 2)
SIMULATE_MODEL = Path("presets") / "noisy_readout.json"


def _rng(workload: str, seed: int, size: str) -> random.Random:
    return random.Random(f"{workload}:{size}:{seed}")


def _composition(rng: random.Random, parts: int, denominator: int) -> list[str]:
    """Strictly positive weights k/denominator summing to 1."""
    cuts = sorted(rng.sample(range(1, denominator), parts - 1))
    bounds = [0, *cuts, denominator]
    return [f"{hi - lo}/{denominator}" for lo, hi in zip(bounds, bounds[1:])]


def _local(rng: random.Random, rows: int, cols: int) -> dict:
    return {
        "pmf": _composition(rng, cols, 4 * cols),
        "table": [[rng.choice((1, -1)) for _ in range(cols)] for _ in range(rows)],
    }


def random_model_doc(rng: random.Random, cardinalities) -> dict:
    """A valid model document with all weights positive.

    Denominators are fixed multiples of each factor's size, so models of
    one shape cost the same to certify whatever the seed.
    """
    s1, s2, la0, la1, lb0, lb1 = cardinalities
    flat = _composition(rng, s1 * s2, 4 * s1 * s2)
    return {
        "source": [flat[r * s2:(r + 1) * s2] for r in range(s1)],
        "alice": {"x": _local(rng, s1, la0), "x'": _local(rng, s1, la1)},
        "bob": {"y": _local(rng, s2, lb0), "y'": _local(rng, s2, lb1)},
    }


def exact_correlations(doc: dict) -> list[Fraction]:
    """The four context correlations of a model document, in canonical order.

    Per-source local means weighted by the source pmf; written here so the
    checks do not rely on any route of the package under test.
    """
    source = [[Fraction(w) for w in row] for row in doc["source"]]

    def means(local):
        pmf = [Fraction(w) for w in local["pmf"]]
        return [sum(p * v for p, v in zip(pmf, row)) for row in local["table"]]

    alice = [means(local) for local in doc["alice"].values()]
    bob = [means(local) for local in doc["bob"].values()]
    return [
        sum(
            w * alice[i][l1] * bob[j][l2]
            for l1, row in enumerate(source)
            for l2, w in enumerate(row)
        )
        for i in (0, 1)
        for j in (0, 1)
    ]


def s_max(correlations) -> Fraction:
    return max(
        abs(sum(s * e for s, e in zip(pattern, correlations))) for pattern in CHSH_PATTERNS
    )


def plan(workload: str, seed: int, size: str, workdir: Path) -> list[dict]:
    """Ops for one run, written inputs included; cycled by the runner.

    Each op: ``key`` names its reference entry, ``argv`` is passed to
    ``main``, ``work`` counts work units and ``params`` feeds the check.
    """
    spec = WORKLOADS[workload]
    shape = spec[size]
    rng = _rng(workload, seed, size)
    ops = []
    for k in range(spec["inputs"]):
        if workload == "certify-large":
            path = workdir / f"model-{k}.json"
            path.write_text(json.dumps(random_model_doc(rng, shape)), encoding="utf-8")
            cells = 1
            for c in shape:
                cells *= c
            argv = ["certify", "--model", str(path)]
            ops.append({"key": f"model-{k}", "argv": argv, "work": 4 * cells,
                        "params": {"model": str(path)}})
        elif workload == "search-exhaustive":
            # Exhaustive search has no seeded input: every seed runs the same sweep.
            bits = shape[0] * (shape[2] + shape[3]) + shape[1] * (shape[4] + shape[5])
            argv = ["search", "--cardinalities", ",".join(map(str, shape))]
            ops.append({"key": "sweep", "argv": argv, "work": 1 << bits,
                        "params": {"evaluated": 1 << bits}})
        elif workload == "hill-climb":
            cli_seed = rng.randrange(2**31)
            argv = ["search", "--mode", "hill-climb", "--budget", str(shape),
                    "--cardinalities", ",".join(map(str, HILL_CLIMB_CARDINALITIES)),
                    "--seed", str(cli_seed)]
            ops.append({"key": f"seed-{cli_seed}", "argv": argv, "work": shape,
                        "params": {"evaluated": shape}})
        else:
            cli_seed = rng.randrange(2**31)
            out = workdir / "sim"
            argv = ["simulate", "--model", str(SIMULATE_MODEL), "--n", str(shape),
                    "--seed", str(cli_seed), "--out", str(out)]
            ops.append({"key": f"seed-{cli_seed}", "argv": argv, "work": shape,
                        "params": {"n": shape, "out": str(out), "model": str(SIMULATE_MODEL)}})
    return ops


# -- checks -----------------------------------------------------------------


class CheckFailed(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _check_certify(op, stdout: str) -> dict:
    doc = json.loads(stdout)
    eq, red, chsh = doc["equivalence"], doc["reduction"], doc["chsh"]
    corr = [chsh["correlations"][k] for k in ("e_xy", "e_xy'", "e_x'y", "e_x'y'")]
    routes = (eq["dedicated"], eq["factored"], eq["expanded"], red["original"], red["reduced"], corr)
    _require(all(r == routes[0] for r in routes), "routes or reduction disagree")
    _require(eq["equal"] and red["equal"] and doc["all_passed"], "certify verdict not passed")
    model = json.loads(Path(op["params"]["model"]).read_text(encoding="utf-8"))
    expected = exact_correlations(model)
    _require([Fraction(v) for v in eq["dedicated"]] == expected,
             "correlations differ from exact recomputation")
    _require(Fraction(chsh["s_max"]) == s_max(expected) <= 2, "s_max wrong or above 2")
    return {"correlations": eq["dedicated"], "s_max": chsh["s_max"], "all_passed": doc["all_passed"]}


def _check_search(op, stdout: str) -> dict:
    doc = json.loads(stdout)
    best = Fraction(doc["best_s_max"])
    _require(best <= 2, "best_s_max above 2")
    _require(doc["evaluated"] == op["params"]["evaluated"], "evaluated differs from the budget")
    _require(Fraction(doc["certificate"]["s_max"]) == best, "certificate disagrees with best_s_max")
    _require(s_max(exact_correlations(doc["best_model"])) == best, "best_model does not score best_s_max")
    scores = [Fraction(s) for _, s in doc["improvements"]]
    _require(bool(scores) and scores[-1] == best, "improvements do not end at best_s_max")
    _require(all(a < b for a, b in zip(scores, scores[1:])), "improvements not increasing")
    return {k: doc[k] for k in ("best_s_max", "best_model", "improvements", "evaluated")}


def _check_simulate(op, stdout: str) -> dict:
    params = op["params"]
    out = Path(params["out"])
    doc = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    ledger = (out / "ledger.csv").read_bytes()
    n = params["n"]
    _require(doc["n"] == n and sum(c["n"] for c in doc["contexts"]) == n, "trial counts wrong")
    _require(ledger.count(b"\n") == n + 1, "ledger row count wrong")
    _require(doc["exact_no_signalling_equal"] is True, "exact no-signalling check failed")
    model = json.loads(Path(params["model"]).read_text(encoding="utf-8"))
    expected = exact_correlations(model)
    for ctx, e in zip(doc["contexts"], expected):
        _require(Fraction(ctx["e_exact"]) == e, "e_exact differs from exact recomputation")
        _require(abs(ctx["e_hat"] - float(e)) <= 6 * ctx["standard_error"] + 1e-12,
                 "e_hat more than 6 standard errors from e_exact")
    return {
        "contexts": [[c["alice"], c["bob"], c["n"], c["e_hat"], c["e_exact"]] for c in doc["contexts"]],
        "no_signalling": doc["no_signalling"]["rows"],
        "ledger_sha256": hashlib.sha256(ledger).hexdigest(),
    }


CHECKS = {
    "certify-large": _check_certify,
    "search-exhaustive": _check_search,
    "hill-climb": _check_search,
    "simulate-ledger": _check_simulate,
}


def reference_for(workload: str, seed: int, size: str, stored: dict) -> dict | None:
    """Stored results that apply to this run, or None.

    References are kept for the default seed; the exhaustive sweep has no
    seeded input, so its reference applies to every seed.
    """
    if seed != DEFAULT_SEED and workload != "search-exhaustive":
        return None
    return stored.get(workload, {}).get(size)


def check(workload: str, op: dict, code: int, stdout: str, reference: dict | None) -> dict:
    """Raise CheckFailed unless the op succeeded and its result is right.

    Returns the defining fields, which is what a reference entry stores.
    """
    _require(code == 0, f"exit code {code}")
    fields = CHECKS[workload](op, stdout)
    if reference is not None and op["key"] in reference:
        expected = reference[op["key"]]
        _require(json.loads(json.dumps(fields)) == expected, "result differs from the stored reference")
    return fields
