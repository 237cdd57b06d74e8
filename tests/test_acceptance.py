"""Acceptance gate.

Seven checks, each printing a single [PASS]/[FAIL] line.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete.  The campaign fixture draws one thousand random models with
per-axis cardinalities up to four; the same pool feeds the equivalence,
bound, reduction, and no-signalling checks.
"""

import math
import time
from fractions import Fraction

import pytest

from conftest import campaign_models
from bell_lab.chsh import certify_lhv_bound, certify_model
from bell_lab.cli import main
from bell_lab.models import save_model
from bell_lab.search import (
    SearchMode,
    SearchSpec,
    decode_assignment,
    enumerate_deterministic,
)
from bell_lab.simulate import (
    empirical_chsh,
    no_signalling_report,
    quantum_reference,
    simulate_trials,
)
from bell_lab.exact import correlation_set, verify_no_signalling
from tests_support import PRESETS

OPTIMAL_ANGLES = (0.0, math.pi / 2, math.pi / 4, 3 * math.pi / 4)


@pytest.fixture(scope="module")
def campaign():
    return campaign_models(1000)


def report(label: str, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    print(f"[{verdict}] {label}: {detail}")
    assert passed, f"{label}: {detail}"


def test_three_route_equivalence(campaign):
    start = time.perf_counter()
    failures = sum(1 for model in campaign if not certify_model(model).equivalence.equal)
    elapsed = time.perf_counter() - start
    report(
        "three-route context equivalence",
        failures == 0 and elapsed < 60.0,
        f"{len(campaign)} models, {failures} mismatches, {elapsed:.1f}s",
    )


def test_chsh_bound_holds(campaign):
    start = time.perf_counter()
    worst = Fraction(0)
    for model in campaign:
        certificate = certify_lhv_bound(model)  # raises on violation
        worst = max(worst, certificate.report.s_max)
    # The 16 deterministic strategies are the vertices of the local polytope.
    vertices = [
        certify_lhv_bound(decode_assignment((1, 1, 1, 1, 1, 1), m)).report.s_max
        for m in range(16)
    ]
    spec = SearchSpec(
        cardinalities=(2, 2, 2, 2, 2, 2),
        mode=SearchMode.EXHAUSTIVE,
    )
    result = enumerate_deterministic(spec)
    elapsed = time.perf_counter() - start
    report(
        "CHSH bound on campaign and deterministic strategies",
        worst <= 2
        and max(vertices) == 2
        and result.best_s_max == 2
        and elapsed < 120.0,
        f"campaign max |s| = {worst}, max over {len(vertices)} strategies = "
        f"{max(vertices)}, exhaustive best = {result.best_s_max} "
        f"covering {result.evaluated} assignments, {elapsed:.1f}s",
    )


def test_uniform_reduction_preserves_correlations(campaign):
    failures = sum(1 for model in campaign if not certify_model(model).reduction.equal)
    report(
        "inverse-transform reduction",
        failures == 0,
        f"{len(campaign)} models, {failures} mismatches",
    )


def test_exact_no_signalling(campaign):
    failures = sum(1 for model in campaign if not verify_no_signalling(model).equal)
    report(
        "exact marginal no-signalling",
        failures == 0,
        f"{len(campaign)} models, {failures} unequal marginals",
    )


def test_monte_carlo_agreement():
    n = 10**6
    seeds = range(20)
    start = time.perf_counter()
    summary = []
    ok = True
    for name in ("perfect_correlation", "noisy_readout"):
        model = PRESETS[name]()
        exact = correlation_set(model).as_tuple()
        within, calm = 0, 0
        for seed in seeds:
            ledger = simulate_trials(model, n, seed=seed)
            emp = empirical_chsh(ledger)
            if all(
                abs(e_hat - float(e)) <= 3.0 / math.sqrt(n_ctx)
                for e_hat, e, n_ctx in zip(emp.correlations, exact, emp.n_per_context)
            ):
                within += 1
            if no_signalling_report(ledger).max_abs_z < 4.0:
                calm += 1
        ok = ok and within >= 19 and calm >= 19
        summary.append(f"{name} {within}/20 within 3 sigma, {calm}/20 quiet")
    elapsed = time.perf_counter() - start
    report(
        "Monte Carlo tracks exact correlations",
        ok and elapsed < 300.0,
        "; ".join(summary) + f", {elapsed:.1f}s",
    )


def test_quantum_reference_violates():
    emp = empirical_chsh(quantum_reference(OPTIMAL_ANGLES, 10**6, seed=0))
    gap = abs(emp.s_max - 2 * math.sqrt(2))
    sigmas = (emp.s_max - 2) / emp.sum_standard_error
    report(
        "singlet reference breaks the bound",
        gap <= 0.01 and sigmas > 5.0,
        f"s_max = {emp.s_max:.4f}, gap {gap:.4f}, {sigmas:.0f} sigma above 2",
    )


def test_seeded_outputs_byte_identical(tmp_path):
    model_path = tmp_path / "model.json"
    save_model(PRESETS["noisy_readout"](), model_path)

    certs = [tmp_path / "cert_a.json", tmp_path / "cert_b.json"]
    for cert in certs:
        assert main(["certify", "--model", str(model_path), "--out", str(cert)]) == 0
    certify_ok = certs[0].read_bytes() == certs[1].read_bytes()

    runs = [tmp_path / "run_a", tmp_path / "run_b"]
    for run_dir in runs:
        code = main(
            [
                "simulate",
                "--model", str(model_path),
                "--n", "20000",
                "--seed", "3",
                "--out", str(run_dir),
            ]
        )
        assert code == 0
    simulate_ok = all(
        (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()
        for name in ("ledger.csv", "summary.json")
    )

    searches = [tmp_path / "search_a.json", tmp_path / "search_b.json"]
    for target in searches:
        code = main(
            [
                "search",
                "--mode", "random",
                "--budget", "200",
                "--seed", "9",
                "--out", str(target),
            ]
        )
        assert code == 0
    search_ok = searches[0].read_bytes() == searches[1].read_bytes()

    report(
        "seeded reruns are byte-identical",
        certify_ok and simulate_ok and search_ok,
        f"certify {certify_ok}, simulate {simulate_ok}, search {search_ok}",
    )
