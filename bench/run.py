"""bell-lab benchmark: four CLI workloads end to end, with a traced variant.

Run from the repository root:

    python3 bench/run.py --workload certify-large --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seconds 20

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1``
the per-layer metrics from spans around the package's public functions.
The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full result, with provenance, is written
to ``.bench_work/results/``.  See bench/README.md for what each workload
and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = Path(".bench_work")
SETUP_SAMPLES = 8  # per batch; one batch before the ops, one after
RUN_LIMIT_S = 160  # leaves room for the second set-up batch within 180 s

# Declared in BENCHMARK.json.  Op times are divided by the probe time
# measured around each op (see runner.probe): on a shared host, other
# tenants move seconds far more than they move probe units.
END_TO_END = {
    "work_per_probe": "1/probe",
    "op_cost.p50": "probe",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# Printed and recorded, not gated: too noisy on a shared host.
RAW = {"work_per_s": "1/s", "op_s.p50": "s", "probe_s.p50": "s"}
SELF_TIMED = (
    "unified.expectation_unified_expanded",
    "unified.expectation_unified",
    "exact.expectation_in_context",
    "models.validate_model",
    "models.load_model",
    "reduction.verify_reduction",
    "reduction.reduce_model",
    "chsh.chsh_from_correlations",
    "chsh.certify_lhv_bound",
    "search.enumerate_deterministic",
    "search.hill_climb",
    "simulate.TrialLedger.to_csv",
    "simulate.simulate_trials",
    "simulate.empirical_chsh",
    "simulate.no_signalling_report",
    "simulate.verify_no_signalling",
    "cli.main",
)
COUNTED = (
    "exact.expectation_in_context",
    "exact.correlation_set",
    "models.validate_model",
    "chsh.chsh_from_correlations",
    "search.random_model",
    "simulate.TrialLedger.context_counts",
)
PER_LAYER = {
    **{f"{name}.self_s": "s" for name in SELF_TIMED},
    **{f"{name}.calls": "count" for name in COUNTED},
    "unified.expanded_cells": "count",
    "search.assignments": "count",
    "search.workers": "count",
    "search.useful_ratio": "ratio",
    "simulate.ledger_bytes": "B",
    "simulate.ledger_mb_per_s": "MB/s",
    "simulate.simulate_trials.alloc_peak_mb": "MB",
    "trace.op_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.remainder_s": "s",
    "trace.unlisted_self_s": "s",
}

# Parses the workload's argv in a fresh interpreter: the cost every CLI call pays.
SETUP_SNIPPET = (
    "import sys; sys.path.insert(0, sys.argv[1]); import bell_lab.cli as cli; "
    "cli.build_parser().parse_args(sys.argv[2:])"
)


class BenchError(RuntimeError):
    pass


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_commit() -> str:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def src_lines() -> int:
    return sum(
        len(path.read_bytes().splitlines()) for path in sorted((ROOT / "src").rglob("*.py"))
    )


def measure_setup(argv: list[str], env: dict) -> list[float]:
    cmd = [sys.executable, "-c", SETUP_SNIPPET, "src", *argv]
    samples = []
    for k in range(SETUP_SAMPLES + 1):  # the first call fills the bytecode cache
        start = perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=60)
        elapsed = perf_counter() - start
        if done.returncode != 0:
            raise BenchError(f"set-up probe failed: {done.stderr.decode(errors='replace').strip()}")
        if k:
            samples.append(elapsed)
    return samples


def run_runner(plan_path: Path, report_path: Path, env: dict, timeout: float) -> dict:
    cmd = [sys.executable, str(Path("bench") / "runner.py"), str(plan_path), str(report_path)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise BenchError(f"runner exceeded {timeout:.0f} s") from None
    if code != 0:
        raise BenchError(f"runner exited with code {code}")
    return json.loads(report_path.read_text(encoding="utf-8"))


def layer_metrics(trace: dict, plain: list[dict], traced: list[dict]) -> dict:
    metrics = {name: trace.get(name, 0.0) for name in PER_LAYER}
    assignments = trace.get("search.assignments", 0.0)
    classes = trace.get("search.popcount_classes", 0.0)
    metrics["search.useful_ratio"] = classes / assignments if assignments else 0.0
    write_s = trace.get("simulate.TrialLedger.to_csv.self_s", 0.0)
    ledger = trace.get("simulate.ledger_bytes", 0.0)
    metrics["simulate.ledger_mb_per_s"] = ledger / write_s / 1e6 if write_s else 0.0
    # In probe units, so that a change in host speed between ops cancels.
    metrics["trace.overhead_ratio"] = (
        statistics.median(r["op_s"] / r["probe_s"] for r in traced)
        / statistics.median(r["op_s"] / r["probe_s"] for r in plain) - 1
    )
    listed = sum(trace.get(f"{name}.self_s", 0.0) for name in SELF_TIMED)
    metrics["trace.remainder_s"] = statistics.fmean(r["op_s"] for r in traced) - listed
    metrics["trace.unlisted_self_s"] = trace["trace.spanned_s"] - listed
    return metrics


def run_workload(args, reference: dict) -> dict:
    """One run of one workload; returns the full result document."""
    workdir = WORK / args.workload
    shutil.rmtree(ROOT / workdir, ignore_errors=True)
    (ROOT / workdir).mkdir(parents=True)
    os.chdir(ROOT)
    ops = workloads.plan(args.workload, args.seed, args.size, workdir)
    threads = 1 if args.trace else min(2, nproc())
    env = {**os.environ, "BELL_LAB_THREADS": str(threads)}
    env.pop("PYTHONPATH", None)
    started = perf_counter()

    # Set-up is sampled before and after the ops, so one slow stretch of
    # the host does not decide it.
    setup = [] if args.trace else measure_setup(ops[0]["argv"], env)
    plan = {
        "workload": args.workload,
        "ops": ops,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "reference": workloads.reference_for(args.workload, args.seed, args.size, reference),
    }
    plan_path = workdir / "plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    report = run_runner(plan_path, workdir / "report.json", env,
                        RUN_LIMIT_S - (perf_counter() - started))
    shutil.rmtree(ROOT / workdir / "sim", ignore_errors=True)
    if not args.trace:
        setup += measure_setup(ops[0]["argv"], env)

    records = report["records"]
    failed = sum(not r["ok"] for r in records)
    plain = [r for r in records if not r["traced"] and not r["warmup"]]
    plain_op_s = [r["op_s"] for r in plain]
    raw = {}
    if args.trace:
        traced = [r for r in records if r["traced"]]
        metrics = layer_metrics(report["trace"], plain, traced)
        units = PER_LAYER
    else:
        cost = statistics.median(r["op_s"] / r["probe_s"] for r in plain)
        work = sum(r["work"] for r in plain)
        metrics = {
            # Work per op is fixed, so this is the rate at the median op.
            "work_per_probe": work / len(plain) / cost,
            "op_cost.p50": cost,
            "peak_rss_mb": report["maxrss_mb"],
            "setup_s": statistics.median(setup),
        }
        units = END_TO_END
        raw = {
            "work_per_s": work / sum(plain_op_s),
            "op_s.p50": statistics.median(plain_op_s),
            "probe_s.p50": statistics.median(r["probe_s"] for r in plain),
        }
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "trace": args.trace,
        "attempted": len(records),
        "failed": failed,
        "fail_ratio": failed / len(records),
        "samples": {"ops": len(plain_op_s), "setup": len(setup)},
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "raw": {name: {"value": raw[name], "unit": RAW[name]} for name in raw},
        "provenance": {
            "commit": git_commit(),
            "nproc": nproc(),
            "python": report["python"],
            "numpy": report["numpy"],
            "BELL_LAB_THREADS": threads,
            "input": {"unit": workloads.WORKLOADS[args.workload]["unit"],
                      "per_op": sorted({op["work"] for op in ops}),
                      "inputs": len(ops)},
            "src_lines": src_lines(),
        },
        "op_s": plain_op_s,
        "probe_s": [r["probe_s"] for r in plain],
    }


def print_result(doc: dict) -> None:
    prov = doc["provenance"]
    unit = prov["input"]["unit"]
    print(f"workload {doc['workload']}  seed {doc['seed']}  size {doc['size']}  "
          f"seconds {doc['seconds']}  trace {doc['trace']}")
    print(f"  provenance: commit {prov['commit']}  nproc {prov['nproc']}  python {prov['python']}  "
          f"numpy {prov['numpy']}  BELL_LAB_THREADS {prov['BELL_LAB_THREADS']}  "
          f"src_lines {prov['src_lines']}  input {prov['input']['per_op']} {unit}/op")
    ops = doc["samples"]["ops"]
    notes = {
        "work_per_probe": f"({unit} per probe unit at the median op, {ops} ops)",
        "op_cost.p50": f"(median op time in probe units, n={ops})",
        "setup_s": f"(median of n={doc['samples']['setup']})",
        "work_per_s": f"({unit} per second, {ops} ops; not gated)",
        "op_s.p50": f"(n={ops}; not gated)",
        "probe_s.p50": "(one probe unit; not gated)",
    }
    for name, metric in {**doc["metrics"], **doc["raw"]}.items():
        print(f"  {name:<42} {metric['value']:.6g} {metric['unit']}  {notes.get(name, '')}".rstrip())
    print(f"  {'fail_ratio':<42} {doc['fail_ratio']:.6g} ratio  "
          f"({doc['failed']} of {doc['attempted']} ops)")


def save_result(doc: dict) -> None:
    out = ROOT / WORK / "results"
    out.mkdir(parents=True, exist_ok=True)
    name = f"{doc['workload']}-{doc['size']}-seed{doc['seed']}-trace{doc['trace']}.json"
    (out / name).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs every workload at a toy size, for the self-test")
    parser.add_argument("--reference", type=Path, default=ROOT / "bench" / "reference.json",
                        help="stored results for the default seed")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for needed in (ROOT / "src" / "bell_lab" / "cli.py", ROOT / workloads.SIMULATE_MODEL):
        if not needed.is_file():
            print(f"error: {needed} is missing; run from a full checkout", file=sys.stderr)
            return 2
    reference = json.loads(args.reference.read_text(encoding="utf-8"))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    docs = []
    try:
        for name in names:
            doc = run_workload(argparse.Namespace(**{**vars(args), "workload": name}), reference)
            save_result(doc)
            print_result(doc)
            docs.append(doc)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(d["attempted"] for d in docs)
    failed = sum(d["failed"] for d in docs)
    if len(docs) == 1:
        metrics = docs[0]["metrics"]
    else:
        metrics = {f"{d['workload']}/{name}": m for d in docs for name, m in d["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
