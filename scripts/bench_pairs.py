"""Alternating benchmark pairs of two commits, with the pair rule applied.

Run from anywhere inside the repository:

    python3 scripts/bench_pairs.py PARENT CHANGE [--workload W]
    python3 scripts/bench_pairs.py PARENT CHANGE --workload all

Both commits are exported with ``git archive`` into a temporary directory,
so neither run loads bytecode a working tree left behind.  Each of ten
pairs k runs ``bench/run.py --workload W --seed k`` in each export, at
the run length the benchmark sets, the parent first on odd k and the
change first on even k, and prints both sides' failed ops and end-to-end
metrics.  The summary gives each metric's median and quartiles per side,
the pairs the change won (ties count for neither), the relative change of
the medians against the bound in the change's ``BENCHMARK.json``, and
whether the pairs show a gain: the change fails no more ops in total than
the parent, wins at least nine pairs in ten, and its median is better
than the parent's by more than the parent's interquartile range.
``--workload all`` runs the ten pairs for each workload the change's
``BENCHMARK.json`` declares, in its order, and prints each workload's
summary after its pairs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

PAIRS = 10


def export(commit: str, dest: Path) -> Path:
    """A clean tree of `commit` at `dest`."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", "--format=tar", commit],
                             capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def bench(tree: Path, workload: str, seed: int) -> dict:
    """One `bench/run.py` run in `tree`: its last stdout line, parsed."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)],
        cwd=tree, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"bench/run.py in {tree} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile)."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs, failed, end_to_end) -> list[dict]:
    """One row per metric of `pairs`, a list of (parent, change) metric
    dicts {name: value}.  `failed` holds each pair's (parent, change)
    failed-op counts; a change that fails more ops in total shows no gain.
    `end_to_end` maps a metric's base name (the part after any "workload/"
    prefix) to its BENCHMARK.json entry."""
    fails_no_more = sum(c for _, c in failed) <= sum(p for p, _ in failed)
    rows = []
    for name in pairs[0][0]:
        spec = end_to_end[name.rsplit("/", 1)[-1]]
        sign = 1 if spec["better"] == "higher" else -1
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        p_q, c_q = quartiles(parent), quartiles(change)
        gain = sign * (c_q[1] - p_q[1])
        rows.append({
            "metric": name,
            "parent": p_q,
            "change": c_q,
            "wins": wins,
            "pairs": len(pairs),
            # Positive when the change's median is worse, as a share of the parent's.
            "worse_by": -gain / abs(p_q[1]) if p_q[1] else 0.0,
            "bound": spec["bound"],
            "gain": fails_no_more and 10 * wins >= 9 * len(pairs) and gain > p_q[2] - p_q[0],
        })
    return rows


def render(rows) -> str:
    lines = [f"{'metric':<36} {'parent q1/med/q3':>30} {'change q1/med/q3':>30} "
             f"{'wins':>6} {'worse by':>9} {'bound':>6}  gain"]
    for r in rows:
        p, c = ("/".join(f"{v:.4g}" for v in r[side]) for side in ("parent", "change"))
        lines.append(f"{r['metric']:<36} {p:>30} {c:>30} {r['wins']:>3}/{r['pairs']:<2} "
                     f"{r['worse_by']:>+9.1%} {r['bound']:>6.0%}  {'yes' if r['gain'] else 'no'}")
    return "\n".join(lines)


def run_pairs(trees: dict, workload: str) -> tuple[list, list]:
    """Ten alternating pairs of `workload` in the two `trees`, each printed
    as it finishes: the pairs' metric dicts and failed-op counts, both as
    (parent, change)."""
    pairs, failed = [], []
    for k in range(1, PAIRS + 1):
        order = ("parent", "change") if k % 2 else ("change", "parent")
        runs = {side: bench(trees[side], workload, k) for side in order}
        values = {side: {name: m["value"] for name, m in run["metrics"].items()}
                  for side, run in runs.items()}
        pairs.append((values["parent"], values["change"]))
        failed.append((runs["parent"]["failed"], runs["change"]["failed"]))
        print(f"{workload} pair {k} ({order[0]} first, seed {k}):"
              + "".join(f" {side} failed {runs[side]['failed']}/{runs[side]['attempted']};"
                        for side in ("parent", "change")))
        for name in values["parent"]:
            print(f"  {name:<36} parent {values['parent'][name]:.6g}  "
                  f"change {values['change'][name]:.6g}")
        sys.stdout.flush()
    return pairs, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", default="certify-large")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: export(commit, Path(tmp) / side)
                 for side, commit in (("parent", args.parent), ("change", args.change))}
        spec = json.loads((trees["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
        end_to_end = {m["name"]: m for m in spec["end_to_end"]}
        names = ([w["name"] for w in spec["workloads"]] if args.workload == "all"
                 else [args.workload])
        for workload in names:
            pairs, failed = run_pairs(trees, workload)
            print(f"summary of {workload}:")
            print(render(summarize(pairs, failed, end_to_end)))
            sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
