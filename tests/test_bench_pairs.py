"""`scripts/bench_pairs.py`'s summary: the pair rule on fixed numbers."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

END_TO_END = {
    "work_per_probe": {"name": "work_per_probe", "better": "higher", "bound": 0.25},
    "op_cost.p50": {"name": "op_cost.p50", "better": "lower", "bound": 0.25},
}


def test_summary_applies_the_pair_rule():
    # Ten pairs; the change wins nine on work_per_probe and ties the tenth,
    # and its op cost loses two pairs and ties one.
    parent = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
    change = [13, 14, 15, 16, 17, 18, 19, 20, 21, 19]
    cost_parent = [5.0] * 10
    cost_change = [4.0] * 7 + [6.0, 6.0, 5.0]
    pairs = [
        ({"work_per_probe": p, "op_cost.p50": cp}, {"work_per_probe": c, "op_cost.p50": cc})
        for p, c, cp, cc in zip(parent, change, cost_parent, cost_change)
    ]
    work, cost = bench_pairs.summarize(pairs, [(0, 0)] * 10, END_TO_END)

    # Inclusive quartiles of 10..19 are 12.25 and 16.75: an IQR of 4.5,
    # which the median gain of 17.5 - 14.5 = 3 does not exceed.
    assert work["parent"] == (12.25, 14.5, 16.75)
    assert work["change"] == (15.25, 17.5, 19.0)
    assert (work["wins"], work["pairs"], work["gain"]) == (9, 10, False)
    assert work["worse_by"] == pytest.approx(-3 / 14.5)

    # Seven wins of ten fall short of nine, though the parent's IQR is 0.
    assert cost["parent"] == (5.0, 5.0, 5.0)
    assert (cost["wins"], cost["gain"], cost["worse_by"]) == (7, False, -0.2)

    # Nine wins and a median gain above the IQR: a gain.
    tight = [({"work_per_probe": 10.0}, {"work_per_probe": 12.0})] * 9
    tight.append(({"work_per_probe": 10.0}, {"work_per_probe": 9.0}))
    [row] = bench_pairs.summarize(tight, [(0, 0)] * 10, END_TO_END)
    assert (row["wins"], row["gain"]) == (9, True)

    # The same numbers from a change that fails more ops in total than the
    # parent show no gain; failing no more, as few as the parent, still do.
    [row] = bench_pairs.summarize(tight, [(0, 0)] * 9 + [(0, 1)], END_TO_END)
    assert (row["wins"], row["gain"]) == (9, False)
    [row] = bench_pairs.summarize(tight, [(1, 0)] * 9 + [(0, 1)], END_TO_END)
    assert row["gain"] is True

    # "workload/metric" keys, as `bench/run.py --workload all` prints them.
    [row] = bench_pairs.summarize([({"hill-climb/op_cost.p50": 2.0},
                                    {"hill-climb/op_cost.p50": 2.5})], [(0, 0)], END_TO_END)
    assert (row["wins"], row["worse_by"], row["bound"]) == (0, 0.25, 0.25)
    assert "hill-climb/op_cost.p50" in bench_pairs.render([row])


def test_all_runs_ten_pairs_per_declared_workload(tmp_path, monkeypatch, capsys):
    # Two declared workloads, with no real export or benchmark run: each
    # gets ten alternating pairs, seeds 1..10, and its own summary.
    declared = {"workloads": [{"name": "w-one"}, {"name": "w-two"}],
                "end_to_end": list(END_TO_END.values())}
    calls = []

    def export(commit, dest):
        dest.mkdir(parents=True)
        (dest / "BENCHMARK.json").write_text(bench_pairs.json.dumps(declared), encoding="utf-8")
        (dest / "commit").write_text(commit, encoding="utf-8")
        return dest

    def bench(tree, workload, seed):
        side = (tree / "commit").read_text(encoding="utf-8")
        calls.append((workload, seed, side))
        value = 12.0 if side == "change" else 10.0
        return {"failed": 0, "attempted": 5, "metrics": {"work_per_probe": {"value": value}}}

    monkeypatch.setattr(bench_pairs, "export", export)
    monkeypatch.setattr(bench_pairs, "bench", bench)
    assert bench_pairs.main(["parent", "change", "--workload", "all"]) == 0

    expected = [
        (workload, k, side)
        for workload in ("w-one", "w-two")
        for k in range(1, 11)
        for side in (("parent", "change") if k % 2 else ("change", "parent"))
    ]
    assert calls == expected
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if line.startswith("summary of")] == [
        "summary of w-one:", "summary of w-two:"
    ]
    assert out.count("work_per_probe") == 2 * 10 + 2
    assert out.rstrip().endswith("yes")
