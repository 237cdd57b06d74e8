import contextlib
import csv
import io
import json
import math
import os
import random
import shlex
import stat
import threading
from collections import Counter
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bell_lab import cli, exact, simulate
from bell_lab.cli import main
from bell_lab.chsh import certify_model
from bell_lab.models import load_model, model_from_dict, model_to_dict, save_model
from bell_lab.search import SearchMode, SearchSpec, random_model
from tests_support import PRESET_DIR, PRESETS, counting


@pytest.fixture
def model_file(tmp_path, noisy):
    path = tmp_path / "model.json"
    save_model(noisy, path)
    return path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_out_matches_stdout(capsys, tmp_path, argv):
    """--out writes exactly the bytes the same command prints, and nothing else."""
    code, printed, _ = run(capsys, *argv)
    assert code == 0
    target = tmp_path / "out" / "result"
    target.parent.mkdir()
    code, out, _ = run(capsys, *argv, "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text(encoding="utf-8") == printed
    assert [p.name for p in target.parent.iterdir()] == ["result"]


def assert_input_error(err):
    assert err.startswith("error:")
    assert err.count("\n") == 1
    assert "Traceback" not in err


class TestCheck:
    def test_valid_text(self, capsys, model_file):
        code, out, err = run(capsys, "check", "--model", str(model_file))
        assert code == 0
        assert out == "ok\n"
        assert err == ""

    def test_valid_json(self, capsys, model_file):
        code, out, _ = run(capsys, "check", "--model", str(model_file), "--format", "json")
        assert code == 0
        assert json.loads(out) == {"valid": True, "violations": []}

    def test_invalid_pmf_reported(self, capsys, tmp_path, noisy):
        doc = model_to_dict(noisy)
        doc["alice"]["x"]["pmf"] = ["3/4", "3/4"]
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, _ = run(capsys, "check", "--model", str(path))
        assert code == 1
        assert "alice['x'].pmf" in out

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json", encoding="utf-8")
        code, _, err = run(capsys, "check", "--model", str(path))
        assert code == 2
        assert "error:" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "check", "--model", str(tmp_path / "absent.json"))
        assert code == 2
        assert err

    def test_non_utf8_file(self, capsys, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{}")
        code, out, err = run(capsys, "check", "--model", str(path))
        assert code == 2
        assert out == ""
        assert_input_error(err)
        assert "UTF-8" in err


class TestCertify:
    def test_noisy_passes(self, capsys, model_file):
        code, out, _ = run(capsys, "certify", "--model", str(model_file))
        assert code == 0
        doc = json.loads(out)
        assert doc["all_passed"] is True
        assert doc["equivalence"]["equal"] is True
        assert doc["equivalence"]["dedicated"][0] == "1/2"
        assert doc["reduction"]["equal"] is True
        assert doc["chsh"]["bound_satisfied"] is True
        assert doc["chsh"]["s_max"] == "1"

    def test_perfect_reaches_bound(self, capsys, tmp_path, perfect):
        path = tmp_path / "perfect.json"
        save_model(perfect, path)
        code, out, _ = run(capsys, "certify", "--model", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["chsh"]["s_max"] == "2"
        assert doc["chsh"]["correlations"]["e_xy"] == "1"

    def test_out_file(self, capsys, tmp_path, model_file):
        target = tmp_path / "certificate.json"
        code, out, _ = run(
            capsys, "certify", "--model", str(model_file), "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text(encoding="utf-8"))["all_passed"] is True

    def test_out_file_beside_stale_temporary(self, capsys, tmp_path, model_file):
        # A writer killed with this pid left its temporary file behind.
        stale = tmp_path / f".certificate.json.{os.getpid()}.tmp"
        stale.write_text("stale\n", encoding="utf-8")
        target = tmp_path / "certificate.json"
        code, out, err = run(
            capsys, "certify", "--model", str(model_file), "--out", str(target)
        )
        assert (code, out, err) == (0, "", "")
        assert json.loads(target.read_text(encoding="utf-8"))["all_passed"] is True
        assert stale.read_text(encoding="utf-8") == "stale\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            stale.name, "certificate.json", "model.json"
        ]
        assert stat.S_IMODE(target.stat().st_mode) == stat.S_IMODE(model_file.stat().st_mode)

    def test_rerun_byte_identical(self, capsys, model_file):
        _, first, _ = run(capsys, "certify", "--model", str(model_file))
        _, second, _ = run(capsys, "certify", "--model", str(model_file))
        assert first == second

    def test_cell_limit_guard(self, capsys, model_file):
        code, _, err = run(
            capsys, "certify", "--model", str(model_file), "--limit", "10"
        )
        assert code == 3
        assert "error:" in err

    @pytest.mark.parametrize("limit", [[], ["--limit", "1"]])
    def test_oversized_model_refused_before_any_route(self, capsys, monkeypatch, tmp_path, limit):
        # 64 values on every axis: 2^36 cells, and 64^4 terms per context in
        # the dedicated loop, which must never start.
        model = random_model(SearchSpec((64,) * 6, SearchMode.RANDOM), random.Random(1))
        dedicated = counting(monkeypatch, exact, "_context_expectation")
        path = tmp_path / "big.json"
        save_model(model, path)
        code, out, err = run(capsys, "certify", "--model", str(path), *limit)
        cap = limit[1] if limit else "10000000"
        assert (code, out) == (3, "")
        assert err == f"error: unified space has 68719476736 cells, limit is {cap}\n"
        # An invalid model of the same size still exits 1 with its violations.
        doc = model_to_dict(model)
        doc["alice"]["x"]["table"][3][5] = 2
        doc["bob"]["y"]["pmf"] = ["1/2"] * 64
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "certify", "--model", str(path), *limit)
        assert (code, out) == (1, "")
        assert err == (
            "alice['x'].table[3][5]: outcome 2 not in {-1,+1}\n"
            "bob['y'].pmf: weights sum to 32, expected 1\n"
        )
        assert dedicated == []

    @pytest.mark.parametrize("limit", ["0", "-5"])
    def test_limit_below_one_is_input_error(self, capsys, model_file, limit):
        # A cell cap below 1 is a bad flag, not a product space too large.
        code, out, err = run(capsys, "certify", "--model", str(model_file), "--limit", limit)
        assert code == 2
        assert out == ""
        assert_input_error(err)
        assert "--limit" in err

    @pytest.mark.parametrize("fmt", ["json", "text", "csv"])
    def test_out_file_every_format(self, capsys, tmp_path, model_file, fmt):
        base = ("certify", "--model", str(model_file), "--format", fmt)
        assert_out_matches_stdout(capsys, tmp_path, base)

    def test_out_missing_directory(self, capsys, tmp_path, model_file):
        target = tmp_path / "absent" / "certificate.json"
        code, out, err = run(
            capsys, "certify", "--model", str(model_file), "--out", str(target)
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert not (tmp_path / "absent").exists()

    def test_text_and_csv_formats(self, capsys, model_file):
        code, out, _ = run(
            capsys, "certify", "--model", str(model_file), "--format", "text"
        )
        assert code == 0
        assert "all_passed: True" in out
        code, out, _ = run(
            capsys, "certify", "--model", str(model_file), "--format", "csv"
        )
        assert code == 0
        assert any(line.startswith("all_passed,") for line in out.splitlines())


class TestSearch:
    def test_default_exhaustive(self, capsys):
        code, out, _ = run(capsys, "search")
        assert code == 0
        doc = json.loads(out)
        assert doc["mode"] == "exhaustive"
        assert doc["evaluated"] == 256
        assert doc["best_s_max"] == "2"
        assert doc["certificate"]["bound_satisfied"] is True

    def test_assignment_limit_guard(self, capsys):
        # 25 table bits: 2^25 assignments, one past the fixed 2^24 guard.
        code, _, err = run(capsys, "search", "--cardinalities", "5,5,2,1,1,1")
        assert code == 3
        assert "error:" in err

    @pytest.mark.parametrize("cardinalities, count", [
        ("3,2,3,2,2,3", "33554432"),
        # 4 * 10^6 table bits, far past the 4300 digits str() renders.
        ("1000,1000,1000,1000,1000,1000", "2^4000000"),
        # 4 * 10^10 table bits: the guard checks the bit count, so 2^bits,
        # 5 GB as an integer, is never built.
        ("100000,100000,100000,100000,100000,100000", "2^40000000000"),
    ])
    def test_limit_guard_message(self, capsys, cardinalities, count):
        code, out, err = run(capsys, "search", "--cardinalities", cardinalities)
        assert code == 3
        assert out == ""
        assert err == f"error: {count} table assignments exceed the limit of 16777216\n"

    @pytest.mark.parametrize("mode", ["random", "hill-climb"])
    @pytest.mark.parametrize("cardinalities, cells", [
        ("3163,3163,1,1,1,1", 10004569),
        ("99999999,1,1,1,1,1", 99999999),
    ])
    def test_walk_cell_guard(self, capsys, mode, cardinalities, cells):
        # Refused before any draw: no output, one line on stderr, exit 3.
        code, out, err = run(capsys, "search", "--mode", mode, "--budget", "1",
                             "--cardinalities", cardinalities)
        assert (code, out) == (3, "")
        assert err == f"error: unified space has {cells} cells, limit is 10000000\n"

    @pytest.mark.parametrize("cardinalities, code", [("3,3,2,2,2,2", 0), ("5,5,2,1,1,1", 3)])
    def test_limit_guard_boundary(self, capsys, cardinalities, code):
        # 24 table bits give 2^24 assignments, the most the guard accepts;
        # 25 bits give one more bit than it allows.
        exit_code, out, err = run(capsys, "search", "--cardinalities", cardinalities)
        assert exit_code == code
        if code == 0:
            assert json.loads(out)["evaluated"] == 2**24
        else:
            assert err == "error: 33554432 table assignments exceed the limit of 16777216\n"

    def test_rerun_byte_identical(self, capsys):
        args = ("search", "--mode", "random", "--budget", "40", "--seed", "11")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second
        assert json.loads(first)["evaluated"] == 40

    def test_hill_climb_smoke(self, capsys):
        code, out, _ = run(
            capsys, "search", "--mode", "hill-climb", "--budget", "60", "--seed", "3"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["evaluated"] == 60
        assert doc["rng_algorithm"] == "python-random-mt19937"

    @pytest.mark.parametrize("fmt", ["json", "text", "csv"])
    def test_out_file_every_format(self, capsys, tmp_path, fmt):
        base = ("search", "--cardinalities", "1,1,1,1,1,1", "--format", fmt)
        assert_out_matches_stdout(capsys, tmp_path, base)

    def test_no_host_dependent_fields(self, capsys):
        _, out, _ = run(capsys, "search", "--cardinalities", "1,1,1,1,1,1")
        assert "workers" not in json.loads(out)

    @pytest.mark.parametrize("mode", ["exhaustive", "random", "hill-climb"])
    def test_winner_score_mismatch_exits_one(self, monkeypatch, capsys, mode):
        # A search whose score disagrees with its winner's certificate.
        def misscored(spec):
            result = real(spec)
            return replace(result, best_s_max=result.best_s_max - Fraction(1, 64))

        real = cli.run_search
        monkeypatch.setattr(cli, "run_search", misscored)
        code, out, err = run(capsys, "search", "--mode", mode, "--budget", "30")
        assert code == 1
        assert out == ""
        assert err.startswith("error: search scored its winner s_max = ")
        assert err.count("\n") == 1

    def test_bad_budget(self, capsys):
        code, out, err = run(capsys, "search", "--budget", "0")
        assert code == 2
        assert out == ""
        assert_input_error(err)
        assert "budget" in err

    @pytest.mark.parametrize("mode", ["exhaustive", "random", "hill-climb"])
    def test_negative_seed_is_input_error(self, capsys, mode):
        # random.Random(-3) seeds like random.Random(3); the run must not
        # report a seed it did not use.
        code, out, err = run(
            capsys, "search", "--mode", mode, "--seed", "-3", "--budget", "5",
            "--cardinalities", "1,1,1,1,1,1",
        )
        assert code == 2
        assert out == ""
        assert_input_error(err)
        assert "seed" in err

    def test_zero_cardinality(self, capsys):
        code, out, err = run(capsys, "search", "--cardinalities", "0,1,1,1,1,1")
        assert code == 2
        assert out == ""
        assert_input_error(err)
        assert "cardinalities" in err

    def test_bad_cardinalities(self, capsys):
        code, _, err = run(capsys, "search", "--cardinalities", "2,2")
        assert code == 2
        assert "6 cardinalities" in err
        code, _, err = run(capsys, "search", "--cardinalities", "a,b,c,d,e,f")
        assert code == 2
        assert "integers" in err


class TestSimulate:
    def test_singleton_run(self, capsys, tmp_path, singleton):
        model = tmp_path / "singleton.json"
        save_model(singleton, model)
        out_dir = tmp_path / "run"
        code, out, _ = run(
            capsys,
            "simulate",
            "--model", str(model),
            "--n", "10",
            "--seed", "42",
            "--out", str(out_dir),
        )
        assert code == 0
        lines = (out_dir / "ledger.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "trial,alice_setting,bob_setting,a,b"
        assert len(lines) == 11
        assert all(line.endswith("+1,+1") for line in lines[1:])
        doc = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
        assert doc == json.loads(out)
        assert doc["n"] == 10
        assert doc["seed"] == 42
        assert doc["chsh"]["s_max"] == 2.0
        assert doc["exact_no_signalling_equal"] is True
        for entry in doc["contexts"]:
            assert entry["e_hat"] == 1.0
            assert entry["e_exact"] == "1"

    def test_rerun_byte_identical(self, capsys, tmp_path, model_file):
        dirs = (tmp_path / "first", tmp_path / "second")
        for out_dir in dirs:
            run(
                capsys,
                "simulate",
                "--model", str(model_file),
                "--n", "2000",
                "--seed", "5",
                "--out", str(out_dir),
            )
        for name in ("ledger.csv", "summary.json"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_quantum_reference(self, capsys, tmp_path):
        out_dir = tmp_path / "quantum"
        code, out, _ = run(
            capsys,
            "simulate",
            "--quantum", "0,1.5707963267948966,0.7853981633974483,2.356194490192345",
            "--n", "20000",
            "--seed", "0",
            "--out", str(out_dir),
        )
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["chsh"]["s_max"] - 2 * math.sqrt(2)) < 0.1
        assert "model_sha256" not in doc
        assert len(doc["quantum_angles"]) == 4

    def test_model_and_quantum_conflict(self, capsys, tmp_path, model_file):
        code, _, err = run(
            capsys,
            "simulate",
            "--model", str(model_file),
            "--quantum", "0,0,0,0",
            "--out", str(tmp_path / "x"),
        )
        assert code == 2
        assert "exactly one" in err
        code, _, err = run(capsys, "simulate", "--out", str(tmp_path / "y"))
        assert code == 2

    def test_histogram(self, capsys, tmp_path, model_file):
        out_dir = tmp_path / "hist"
        code, _, _ = run(
            capsys,
            "simulate",
            "--model", str(model_file),
            "--n", "500",
            "--seed", "1",
            "--out", str(out_dir),
            "--histogram",
        )
        assert code == 0
        lines = (out_dir / "histogram.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "alice_setting,bob_setting,a,b,count"
        total = sum(int(line.rsplit(",", 1)[1]) for line in lines[1:])
        assert total == 500

    def test_histogram_quotes_labels(self, capsys, tmp_path, noisy):
        # Labels that need quoting come out as ledger.csv writes them.
        doc = model_to_dict(noisy)
        doc["alice"] = dict(zip(("x,1", 'x"2'), doc["alice"].values()))
        path = tmp_path / "labels.json"
        save_model(model_from_dict(doc), path)
        out_dir = tmp_path / "hist"
        code, _, _ = run(
            capsys, "simulate", "--model", str(path), "--n", "400", "--seed", "2",
            "--out", str(out_dir), "--histogram",
        )
        assert code == 0
        with open(out_dir / "histogram.csv", newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        with open(out_dir / "ledger.csv", newline="", encoding="utf-8") as fh:
            trials = Counter(tuple(row[1:]) for row in list(csv.reader(fh))[1:])
        assert header == ["alice_setting", "bob_setting", "a", "b", "count"]
        assert all(len(row) == 5 for row in rows)
        assert {row[0] for row in rows} == {"x,1", 'x"2'}
        counts = {tuple(row[:4]): int(row[4]) for row in rows}
        assert {cell: n for cell, n in counts.items() if n} == dict(trials)
        assert sum(counts.values()) == 400

    @pytest.mark.parametrize("n", ("0", "-3"))
    def test_non_positive_n_is_input_error(self, capsys, tmp_path, model_file, n):
        out_dir = tmp_path / "run"
        code, out, err = run(
            capsys, "simulate", "--model", str(model_file), "--n", n, "--out", str(out_dir)
        )
        assert code == 2
        assert out == ""
        assert_input_error(err)
        assert "--n" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("angle", ("nan", "inf", "-inf"))
    def test_non_finite_angle_is_input_error(self, capsys, tmp_path, angle):
        code, out, err = run(
            capsys, "simulate", "--quantum", f"0,1,2,{angle}", "--n", "100",
            "--out", str(tmp_path / "q"),
        )
        assert code == 2
        assert out == ""
        assert_input_error(err)
        assert "finite" in err

    def test_negative_seed_is_input_error(self, capsys, tmp_path, model_file):
        out_dir = tmp_path / "run"
        code, out, err = run(
            capsys, "simulate", "--model", str(model_file), "--n", "100", "--seed", "-1",
            "--out", str(out_dir),
        )
        assert code == 2
        assert out == ""
        assert_input_error(err)
        assert "--seed" in err
        assert not out_dir.exists()

    def test_too_few_trials_is_input_error(self, capsys, tmp_path, model_file):
        out_dir = tmp_path / "run"
        code, _, err = run(
            capsys, "simulate", "--model", str(model_file), "--n", "1", "--out", str(out_dir)
        )
        assert code == 2
        assert_input_error(err)
        assert "no trials" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("message", ["Unable to allocate 931. GiB for an array", ""])
    def test_memory_exhaustion_is_guard_error(self, capsys, monkeypatch, tmp_path, model_file, message):
        def exhausted(*args, **kwargs):
            raise MemoryError(message)  # what any allocation while sampling may raise

        monkeypatch.setattr(simulate, "_sample_ledger", exhausted)
        out_dir = tmp_path / "run"
        code, out, err = run(
            capsys, "simulate", "--model", str(model_file), "--n", "1000000000000",
            "--out", str(out_dir),
        )
        assert code == 3
        assert out == ""
        assert_input_error(err)
        assert not out_dir.exists()

    @pytest.mark.parametrize("n", [10**12, 10**30])
    def test_unmappable_n_is_guard_error(self, capsys, monkeypatch, tmp_path, model_file, n):
        # 10^30 is past sys.maxsize, so nothing is allocated.  10^12 is
        # never allocated for real (under overcommit it could succeed): the
        # host's refusal is patched in.
        zeros = simulate.np.zeros

        def refused(shape, *args, **kwargs):
            if shape == 10**12:
                raise MemoryError(f"Unable to allocate {shape} bytes")
            return zeros(shape, *args, **kwargs)

        monkeypatch.setattr(simulate.np, "zeros", refused)
        out_dir = tmp_path / "run"
        code, out, err = run(
            capsys, "simulate", "--model", str(model_file), "--n", str(n), "--out", str(out_dir),
        )
        assert code == 3
        assert out == ""
        assert_input_error(err)
        assert not out_dir.exists()

    def test_failed_range_exits_as_one_range_would(self, capsys, monkeypatch, tmp_path, model_file):
        # A MemoryError in a worker thread's range still exits 3.
        monkeypatch.setattr(simulate, "CHUNK", 64)
        monkeypatch.setattr(simulate, "_cores", lambda: 2)
        settings = simulate._settings

        def exhausted(draws):
            if threading.current_thread() is not threading.main_thread():
                raise MemoryError("no room for the draws")
            return settings(draws)

        monkeypatch.setattr(simulate, "_settings", exhausted)
        out_dir = tmp_path / "run"
        code, out, err = run(
            capsys, "simulate", "--model", str(model_file), "--n", "200", "--out", str(out_dir),
        )
        assert code == 3
        assert out == ""
        assert_input_error(err)
        assert "no room for the draws" in err
        assert not out_dir.exists()

    def test_two_ranges_fork_nothing(self, capsys, monkeypatch, tmp_path, model_file):
        # Both workers run on threads of this process, with one worker's bytes.
        def no_fork():
            raise AssertionError("simulate forked")

        monkeypatch.setattr(os, "fork", no_fork)
        monkeypatch.setattr(simulate, "CHUNK", 64)
        outputs = []
        for cores in (1, 2):
            monkeypatch.setattr(simulate, "_cores", lambda cores=cores: cores)
            threads = counting(monkeypatch, threading.Thread, "start")
            out_dir = tmp_path / f"run{cores}"
            code, _, err = run(
                capsys, "simulate", "--model", str(model_file), "--n", "200", "--out", str(out_dir),
            )
            assert (code, err) == (0, "")
            # One worker thread each for sampling and writing, past the first.
            assert len(threads) == 2 * (cores - 1)
            outputs.append([(out_dir / name).read_bytes() for name in ("ledger.csv", "summary.json")])
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("name", ["_draw_block", "_pwrite_all"])
    def test_interrupt_exits_130(self, capsys, monkeypatch, tmp_path, model_file, name):
        # An interrupt while sampling, or while writing the ledger, exits as
        # a shell reports SIGINT, with one line and no file left behind.
        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(simulate, name, interrupted)
        out_dir = tmp_path / "run"
        code, out, err = run(
            capsys, "simulate", "--model", str(model_file), "--n", "200", "--out", str(out_dir),
        )
        assert (code, out, err) == (130, "", "error: interrupted\n")
        assert not out_dir.exists() or list(out_dir.iterdir()) == []

    def test_cells_counted_once_per_ledger(self, capsys, monkeypatch, tmp_path, model_file):
        # One bincount per chunk, all while the ledger is built: the summary,
        # the histogram and the ledger write reuse its bins.
        calls = counting(monkeypatch, simulate.np, "bincount")
        built = []
        sample_ledger = simulate._sample_ledger

        def recorded(*args):
            ledger = sample_ledger(*args)
            built.append(len(calls))
            return ledger

        monkeypatch.setattr(simulate, "_sample_ledger", recorded)
        code, _, _ = run(
            capsys, "simulate", "--model", str(model_file), "--n", str(2 * simulate.CHUNK + 1),
            "--out", str(tmp_path / "run"), "--histogram",
        )
        assert code == 0
        assert built == [3]
        assert len(calls) == 3

    def test_rng_algorithm_in_summary(self, capsys, tmp_path, model_file):
        for source in (["--model", str(model_file)], ["--quantum", "0,0,0,0"]):
            out_dir = tmp_path / source[0].lstrip("-")
            code, out, _ = run(
                capsys, "simulate", *source, "--n", "200", "--out", str(out_dir), "--histogram"
            )
            assert code == 0
            doc = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
            assert doc["rng_algorithm"] == "PCG64"
            assert doc == json.loads(out)
            names = sorted(p.name for p in out_dir.iterdir())
            assert names == ["histogram.csv", "ledger.csv", "summary.json"]


class TestOneRunPerDirectory:
    """summary.json marks a finished run: it is removed, with any histogram,
    before a run writes anything, and written last, so a directory that
    holds one holds that run's files only."""

    @pytest.fixture
    def previous(self, capsys, tmp_path, model_file):
        """A directory holding a finished run with a histogram, and its files' bytes."""
        out_dir = tmp_path / "run"
        code, _, _ = run(
            capsys, "simulate", "--model", str(model_file), "--n", "1000", "--seed", "1",
            "--histogram", "--out", str(out_dir),
        )
        assert code == 0
        return out_dir, {p.name: p.read_bytes() for p in out_dir.iterdir()}

    @pytest.fixture
    def rerun(self, capsys, tmp_path, previous):
        """Run random_seed7 into the previous run's directory: (code, stdout, stderr)."""
        model = tmp_path / "seed7.json"
        save_model(PRESETS["random_seed7"](), model)
        return lambda *extra: run(
            capsys, "simulate", "--model", str(model), "--n", "2000", "--seed", "2",
            "--out", str(previous[0]), *extra,
        )

    def test_rerun_without_histogram_removes_it(self, previous, rerun):
        out_dir, _ = previous
        code, out, _ = rerun()
        assert code == 0
        assert sorted(p.name for p in out_dir.iterdir()) == ["ledger.csv", "summary.json"]
        assert (out_dir / "summary.json").read_text(encoding="utf-8") == out
        assert json.loads(out)["n"] == 2000
        assert len((out_dir / "ledger.csv").read_bytes().splitlines()) == 2001

    def test_failure_after_ledger_leaves_no_summary(self, monkeypatch, previous, rerun):
        out_dir, before = previous
        rename = os.replace

        def fail_after_ledger(src, dst):
            rename(src, dst)
            if os.path.basename(dst) == "ledger.csv":
                raise OSError("injected failure")

        monkeypatch.setattr(os, "replace", fail_after_ledger)
        assert rerun("--histogram") == (2, "", "error: injected failure\n")
        assert sorted(p.name for p in out_dir.iterdir()) == ["ledger.csv"]
        assert (out_dir / "ledger.csv").read_bytes() != before["ledger.csv"]

    def test_failed_histogram_leaves_no_summary(self, monkeypatch, previous, rerun):
        out_dir, before = previous
        rename = os.replace

        def fail_on_histogram(src, dst):
            if os.path.basename(dst) == "histogram.csv":
                raise OSError("injected failure")
            rename(src, dst)

        monkeypatch.setattr(os, "replace", fail_on_histogram)
        assert rerun("--histogram") == (2, "", "error: injected failure\n")
        assert sorted(p.name for p in out_dir.iterdir()) == ["ledger.csv"]
        assert (out_dir / "ledger.csv").read_bytes() != before["ledger.csv"]

    @pytest.mark.parametrize(("name", "left"), [
        # Sampling: nothing is computed yet, so the last run stands.
        ("_draw_block", ["histogram.csv", "ledger.csv", "summary.json"]),
        # The ledger write: the last run's summary is gone, its ledger stays.
        ("_pwrite_all", ["ledger.csv"]),
    ])
    def test_interrupt_leaves_no_mixed_run(self, monkeypatch, previous, rerun, name, left):
        out_dir, before = previous

        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(simulate, name, interrupted)
        assert rerun("--histogram") == (130, "", "error: interrupted\n")
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == {
            name: before[name] for name in left
        }

    def test_refused_run_leaves_the_last_run(self, capsys, previous, model_file):
        out_dir, before = previous
        code, out, err = run(
            capsys, "simulate", "--model", str(model_file), "--n", "2", "--out", str(out_dir),
        )
        assert (code, out) == (2, "")
        assert err.endswith("--n 2 is too small\n")
        assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before


def _long_rational_model(path, bits: int, seed: int):
    """Write a valid model whose five pmfs have odd denominators of `bits`
    bits, and return it loaded.  Every table varies with its local value
    and Bob's also with the source, so all five denominators reach the
    correlations and the CHSH sums."""
    rng = random.Random(seed)

    def pmf():
        q = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        p = Fraction(rng.randrange(1, q), q)
        return [f"{w.numerator}/{w.denominator}" for w in (p, 1 - p)]

    source = pmf()
    doc = {
        "source": [source],
        "alice": {label: {"pmf": pmf(), "table": [[1, -1]]} for label in ("x", "x'")},
        "bob": {label: {"pmf": pmf(), "table": [[1, -1], [-1, 1]]} for label in ("y", "y'")},
    }
    path.write_text(json.dumps(doc), encoding="utf-8")
    return load_model(path)


def _full_digits(value: Fraction) -> str:
    """Every digit of `value` as ``"a/b"``, past the int-to-str digit limit."""
    return f"{Decimal(value.numerator)}/{Decimal(value.denominator)}"


class TestLongRationals:
    """Exact outputs longer than the interpreter's int-to-str digit limit
    print in full instead of crashing."""

    def test_certify_prints_every_digit(self, capsys, tmp_path):
        path = tmp_path / "long.json"
        model = _long_rational_model(path, bits=2900, seed=1)
        code, out, err = run(capsys, "certify", "--model", str(path))
        assert (code, err) == (0, "")
        doc = json.loads(out)
        expected = _full_digits(certify_model(model).certificate.report.s_max)
        assert len(expected) > 2 * 4300
        assert doc["chsh"]["s_max"] == expected
        assert doc["all_passed"] is True

    def test_simulate_prints_every_digit(self, capsys, tmp_path):
        path = tmp_path / "long.json"
        model = _long_rational_model(path, bits=5000, seed=2)
        out_dir = tmp_path / "run"
        code, out, err = run(
            capsys, "simulate", "--model", str(path), "--n", "200", "--out", str(out_dir)
        )
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc == json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
        exact_values = [entry["e_exact"] for entry in doc["contexts"]]
        assert exact_values == [_full_digits(e) for e in exact.correlation_set(model)]
        assert max(map(len, exact_values)) > 4300


def _unreadable_models() -> dict[str, str]:
    """Model files that `json.load` or `Fraction` cannot read: nesting past
    the recursion limit, and numbers past the integer-digit limit; a
    setting label, a lone surrogate, that no output can encode; and keys
    given twice, of which `json.load` alone keeps the last."""
    doc = model_to_dict(PRESETS["noisy_readout"]())
    surrogate = json.dumps({**doc, "bob": dict(zip(("y", "y\ud800"), doc["bob"].values()))})
    doc["alice"]["x"]["table"][0][0] = "LONG"
    long_integer = json.dumps(doc).replace('"LONG"', "1" * 4301)
    doc["alice"]["x"]["pmf"][0] = "1" * 4301
    return {
        "nested.json": "[" * 100_000 + "]" * 100_000,
        "long_integer.json": long_integer,
        "long_rational.json": json.dumps(doc),
        "surrogate_label.json": surrogate,
        "duplicate_keys.json": (
            '{"source": [["1"]], "alice": {"x": {"pmf": ["1"], "table": [[-1]]}, '
            '"x": {"pmf": ["1"], "table": [[1]]}, "x\'": {"pmf": ["1"], "table": [[1]]}}, '
            '"bob": {"y": {"pmf": ["1"], "table": [[1]]}, "y\'": {"pmf": ["1"], "table": [[1]]}}, '
            '"source": [["1"]]}'
        ),
    }


UNREADABLE = _unreadable_models()


class TestUnreadableModel:
    @pytest.mark.parametrize("command", ["check", "certify", "simulate"])
    @pytest.mark.parametrize("name", sorted(UNREADABLE))
    def test_input_error(self, capsys, tmp_path, name, command):
        path = tmp_path / name
        path.write_text(UNREADABLE[name], encoding="utf-8")
        out_dir = tmp_path / "run"
        argv = [command, "--model", str(path)]
        if command == "simulate":
            argv += ["--out", str(out_dir)]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert_input_error(err)
        assert not out_dir.exists()


# Repeated entries, here and below, weight the draws towards inputs that
# get past parsing.
MODEL_FILES = ("valid.json",) * 4 + (
    "invalid.json", "utf16.json", "garbage.json", "absent.json", *UNREADABLE
)


@pytest.fixture(scope="module")
def fuzz_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    save_model(PRESETS["noisy_readout"](), root / "valid.json")
    doc = model_to_dict(PRESETS["noisy_readout"]())
    doc["alice"]["x"]["pmf"] = ["3/4", "3/4"]
    (root / "invalid.json").write_text(json.dumps(doc), encoding="utf-8")
    (root / "utf16.json").write_bytes(b"\xff\xfe{}")
    (root / "garbage.json").write_text("{not json", encoding="utf-8")
    for name, text in UNREADABLE.items():
        (root / name).write_text(text, encoding="utf-8")
    return root


def _flag(name, values):
    """Either nothing or `name` followed by one drawn value."""
    return st.one_of(st.just([]), values.map(lambda v: [name, str(v)]))


FORMATS = st.sampled_from(("json", "text", "csv"))
MODES = st.sampled_from(("exhaustive", "random", "hill-climb"))
CARDINALITIES = st.one_of(
    st.lists(st.integers(1, 2), min_size=6, max_size=6).map(lambda c: ",".join(map(str, c))),
    st.lists(st.integers(0, 2), min_size=5, max_size=7).map(lambda c: ",".join(map(str, c))),
    st.sampled_from(("", "2,x,1,1,1,1")),
)
ANGLES = st.one_of(
    st.lists(st.floats(-7, 7), min_size=4, max_size=4).map(lambda a: ",".join(map(str, a))),
    st.lists(st.floats(), min_size=3, max_size=5).map(lambda a: ",".join(map(str, a))),
    st.sampled_from(("0,1,2", "a,b,c,d")),
)
TRIALS = st.one_of(st.integers(100, 2000), st.integers(100, 2000), st.integers(-2, 8))
JUNK = st.sampled_from(([],) * 6 + (["--bogus"], ["--format", "xml"], ["--n"]))


@st.composite
def argvs(draw, root):
    command = draw(st.sampled_from(("check", "certify", "search", "simulate")))
    model = ["--model", str(root / draw(st.sampled_from(MODEL_FILES)))]
    name = str(draw(st.integers(0, 2)))
    seed = _flag("--seed", st.integers(-2, 5))
    if command == "check":
        argv = [command, *model, *draw(_flag("--format", FORMATS))]
    elif command == "certify":
        argv = [command, *model, *draw(_flag("--limit", st.integers(-1, 100)))]
        argv += draw(_flag("--format", FORMATS)) + draw(_flag("--out", st.just(root / name)))
    elif command == "search":
        argv = [command, *draw(_flag("--mode", MODES))]
        argv += draw(_flag("--cardinalities", CARDINALITIES)) + draw(seed)
        argv += ["--budget", str(draw(st.integers(-1, 50)))]
        argv += draw(_flag("--format", FORMATS)) + draw(_flag("--out", st.just(root / name)))
    else:
        quantum = ["--quantum", draw(ANGLES)]
        sources = draw(st.sampled_from(([model], [quantum], [model], [quantum], [model, quantum], [])))
        argv = [command, *(arg for source in sources for arg in source)]
        argv += ["--n", str(draw(TRIALS)), *draw(seed), "--out", str(root / f"run{name}")]
        argv += draw(st.sampled_from(([], ["--histogram"])))
        argv += draw(_flag("--format", st.sampled_from(("json", "text"))))
    return argv + draw(JUNK)


class TestArgvFuzz:
    @settings(max_examples=500, deadline=None)
    @given(data=st.data())
    def test_exit_codes_documented_and_no_traceback(self, fuzz_root, data):
        argv = data.draw(argvs(fuzz_root))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the argv
                code = exc.code
        assert code in (0, 1, 2, 3), argv
        assert "Traceback" not in stderr.getvalue(), argv


def readme_commands() -> list[str]:
    """Every ``bell-lab`` line inside README's fenced code blocks."""
    commands, fenced = [], False
    for line in (PRESET_DIR.parent / "README.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif fenced and line.startswith("bell-lab "):
            commands.append(line)
    return commands


def test_readme_examples_parse():
    commands = readme_commands()
    parser = cli.build_parser()
    seen = set()
    for line in commands:
        argv = shlex.split(line, comments=True)[1:]
        try:
            seen.add(parser.parse_args(argv).command)
        except SystemExit:
            pytest.fail(f"README example does not parse: {line}")
    assert seen == {"check", "certify", "search", "simulate"}, commands
