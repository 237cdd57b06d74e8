import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bell_lab import simulate
from bell_lab.cli import main
from bell_lab.models import model_to_dict, save_model
from tests_support import PRESETS


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
        code, _, err = run(
            capsys,
            "search",
            "--cardinalities", "2,2,2,2,2,2",
            "--limit", "1000",
        )
        assert code == 3
        assert "error:" in err

    @pytest.mark.parametrize("cardinalities, count", [
        ("3,2,3,2,2,3", "33554432"),
        # 4 * 10^6 table bits, far past the 4300 digits str() renders.  No
        # larger shape: assignment_count builds 1 << bits before the check.
        ("1000,1000,1000,1000,1000,1000", "2^4000000"),
    ])
    def test_limit_guard_message(self, capsys, cardinalities, count):
        code, out, err = run(capsys, "search", "--cardinalities", cardinalities)
        assert code == 3
        assert out == ""
        assert err == f"error: {count} table assignments exceed the limit of 16777216\n"

    @pytest.mark.parametrize("limit", ["0", "-3"])
    def test_limit_below_one_is_input_error(self, capsys, limit):
        code, out, err = run(capsys, "search", "--limit", limit)
        assert code == 2
        assert out == ""
        assert_input_error(err)
        assert "limit" in err

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
            raise MemoryError(message)  # what np.empty raises for an impossible --n

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


def _unreadable_models() -> dict[str, str]:
    """Model files that `json.load` or `Fraction` cannot read: nesting past
    the recursion limit, and numbers past the integer-digit limit."""
    doc = model_to_dict(PRESETS["noisy_readout"]())
    doc["alice"]["x"]["table"][0][0] = "LONG"
    long_integer = json.dumps(doc).replace('"LONG"', "1" * 4301)
    doc["alice"]["x"]["pmf"][0] = "1" * 4301
    return {
        "nested.json": "[" * 100_000 + "]" * 100_000,
        "long_integer.json": long_integer,
        "long_rational.json": json.dumps(doc),
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
        argv += draw(_flag("--limit", st.integers(-1, 2**16)))
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
