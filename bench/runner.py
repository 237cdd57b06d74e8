"""Closed-loop runner: one fresh process runs one CLI op after another.

Started by run.py from the checkout root:

    python3 bench/runner.py PLAN_JSON REPORT_JSON

The plan names the ops, the run length, whether to trace and the stored
reference.  Each op calls ``bell_lab.cli.main`` in this process with its
stdout captured, then its result is checked outside the timed region.
The first op is a warm-up: it is checked but its time is not used.
Between ops the runner times a fixed probe task, so each op's time can
also be given in probe units.  With tracing on, untraced and traced ops
alternate, so the traced run also measures the tracing overhead.
"""

from __future__ import annotations

import io
import json
import platform
import resource
import statistics
import sys
import traceback
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import tracing
import workloads

PROBE_TERMS = 4000
PROBES_BETWEEN_OPS = 6


def probe() -> float:
    """Seconds for a fixed pure-Python task that does not use the package.

    Fraction arithmetic, like the package's exact kernels.  Timed between
    ops, it tracks how fast the host runs Python at that moment.
    """
    start = perf_counter()
    total = Fraction(0)
    for i in range(1, PROBE_TERMS):
        total += Fraction(i % 89 + 1, i % 97 + 2) * Fraction(3, 7)
    return perf_counter() - start


def run_op(cli, op: dict, tracer) -> tuple[int | None, str, float]:
    buf = io.StringIO()
    if tracer is not None:
        tracer.install()
    start = perf_counter()
    try:
        with redirect_stdout(buf):
            code = cli.main(op["argv"])
    except SystemExit as exc:  # argparse rejects an argv
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # noqa: BLE001 - an op that raises is a failed op; keep looping
        traceback.print_exc()
        code = None
    finally:
        elapsed = perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    return code, buf.getvalue(), elapsed


def main(plan_path: str, report_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    src = Path.cwd() / "src"
    sys.path.insert(0, str(src))
    import numpy

    import bell_lab.cli as cli

    if Path(cli.__file__).resolve().parent.parent != src.resolve():
        print(f"error: imported bell_lab from {cli.__file__}, not {src}", file=sys.stderr)
        return 2

    workload, ops, seconds = plan["workload"], plan["ops"], plan["seconds"]
    tracer = tracing.Tracer() if plan["trace"] else None
    records = []
    traced_ops = {}
    gaps = []  # probe times taken before each op, and after the last
    index = 0
    begin = perf_counter()
    while True:
        enough = index >= (3 if tracer is not None else 2)
        if enough and perf_counter() - begin >= seconds:
            break
        op = ops[index % len(ops)]
        traced = tracer is not None and index % 2 == 0 and index > 0
        if traced:
            tracer.op = index
        gaps.append([probe() for _ in range(PROBES_BETWEEN_OPS)])
        code, stdout, op_s = run_op(cli, op, tracer if traced else None)
        error = None
        try:
            workloads.check(workload, op, code, stdout, plan["reference"])
        except Exception as exc:  # noqa: BLE001 - any check error fails the op
            error = f"{type(exc).__name__}: {exc}"
            print(f"op {index} ({op['key']}) failed: {error}", file=sys.stderr)
        if traced:
            traced_ops[index] = op_s
        records.append({"key": op["key"], "warmup": index == 0, "traced": traced,
                        "op_s": op_s, "work": op["work"], "ok": error is None})
        index += 1
    gaps.append([probe() for _ in range(PROBES_BETWEEN_OPS)])
    for k, record in enumerate(records):
        record["probe_s"] = statistics.median(gaps[k] + gaps[k + 1])

    report = {
        "records": records,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        report["trace"] = tracer.summary(traced_ops)
        tracer.write_spans(Path(report_path).with_name("spans.csv"))
    Path(report_path).write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
