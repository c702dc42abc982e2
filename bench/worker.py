"""One workload process: set up, generate inputs, run ops for a fixed time, report.

Started by ``run.py`` in a fresh interpreter, one at a time.  BLAS and
OpenMP are pinned to one thread before numpy is imported.  Set-up time runs
from the parent's spawn timestamp until ``import clusterperm.cli`` returns;
``--probe`` stops right there and prints only that time.

An op is one in-process call to ``clusterperm.cli.main(argv)``; its report
is captured from stdout and checked after the op's clock stops.
"""

import os
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _arg(flag: str, default=None):
    return sys.argv[sys.argv.index(flag) + 1] if flag in sys.argv else default


_SPAWNED_AT = float(_arg("--spawned-at", time.monotonic()))
_ROOT = os.getcwd()
sys.path.insert(0, os.path.join(_ROOT, "src"))
import clusterperm.cli  # noqa: E402

SETUP_S = time.monotonic() - _SPAWNED_AT

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import checks  # noqa: E402
import inputs  # noqa: E402
import layertrace  # noqa: E402

WORK_DIR = os.path.join(_ROOT, ".bench_work")
TRACE_COUNT_OPS = 4  # counts come from the first four traced ops, so they repeat exactly
RATE_WINDOW_S = 5.0  # work_per_s is the median rate over windows of at least this length
MAX_OPS = 100_000

GRID_HEADER = ["i", "j", "y", "d", "x", "x1", "x2"]
RECORD_HEADER = ["i", "j", "l", "y", "d", "x", "x1", "x2"]

# Input sizes.  "full" is the benchmark; "tiny" is the smoke test of the same code path.
SIZES = {
    "grid-cli": {"full": {"n": 200, "num_perms": 99}, "tiny": {"n": 20, "num_perms": 19}},
    "irregular-cli": {"full": {"n": 30, "num_perms": 19, "repeats": 25, "datasets": 8},
                      "tiny": {"n": 18, "num_perms": 19, "repeats": 3, "datasets": 2}},
    "mc-table1": {"full": {"n": 25, "reps": 25, "num_perms": 24},
                  "tiny": {"n": 20, "reps": 2, "num_perms": 19}},
}
UNITS = {"grid-cli": "analysis", "irregular-cli": "subsample repeat", "mc-table1": "replicate"}


@dataclass
class Workload:
    """A workload bound to its generated inputs."""

    name: str
    size: dict
    inputs: dict  # what the op arguments and the checks need
    sizes: dict  # problem size, recorded in the output
    work_per_op: int

    def argv(self, j: int, seed: int) -> list[str]:
        s = self.size
        if self.name == "grid-cli":
            return ["test" if j % 2 == 0 else "ci", "--data", self.inputs["path"],
                    "--seed", str(seed)]
        if self.name == "irregular-cli":
            return ["test-irregular", "--data", self.inputs["paths"][j % s["datasets"]],
                    "--num-perms", str(s["num_perms"]), "--repeats", str(s["repeats"]),
                    "--seed", str(seed)]
        return ["simulate", "--panel", "table1", "--n", str(s["n"]), "--reps", str(s["reps"]),
                "--threads", "1", "--seed", str(seed)]

    def check(self, j: int, report: dict) -> list[str]:
        s, results = self.size, report["results"]
        command = report["command"]
        if command == "test":
            return checks.check_test(results, s["num_perms"])
        if command == "ci":
            return checks.check_ci(results)
        if command == "test-irregular":
            part = j % s["datasets"]
            return checks.check_irregular(results, s["num_perms"], s["repeats"],
                                          self.inputs["l0"][part], self.inputs["eligible"][part])
        return checks.check_simulate(results, s["num_perms"], s["reps"], rows=4)


def make_workload(name: str, seed: int, size: str, work_dir: str) -> Workload:
    """Generate the inputs of ``name`` for ``seed``; files go to ``work_dir``."""
    s = SIZES[name][size]
    n = s["n"]
    if name == "grid-cli":
        path = os.path.join(work_dir, "grid.csv")
        inputs.write_csv(path, GRID_HEADER, inputs.grid_table(seed, n), int_cols=2)
        sizes = {"N": n * n, "p": 3, "K": s["num_perms"], "rows": n * n}
        return Workload(name, s, {"path": path}, sizes, 1)
    if name == "irregular-cli":
        # Several data sets, used in turn: the greedy decomposition's work depends
        # on the mask, and one mask per run would make runs of different seeds differ.
        data = {"paths": [], "l0": [], "eligible": [], "rows": []}
        for part in range(s["datasets"]):
            path = os.path.join(work_dir, f"records-{part}.csv")
            table = inputs.record_table(seed, n, part)
            inputs.write_csv(path, RECORD_HEADER, table, int_cols=3)
            cells = inputs.cell_sizes(table, n)
            l0 = inputs.cell_threshold(cells)
            data["paths"].append(path)
            data["l0"].append(l0)
            data["eligible"].append(int((cells >= l0).sum()))
            data["rows"].append(int(table.shape[0]))
        sizes = {"p": 3, "K": s["num_perms"], "rows": data["rows"], "cells": n * n,
                 "l0": data["l0"], "eligible_cells": data["eligible"], "repeats": s["repeats"]}
        return Workload(name, s, data, sizes, s["repeats"])
    if name == "mc-table1":
        sizes = {"N": n * n, "p": 3, "K": s["num_perms"], "rows": 4, "reps": s["reps"]}
        return Workload(name, s, {}, sizes, 4 * s["reps"])
    raise ValueError(f"unknown workload {name!r}")


def run_op(argv: list[str]) -> tuple[float, int, str]:
    """One timed call of the CLI; returns (seconds, exit code, captured report)."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = clusterperm.cli.main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crashing op counts as failed; the run goes on
        code = 1
        buf = io.StringIO(f"{type(exc).__name__}: {exc}")
    return time.perf_counter() - start, code, buf.getvalue()


def verify(workload: Workload, j: int, code: int, text: str, references: list) -> list[str]:
    """Every failure of one op; an empty list means the op passed."""
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"exit {code}: {text.strip()[-200:]}" if code else f"report is not JSON: {exc}"]
    if code != 0 or "error" in report:
        return [f"exit {code}: {report.get('error')}"]
    errors = workload.check(j, report)
    if j < len(references):
        errors += checks.compare(references[j], checks.comparable(report))
    return errors


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest order statistic with ten samples above it, and its percentile.

    With ten samples or fewer no such statistic exists; the maximum stands in.
    """
    ordered = sorted(samples)
    rank = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    pct = 100.0 * rank / (len(ordered) - 1) if len(ordered) > 1 else 100.0
    return ordered[rank], pct


def work_rate(ends: list[float], work_per_op: int, window_s: float = RATE_WINDOW_S) -> float:
    """Median units of work per second over consecutive windows of the timed loop.

    ``ends`` are the times, from the start of the loop, at which each op and its
    checks were done.  A window closes at the first op end at least ``window_s``
    after it opened; a last, shorter window is dropped unless it is the only one.
    The median makes the rate robust to a few seconds of host contention.
    """
    rates, opened, ops = [], 0.0, 0
    for end in ends:
        ops += 1
        if end - opened >= window_s:
            rates.append(work_per_op * ops / (end - opened))
            opened, ops = end, 0
    if not rates:
        rates.append(work_per_op * len(ends) / ends[-1])
    return statistics.median(rates)


def machine() -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "blas": blas,
        "threads_env": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def measure(workload: Workload, seed: int, seconds: float, traced: bool) -> dict:
    """Run ops for ``seconds`` after one untimed warm-up op; return the raw record."""
    references = [] if workload.size is not SIZES[workload.name]["full"] else \
        checks.load_references().get(workload.name, {}).get(str(seed), [])
    seeds = inputs.op_seeds(seed, MAX_OPS)
    failures: list[str] = []
    attempted = 0
    tracer = layertrace.Tracer() if traced else None
    plain_s, plain_end, traced_s, op_wall, report_bytes = [], [], [], {}, []

    def one(j: int, with_trace: bool) -> float:
        nonlocal attempted
        argv = workload.argv(j, seeds[j])
        if with_trace:
            tracer.op = j
            with layertrace.traced(tracer):
                elapsed, code, text = run_op(argv)
            tracer.op = -1
            op_wall[j] = elapsed
            report_bytes.append(len(text))
        else:
            elapsed, code, text = run_op(argv)
        attempted += 1
        errors = verify(workload, j, code, text, references)
        if errors:
            failures.append(f"op {j} {argv[0]}: {'; '.join(errors)}")
        return elapsed

    base_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    one(0, False)
    start = time.perf_counter()
    j = 0
    while time.perf_counter() - start < seconds and j + 1 < MAX_OPS:
        j += 1
        if not traced:
            plain_s.append(one(j, False))
            plain_end.append(time.perf_counter() - start)
            continue
        # Traced and untraced runs of the same argv, order alternating by op.
        for with_trace in ((False, True) if j % 2 else (True, False)):
            (traced_s if with_trace else plain_s).append(one(j, with_trace))
    wall = time.perf_counter() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record = {
        "attempted": attempted, "failed": len(failures), "failures": failures[:5],
        "ops": len(plain_s), "wall_s": wall, "op_s": plain_s, "op_end_s": plain_end,
        "rss_base_mb": base_kb / 1024, "rss_peak_mb": peak_kb / 1024,
        "rss_growth_mb": (peak_kb - base_kb) / 1024,
    }
    if traced:
        count_ops = sorted(op_wall)[:TRACE_COUNT_OPS]
        layers = layertrace.layer_metrics(tracer, op_wall, count_ops)
        layers["cli.report_bytes"] = statistics.fmean(report_bytes)
        layers["trace.overhead_frac"] = statistics.median(traced_s) / statistics.median(plain_s) - 1
        record["layers"] = layers
        record["spans"] = tracer.spans
    return record


def end_to_end(workload: Workload, record: dict, setup_s: float) -> dict:
    p50 = statistics.median(record["op_s"])
    tail_s, _ = tail(record["op_s"])
    return {
        "setup_s": (setup_s, "s"),
        "op_s_p50": (p50, "s"),
        "op_s_tail": (tail_s, "s"),
        "work_per_s": (work_rate(record["op_end_s"], workload.work_per_op), "1/s"),
        "peak_rss_mb": (record["rss_peak_mb"], "MB"),
        "fail_frac": (record["failed"] / record["attempted"], "1"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float)
    parser.add_argument("--probe", action="store_true",
                        help="print the set-up time and exit")
    args = parser.parse_args(argv)
    if args.probe:
        print(json.dumps({"setup_s": SETUP_S}))
        return 0
    work_dir = os.path.join(WORK_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        workload = make_workload(args.workload, args.seed, "full", work_dir)
        record = measure(workload, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    out = {"workload": args.workload, "seed": args.seed,
           "setup_s": SETUP_S, "sizes": workload.sizes, "unit": UNITS[args.workload],
           "machine": machine()}
    spans = record.pop("spans", None)
    if spans is not None:
        path = os.path.join(WORK_DIR, f"spans-{args.workload}.json")
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "layer", "start", "end", "parent", "op"],
                       "spans": spans}, fh)
        out["spans_path"] = os.path.relpath(path, _ROOT)
    out.update(record)
    out["tail_pct"] = tail(record["op_s"])[1]
    if not args.trace:
        out["end_to_end"] = {k: {"value": v, "unit": u}
                             for k, (v, u) in end_to_end(workload, record, SETUP_S).items()}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
