"""Run the clusterperm benchmark from the root of a source checkout.

    python3 bench/run.py --workload grid-cli --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 35 [--trace 1]

One workload process runs at a time, each a fresh interpreter with BLAS and
OpenMP pinned to one thread.  Set-up time is the median over several fresh
processes of the time from spawn until ``import clusterperm.cli`` returns.
The last line of stdout is the result:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the ``end_to_end`` ones of BENCHMARK.json, with ``--trace 1``
its ``per_layer`` ones, from a traced run.  ``--workload all`` runs every
workload and also prints each metric by name with its unit.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
WORKLOADS = ("grid-cli", "irregular-cli", "mc-table1")
SETUP_PROBES = 4  # plus the workload process itself: five set-up samples per run
TIMEOUT_S = 170

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def spawn(args: list[str]) -> dict:
    """Run the worker in a fresh process; return its last stdout line as JSON."""
    env = dict(os.environ, **PINNED)
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, WORKER, "--spawned-at", repr(started), *args],
        env=env, stdout=subprocess.PIPE, text=True, timeout=TIMEOUT_S, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_samples() -> list[float]:
    spawn(["--probe"])  # untimed: lets byte-compilation and the file cache settle
    return [spawn(["--probe"])["setup_s"] for _ in range(SETUP_PROBES)]


def run_workload(spec: dict, name: str, seed: int, seconds: float, trace: int):
    """Return (result in the benchmark's output format, the worker's record)."""
    samples = [] if trace else setup_samples()
    record = spawn(["--workload", name, "--seed", str(seed), "--seconds", repr(seconds),
                    "--trace", str(trace)])
    if trace:
        metrics = {m["name"]: {"value": record["layers"][m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        samples.append(record["setup_s"])
        record["setup_samples"] = samples
        record["end_to_end"]["setup_s"]["value"] = statistics.median(samples)
        metrics = {m["name"]: record["end_to_end"][m["name"]] for m in spec["end_to_end"]}
    result = {"correct": record["failed"] == 0, "attempted": record["attempted"],
              "failed": record["failed"], "metrics": metrics}
    return result, record


def print_table(name: str, result: dict, record: dict) -> None:
    print(f"== {name}  seed={record['seed']}  ops={record['ops']}  "
          f"unit of work: {record['unit']}  sizes={json.dumps(record['sizes'])}")
    rows = dict(result["metrics"])
    if "layers" not in record:
        rows["fail_frac"] = record["end_to_end"]["fail_frac"]
    for key, metric in rows.items():
        print(f"   {key:<28} {metric['value']:>16.6g} {metric['unit']}")
    if "layers" not in record:
        print(f"   (op_s_tail is p{record['tail_pct']:.0f} of {record['ops']} ops)")
    for failure in record["failures"]:
        print(f"   FAILED {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "clusterperm", "cli.py")):
        print("run from the root of a clusterperm checkout: src/clusterperm is missing",
              file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        result, record = run_workload(spec, name, args.seed, args.seconds, args.trace)
        results[name] = result
        info = {k: v for k, v in record.items() if k not in ("op_s", "op_end_s", "layers", "end_to_end")}
        print(json.dumps({"info": info}))
        if args.workload == "all":
            print_table(name, result, record)
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}/{key}": metric for name, r in results.items()
                    for key, metric in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
