"""Rewrite references.json: the results of the first ops of each stored seed.

Run from the root of a checkout, and only when a change to the program's
outputs is intended and explained:

    python3 bench/record_references.py

Every op recorded here must also pass the structural checks.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import worker  # noqa: E402  (first: it pins BLAS to one thread before numpy loads)

import json  # noqa: E402
import tempfile  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402

SEEDS = range(20)


def main() -> int:
    references = {}
    for name in worker.SIZES:
        references[name] = {}
        for seed in SEEDS:
            os.makedirs(worker.WORK_DIR, exist_ok=True)
            with tempfile.TemporaryDirectory(dir=worker.WORK_DIR, prefix="ref-") as work_dir:
                workload = worker.make_workload(name, seed, "full", work_dir)
                op_seeds = inputs.op_seeds(seed, checks.REFERENCE_OPS)
                ops = []
                for j in range(checks.REFERENCE_OPS):
                    _, code, text = worker.run_op(workload.argv(j, op_seeds[j]))
                    errors = worker.verify(workload, j, code, text, [])
                    if errors:
                        raise SystemExit(f"{name} seed {seed} op {j}: {errors}")
                    ops.append(checks.comparable(json.loads(text)))
            references[name][str(seed)] = ops
            print(name, seed, "recorded", flush=True)
    with open(checks.REFERENCE_PATH, "w") as fh:
        json.dump(references, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
