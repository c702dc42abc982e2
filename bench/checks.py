"""Per-op output checks: structural checks on every op, references on known seeds.

A structural check needs no stored answer, so it runs for every seed: the
p-value lies on the m/(K+1) grid in (0, 1], interval bounds are ordered,
numbers are finite, rejection counts lie in [0, reps], and the reported
p-value follows from the reported statistics.  For the seeds listed in
``references.json`` the first ops of a run must also reproduce the results
recorded at the commit that introduced the benchmark.
"""

from __future__ import annotations

import json
import math
import os

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")
REFERENCE_OPS = 2  # ops 0 and 1 of each stored seed: one test and one ci on grid-cli
REL_TOL = 1e-8  # for the statistics a and b; everything else must match exactly


def on_grid(pval, num_perms: int) -> bool:
    """True when pval = m/(K+1) for an integer m in [1, K+1]."""
    if not isinstance(pval, (int, float)) or not 0.0 < pval <= 1.0:
        return False
    m = pval * (num_perms + 1)
    return abs(m - round(m)) < 1e-9 and 1 <= round(m) <= num_perms + 1


def _finite(values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def check_test(results: dict, num_perms: int) -> list[str]:
    a, b = results.get("a", []), results.get("b", [])
    errors = []
    if results.get("num_perms") != num_perms or len(a) != num_perms or len(b) != num_perms:
        errors.append(f"expected K={num_perms} statistics, got {len(a)}/{len(b)}")
        return errors
    if not _finite(a) or not _finite(b):
        errors.append("non-finite statistic")
        return errors
    pval = results.get("pval")
    if not on_grid(pval, num_perms):
        errors.append(f"pval {pval!r} is off the m/(K+1) grid")
    expected = (1 + sum(1 for v in b if min(a) <= v)) / (num_perms + 1)
    if pval != expected:
        errors.append(f"pval {pval!r} does not follow from a, b ({expected!r})")
    if results.get("min_a") != min(a):
        errors.append("min_a differs from min(a)")
    return errors


def check_ci(results: dict) -> list[str]:
    lower, upper = results.get("lower"), results.get("upper")
    open_left, open_right = results.get("open_ended", [None, None])
    errors = []
    if not isinstance(lower, (int, float)) or not isinstance(upper, (int, float)):
        return [f"bounds are not numbers: {lower!r}, {upper!r}"]
    if math.isnan(lower) or math.isnan(upper):
        return ["NaN bound"]
    if lower > upper:
        errors.append(f"lower {lower} > upper {upper}")
    if math.isinf(lower) != bool(open_left) or math.isinf(upper) != bool(open_right):
        errors.append("infinite bound and open_ended flag disagree")
    return errors


def check_irregular(results: dict, num_perms: int, repeats: int, l0: int, eligible: int) -> list[str]:
    runs = results.get("run_pvals", [])
    errors = []
    if len(runs) != repeats:
        errors.append(f"expected {repeats} run p-values, got {len(runs)}")
    for p in [results.get("pval"), *runs]:
        if not on_grid(p, num_perms):
            errors.append(f"pval {p!r} is off the m/(K+1) grid")
            break
    if runs and results.get("pval") != sorted(runs)[(len(runs) - 1) // 2]:
        errors.append("pval is not the lower median of run_pvals")
    if results.get("l0") != l0 or results.get("eligible_cells") != eligible:
        errors.append(f"l0/eligible {results.get('l0')}/{results.get('eligible_cells')}, "
                      f"expected {l0}/{eligible}")
    return errors


def check_simulate(results: dict, num_perms: int, reps: int, rows: int) -> list[str]:
    table = results.get("rows", [])
    errors = []
    if results.get("num_perms") != num_perms or len(table) != rows:
        errors.append(f"expected {rows} rows at K={num_perms}")
    for row in table:
        rej = row.get("rejections")
        if row.get("reps") != reps or not isinstance(rej, int) or not 0 <= rej <= reps:
            errors.append(f"rejections {rej!r} outside [0, {reps}]")
        elif row.get("rate") != rej / reps or not _finite([row.get("mc_se")]):
            errors.append("rate or mc_se inconsistent with rejections")
    return errors


def comparable(report: dict) -> dict:
    """The fields of a report that must match the stored reference."""
    results, command = report["results"], report["command"]
    if command == "test":
        return {"pval": results["pval"], "a": results["a"], "b": results["b"]}
    if command == "ci":
        return {"lower": results["lower"], "upper": results["upper"]}
    if command == "test-irregular":
        return {"pval": results["pval"], "run_pvals": results["run_pvals"]}
    if command == "simulate":
        return {"rejections": [row["rejections"] for row in results["rows"]]}
    raise ValueError(f"no reference fields for {command!r}")


def _close(x: float, y: float) -> bool:
    return abs(x - y) <= REL_TOL * max(abs(x), abs(y))


def compare(reference: dict, got: dict) -> list[str]:
    errors = []
    for key, want in reference.items():
        have = got.get(key)
        if key in ("a", "b"):
            if len(have) != len(want) or not all(_close(x, y) for x, y in zip(have, want)):
                errors.append(f"{key} differs from the reference beyond {REL_TOL:g} relative")
        elif have != want:
            errors.append(f"{key} {have!r} differs from the reference {want!r}")
    return errors


def load_references() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)
