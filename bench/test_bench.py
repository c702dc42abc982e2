"""Tests of the benchmark itself.  Run from the checkout root:

    python3 -m pytest -q bench/test_bench.py
"""

import os
import shutil
import sys
import tempfile

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import worker  # noqa: E402  (first: it pins BLAS to one thread before numpy loads)

import checks  # noqa: E402
import layertrace  # noqa: E402


@pytest.fixture
def work_dir():
    os.makedirs(worker.WORK_DIR, exist_ok=True)
    path = tempfile.mkdtemp(prefix="test-", dir=worker.WORK_DIR)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _span(name, layer, start, end, parent, op=0):
    return [name, layer, start, end, parent, op]


def test_self_times_subtract_child_cover():
    spans = [
        _span("cli.main", "cli", 0.0, 10.0, -1),
        _span("io.ingest_csv", "io", 1.0, 4.0, 0),
        _span("model.DyadArray.__post_init__", "model", 2.0, 3.0, 1),
        _span("dyadic.dyadic_test", "dyadic", 5.0, 9.0, 0),
    ]
    assert layertrace.self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_layer_metrics_account_for_the_op():
    tracer = layertrace.Tracer()
    tracer.spans = [
        _span("cli.main", "cli", 0.0, 10.0, -1),
        _span("io.ingest_csv", "io", 1.0, 4.0, 0),
        _span("model.DyadArray.__post_init__", "model", 2.0, 3.0, 1),
        _span("dyadic.dyadic_test", "dyadic", 5.0, 9.0, 0),
        _span("projector.residual_projector", "projector", 6.0, 8.0, 3),
    ]
    tracer.counters = {(0, "projector.calls"): 1.0}
    metrics = layertrace.layer_metrics(tracer, {0: 10.0}, [0])
    assert metrics["cli.self_s"] == 3.0
    assert metrics["io.ingest_s"] == 3.0
    assert metrics["io.self_s"] == 2.0
    assert metrics["dyadic.self_s"] == 2.0
    assert metrics["projector.s"] == 2.0
    assert metrics["projector.calls"] == 1.0
    assert metrics["trace.accounted_frac"] == 1.0


def _bindings():
    import importlib

    found = {}
    for mod_name, attr, _ in layertrace.FUNCTIONS:
        original = getattr(importlib.import_module(f"clusterperm.{mod_name}"), attr)
        for module in layertrace._package_modules():
            if module.__dict__.get(attr) is original:
                found[(module.__name__, attr)] = original
    for mod_name, cls_name, attr, _ in layertrace.METHODS:
        cls = getattr(importlib.import_module(f"clusterperm.{mod_name}"), cls_name)
        found[(cls.__qualname__, attr)] = cls.__dict__[attr]
    return found


def test_traced_patches_importing_modules_and_restores_them():
    import clusterperm.cli
    import clusterperm.dyadic

    before = _bindings()
    assert ("clusterperm.dyadic", "residual_projector") in before
    assert ("clusterperm.cli", "ingest_csv") in before
    with pytest.raises(RuntimeError):
        with layertrace.traced(layertrace.Tracer()):
            assert clusterperm.dyadic.residual_projector is not before[
                ("clusterperm.dyadic", "residual_projector")]
            assert clusterperm.cli.ingest_csv is not before[("clusterperm.cli", "ingest_csv")]
            raise RuntimeError("leave the context by an exception")
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


@pytest.mark.parametrize("name", sorted(worker.SIZES))
@pytest.mark.parametrize("traced", [False, True])
def test_tiny_workload_passes_its_checks(name, traced, work_dir):
    workload = worker.make_workload(name, seed=3, size="tiny", work_dir=work_dir)
    record = worker.measure(workload, seed=3, seconds=0.2, traced=traced)
    assert record["failures"] == []
    assert record["attempted"] >= 2
    if not traced:
        metrics = worker.end_to_end(workload, record, setup_s=0.5)
        assert metrics["fail_frac"][0] == 0.0
        assert metrics["work_per_s"][0] > 0
    else:
        layers = record["layers"]
        assert 0.9 < layers["trace.accounted_frac"] <= 1.0
        assert layers["cli.report_bytes"] > 0


def test_inputs_repeat_for_a_seed(work_dir):
    for sub in ("a", "b"):
        os.mkdir(os.path.join(work_dir, sub))
    first = worker.make_workload("irregular-cli", 5, "full", os.path.join(work_dir, "a"))
    second = worker.make_workload("irregular-cli", 5, "full", os.path.join(work_dir, "b"))
    for path_a, path_b in zip(first.inputs["paths"], second.inputs["paths"]):
        with open(path_a) as a, open(path_b) as b:
            assert a.read() == b.read()
    assert first.sizes == second.sizes


def test_checks_reject_a_wrong_pvalue():
    good = {"pval": 0.5, "a": [1.0, 2.0, 3.0], "b": [0.5, 2.0, 0.1], "num_perms": 3, "min_a": 1.0}
    assert checks.check_test(good, 3) == []
    assert checks.check_test(dict(good, pval=0.25), 3)
    assert checks.check_test(dict(good, pval=0.3), 3)
    assert checks.check_ci({"lower": 2.0, "upper": 1.0, "open_ended": [False, False]})


def test_failing_ops_are_counted_not_raised(work_dir):
    workload = worker.make_workload("grid-cli", seed=3, size="tiny", work_dir=work_dir)
    for argv in (["no-such-command"], ["test", "--data", os.path.join(work_dir, "missing.csv")]):
        _, code, text = worker.run_op(argv)
        assert code != 0
        assert worker.verify(workload, 0, code, text, [])


def test_tail_has_ten_samples_above_it():
    samples = [float(i) for i in range(30)]
    assert worker.tail(samples) == (19.0, 100.0 * 19 / 29)
    assert worker.tail(samples[:5]) == (4.0, 100.0)


def test_work_rate_is_the_median_over_windows():
    # Windows close at 3.0 (3 ops), 6.0 (1 op) and 9.0 (2 ops); the op ending
    # at 10.0 opens a window too short to count.
    ends = [1.0, 2.0, 3.0, 6.0, 7.0, 9.0, 10.0]
    assert worker.work_rate(ends, work_per_op=3, window_s=2.5) == 2.0
    assert worker.work_rate([1.0, 2.0], work_per_op=1, window_s=2.5) == 1.0
