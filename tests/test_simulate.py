"""Tests for data-generating processes and the Monte Carlo harness."""

import hashlib
from functools import partial

import numpy as np
import pytest

from clusterperm import multiway
from clusterperm.dyadic import PreparedTest, dyadic_layout, dyadic_test
from clusterperm.exceptions import DimensionError, VarianceBudgetError
from clusterperm.model import DyadArray
from clusterperm.rng import dgp_seed, generator, replicate_seed
from clusterperm.multiway import irregular_test
from clusterperm.simulate import (
    ERROR_KINDS,
    RandomEffectsSpec,
    _dyadic_cases,
    _irregular_rep,
    _power_rep,
    _random_effects,
    _rejection_rates,
    _size_rep,
    biclique_growth_experiment,
    gen_dyadic_dataset,
    gen_irregular_dataset,
    gen_mcar_mask,
    gen_random_effects,
    gen_semisynthetic_errors,
    mc_rejection_rate,
    minorization_gap_suite,
    run_irregular_size_panel,
    run_null_size_panel,
    run_power_panel,
)
from conftest import raises_exactly

_SEEN_SEEDS = []


def _record_seed(seed):
    _SEEN_SEEDS.append(seed)
    return 1.0


def _mean_offdiag_share(grid, n_cols=30):
    """Average off-diagonal column covariance over average variance."""
    cov = np.cov(grid[:, :n_cols].T)
    off = (cov.sum() - np.trace(cov)) / (n_cols * (n_cols - 1))
    return off / np.mean(np.diag(cov))


class TestRandomEffectsSpec:
    def test_sigma_values(self):
        spec = RandomEffectsSpec(0.4, 0.4)
        assert spec.sigma1 == pytest.approx(np.sqrt(2.0))
        assert spec.sigma2 == pytest.approx(np.sqrt(2.0))

    def test_budget_enforced(self):
        with pytest.raises(VarianceBudgetError):
            RandomEffectsSpec(0.5, 0.5)
        with pytest.raises(VarianceBudgetError):
            RandomEffectsSpec(-0.1, 0.2)

    def test_unknown_base(self):
        with pytest.raises(ValueError):
            RandomEffectsSpec(0.1, 0.1, base_dist="uniform")


class TestGenRandomEffects:
    def test_shape_and_determinism(self):
        spec = RandomEffectsSpec(0.2, 0.3)
        a = gen_random_effects(5, 7, spec, seed=1)
        b = gen_random_effects(5, 7, spec, seed=1)
        assert a.shape == (5, 7)
        assert np.array_equal(a, b)

    def test_seed_required(self):
        with pytest.raises(TypeError, match="seed"):
            gen_random_effects(3, 3, RandomEffectsSpec(0.1, 0.1))
        with pytest.raises(TypeError, match="seed"):
            RandomEffectsSpec(0.1, 0.1, seed=9)

    def test_row_share_matches_construction(self):
        # correlation of two cells sharing a row equals phi1
        grid = gen_random_effects(4000, 30, RandomEffectsSpec(0.3, 0.1), seed=3)
        assert _mean_offdiag_share(grid) == pytest.approx(0.3, abs=0.04)
        # the 30 column-effect draws dominate the variance noise
        assert np.var(grid) == pytest.approx(1.0 / 0.6, rel=0.12)

    def test_iid_when_shares_zero(self):
        grid = gen_random_effects(4000, 30, RandomEffectsSpec(0.0, 0.0), seed=4)
        assert abs(_mean_offdiag_share(grid)) < 0.02
        assert np.var(grid) == pytest.approx(1.0, rel=0.05)

    def test_lognormal_transform_positive(self):
        spec = RandomEffectsSpec(0.2, 0.2, base_dist="lognormal-transform")
        grid = gen_random_effects(20, 20, spec, seed=5)
        assert (grid > 0).all()

    def test_cauchy_base_runs(self):
        spec = RandomEffectsSpec(0.2, 0.2, base_dist="cauchy")
        grid = gen_random_effects(10, 10, spec, seed=6)
        assert np.isfinite(grid).all()


class TestGenDyadicDataset:
    def test_shapes_and_covariate_recipe(self):
        array, eps = gen_dyadic_dataset(9, seed=7)
        assert array.y.shape == (9, 9)
        assert array.d.shape == (9, 9, 1)
        assert array.x.shape == (9, 9, 3)
        assert eps.shape == (9, 9)
        assert np.array_equal(array.x[:, :, 0], np.ones((9, 9)))
        # x2 varies by row only, x3 by column only, both inside [0, 2]
        assert np.ptp(array.x[:, :, 1], axis=1).max() == 0.0
        assert np.ptp(array.x[:, :, 2], axis=0).max() == 0.0
        z = array.x[:, 0, 1]
        assert z.min() >= 0.0 and z.max() <= 2.0
        assert np.array_equal(array.x[0, :, 2], z)

    def test_outcome_equation_holds_exactly(self):
        beta = 0.7
        array, eps = gen_dyadic_dataset(8, beta=beta, seed=8)
        rebuilt = array.x @ np.array([0.5, 1.0, 1.0]) + array.d[:, :, 0] * beta + eps
        assert np.allclose(array.y, rebuilt, atol=1e-12)

    def test_lognormal_transform_of_treatment(self):
        normal, _ = gen_dyadic_dataset(7, cov_transform="normal", seed=9)
        logn, _ = gen_dyadic_dataset(7, cov_transform="lognormal", seed=9)
        assert np.allclose(logn.d, np.exp(0.5 * normal.d), atol=1e-12)

    def test_unknown_transform(self):
        with pytest.raises(ValueError):
            gen_dyadic_dataset(5, cov_transform="probit", seed=0)

    def test_deterministic(self):
        a, eps_a = gen_dyadic_dataset(6, seed=10)
        b, eps_b = gen_dyadic_dataset(6, seed=10)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(eps_a, eps_b)


class TestSharedDraws:
    # Several cases drawn at once must equal, array for array, the one-case call.
    @pytest.mark.parametrize("base", ["gaussian", "lognormal-transform", "cauchy"])
    @pytest.mark.parametrize("seed", [0, 31, 2**40 + 7])
    def test_random_effects_specs_share_one_draw(self, base, seed):
        specs = [RandomEffectsSpec(a, b, base_dist=base) for a, b in
                 [(0.05, 0.15), (0.05, 0.9), (0.0, 0.1), (0.4, 0.4)]]
        grids = _random_effects(6, 9, specs, seed=seed)
        assert len(grids) == len(specs)
        for spec, grid in zip(specs, grids):
            assert np.array_equal(grid, gen_random_effects(6, 9, spec, seed=seed))

    def test_random_effects_specs_need_one_base(self):
        specs = [RandomEffectsSpec(0.1, 0.1), RandomEffectsSpec(0.1, 0.1, base_dist="cauchy")]
        with pytest.raises(ValueError, match="base_dist"):
            _random_effects(3, 3, specs, seed=0)

    @pytest.mark.parametrize("seed", [3, 47, 2**63 + 5])
    @pytest.mark.parametrize("beta", [0.0, 0.35])
    def test_dyadic_cases_equal_one_case_calls(self, seed, beta):
        transforms = ("normal", "lognormal", "iid-lognormal")
        specs = [RandomEffectsSpec(0.05, 0.15), RandomEffectsSpec(0.05, 0.9),
                 RandomEffectsSpec(0.0, 0.1)]
        cases = _dyadic_cases(7, specs, transforms, beta=beta, seed=seed)
        pairs = [(t, spec) for t in transforms for spec in specs]
        assert len(cases) == len(pairs)
        for (transform, spec), (array, eps) in zip(pairs, cases):
            one, one_eps = gen_dyadic_dataset(7, beta=beta, spec_err=spec,
                                              cov_transform=transform, seed=seed)
            for field in ("y", "d", "x", "observed"):
                assert np.array_equal(getattr(array, field), getattr(one, field))
            assert np.array_equal(eps, one_eps)

    @pytest.mark.parametrize("kwargs, digest", [
        (dict(n=7, beta=0.35, spec_err=RandomEffectsSpec(0.05, 0.9),
              cov_transform="lognormal", seed=47), "d934164607ff79e3"),
        (dict(n=6, seed=3), "e8bfeeb34785fdc6"),
        (dict(n=5, beta=-1.5, spec_err=RandomEffectsSpec(0.2, 0.3, base_dist="cauchy"),
              cov_transform="normal", seed=2**63 + 5), "49489223d7996a8c"),
    ])
    def test_one_case_call_keeps_its_arrays(self, kwargs, digest):
        # recorded before several cases could share draws: y, d, x and the errors
        array, eps = gen_dyadic_dataset(**kwargs)
        data = b"".join(np.ascontiguousarray(v).tobytes()
                        for v in (array.y, array.d, array.x, eps))
        assert hashlib.sha256(data).hexdigest()[:16] == digest

    def test_iid_treatment_is_drawn_per_cell(self):
        # exp(0.5 w), w ~ N(0, 5) iid, from the DGP's fourth stream
        array, _ = gen_dyadic_dataset(9, cov_transform="iid-lognormal", seed=12)
        w = generator(dgp_seed(12, 3)).standard_normal((9, 9)) * np.sqrt(5.0)
        assert np.array_equal(array.d[:, :, 0], np.exp(0.5 * w))


def _standalone_size_pval(n, transform, phi2, num_perms, rep_seed):
    array, _ = gen_dyadic_dataset(n, beta=0.0, spec_err=RandomEffectsSpec(0.05, phi2),
                                  cov_transform=transform, seed=rep_seed)
    return dyadic_test(array, num_perms=num_perms, seed=rep_seed).pval


def _standalone_power_pval(n, beta, phi2, num_perms, rep_seed):
    # one row's own dataset, with the iid treatment exp(0.5 w), w ~ N(0, 5)
    array, _ = gen_dyadic_dataset(n, beta=0.0, spec_err=RandomEffectsSpec(0.0, phi2),
                                  cov_transform="lognormal", seed=rep_seed)
    w = generator(dgp_seed(rep_seed, 3)).standard_normal((n, n)) * np.sqrt(5.0)
    d = np.exp(0.5 * w)
    array = DyadArray(y=array.y + d * float(beta), d=d[:, :, None], x=array.x)
    return dyadic_test(array, num_perms=num_perms, seed=rep_seed).pval


def _count_calls(monkeypatch, owner, name):
    """Patch ``owner.name`` to log each call; returns the log."""
    calls = []
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


class TestSharedReplicate:
    # A replicate serves every row of its panel from one set of draws, one
    # group and one build per treatment; each p-value must be the one the row
    # gets on its own.
    SEEDS = [replicate_seed(61, r) for r in range(24)]

    @pytest.fixture
    def builds(self, monkeypatch):
        return _count_calls(monkeypatch, PreparedTest, "__init__")

    @pytest.fixture
    def passes(self, monkeypatch):
        return _count_calls(monkeypatch, PreparedTest, "_contract")

    def test_size_rows_match_standalone_tests(self, builds):
        transforms, phi2s = ("normal", "lognormal"), (0.15, 0.9)
        for rep_seed in self.SEEDS:
            builds.clear()
            shared = _size_rep(10, transforms, phi2s, 9, rep_seed)
            assert len(builds) == 2  # one build per covariate transform
            alone = [_standalone_size_pval(10, t, phi2, 9, rep_seed)
                     for t in transforms for phi2 in phi2s]
            assert shared == alone

    def test_power_rows_match_standalone_tests(self, builds):
        betas = (0.01, 0.05, 0.10, 0.15)
        for rep_seed in self.SEEDS:
            builds.clear()
            shared = _power_rep(10, betas, 0.1, 9, rep_seed)
            assert len(builds) == 1  # one build for all effect sizes
            assert shared == [_standalone_power_pval(10, beta, 0.1, 9, rep_seed)
                              for beta in betas]

    def test_each_build_contracts_its_outcomes_in_one_pass(self, passes):
        for rep_seed in self.SEEDS[:4]:
            passes.clear()
            _size_rep(10, ("normal", "lognormal"), (0.15, 0.9), 9, rep_seed)
            assert len(passes) == 2  # one pass per covariate transform
            passes.clear()
            _power_rep(10, (0.01, 0.05, 0.10, 0.15), 0.1, 9, rep_seed)
            assert len(passes) == 1

    def test_rows_reject_at_varied_levels(self):
        # the equalities above are not all p = 1: the p-values spread
        pvals = {p for s in self.SEEDS[:8] for p in _power_rep(10, (0.0, 0.15), 0.1, 9, s)}
        assert len(pvals) > 3


class TestSharedIrregularReplicate:
    # table3's error kinds share the design, mask, covers, trims and group, so
    # one irregular test runs them as a stack; each kind's p-value must be the
    # one its own dataset gets.  18 x 18 is above the exact solver's cap, so
    # every repeat decomposes, all of them in one lockstep call.
    SEEDS = [replicate_seed(62, r) for r in range(24)]

    def test_kinds_match_standalone_tests_with_one_pipeline_per_repeat(self, monkeypatch):
        calls = [_count_calls(monkeypatch, multiway, "biclique_covers"),
                 _count_calls(monkeypatch, multiway, "_trim_cover"),
                 _count_calls(monkeypatch, PreparedTest, "__init__")]
        pvals = set()
        for rep_seed in self.SEEDS:
            for log in calls:
                log.clear()
            shared = _irregular_rep(18, 18, 3, ERROR_KINDS, 8, 3, rep_seed)
            # one lockstep decomposition of the 3 repeats, and one trim and
            # build per repeat, shared by the kinds
            assert [len(log) for log in calls] == [1, 3, 3]
            alone = [irregular_test(gen_irregular_dataset(18, 18, 3, kind, seed=rep_seed),
                                    l0=3, num_perms=8, repeats=3,
                                    seed=dgp_seed(rep_seed, 6)).pval
                     for kind in ERROR_KINDS]
            assert shared == alone
            pvals.update(shared)
        assert len(pvals) > 3  # the equalities are not all p = 1


class TestSemisyntheticErrors:
    def _grid_indices(self, m, n):
        return np.repeat(np.arange(m), n), np.tile(np.arange(n), m)

    def test_two_way_weak_row_share(self):
        i_idx, j_idx = self._grid_indices(4000, 30)
        eps = gen_semisynthetic_errors(i_idx, j_idx, "two-way-weak", seed=11)
        grid = eps.reshape(4000, 30)
        assert _mean_offdiag_share(grid) == pytest.approx(0.1, abs=0.03)

    def test_row_heavy_dominated_by_rows(self):
        i_idx, j_idx = self._grid_indices(4000, 30)
        eps = gen_semisynthetic_errors(i_idx, j_idx, "row-heavy", seed=12)
        grid = eps.reshape(4000, 30)
        assert _mean_offdiag_share(grid) == pytest.approx(0.9, abs=0.03)
        # no column component: transposed share vanishes
        eps_t = gen_semisynthetic_errors(j_idx, i_idx, "row-heavy", seed=13,
                                         n_rows=30, n_cols=4000)
        col_grid = eps_t.reshape(4000, 30)  # rows of this grid share a column
        assert abs(_mean_offdiag_share(col_grid)) < 0.03

    def test_row_scale_lognormal_positive_and_row_scaled(self):
        i_idx, j_idx = self._grid_indices(50, 50)
        eps = gen_semisynthetic_errors(i_idx, j_idx, "row-scale-lognormal", seed=14)
        assert (eps > 0).all()
        assert eps.shape == (2500,)

    def test_unknown_kind(self):
        i_idx, j_idx = self._grid_indices(3, 3)
        with pytest.raises(ValueError):
            gen_semisynthetic_errors(i_idx, j_idx, "three-way", seed=0)

    def test_index_validation(self):
        with pytest.raises(DimensionError):
            gen_semisynthetic_errors(np.zeros(3, dtype=int), np.zeros(4, dtype=int),
                                     "row-heavy", seed=0)

    def test_deterministic(self):
        i_idx, j_idx = self._grid_indices(10, 10)
        a = gen_semisynthetic_errors(i_idx, j_idx, "two-way-weak", seed=15)
        b = gen_semisynthetic_errors(i_idx, j_idx, "two-way-weak", seed=15)
        assert np.array_equal(a, b)


class TestGenMcarMask:
    def test_mean_close_to_rho(self):
        mask = gen_mcar_mask(100, 0.8, seed=16)
        assert mask.mean() == pytest.approx(0.8, abs=0.02)

    def test_coupled_across_rho(self):
        # same seed thresholds one uniform grid, so masks nest in rho
        lo = gen_mcar_mask(40, 0.3, seed=17)
        hi = gen_mcar_mask(40, 0.7, seed=17)
        assert (lo <= hi).all()

    def test_rectangular(self):
        mask = gen_mcar_mask(10, 0.5, seed=18, n_cols=4)
        assert mask.shape == (10, 4)

    def test_rho_validated(self):
        with pytest.raises(ValueError):
            gen_mcar_mask(5, 1.5, seed=0)


class TestMcRejectionRate:
    def test_replicate_seeds_are_stable_prefix(self):
        _SEEN_SEEDS.clear()
        mc_rejection_rate(_record_seed, reps=4, alpha=0.05, seed=99)
        first = list(_SEEN_SEEDS)
        _SEEN_SEEDS.clear()
        mc_rejection_rate(_record_seed, reps=7, alpha=0.05, seed=99)
        assert _SEEN_SEEDS[:4] == first
        assert first == [replicate_seed(99, r) for r in range(4)]

    def test_counts_and_summary_fields(self):
        pvals = {replicate_seed(5, r): p for r, p in
                 enumerate([0.01, 0.2, 0.05, 0.8, 0.04])}
        summary = mc_rejection_rate(pvals.get, reps=5, alpha=0.05, seed=5,
                                    label="toy")
        assert summary.rejections == 3  # ties at alpha reject
        assert summary.rate == pytest.approx(0.6)
        assert summary.mc_se == pytest.approx(np.sqrt(0.6 * 0.4 / 5))
        assert summary.label == "toy"
        assert len(summary.config_digest) == 16

    def test_accepts_reports_with_pval_attribute(self):
        from clusterperm.dyadic import TestReport

        def fn(seed):
            return TestReport(pval=0.01, a=np.ones(1), b=np.ones(1),
                              num_perms=1, min_a=1.0, alpha_floor=0.5)

        summary = mc_rejection_rate(fn, reps=3, alpha=0.05, seed=0)
        assert summary.rate == 1.0

    def test_threads_do_not_change_result(self):
        # one replicate callable for all rows: the pool must give each row's
        # rate and digest exactly as the serial loop does
        rep = partial(_size_rep, 6, ("normal", "lognormal"), (0.15, 0.9), 5)
        labels = ["a", "b", "c", "d"]
        serial = _rejection_rates(rep, labels, reps=6, alpha=0.5, seed=3, threads=1)
        parallel = _rejection_rates(rep, labels, reps=6, alpha=0.5, seed=3, threads=2)
        assert serial == parallel
        assert [s.label for s in serial] == labels

    def test_reps_validated(self):
        with pytest.raises(DimensionError):
            mc_rejection_rate(lambda s: 1.0, reps=0, alpha=0.05, seed=0)

    @pytest.mark.parametrize("threads, reps, cpus, workers", [
        (100_000, 4, 8, 4),
        (100_000, 50, 2, 2),
        (3, 50, 8, 3),
        (2, 50, None, None),
        (0, 5, 8, None),
        (-5, 5, 8, None),
    ])
    def test_pool_is_bounded_by_reps_and_cpus(self, monkeypatch, threads, reps, cpus, workers):
        # A stub executor records its size and maps serially, so no process starts.
        from clusterperm import simulate

        sizes = []

        class StubPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        # mc_rejection_rate imports the pool when it needs one, so patch its source
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", StubPool)
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: cpus)
        summary = mc_rejection_rate(lambda s: 0.5, reps=reps, alpha=0.5, seed=1,
                                    threads=threads)
        assert summary.rejections == reps
        assert sizes == ([] if workers is None else [workers])


class TestMinorizationDominance:
    def test_no_violations_on_small_suite(self):
        out = minorization_gap_suite(n=8, num_perms=7, reps=12, seed=20)
        assert out["violations"] == 0
        assert len(out["pairs"]) == 12
        for feasible, infeasible in out["pairs"]:
            assert feasible >= infeasible

    def test_one_min_stat_call_per_replicate_counts_every_translate(self, monkeypatch):
        # the K translates of the errors go through min_stat as one stack;
        # the oracle count is the one each translate gives on its own
        shapes = []
        min_stat = PreparedTest.min_stat
        monkeypatch.setattr(PreparedTest, "min_stat",
                            lambda self, values: shapes.append(np.shape(values))
                            or min_stat(self, values))
        out = minorization_gap_suite(n=8, num_perms=7, reps=12, seed=20)
        assert shapes == [(64, 7)] * 12
        monkeypatch.undo()
        for r, (_, infeasible) in enumerate(out["pairs"]):
            rs = replicate_seed(20, r)
            array, eps = gen_dyadic_dataset(8, spec_err=RandomEffectsSpec(0.05, 0.15), seed=rs)
            x, d, y, group = dyadic_layout(array, 7, rs)
            prepared = PreparedTest(x, d, group)
            min_a = prepared.min_stat(y)
            moved = eps.reshape(-1)[group.stacked()]
            count = sum(min_a <= prepared.min_stat(moved[k]) for k in range(1, 8))
            assert infeasible == (1 + count) / 8


class TestBicliqueGrowthExperiment:
    def test_medians_monotone_in_both_arguments(self):
        out = biclique_growth_experiment(
            n_grid=(6, 8, 10), rho_grid=(0.3, 0.6, 0.9), reps=9, seed=21
        )
        med = np.asarray(out["median_side"])
        assert med.shape == (3, 3)
        assert (np.diff(med, axis=0) >= 0).all()  # growing n
        assert (np.diff(med, axis=1) >= 0).all()  # growing rho
        assert med[-1, -1] >= 1

    def test_validation(self):
        with pytest.raises(DimensionError):
            biclique_growth_experiment((), (0.5,), reps=3)


class TestGenIrregularDataset:
    def test_cell_sizes_within_band(self):
        data = gen_irregular_dataset(7, 7, 4, "two-way-weak", seed=22, extra_slots=2)
        sizes = data.cell_sizes()
        assert sizes.min() >= 4 and sizes.max() <= 6
        assert data.x.shape[1] == 3

    def test_effect_enters_outcome(self):
        null = gen_irregular_dataset(6, 6, 3, "row-heavy", seed=23, beta=0.0)
        alt = gen_irregular_dataset(6, 6, 3, "row-heavy", seed=23, beta=2.0)
        assert np.allclose(alt.y - null.y, 2.0 * null.d[:, 0], atol=1e-12)


class TestPanels:
    def test_null_size_panel_rows(self):
        out = run_null_size_panel(n=6, reps=3, seed=24, num_perms=5,
                                  phi2_values=(0.15,), cov_transforms=("normal",))
        assert out["panel"] == "null-size"
        assert len(out["rows"]) == 1
        row = out["rows"][0]
        assert 0.0 <= row["rate"] <= 1.0
        assert row["reps"] == 3

    @pytest.mark.parametrize("grid", [dict(phi2_values=()), dict(cov_transforms=())])
    def test_null_size_panel_without_rows(self, grid):
        out = run_null_size_panel(n=6, reps=3, seed=24, num_perms=5, **grid)
        assert out["rows"] == []

    def test_power_panel_rows(self):
        out = run_power_panel(n=6, reps=2, seed=25, num_perms=5, betas=(0.0, 0.1))
        assert [r["beta"] for r in out["rows"]] == [0.0, 0.1]

    def test_irregular_panel_rows(self):
        out = run_irregular_size_panel(
            n_rows=6, n_cols=6, l0=3, reps=2, seed=26,
            num_perms=3, repeats=2, kinds=("two-way-weak",),
        )
        assert out["rows"][0]["errors"] == "two-way-weak"
        assert out["l0"] == 3


def test_short_gamma_raises_typed_error():
    raises_exactly(lambda: gen_dyadic_dataset(4, gamma=(1.0, 2.0)), DimensionError,
                   "gamma must have 3 entries, got (2,)")
