"""Tests for the randomization test engine and interval inversion."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterperm.dyadic import (
    GridSpec,
    PreparedTest,
    _AffineStats,
    _ols_center_and_unit,
    block_test,
    dyadic_ci,
    dyadic_layout,
    dyadic_test,
    invert_ci,
    median_pvalue,
    permutation_test,
    pvalue_from_stats,
    shifted_test,
    stack_blocks,
    two_way_test,
)
from clusterperm.exceptions import (
    DegenerateInputError,
    DimensionError,
    GroupError,
    InsufficientDimensionError,
    NoEligibleCellsError,
    NonFiniteInputError,
    ResolutionError,
)
from clusterperm.model import DyadArray, PermutationFamily, StackedDesign, TwoWayPermutation
from clusterperm.permgroup import block_product_group, build_two_way_group
from clusterperm.rng import AXIS_CELLS, AXIS_COLS, AXIS_ROWS
from clusterperm.simulate import gen_dyadic_dataset
from conftest import raises_exactly, two_way_group


def _design(n=6, p=2, d_dim=1, beta=0.0, seed=0):
    rng = np.random.default_rng(seed)
    N = n * n
    X = np.column_stack([np.ones(N)] + [rng.standard_normal(N) for _ in range(p - 1)])
    D = rng.standard_normal((N, d_dim))
    y = X @ rng.standard_normal(p) + D @ np.full(d_dim, beta) + rng.standard_normal(N)
    return X, D, y


def _oracle_statistics(X, D, y, family):
    """Recompute (a, b) per member from scratch via a null-space basis."""
    a, b = [], []
    for k in range(1, family.num_perms + 1):
        src = family[k].stacked()
        V = scipy.linalg.null_space(np.hstack([X, X[src]]).T)
        core = D.T @ V @ V.T
        a.append(np.linalg.norm(core @ y))
        b.append(np.linalg.norm(core @ y[src]))
    return np.asarray(a), np.asarray(b)


class TestPvalueFromStats:
    def test_frozen_example(self):
        # min a = 1; permuted stats 2 and 3 reach it -> (1 + 2) / 5
        a = np.array([1.0, 2.0, 3.0, 4.0])
        b = np.array([0.5, 2.0, 3.0, 0.9])
        assert pvalue_from_stats(a, b) == pytest.approx(0.6)

    def test_ties_count_toward_rejection_of_nothing(self):
        # equality min a == b_k is counted, keeping the test conservative
        assert pvalue_from_stats(np.array([1.0, 2.0]), np.array([1.0, 0.5])) == pytest.approx(2 / 3)

    def test_floor_and_ceiling(self):
        a = np.array([5.0, 6.0])
        assert pvalue_from_stats(a, np.array([1.0, 2.0])) == pytest.approx(1 / 3)
        assert pvalue_from_stats(a, np.array([5.0, 9.0])) == pytest.approx(1.0)

    def test_nan_rejected(self):
        with pytest.raises(NonFiniteInputError):
            pvalue_from_stats(np.array([np.nan, 1.0]), np.array([0.5, 2.0]))
        with pytest.raises(NonFiniteInputError):
            pvalue_from_stats(np.array([1.0, 2.0]), np.array([0.5, np.nan]))

    def test_shape_validation(self):
        with pytest.raises(DimensionError):
            pvalue_from_stats(np.array([1.0]), np.array([1.0, 2.0]))
        with pytest.raises(DimensionError):
            pvalue_from_stats(np.ones((2, 2, 2)), np.ones((2, 2, 2)))

    def test_stack_gives_one_pvalue_per_row(self):
        rng = np.random.default_rng(0)
        a = rng.exponential(size=(30, 7))
        b = rng.exponential(size=(30, 7))
        b[3] = a[3].min()  # ties on one row
        rows = [pvalue_from_stats(a_row, b_row) for a_row, b_row in zip(a, b)]
        assert pvalue_from_stats(a, b).tolist() == rows


class TestTwoWayTest:
    def test_matches_null_space_oracle(self):
        X, D, y = _design(n=6, seed=1)
        family = build_two_way_group(6, 6, 2, seed=1)
        report = two_way_test(X, D, y, family)
        a_ref, b_ref = _oracle_statistics(X, D, y, family)
        assert np.allclose(report.a, a_ref, atol=1e-10)
        assert np.allclose(report.b, b_ref, atol=1e-10)
        assert report.pval == pytest.approx(pvalue_from_stats(a_ref, b_ref))

    def test_oracle_agreement_multicolumn_treatment(self):
        X, D, y = _design(n=5, d_dim=3, seed=2)
        family = build_two_way_group(5, 5, 4, seed=2)
        report = two_way_test(X, D, y, family)
        a_ref, b_ref = _oracle_statistics(X, D, y, family)
        assert np.allclose(report.a, a_ref, atol=1e-10)
        assert np.allclose(report.b, b_ref, atol=1e-10)

    def test_invariant_to_covariate_shift(self):
        X, D, y = _design(n=6, seed=3)
        family = build_two_way_group(6, 6, 2, seed=3)
        gamma = np.array([3.0, -2.0])
        base = two_way_test(X, D, y, family)
        shifted = two_way_test(X, D, y + X @ gamma, family)
        assert np.allclose(base.a, shifted.a, atol=1e-8)
        assert np.allclose(base.b, shifted.b, atol=1e-8)
        assert base.pval == shifted.pval

    def test_scale_equivariance(self):
        X, D, y = _design(n=6, seed=4)
        family = build_two_way_group(6, 6, 2, seed=4)
        base = two_way_test(X, D, y, family)
        scaled = two_way_test(X, D, 7.5 * y, family)
        assert np.allclose(scaled.a, 7.5 * base.a)
        assert scaled.pval == base.pval

    def test_degenerate_treatment_reports_one(self):
        X, _, y = _design(n=5, seed=5)
        D = X @ np.array([[2.0], [1.0]])  # treatment inside the covariate span
        family = build_two_way_group(5, 5, 4, seed=5)
        report = two_way_test(X, D, y, family)
        assert report.pval == 1.0
        assert any("degenerate" in note for note in report.notes)

    def test_all_identity_family_notes(self):
        # K + 1 larger than both extents freezes every index
        X, D, y = _design(n=3, seed=6)
        family = build_two_way_group(3, 3, 9, seed=6)
        report = two_way_test(X, D, y, family)
        assert report.pval == 1.0
        assert any("identity" in note for note in report.notes)

    def test_report_fields(self):
        X, D, y = _design(n=6, seed=7)
        family = build_two_way_group(6, 6, 5, seed=7)
        report = two_way_test(X, D, y, family, seed=7)
        assert report.num_perms == 5
        assert report.alpha_floor == pytest.approx(1 / 6)
        assert report.min_a == pytest.approx(report.a.min())
        assert report.seed == 7
        payload = report.to_dict()
        assert payload["pval"] == report.pval
        assert len(payload["a"]) == 5

    def test_needs_room_for_projections(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((8, 4))  # 2p = N
        D = rng.standard_normal((8, 1))
        with pytest.raises(InsufficientDimensionError):
            PreparedTest(X, D, np.stack([np.arange(8), rng.permutation(8)]))

    def test_permutation_test_equals_two_way(self):
        X, D, y = _design(n=6, seed=9)
        family = build_two_way_group(6, 6, 3, seed=9)
        via_family = two_way_test(X, D, y, family)
        via_rows = permutation_test(X, D, y, family.stacked())
        assert via_rows.pval == via_family.pval
        assert np.array_equal(via_rows.a, via_family.a)

    def test_member_zero_must_be_identity(self):
        X, D, y = _design(n=4, seed=10)
        perms = np.stack([np.roll(np.arange(16), 1), np.arange(16)])
        with pytest.raises(DimensionError):
            permutation_test(X, D, y, perms)


def _powers(gen, count):
    perms = [np.arange(gen.shape[0])]
    for _ in range(count - 1):
        perms.append(gen[perms[-1]])
    return np.stack(perms)


class TestGroupValidation:
    def test_random_two_way_permutations_raise(self):
        X, D, y = _design(n=6, seed=50)
        rng = np.random.default_rng(50)
        members = [TwoWayPermutation(np.arange(6), np.arange(6))]
        members += [TwoWayPermutation(rng.permutation(6), rng.permutation(6))
                    for _ in range(5)]
        with pytest.raises(GroupError, match="member 2 is not member 1"):
            permutation_test(X, D, y, PermutationFamily(tuple(members)).stacked())

    def test_group_must_close(self):
        # Powers 0..2 of a 4-cycle follow the law but do not return to the
        # identity after K+1 = 3 steps.
        X, D, y = _design(n=4, seed=51)
        gen = np.arange(16)
        gen[:4] = [1, 2, 3, 0]
        with pytest.raises(GroupError, match="not the identity"):
            permutation_test(X, D, y, _powers(gen, 3))
        permutation_test(X, D, y, _powers(gen, 4))

    def test_faulty_member_is_named(self):
        X, D, y = _design(n=4, seed=52)
        gen = np.roll(np.arange(16), 4)
        perms = _powers(gen, 4)
        perms[2, 3] = perms[2, 4]
        with pytest.raises(DimensionError, match="member 2 is not a bijection"):
            permutation_test(X, D, y, perms)
        perms[2, 3] = 16
        with pytest.raises(DimensionError, match="member 2 maps outside"):
            permutation_test(X, D, y, perms)
        perms[1, 0] = -1
        with pytest.raises(DimensionError, match="member 1 maps outside"):
            permutation_test(X, D, y, perms)

    @pytest.mark.parametrize("n_rows, n_cols, num_perms",
                             [(25, 25, 24), (5, 30, 19), (3, 3, 19), (40, 7, 99)])
    def test_two_way_groups_pass(self, n_rows, n_cols, num_perms):
        perms = build_two_way_group(n_rows, n_cols, num_perms, seed=53).stacked()
        X = np.ones((perms.shape[1], 1))
        prepared = PreparedTest(X, np.arange(perms.shape[1], dtype=float), perms)
        assert np.array_equal(prepared.group.stacked(), perms)
        assert not np.shares_memory(prepared.group.generator, perms)


class TestPreparedState:
    def test_retains_pd_and_linear_state_and_streams_members(self):
        # 100 x 100 grid, K = 19, p = 3: pd is 1.5 MB.  A (K+1) x N row map
        # would add 1.6 MB to what the object holds, a K x N gather 1.5 MB to
        # the peak of a pass over the members, and the K range bases
        # (N x 5 each) 7.6 MB.
        X, D, y = _design(n=100, p=3, seed=30)
        group = two_way_group(100, 100, 19, seed=30)
        n = X.shape[0]
        tracemalloc.start()
        try:
            prepared = PreparedTest(X, D, group)
            held, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            prepared.statistics(y)
            prepared.min_stat(y)
            _AffineStats(prepared, y).pvalues(np.linspace(-1.0, 1.0, 201))
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            invert_ci(X, D, y, group, alpha=0.1)
            _, ci_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert prepared.group is group
        assert prepared.projectors == ()
        slack = 4 * n * 8  # O(N): room for a few length-N vectors
        assert held <= prepared.pd.nbytes + slack
        assert peak - held < prepared.pd.nbytes / 4
        # invert_ci builds its own pd, and its other temporaries (the basis,
        # one member's gathers, the least-squares center) are O(N), well
        # under one more K x N array
        assert ci_peak - held < 2 * prepared.pd.nbytes


    @pytest.mark.parametrize("num_perms", [19, 99])
    def test_stacked_report_peaks_with_the_outcomes_not_the_members(self, num_perms):
        # a 4-outcome report holds the scaled outcome-major copy, one member's
        # gathered copy and the gather's index: O(m N), the same at K = 19 and
        # K = 99, where pd is 1.5 and 7.9 MB
        X, D, _ = _design(n=100, p=3, seed=30)
        Y = np.random.default_rng(31).standard_normal((X.shape[0], 4))
        prepared = PreparedTest(X, D, two_way_group(100, 100, num_perms, seed=30))
        tracemalloc.start()
        try:
            held, _ = tracemalloc.get_traced_memory()
            reports = prepared.report(Y)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(reports) == 4
        assert peak - held < 4 * Y.nbytes


def _stack_layout(kind: str, rng, d_dim: int):
    """A random layout of ``kind`` through :func:`stack_blocks`: a grid's one
    block, several cell blocks, or irregular cover blocks whose slots stay
    fixed; at least 6 records for the 2 covariates.  Records are shuffled, so
    the stacked rows are gathered copies."""
    if kind == "grid":
        shapes = [tuple(rng.integers(3, 9, size=2))]
        axes = (AXIS_ROWS, AXIS_COLS)
    elif kind == "block":
        shapes = [(int(size),) for size in rng.integers(3, 12, size=rng.integers(2, 6))]
        axes = (AXIS_CELLS,)
    else:
        shapes = [tuple(rng.integers(2, 5, size=2)) + (3,) for _ in range(rng.integers(1, 4))]
        axes = (AXIS_ROWS, AXIS_COLS, None)
    n = sum(int(np.prod(shape)) for shape in shapes) + 2
    records = np.split(rng.permutation(n)[:n - 2], np.cumsum([np.prod(s) for s in shapes])[:-1])
    blocks = [(q, axes, r.reshape(shape)) for q, (r, shape) in enumerate(zip(records, shapes))]
    x = np.column_stack([np.ones(n), rng.standard_normal(n)])
    return stack_blocks(x, rng.standard_normal((n, d_dim)), np.zeros(n), blocks,
                        int(rng.integers(1, 8)), int(rng.integers(2**31)))


class TestOutcomeStack:
    # A stack of m outcomes goes through one contraction pass; each column's
    # statistics, p-value and notes must be its own 1-D call's, bit for bit.

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["grid", "block", "irregular"]), m=st.integers(1, 12),
           d_dim=st.integers(1, 2), fortran=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_every_column_equals_its_own_call(self, kind, m, d_dim, fortran, seed):
        rng = np.random.default_rng(seed)
        x, d, _, group = _stack_layout(kind, rng, d_dim)
        prepared = PreparedTest(x, d, group)
        # columns of unlike scales, one of them possibly zero
        Y = np.ldexp(rng.standard_normal((len(x), m)), rng.integers(-300, 300, size=m))
        Y[:, rng.integers(m)] *= rng.integers(2)
        Y = np.asfortranarray(Y) if fortran else Y
        before = Y.copy()
        a, b = prepared.statistics(Y)
        mins = prepared.min_stat(Y)
        reports = prepared.report(Y, seed=seed)
        assert a.shape == b.shape == (m, group.num_perms) and len(reports) == m
        for j in range(m):
            a_j, b_j = prepared.statistics(Y[:, j])
            assert a[j].tobytes() == a_j.tobytes() and b[j].tobytes() == b_j.tobytes()
            assert mins[j] == prepared.min_stat(Y[:, j])
            alone = prepared.report(Y[:, j], seed=seed)
            assert reports[j].pval == alone.pval and reports[j].min_a == alone.min_a
            assert reports[j].a.tobytes() == alone.a.tobytes()
            assert reports[j].b.tobytes() == alone.b.tobytes()
            assert reports[j].notes == alone.notes
        assert Y.tobytes() == before.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(["grid", "block", "irregular"]), m=st.integers(1, 12),
           sign=st.sampled_from([1, -1]), data=st.data())
    def test_one_overflowing_or_underflowing_column_is_named(self, kind, m, sign, data):
        # D 2^(550 s) and one column 2^(550 s): only that column's
        # contractions reach 2^(1100 s), out of float64's normal range
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        x, d, _, group = _stack_layout(kind, rng, 1)
        prepared = PreparedTest(x, np.ldexp(d, 550 * sign), group)
        j = data.draw(st.integers(0, m - 1))
        Y = rng.standard_normal((len(x), m))
        Y[:, j] = np.ldexp(Y[:, j], 550 * sign)
        before = Y.copy()
        fault = "large" if sign > 0 else "small"
        for call in (prepared.statistics, prepared.report, prepared.min_stat):
            with pytest.raises(NonFiniteInputError,
                               match=f"^outcome column {j} or treatment is too {fault}"):
                call(Y)
        assert Y.tobytes() == before.tobytes()

    @pytest.mark.parametrize("shape", [(36, 0), (35, 2), (36, 2, 1), ()])
    def test_malformed_stack_raises(self, shape):
        X, D, _ = _design(n=6, seed=35)
        prepared = PreparedTest(X, D, two_way_group(6, 6, 5, seed=35))
        for call in (prepared.statistics, prepared.min_stat, prepared.report):
            with pytest.raises(DimensionError, match="outcome"):
                call(np.ones(shape))

    def test_interval_and_shifted_test_take_one_outcome(self):
        X, D, y = _design(n=6, seed=35)
        group = two_way_group(6, 6, 5, seed=35)
        with pytest.raises(DimensionError, match=r"outcome must have shape \(36,\), got"):
            shifted_test(X, D, np.column_stack([y, y]), group, 0.5)
        with pytest.raises(DimensionError, match=r"outcome must have shape \(36,\), got"):
            invert_ci(X, D, np.column_stack([y, y]), group, alpha=0.2)


_SMALL = st.integers(2, 9)


class TestGroupEqualsLegacyFamily:
    @settings(max_examples=40, deadline=None)
    @given(n_rows=_SMALL, n_cols=_SMALL, num_perms=st.integers(1, 9),
           seed=st.integers(0, 2**32 - 1))
    def test_front_ends_match_two_way_family(self, n_rows, n_cols, num_perms, seed):
        # K+1 above a side leaves that axis fixed, up to the all-identity group
        rng = np.random.default_rng(seed)
        x = np.concatenate([np.ones((n_rows, n_cols, 1)),
                            rng.standard_normal((n_rows, n_cols, 1))], axis=2)
        array = DyadArray(rng.standard_normal((n_rows, n_cols)),
                          rng.standard_normal((n_rows, n_cols)), x)
        design = StackedDesign.from_array(array)
        family = build_two_way_group(array.n_rows, array.n_cols, num_perms, seed)
        try:
            legacy = two_way_test(design.x, design.d, design.y, family, seed=seed)
        except InsufficientDimensionError:
            return
        report = dyadic_test(array, num_perms=num_perms, seed=seed)
        assert report.pval == legacy.pval
        assert report.a.tobytes() == legacy.a.tobytes()
        assert report.b.tobytes() == legacy.b.tobytes()
        shifted = dyadic_test(array, num_perms=num_perms, seed=seed, beta0=0.3)
        legacy = shifted_test(design.x, design.d, design.y, family, 0.3, seed=seed)
        assert shifted.pval == legacy.pval
        assert shifted.a.tobytes() == legacy.a.tobytes()
        assert shifted.b.tobytes() == legacy.b.tobytes()
        alpha = 1.0 / (num_perms + 1)
        ci = dyadic_ci(array, alpha=alpha, num_perms=num_perms, seed=seed)
        legacy_ci = invert_ci(design.x, design.d, design.y, family, alpha=alpha)
        assert ci.to_dict() | {"notes": None} == legacy_ci.to_dict() | {"notes": None}
        assert ci.notes == report.notes


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_outcome_rejected_by_statistics_and_min_stat(self, bad):
        X, D, y = _design(n=6, seed=32)
        prepared = PreparedTest(X, D, build_two_way_group(6, 6, 5, seed=32).stacked())
        y[7] = bad
        with pytest.raises(NonFiniteInputError, match="outcome"):
            prepared.statistics(y)
        with pytest.raises(NonFiniteInputError, match="outcome"):
            prepared.min_stat(y)
        with pytest.raises(NonFiniteInputError, match="outcome"):
            prepared.report(y)

    @pytest.mark.parametrize("which", ["covariates", "treatment"])
    def test_design_rejected_by_prepared_test(self, which):
        X, D, _ = _design(n=6, seed=33)
        if which == "covariates":
            X[3, 1] = np.nan
        else:
            D[4, 0] = np.inf
        with pytest.raises(NonFiniteInputError, match=which):
            PreparedTest(X, D, build_two_way_group(6, 6, 5, seed=33).stacked())

    def test_interval_inversion_rejects_nan_outcome(self):
        X, D, y = _design(n=6, seed=34)
        y[0] = np.nan
        family = build_two_way_group(6, 6, 19, seed=34)
        with pytest.raises(NonFiniteInputError, match="outcome"):
            invert_ci(X, D, y, family)

    @pytest.mark.parametrize("scale", [1e160, 1e300])
    def test_overflowing_treatment_is_named(self, scale):
        # ||D||^2 overflows to inf, which once passed the degenerate check
        # (inf <= 1e-10 inf): p = 1, a false note and the whole line.  The
        # check now takes scaled norms, so the test keeps its p-value; the
        # interval's contractions pd_k'D overflow, and name the treatment.
        X, D, y = _design(n=20, seed=40)
        group = two_way_group(20, 20, 19, seed=40)
        report = permutation_test(X, D * scale, y, group)
        assert report.pval == permutation_test(X, D, y, group).pval and report.notes == ()
        with pytest.raises(NonFiniteInputError, match="treatment"):
            invert_ci(X, D * scale, y, group)

    @pytest.mark.parametrize("degenerate", [False, True])
    def test_overflowing_statistic_names_the_outcome(self, degenerate):
        # every statistic is inf, so every b_k tied min a and p was 1; a
        # degenerate treatment must not skip the check through the forced p = 1.
        # The norms are scaled, so only an overflowing contraction makes one:
        # a degenerate D's residue is ~1e-16 |D|, so D is scaled up to reach it.
        X, D, y = _design(n=20, seed=41)
        D = X[:, 1:] * 1e100 if degenerate else D
        group = two_way_group(20, 20, 19, seed=41)
        prepared = PreparedTest(X, D, group)
        assert prepared.degenerate == degenerate
        with pytest.raises(NonFiniteInputError, match="outcome"):
            prepared.report(y * 1e307)
        # the interval's |u - b0 v| takes no square: only an overflowing
        # contraction stops it, and a degenerate D's stays finite
        if not degenerate:
            with pytest.raises(NonFiniteInputError, match="outcome"):
                invert_ci(X, D, y * 1e307, group)

    @pytest.mark.parametrize("power", [664, -664])
    def test_outcome_scale_leaves_the_test_alone(self, power):
        # ||a_k||^2 used to overflow at 2^664 (an error) and underflow at
        # 2^-664 (every a_k = 0, p = 1); a power-of-two scale is exact
        rng = np.random.default_rng(1)
        u, d = rng.standard_normal((2, 20, 20))
        y = 1.0 + u + 2.0 * d + rng.standard_normal((20, 20))
        x = np.stack([np.ones((20, 20)), u], axis=-1)
        plain = dyadic_test(DyadArray(y, d, x), num_perms=19, seed=1)
        scaled = dyadic_test(DyadArray(y * 2.0 ** power, d, x), num_perms=19, seed=1)
        assert plain.pval == scaled.pval == 0.05 and scaled.notes == ()
        assert np.array_equal(scaled.a, plain.a * 2.0 ** power)
        assert np.array_equal(scaled.b, plain.b * 2.0 ** power)
        ci = dyadic_ci(DyadArray(y * 2.0 ** power, d, x), num_perms=19, seed=1)
        assert 0.0 < ci.lower < ci.upper < np.inf

    @pytest.mark.parametrize("power", [-1000, -565, 600, 996, 1020])
    def test_treatment_scale_leaves_the_test_alone(self, power):
        # the degenerate check squared D's entries: they underflowed at 2^-565
        # (p = 1, "annihilated") and overflowed at 2^600 (an error), though
        # every statistic is a normal float; a power-of-two scale is exact
        rng = np.random.default_rng(1)
        u, d = rng.standard_normal((2, 20, 20))
        y = (0.3 * d + rng.standard_normal((20, 1)) + rng.standard_normal((1, 20))
             + rng.standard_normal((20, 20)))
        x = np.stack([np.ones((20, 20)), u], axis=-1)
        if power == 1020:  # D is finite, but pd_k'y overflows: not the outcome alone
            with pytest.raises(NonFiniteInputError, match="outcome or treatment"):
                dyadic_test(DyadArray(y, np.ldexp(d, power), x), num_perms=19, seed=1)
            return
        plain = dyadic_test(DyadArray(y, d, x), num_perms=19, seed=1)
        scaled = dyadic_test(DyadArray(y, np.ldexp(d, power), x), num_perms=19, seed=1)
        assert plain.pval == scaled.pval == 0.05 and scaled.notes == ()
        assert np.array_equal(scaled.a, np.ldexp(plain.a, power))
        assert np.array_equal(scaled.b, np.ldexp(plain.b, power))

    @pytest.mark.parametrize("s, t", [(-100, -1000), (-1000, -100), (-600, -600)])
    def test_underflowing_statistic_is_named(self, s, t):
        # pd_k'y ~ 2^(s+t) underflowed to 0: every a_k and b_k tied at 0 and
        # p was 1, with no note.  A degenerate D must not skip the check.
        X, D, y = _design(n=20, seed=41)
        group = two_way_group(20, 20, 19, seed=41)
        for treatment in (D, X[:, 1:]):
            with pytest.raises(NonFiniteInputError, match="outcome or treatment is too small"):
                permutation_test(X, np.ldexp(treatment, t), np.ldexp(y, s), group)
        with pytest.raises(NonFiniteInputError, match="outcome or treatment is too small"):
            PreparedTest(X, np.ldexp(D, t), group).min_stat(np.ldexp(y, s))
        with pytest.raises(NonFiniteInputError, match="outcome or treatment is too small"):
            invert_ci(X, np.ldexp(D, t), np.ldexp(y, s), group)

    def test_interval_names_an_underflowing_treatment(self):
        # the interval also contracts D with itself: pd_k'D ~ 2^-1200
        # underflows, while the test's pd_k'y ~ 2^-600 does not
        X, D, y = _design(n=20, seed=41)
        group = two_way_group(20, 20, 19, seed=41)
        small = np.ldexp(D, -600)
        assert permutation_test(X, small, y, group).pval == permutation_test(X, D, y, group).pval
        with pytest.raises(NonFiniteInputError, match="^treatment is too small"):
            invert_ci(X, small, y, group)

    def test_zero_outcome_is_no_underflow(self):
        # an exact zero is no lost digit: every statistic ties at 0, p = 1
        X, D, _ = _design(n=20, seed=41)
        report = permutation_test(X, D, np.zeros(len(D)), two_way_group(20, 20, 19, seed=41))
        assert report.pval == 1.0 and not report.a.any() and not report.b.any()

    def test_large_finite_treatment_keeps_its_pvalue(self):
        X, D, y = _design(n=20, seed=42)
        group = two_way_group(20, 20, 19, seed=42)
        plain = permutation_test(X, D, y, group)
        scaled = permutation_test(X, D * 1e150, y, group)
        assert scaled.pval == plain.pval and scaled.notes == ()


class TestOutcomeShape:
    @pytest.mark.parametrize("length", [35, 37])
    def test_wrong_length_outcome_raises(self, length):
        X, D, y = _design(n=6, seed=35)
        group = two_way_group(6, 6, 5, seed=35)
        prepared = PreparedTest(X, D, group)
        bad = np.resize(y, length)
        with pytest.raises(DimensionError, match="outcome"):
            prepared.min_stat(bad)
        with pytest.raises(DimensionError, match="outcome"):
            shifted_test(X, D, bad, group, 0.5)
        with pytest.raises(DimensionError, match="outcome"):
            invert_ci(X, D, bad, group, alpha=0.2)
        # a degenerate treatment gives the whole line, but only for a valid y
        with pytest.raises(DimensionError, match="outcome"):
            invert_ci(X, X[:, :1], bad, group, alpha=0.2)


class TestBlockTest:
    def test_stacks_blocks_and_permutes_them_as_one_group(self):
        X, D, y = _design(n=6, seed=36)
        blocks = [(0, (AXIS_ROWS, AXIS_COLS), np.arange(36)[::2].reshape(3, 6)),
                  (1, (AXIS_CELLS, None), np.arange(36)[1::2].reshape(6, 3))]
        order = np.r_[np.arange(36)[::2], np.arange(36)[1::2]]
        group = block_product_group([(0, ((3, AXIS_ROWS), (6, AXIS_COLS))),
                                     (1, ((6, AXIS_CELLS), (3, None)))], 5, 36)
        direct = permutation_test(X[order], D[order], y[order], group, seed=36)
        report = block_test(X, D, y, blocks, 5, 36)
        assert report.pval == direct.pval and report.seed == 36
        assert report.a.tobytes() == direct.a.tobytes()
        assert report.b.tobytes() == direct.b.tobytes()

    def test_short_side_note_counts_moving_axes_only(self):
        # block 1's fixed side of 3 never counts; at K = 6 no axis moves
        X, D, y = _design(n=7, seed=39)
        blocks = [(0, (AXIS_ROWS, AXIS_COLS), np.arange(18).reshape(3, 6)),
                  (1, (AXIS_CELLS, None), np.arange(18, 36).reshape(6, 3)),
                  (2, (AXIS_CELLS,), np.arange(36, 42))]
        assert block_test(X, D, y, blocks, 2, 39).notes == ()
        for num_perms, short in ((5, 1), (6, 3)):
            notes = block_test(X, D, y, blocks, num_perms, 39).notes
            assert notes[0] == (f"{short} of 3 blocks have a side shorter than "
                                f"K+1={num_perms + 1}; their indices stay fixed")
            assert sum("blocks have a side" in note for note in notes) == 1
            assert any("acts as the identity" in note for note in notes) == (short == 3)

    def test_empty_block_list_raises(self):
        X, D, y = _design(n=6, seed=37)
        with pytest.raises(NoEligibleCellsError):
            block_test(X, D, y, [], 5, 37)

    def test_records_must_match_their_axes(self):
        X, D, y = _design(n=6, seed=38)
        with pytest.raises(DimensionError, match="block 0"):
            block_test(X, D, y, [(0, (AXIS_ROWS, AXIS_COLS), np.arange(36))], 5, 38)


class TestStackBlocks:
    def test_identity_order_stacks_views(self):
        # records already in stacked order, with rows after them in no block
        X, D, y = _design(n=6, seed=43)
        blocks = [(0, (AXIS_ROWS, AXIS_COLS), np.arange(24).reshape(4, 6)),
                  (1, (AXIS_CELLS,), np.arange(24, 30))]
        x_s, d_s, y_s, group = stack_blocks(X, D, y, blocks, 3, 43)
        for stacked, data in ((x_s, X), (d_s, D), (y_s, y)):
            assert np.shares_memory(stacked, data)
            assert np.array_equal(stacked, data[:30])
        assert group.n == 30 and group.notes == ()
        shuffled = [(0, (AXIS_ROWS, AXIS_COLS), np.arange(24)[::-1].reshape(4, 6))]
        assert not np.shares_memory(stack_blocks(X, D, y, shuffled, 3, 43)[0], X)

    @settings(max_examples=25, deadline=None)
    @given(n_rows=st.integers(2, 12), n_cols=st.integers(2, 12), num_perms=st.integers(1, 9),
           seed=st.integers(0, 2**32 - 1))
    def test_shuffled_records_give_the_dyadic_report(self, n_rows, n_cols, num_perms, seed):
        # records in any order, with the grid's positions mapped through the
        # shuffle, are the same layout: the same report, byte for byte
        rng = np.random.default_rng(seed)
        x = np.concatenate([np.ones((n_rows, n_cols, 1)),
                            rng.standard_normal((n_rows, n_cols, 1))], axis=2)
        array = DyadArray(rng.standard_normal((n_rows, n_cols)),
                          rng.standard_normal((n_rows, n_cols)), x)
        try:
            report = dyadic_test(array, num_perms=num_perms, seed=seed)
        except InsufficientDimensionError:
            return
        design = StackedDesign.from_array(array)
        shuffle = rng.permutation(design.n)
        position = np.argsort(shuffle).reshape(n_rows, n_cols)
        shuffled = block_test(design.x[shuffle], design.d[shuffle], design.y[shuffle],
                              [(0, (AXIS_ROWS, AXIS_COLS), position)], num_perms, seed)
        assert shuffled.pval == report.pval and shuffled.notes == report.notes
        assert shuffled.a.tobytes() == report.a.tobytes()
        assert shuffled.b.tobytes() == report.b.tobytes()

    def test_dyadic_ci_notes_the_short_side_as_the_test_does(self):
        # K = 19 moves the 30 columns but not the 5 rows
        rng = np.random.default_rng(26)
        array = DyadArray(rng.standard_normal((5, 30)), rng.standard_normal((5, 30)),
                          np.ones((5, 30, 1)))
        ci = dyadic_ci(array, num_perms=19, seed=26)
        assert ci.notes == ("1 of 1 blocks have a side shorter than K+1=20; "
                            "their indices stay fixed",)
        assert ci.to_dict()["notes"] == list(ci.notes)
        assert dyadic_test(array, num_perms=19, seed=26).notes == ci.notes

    def test_layout_passed_whole_keeps_its_note(self):
        # K = 5 moves the 6 columns and the 6 cells but not the 4 rows; the
        # four values of a layout are the arguments of a test or an interval
        X, D, y = _design(n=6, beta=0.3, seed=44)
        blocks = [(0, (AXIS_ROWS, AXIS_COLS), np.arange(24).reshape(4, 6)),
                  (1, (AXIS_CELLS,), np.arange(24, 30))]
        layout = stack_blocks(X, D, y, blocks, 5, 44)
        note = ("1 of 2 blocks have a side shorter than K+1=6; their indices stay fixed",)
        assert len(layout) == 4 and layout[3].notes == note
        report = permutation_test(*layout)
        assert report.notes == note == block_test(X, D, y, blocks, 5, 44).notes
        assert invert_ci(*layout, alpha=0.5).notes == note


class TestShiftedTest:
    def test_zero_shift_matches_plain_test(self):
        X, D, y = _design(n=6, seed=11)
        family = build_two_way_group(6, 6, 2, seed=11)
        plain = two_way_test(X, D, y, family)
        shifted = shifted_test(X, D, y, family, 0.0)
        assert np.array_equal(plain.a, shifted.a)
        assert plain.pval == shifted.pval

    def test_shift_is_outcome_translation(self):
        X, D, y = _design(n=6, seed=12)
        family = build_two_way_group(6, 6, 2, seed=12)
        b0 = 0.7
        shifted = shifted_test(X, D, y, family, b0)
        translated = two_way_test(X, D, y - D[:, 0] * b0, family)
        assert np.allclose(shifted.a, translated.a)
        assert shifted.pval == translated.pval

    def test_true_coefficient_is_rarely_extreme(self):
        X, D, y = _design(n=8, beta=1.5, seed=13)
        family = build_two_way_group(8, 8, 7, seed=13)
        at_truth = shifted_test(X, D, y, family, 1.5)
        away = shifted_test(X, D, y, family, 40.0)
        assert at_truth.pval > away.pval

    def test_beta0_shape_checked(self):
        X, D, y = _design(n=5, d_dim=2, seed=14)
        family = build_two_way_group(5, 5, 4, seed=14)
        with pytest.raises(DimensionError):
            shifted_test(X, D, y, family, 0.5)

    @pytest.mark.parametrize("beta0", [np.nan, np.inf])
    def test_non_finite_beta0_is_named(self, beta0):
        X, D, y = _design(n=5, seed=14)
        family = build_two_way_group(5, 5, 4, seed=14)
        with pytest.raises(NonFiniteInputError, match="^beta0 has 1 non-finite"):
            shifted_test(X, D, y, family, beta0)

    def test_prepared_reuse(self):
        X, D, y = _design(n=6, seed=15)
        family = build_two_way_group(6, 6, 2, seed=15)
        prepared = PreparedTest(X, D, family.stacked())
        fresh = shifted_test(X, D, y, family, 0.3)
        reused = shifted_test(X, D, y, family, 0.3, prepared=prepared)
        assert fresh.pval == reused.pval


class TestInvertCi:
    def test_grid_pvalues_match_shifted_test(self):
        # the affine fast path must agree with a full recomputation
        X, D, y = _design(n=6, beta=0.5, seed=16)
        family = build_two_way_group(6, 6, 5, seed=16)
        prepared = PreparedTest(X, D, family.stacked())
        from clusterperm.dyadic import _AffineStats

        affine = _AffineStats(prepared, y)
        points = np.linspace(-2.0, 3.0, 21)
        fast = affine.pvalues(points)
        slow = np.array([
            shifted_test(X, D, y, family, float(b0), prepared=prepared).pval
            for b0 in points
        ])
        assert np.array_equal(fast, slow)

    def test_interval_covers_truth_and_rejects_far_nulls(self):
        array, _ = gen_dyadic_dataset(10, beta=0.2, seed=5)
        design = StackedDesign.from_array(array)
        family = build_two_way_group(10, 10, 9, seed=5)
        ci = invert_ci(design.x, design.d, design.y, family, alpha=0.2)
        assert ci.open_ended == (False, False)
        assert ci.covers(0.2)
        assert not ci.covers(5.0)
        assert ci.grid["n_accepted"] > 0

    def test_explicit_grid_is_respected(self):
        X, D, y = _design(n=6, seed=17)
        family = build_two_way_group(6, 6, 5, seed=17)
        spec = GridSpec(center=0.0, half_width=2.0, points=41, max_expansions=0)
        ci = invert_ci(X, D, y, family, alpha=1 / 6, grid=spec)
        assert ci.grid["points"] == 41
        assert ci.grid["expansions_used"] == 0

    def test_alpha_below_floor_raises(self):
        X, D, y = _design(n=6, seed=18)
        family = build_two_way_group(6, 6, 4, seed=18)
        with pytest.raises(ResolutionError):
            invert_ci(X, D, y, family, alpha=0.05)

    def test_degenerate_treatment_gives_whole_line(self):
        X, _, y = _design(n=6, seed=19)
        D = X @ np.array([[1.0], [1.0]])
        family = build_two_way_group(6, 6, 5, seed=19)
        ci = invert_ci(X, D, y, family, alpha=0.5)
        assert ci.lower == -np.inf and ci.upper == np.inf
        assert ci.open_ended == (True, True)

    def test_multicolumn_treatment_rejected(self):
        X, D, y = _design(n=5, d_dim=2, seed=20)
        family = build_two_way_group(5, 5, 4, seed=20)
        with pytest.raises(DimensionError):
            invert_ci(X, D, y, family, alpha=0.3)

    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_full_map_gives_the_groups_interval(self, seed):
        X, D, y = _design(n=8, beta=0.3, seed=seed)
        group = two_way_group(8, 8, 7, seed=seed)
        via_group = invert_ci(X, D, y, group, alpha=0.25)
        via_map = invert_ci(X, D, y, group.stacked(), alpha=0.25)
        assert via_map.to_dict() == via_group.to_dict()
        with pytest.raises(ResolutionError):
            invert_ci(X, D, y, group.stacked(), alpha=0.1)

    def test_non_group_map_rejected(self):
        X, D, y = _design(n=4, seed=24)
        gen = np.arange(16)
        gen[:4] = [1, 2, 3, 0]
        with pytest.raises(GroupError):
            invert_ci(X, D, y, _powers(gen, 3), alpha=0.5)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.1, np.nan, np.inf])
    def test_alpha_outside_unit_interval_raises(self, alpha):
        X, D, y = _design(n=6, seed=25)
        with pytest.raises(ResolutionError, match="alpha"):
            invert_ci(X, D, y, two_way_group(6, 6, 5, seed=25), alpha=alpha)

    @pytest.mark.parametrize("spec, error", [
        (dict(points=1), DimensionError),
        (dict(points=0), DimensionError),
        (dict(max_expansions=-1), DimensionError),
        (dict(half_width=0.0), DimensionError),
        (dict(half_width=-1.0), DimensionError),
        (dict(half_width=np.inf), DimensionError),
        (dict(half_width=np.nan), DimensionError),
        (dict(center=np.nan), NonFiniteInputError),
        (dict(center=-np.inf), NonFiniteInputError),
    ])
    def test_grid_spec_validated(self, spec, error):
        with pytest.raises(error, match="grid"):
            GridSpec(**spec)


_FAR_LAYOUT = dyadic_layout(gen_dyadic_dataset(20, beta=0.3, seed=24)[0], 19, 24)


class TestIntervalFallbacks:
    """Branches that only grids far from the accepted set, or designs built
    for them, reach; each interval is pinned as the package first gave it."""

    @pytest.mark.parametrize("alpha, spec, expected", [
        # no point of the 11 accepted: two zooms around the best point find
        # the accepted set, and the bounds are its accepted points
        (0.5, GridSpec(0.1, 0.1, points=11, max_expansions=0),
         dict(lower=0.2552000000000001, upper=0.26800000000000007,
              grid=dict(center=0.20400000000000007, half_width=0.064, points=11,
                        expansions_used=0, n_accepted=2, zoomed=True))),
        # four spacings of a 5-point grid exceed its half-width: the zoom widens
        (0.5, GridSpec(0.1, 0.05, points=5, max_expansions=0),
         dict(lower=0.3500000000000001, upper=0.3500000000000001,
              grid=dict(center=0.25000000000000006, half_width=0.20000000000000007, points=5,
                        expansions_used=0, n_accepted=1, zoomed=True))),
        # the accepted set lies ~300 away: four zooms accept nothing, and the
        # interval is the best point, empty at the grid's resolution
        (0.05, GridSpec(300.0, 0.05, max_expansions=0),
         dict(lower=299.94791667199996, upper=299.94791667199996,
              grid=dict(center=299.9479168, half_width=1.280000105907675e-07, points=201,
                        expansions_used=0, n_accepted=0, zoomed=True,
                        empty_at_resolution=True))),
    ])
    def test_zoom_and_empty_at_resolution(self, alpha, spec, expected):
        ci = invert_ci(*_FAR_LAYOUT, alpha=alpha, grid=spec)
        assert ci.to_dict() == dict(expected, alpha=alpha, open_ended=[False, False], notes=[])

    @staticmethod
    def _indicator_design():
        rng = np.random.default_rng(7)
        D = (rng.random(400) < 0.3).astype(float)[:, None]
        group = block_product_group([(0, ((20, AXIS_ROWS), (20, AXIS_COLS)))], 19, 5)
        return rng, D, group

    def test_zero_mad_falls_back_to_rms(self):
        # every untreated outcome is 0, so more than half the residuals are
        # one value and their MAD is 0: the unit is the RMS residual's
        rng, D, group = self._indicator_design()
        X = np.ones((400, 1))
        y = np.where(D[:, 0] > 0, 1.5 + rng.standard_normal(400), 0.0)
        design = np.hstack([X, D])
        resid = y - design @ np.linalg.lstsq(design, y, rcond=None)[0]
        assert np.median(np.abs(resid - np.median(resid))) == 0.0
        center, unit = _ols_center_and_unit(X, D, y)
        assert unit == pytest.approx(np.sqrt(np.mean(resid**2)) / np.linalg.norm(D - D.mean()),
                                     rel=1e-12)
        ci = invert_ci(X, D, y, group)
        assert ci.to_dict() == dict(
            lower=1.3665973561800802, upper=1.5095927492496604, alpha=0.05,
            open_ended=[False, False], notes=[],
            grid=dict(center=1.433761858985489, half_width=0.21665968646906078, points=201,
                      expansions_used=0, n_accepted=67, zoomed=False))
        assert center == ci.grid["center"] and 4 * unit == ci.grid["half_width"]

    def test_no_covariates_scale_by_the_treatment(self):
        rng, D, group = self._indicator_design()
        y = 0.4 * D[:, 0] + rng.standard_normal(400)
        X = np.empty((400, 0))
        center, unit = _ols_center_and_unit(X, D, y)
        resid = y - D @ np.linalg.lstsq(D, y, rcond=None)[0]
        mad = np.median(np.abs(resid - np.median(resid)))
        assert unit == pytest.approx(1.4826 * mad / np.linalg.norm(D), rel=1e-12)
        ci = invert_ci(X, D, y, group)
        assert ci.to_dict() == dict(
            lower=0.15916229642989554, upper=0.6247611299114774, alpha=0.05,
            open_ended=[False, False], notes=[],
            grid=dict(center=0.3337618589854887, half_width=0.3423520834423396, points=201,
                      expansions_used=0, n_accepted=137, zoomed=False))
        assert center == ci.grid["center"] and 4 * unit == ci.grid["half_width"]


@pytest.mark.parametrize("call, error, message", [
    (lambda: PreparedTest(np.ones((5, 1)), np.ones((6, 1)), np.tile(np.arange(6), (2, 1))),
     DimensionError, "X has 5 rows, D has 6"),
    (lambda: PreparedTest(np.ones((6, 1)), np.ones((6, 0)), np.tile(np.arange(6), (2, 1))),
     DimensionError, "treatment must have at least one column"),
    (lambda: median_pvalue([]), DegenerateInputError, "median of an empty p-value collection"),
], ids=["rows", "no-treatment", "empty-median"])
def test_malformed_inputs_raise_typed_errors(call, error, message):
    raises_exactly(call, error, message)


@pytest.mark.parametrize("tol", [None, 1e-9])
@pytest.mark.parametrize("name", ["covariates", "treatment"])
def test_arrays_past_two_dimensions_name_their_argument(name, tol):
    # a third axis is rejected before either build route, naming the argument
    X, D, _ = _design(n=6, seed=43)
    args = {"covariates": X, "treatment": D}
    args[name] = args[name][:, :, None]
    raises_exactly(lambda: PreparedTest(*args.values(), two_way_group(6, 6, 5, seed=43), tol=tol),
                   DimensionError, f"{name} must be 2-D, got shape {args[name].shape}")


class TestMedianPvalue:
    def test_odd_count(self):
        assert median_pvalue([0.3, 0.1, 0.2]) == 0.2

    def test_even_count_takes_lower(self):
        assert median_pvalue([0.4, 0.1, 0.3, 0.2]) == 0.2

    def test_single_value(self):
        assert median_pvalue([0.7]) == 0.7


class TestFrontEnds:
    def test_dyadic_test_default_family_size(self):
        array, _ = gen_dyadic_dataset(25, seed=21)
        report = dyadic_test(array, seed=21)
        assert report.num_perms == 24

    def test_dyadic_test_deterministic(self):
        array, _ = gen_dyadic_dataset(8, seed=22)
        first = dyadic_test(array, num_perms=7, seed=22)
        second = dyadic_test(array, num_perms=7, seed=22)
        assert first.pval == second.pval
        assert np.array_equal(first.a, second.a)

    def test_dyadic_test_beta0_route(self):
        array, _ = gen_dyadic_dataset(8, beta=0.4, seed=23)
        plain = dyadic_test(array, num_perms=7, seed=23)
        at_truth = dyadic_test(array, num_perms=7, seed=23, beta0=0.4)
        assert at_truth.pval >= plain.pval

    @pytest.mark.parametrize("beta0", [None, 0.2])
    def test_dyadic_test_notes_a_short_side(self, beta0):
        # K = 19 moves the 30 columns but not the 5 rows
        rng = np.random.default_rng(25)
        array = DyadArray(rng.standard_normal((5, 30)), rng.standard_normal((5, 30)),
                          np.ones((5, 30, 1)))
        report = dyadic_test(array, num_perms=19, seed=25, beta0=beta0)
        assert report.notes == ("1 of 1 blocks have a side shorter than K+1=20; "
                                "their indices stay fixed",)
        assert 0.0 < report.pval <= 1.0

    def test_dyadic_ci_front_end(self):
        array, _ = gen_dyadic_dataset(10, beta=0.3, seed=24)
        ci = dyadic_ci(array, alpha=0.2, num_perms=9, seed=24)
        assert ci.covers(0.3)
