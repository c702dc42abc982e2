"""Tests for orthogonal-complement projectors onto null(X') ∩ null(X_perm')."""

from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterperm import dyadic, permgroup
from clusterperm.dyadic import PreparedTest
from clusterperm.exceptions import DimensionError
from clusterperm.permgroup import build_two_way_group
from clusterperm.projector import PermutedAnnihilator, residual_projector
from conftest import raises_exactly


def _random_design(n, p, seed, rank_deficient=False):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p))
    if rank_deficient and p >= 2:
        X[:, -1] = X[:, 0] * 2.0 - X[:, 1]
    perm = rng.permutation(n)
    return X, X[perm]


class TestResidualProjector:
    def test_orthogonal_to_both_blocks(self):
        X, X_perm = _random_design(40, 3, seed=0)
        proj = residual_projector(X, X_perm)
        V = proj.V
        assert np.max(np.abs(V.T @ X)) < 1e-10
        assert np.max(np.abs(V.T @ X_perm)) < 1e-10

    def test_complement_is_orthonormal(self):
        X, X_perm = _random_design(30, 4, seed=1)
        proj = residual_projector(X, X_perm)
        V = proj.V
        assert V.shape == (30, 30 - proj.r)
        assert np.allclose(V.T @ V, np.eye(V.shape[1]), atol=1e-12)

    def test_annihilate_is_idempotent(self):
        X, X_perm = _random_design(25, 3, seed=2)
        proj = residual_projector(X, X_perm)
        v = np.random.default_rng(3).standard_normal(25)
        once = proj.annihilate(v)
        twice = proj.annihilate(once)
        assert np.allclose(once, twice, atol=1e-12)
        assert np.max(np.abs(X.T @ once)) < 1e-10

    def test_annihilate_equals_vvt(self):
        X, X_perm = _random_design(20, 2, seed=4)
        proj = residual_projector(X, X_perm)
        V = proj.V
        rng = np.random.default_rng(5)
        for _ in range(5):
            v = rng.standard_normal(20)
            assert np.allclose(proj.annihilate(v), V @ (V.T @ v), atol=1e-10)

    def test_project_length(self):
        X, X_perm = _random_design(20, 3, seed=6)
        proj = residual_projector(X, X_perm)
        v = np.random.default_rng(7).standard_normal(20)
        coords = proj.V.T @ v
        assert coords.shape == (20 - proj.r,)
        assert np.linalg.norm(coords) == pytest.approx(
            np.linalg.norm(proj.annihilate(v)), abs=1e-10
        )

    def test_rank_not_inflated_by_permutation_overlap(self):
        # identity permutation: [X | X] has the same span as X
        X = np.random.default_rng(8).standard_normal((15, 3))
        proj = residual_projector(X, X)
        assert proj.r == 3

    def test_rank_deficient_design(self):
        X, X_perm = _random_design(30, 4, seed=9, rank_deficient=True)
        proj = residual_projector(X, X_perm)
        # each block has rank 3, the union at most 6
        assert proj.r <= 6
        V = proj.V
        assert np.max(np.abs(V.T @ X)) < 1e-9
        assert np.max(np.abs(V.T @ X_perm)) < 1e-9

    def test_zero_width_design(self):
        X = np.zeros((10, 0))
        proj = residual_projector(X, X)
        assert proj.r == 0
        v = np.arange(10.0)
        assert np.array_equal(proj.annihilate(v), v)
        assert np.allclose(proj.V @ (proj.V.T @ v), v)

    def test_matrix_argument(self):
        X, X_perm = _random_design(18, 2, seed=10)
        proj = residual_projector(X, X_perm)
        M = np.random.default_rng(11).standard_normal((18, 3))
        out = proj.annihilate(M)
        assert out.shape == (18, 3)
        assert np.max(np.abs(X.T @ out)) < 1e-10


class TestMethodAgreement:
    @pytest.mark.parametrize("seed", range(6))
    def test_svd_and_qr_agree_on_projection(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(12, 60))
        p = int(rng.integers(1, 5))
        X, X_perm = _random_design(n, p, seed=seed + 100, rank_deficient=seed % 2 == 0)
        svd = residual_projector(X, X_perm, method="svd")
        qr = residual_projector(X, X_perm, method="qr")
        assert svd.r == qr.r
        v = rng.standard_normal(n)
        assert np.allclose(svd.annihilate(v), qr.annihilate(v), atol=1e-8)

    def test_unknown_method(self):
        X, X_perm = _random_design(10, 2, seed=0)
        with pytest.raises(ValueError):
            residual_projector(X, X_perm, method="cholesky")

    def test_tol_override_collapses_rank(self):
        X, X_perm = _random_design(20, 3, seed=12)
        loose = residual_projector(X, X_perm, tol=10.0)
        assert loose.r == 0


# (n, p, rank_deficient): random, rank-deficient and p = 0 designs.
_ROUTE_DESIGNS = [(30, 3, False), (25, 4, True), (10, 0, False)]


class TestNumpyRoutes:
    """The numpy.linalg factorizations against scipy.linalg's."""

    @pytest.mark.parametrize("n, p, deficient", _ROUTE_DESIGNS)
    def test_svd_basis_matches_scipy(self, n, p, deficient):
        X, X_perm = _random_design(n, p, seed=n + p, rank_deficient=deficient)
        for design, q in [(np.hstack([X, X_perm]), residual_projector(X, X_perm).range_basis),
                          (X, PermutedAnnihilator(X, np.ones((n, 1))).q)]:
            ref = np.zeros((n, 0))
            if design.shape[1]:
                u, svals, _ = scipy.linalg.svd(design, full_matrices=False)
                cutoff = max(n, 2 * p) * np.finfo(float).eps * svals[0]
                ref = u[:, : np.count_nonzero(svals > cutoff)]
            assert q.shape == ref.shape
            assert np.max(np.abs(q @ q.T - ref @ ref.T), initial=0.0) <= 1e-13

    @pytest.mark.parametrize("n, p, deficient", _ROUTE_DESIGNS)
    def test_complete_qr_complement(self, n, p, deficient):
        X, X_perm = _random_design(n, p, seed=n + p, rank_deficient=deficient)
        proj = residual_projector(X, X_perm)
        V, Q = proj.V, proj.range_basis
        assert V.shape == (n, n - proj.r)
        assert np.max(np.abs(V.T @ V - np.eye(V.shape[1]))) <= 1e-12
        assert np.max(np.abs(Q.T @ V), initial=0.0) <= 1e-12

    @pytest.mark.parametrize("n, p, deficient", _ROUTE_DESIGNS)
    def test_qr_route_matches_svd_route(self, n, p, deficient):
        X, X_perm = _random_design(n, p, seed=n + p, rank_deficient=deficient)
        svd = residual_projector(X, X_perm, method="svd").range_basis
        qr = residual_projector(X, X_perm, method="qr").range_basis
        assert qr.shape == svd.shape
        assert np.max(np.abs(qr @ qr.T - svd @ svd.T), initial=0.0) <= 1e-12


def _cyclic_generator_perms(n, order, cycles, seed):
    """Powers of a generator made of ``cycles`` cycles of length ``order``
    on random rows; the other rows stay fixed.  Row k is the generator
    applied k times, so the K+1 = order rows form a cyclic group."""
    rng = np.random.default_rng(seed)
    gen = np.arange(n)
    moved = rng.permutation(n)[: cycles * order].reshape(cycles, order)
    gen[moved] = np.roll(moved, -1, axis=1)
    perms = np.empty((order, n), dtype=np.intp)
    perms[0] = np.arange(n)
    for k in range(1, order):
        perms[k] = gen[perms[k - 1]]
    return perms


@st.composite
def _designs(draw):
    """A cyclic group of row maps and a design that stresses the
    cross-product route: shared directions (an intercept, duplicate columns,
    columns every member leaves unchanged), columns nearly left unchanged,
    badly scaled columns, p up to (N-1)/2 and d up to 2."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        n_rows, n_cols = draw(st.integers(3, 8)), draw(st.integers(3, 8))
        perms = build_two_way_group(n_rows, n_cols, draw(st.integers(1, 7)),
                                    seed=seed).stacked()
    else:
        n = draw(st.integers(8, 40))
        order = draw(st.integers(2, 6))
        cycles = draw(st.integers(1, n // order))
        perms = _cyclic_generator_perms(n, order, cycles, seed)
    n = perms.shape[1]
    # Constant on every orbit of the group, so no member moves it.
    invariant = rng.standard_normal(n)[perms.min(axis=0)]
    cols = []
    if draw(st.booleans()):
        cols.append(np.ones(n))
    if draw(st.booleans()):
        cols.append(invariant)
    if draw(st.booleans()):
        # Nearly invariant: squared sines from about 1e-6 to 1e-1, so some
        # members land in the band and some just above it.
        cols.append(invariant + 10.0 ** draw(st.floats(-2.5, -0.5)) * rng.standard_normal(n))
    cols += [rng.standard_normal(n) for _ in range(draw(st.integers(0, 3)))]
    if cols and draw(st.booleans()):
        cols.append(cols[draw(st.integers(0, len(cols) - 1))].copy())
    if cols and draw(st.booleans()):
        # Column scales up to 1e3 apart keep the basis error (about eps
        # times the condition number) far below the 1e-9 comparison.
        j = draw(st.integers(0, len(cols) - 1))
        cols[j] = cols[j] * 10.0 ** draw(st.floats(-3.0, 3.0))
    if draw(st.booleans()):
        cols += [rng.standard_normal(n) for _ in range((n - 1) // 2 - len(cols))]
    cols = cols[: (n - 1) // 2]
    X = np.column_stack(cols) if cols else np.zeros((n, 0))
    D = rng.standard_normal((n, draw(st.integers(1, 2))))
    y = rng.standard_normal(n)
    return X, D, y, perms


def _svd_route(X, D, perms):
    return np.stack([residual_projector(X, X[perms[k]]).annihilate(D)
                     for k in range(1, perms.shape[0])])


def _stats(pd, y, perms):
    a = np.linalg.norm(np.einsum("knd,n->kd", pd, y), axis=1)
    b = np.linalg.norm(np.einsum("knd,kn->kd", pd, y[perms[1:]]), axis=1)
    return a, b


def _assert_routes_agree(prepared, X, D, y, perms):
    ref = _svd_route(X, D, perms)
    scale = np.linalg.norm(D)
    for k in range(ref.shape[0]):
        assert np.linalg.norm(prepared.pd[k] - ref[k]) <= 1e-9 * scale, k
    a, b = prepared.statistics(y)
    a_ref, b_ref = _stats(ref, y, perms)
    # |D| |y| bounds the error of a statistic, so it sets the floor for an
    # a or b that is near zero by cancellation.
    floor = 1e-9 * scale * np.linalg.norm(y)
    np.testing.assert_allclose(a, a_ref, rtol=1e-9, atol=floor)
    np.testing.assert_allclose(b, b_ref, rtol=1e-9, atol=floor)


class TestCrossProductRoute:
    """The build's cross-product route against the SVD reference."""

    @settings(max_examples=150, deadline=None)
    @given(case=_designs())
    def test_matches_svd_route(self, case):
        X, D, y, perms = case
        prepared = PreparedTest(X, D, perms)
        _assert_routes_agree(prepared, X, D, y, perms)

    def test_ambiguous_members_take_the_svd_route(self, monkeypatch):
        # x and x[perm] meet at an angle of ~4e-5 rad, a squared sine of
        # ~2e-9: inside the ambiguous band, so every moving member is
        # rebuilt through the SVD route.
        rng = np.random.default_rng(40)
        perms = build_two_way_group(6, 6, 5, seed=40).stacked()
        n = perms.shape[1]
        x = 1.0 + 3e-5 * rng.standard_normal(n)
        X = np.column_stack([x, rng.standard_normal(n)])
        D = rng.standard_normal((n, 1))
        y = rng.standard_normal(n)
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return residual_projector(*args, **kwargs)

        monkeypatch.setattr(dyadic, "residual_projector", counting)
        prepared = PreparedTest(X, D, perms)
        monkeypatch.undo()
        assert prepared.svd_members == len(calls) == prepared.num_perms
        _assert_routes_agree(prepared, X, D, y, perms)

    def test_clear_members_skip_the_svd_route(self, monkeypatch):
        X, D, y, perms = _grid_case(seed=41)
        monkeypatch.setattr(dyadic, "residual_projector", None)
        prepared = PreparedTest(X, D, perms)
        monkeypatch.undo()
        assert prepared.svd_members == 0
        _assert_routes_agree(prepared, X, D, y, perms)

    def test_small_angles_match_exact_projection(self):
        # x and its half-turn meet at squared sines near 1e-6, some just
        # above the band.  A Gram formed from cosines, I - C'C, errs by up to
        # ~1e-9 of |D| on these designs; formed from the sines it stays
        # within 4e-11, against a projection computed in exact rationals.
        perms = np.stack([np.arange(8), np.roll(np.arange(8), 4)])
        worst = 0.0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            x = 1.0 + 1e-3 * rng.standard_normal(8)
            X = np.column_stack([x, rng.standard_normal((8, 2))])
            D = rng.standard_normal((8, 1))
            exact = _exact_residual(np.hstack([X, X[perms[1]]]), D[:, 0])
            pd = PreparedTest(X, D, perms).pd[0, :, 0]
            worst = max(worst, np.linalg.norm(pd - exact) / np.linalg.norm(D))
        assert worst <= 2e-10

    @pytest.mark.parametrize("per_chunk", [1, 2, 3, 4, 5])
    def test_chunked_build_matches_one_chunk(self, monkeypatch, per_chunk):
        # K = 5 members in chunks of 1 to 5: the workspace is reused, the
        # gathered basis carries across chunk boundaries and the last chunk
        # may be short.  Member 3 leaves x nearly in place (a squared sine of
        # ~1e-9, inside the band), so it alone takes the SVD route, with
        # its row map built on demand.  The contractions of a stack of three
        # outcomes walk the group in the same chunks.
        X, D, y, perms = _band_case(seed=43)
        stack = np.column_stack([y, np.random.default_rng(44).standard_normal((y.size, 2))])
        one_chunk = PreparedTest(X, D, perms)
        maps = []

        def recording(X_, X_perm, **kwargs):
            maps.append(X_perm)
            return residual_projector(X_, X_perm, **kwargs)

        monkeypatch.setattr(permgroup, "_CHUNK_VALUES", per_chunk * perms.shape[1])
        monkeypatch.setattr(dyadic, "residual_projector", recording)
        chunked = PreparedTest(X, D, perms)
        sizes = [c.stop - c.start for c in chunked.group.chunks()]
        stacked_stats = chunked.statistics(stack)
        monkeypatch.undo()
        assert sizes == {1: [1] * 5, 2: [2, 2, 1], 3: [3, 2], 4: [4, 1], 5: [5]}[per_chunk]
        for got, want in zip(stacked_stats, one_chunk.statistics(stack)):
            assert got.shape == (3, 5) and np.array_equal(got, want)
        assert one_chunk.svd_members == chunked.svd_members == 1
        assert len(maps) == 1 and np.array_equal(maps[0], X[perms[3]])
        assert np.array_equal(chunked.pd, one_chunk.pd)
        for got, want in zip(chunked.statistics(y), one_chunk.statistics(y)):
            assert np.array_equal(got, want)
        _assert_routes_agree(chunked, X, D, y, perms)

    def test_explicit_tol_keeps_svd_meaning(self):
        X, D, _, perms = _grid_case(seed=42)
        default = PreparedTest(X, D, perms)
        explicit = PreparedTest(X, D, perms, tol=1e-12)
        assert explicit.svd_members == explicit.num_perms
        assert np.allclose(explicit.pd, default.pd, atol=1e-10)
        # A loose threshold collapses the rank of [X | X_pi] to zero, which
        # only the SVD route can express.
        loose = PreparedTest(X, D, perms, tol=10.0)
        assert np.array_equal(loose.pd, np.broadcast_to(D, loose.pd.shape))


def _exact_residual(W, d):
    """d minus its least-squares fit on the columns of W (full column rank),
    by Gauss-Jordan elimination of the normal equations in rationals."""
    A = [[Fraction(float(v)) for v in row] for row in W]
    b = [Fraction(float(v)) for v in d]
    cols = range(W.shape[1])
    M = [[sum(row[r] * row[c] for row in A) for c in cols]
         + [sum(row[r] * bi for row, bi in zip(A, b))] for r in cols]
    for c in cols:
        pivot = next(r for r in range(c, len(M)) if M[r][c] != 0)
        M[c], M[pivot] = M[pivot], M[c]
        for r in cols:
            if r != c and M[r][c] != 0:
                f = M[r][c] / M[c][c]
                M[r] = [a - f * e for a, e in zip(M[r], M[c])]
    coef = [M[c][-1] / M[c][c] for c in cols]
    return np.array([float(bi - sum(a * k for a, k in zip(row, coef)))
                     for row, bi in zip(A, b)])


def _band_case(seed):
    """A design whose member 3 alone lands in the band: the generator has
    cycles of length 6, and x repeats with period 3 along each cycle up to
    a noise of 3e-5, so g^3 nearly fixes x while g, g^2, g^4 and g^5 move
    it.  D has two columns."""
    perms = _cyclic_generator_perms(60, 6, 10, seed)
    rng = np.random.default_rng(seed)
    n = perms.shape[1]
    x = np.zeros(n)
    for start in np.flatnonzero(perms.min(axis=0) == np.arange(n)):
        cycle = perms[:, start]
        x[cycle] = np.tile(rng.standard_normal(3), 2)
    x += 3e-5 * rng.standard_normal(n)
    X = np.column_stack([np.ones(n), x, rng.standard_normal(n)])
    return X, rng.standard_normal((n, 2)), rng.standard_normal(n), perms


def _grid_case(seed):
    rng = np.random.default_rng(seed)
    perms = build_two_way_group(7, 9, 6, seed=seed).stacked()
    n = perms.shape[1]
    X = np.column_stack([np.ones(n), rng.standard_normal((n, 2))])
    return X, rng.standard_normal((n, 1)), rng.standard_normal(n), perms


@pytest.mark.parametrize("call, error, message", [
    (lambda: residual_projector(np.ones((6, 1)), np.ones((6, 1))).annihilate(np.ones(5)),
     DimensionError, "expected leading dimension 6, got 5"),
    (lambda: residual_projector(np.ones((6, 1)), np.ones((5, 1))),
     DimensionError, "X and permuted X must share a shape, got (6, 1) vs (5, 1)"),
    (lambda: residual_projector(np.ones((2, 2, 2)), np.ones((2, 2, 2))),
     DimensionError, "covariates must be 2-D, got shape (2, 2, 2)"),
], ids=["annihilate-rows", "permuted-shape", "covariates-3d"])
def test_malformed_inputs_raise_typed_errors(call, error, message):
    raises_exactly(call, error, message)
