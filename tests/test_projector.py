"""Tests for orthogonal-complement projectors onto null(X') ∩ null(X_perm')."""

import numpy as np
import pytest

from clusterperm.projector import residual_projector


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
