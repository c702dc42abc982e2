"""Orthogonal-complement projectors for covariate elimination.

Given covariates X and their permuted copy X_perm, the test statistic needs
the projection onto the orthogonal complement of col([X | X_perm]).  The
projector is unique even when the stacked design is rank deficient; the
basis V is not, so all contracts are stated on V V' (equivalently on
I - Q Q' with Q an orthonormal range basis).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .exceptions import DimensionError

_EPS = float(np.finfo(float).eps)


class ResidualProjector:
    """Projector onto the orthogonal complement of col([X | X_perm]).

    Attributes
    ----------
    n : int
        Ambient dimension.
    r : int
        Numerical rank of the stacked design.
    tol : float
        Absolute singular-value threshold used for the rank decision.
    V : ndarray, shape (n, n - r)
        Orthonormal basis of the complement, materialized on first access.
    """

    def __init__(self, range_basis: np.ndarray, tol: float, method: str):
        self._q = range_basis
        self.tol = tol
        self.method = method
        self._v: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self._q.shape[0]

    @property
    def r(self) -> int:
        return self._q.shape[1]

    @property
    def range_basis(self) -> np.ndarray:
        """Orthonormal basis Q of col([X | X_perm]), shape (n, r)."""
        return self._q

    @property
    def V(self) -> np.ndarray:
        if self._v is None:
            self._v = self._complement(self._q)
        return self._v

    @staticmethod
    def _complement(q: np.ndarray) -> np.ndarray:
        n, r = q.shape
        if r == 0:
            return np.eye(n)
        full, _ = scipy.linalg.qr(q, mode="full")
        # Householder QR of an orthonormal Q spans col(Q) with its first r
        # columns, so the rest span the complement.
        return full[:, r:]

    def annihilate(self, values: np.ndarray) -> np.ndarray:
        """Apply V V' = I - Q Q' without materializing V."""
        values = np.asarray(values, dtype=float)
        if values.shape[0] != self.n:
            raise DimensionError(
                f"expected leading dimension {self.n}, got {values.shape[0]}"
            )
        if self.r == 0:
            return values.copy()
        return values - self._q @ (self._q.T @ values)


def residual_projector(
    X: np.ndarray,
    X_perm: np.ndarray,
    tol: float | None = None,
    method: str = "svd",
) -> ResidualProjector:
    """Build the complement projector for a covariate pair.

    Parameters
    ----------
    X, X_perm : ndarray, shape (n, p)
        Covariates and their row-permuted copy; p may be 0.
    tol : float, optional
        Relative singular-value threshold (times the largest singular
        value).  Defaults to max(n, 2p) * machine epsilon.
    method : {"svd", "qr"}
        Two independent factorization routes; both satisfy the same
        projector contract and agree on V V' up to numerical noise.

    Returns
    -------
    ResidualProjector
    """
    X = _as_matrix(X)
    X_perm = _as_matrix(X_perm)
    if X.shape != X_perm.shape:
        raise DimensionError(
            f"X and permuted X must share a shape, got {X.shape} vs {X_perm.shape}"
        )
    n = X.shape[0]
    stacked = np.hstack([X, X_perm])
    width = stacked.shape[1]
    if width == 0:
        return ResidualProjector(np.zeros((n, 0)), 0.0, method)

    if method == "svd":
        u, svals, _ = scipy.linalg.svd(stacked, full_matrices=False)
        tol_abs = _tol_abs(svals, n, width, tol)
        r = int(np.count_nonzero(svals > tol_abs))
        basis = u[:, :r]
    elif method == "qr":
        svals = scipy.linalg.svdvals(stacked)
        tol_abs = _tol_abs(svals, n, width, tol)
        r = int(np.count_nonzero(svals > tol_abs))
        q_econ, _, _ = scipy.linalg.qr(stacked, mode="economic", pivoting=True)
        basis = q_econ[:, :r]
    else:
        raise ValueError(f"unknown method {method!r}")
    return ResidualProjector(np.ascontiguousarray(basis), tol_abs, method)


def _as_matrix(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2:
        raise DimensionError(f"covariates must be 2-D, got shape {a.shape}")
    return a


def _tol_abs(svals: np.ndarray, n: int, width: int, tol: float | None) -> float:
    top = float(svals[0]) if svals.size else 0.0
    rel = max(n, width) * _EPS if tol is None else float(tol)
    return rel * top
