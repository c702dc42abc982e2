"""Orthogonal-complement projectors for covariate elimination.

Given covariates X and their permuted copy X_perm, the test statistic needs
the projection onto the orthogonal complement of col([X | X_perm]).  The
projector is unique even when the stacked design is rank deficient; the
basis V is not, so all contracts are stated on V V' (equivalently on
I - Q Q' with Q an orthonormal range basis).

Two routes compute it.  :func:`residual_projector` factors the N x 2p
stacked design of one pair (SVD or pivoted QR) and is the reference.
:class:`PermutedAnnihilator` serves every member g^k of a cyclic group, in
chunks, from one orthonormal basis Q of col(X), computed once by SVD.  For
member k, Q_k = Q[g^k] spans col(X[g^k]), and col([Q | Q_k]) = col(Q) +
col(H_k) with H_k = Q_k - Q C_k and C_k = Q'Q_k.  Only the p x p Gram
G_k = H_k'H_k is factored, so a member costs one gather of p x N values and
a few products of length N, with no N x 2p copy, no row map and no SVD.

The eigenvalues of G_k are the squared sines of the principal angles between
col(X) and col(X_perm).  Formed from cosines, as I - C_k'C_k, they carry an
absolute error of about machine epsilon, so small angles are lost (Bjorck &
Golub, 1973), and the projection then errs by about eps / sin^2: up to 2e-9
relative at p = 5, N = 12 with a squared sine of 1.2e-6.  G_k is therefore
formed from the sines H_k themselves (Knyazev & Argentati, 2002), which
resolves a squared sine to about eps / sin relative.  Eigenvalues below
1e-10 are shared directions and are dropped.  As a fail-closed guard, a
member with an eigenvalue in the band [1e-13, 1e-6], where a shared and a
new direction are hardest to tell apart, is flagged, and the caller
rebuilds it through :func:`residual_projector`.

The SVDs and the complete QR that extends a range basis to the complement
basis V are ``numpy.linalg`` calls (LAPACK gesdd, and geqrf with orgqr), so
the default routes import numpy alone.  Only the pivoted QR of
``method="qr"`` needs ``scipy.linalg``, which that branch imports itself.
"""

from __future__ import annotations

import numpy as np

from .exceptions import DimensionError

_EPS = float(np.finfo(float).eps)

# Gram eigenvalues below the cutoff are directions X_perm shares with X;
# those above it are new directions to project out.
_GRAM_CUTOFF = 1e-10
# Members with an eigenvalue in this closed band take the SVD route.
_GRAM_BAND = (1e-13, 1e-6)


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
        full, _ = np.linalg.qr(q, mode="complete")
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
        u, svals, _ = np.linalg.svd(stacked, full_matrices=False)
        tol_abs = _tol_abs(svals, n, width, tol)
        r = int(np.count_nonzero(svals > tol_abs))
        basis = u[:, :r]
    elif method == "qr":
        import scipy.linalg  # numpy has no pivoted QR

        svals = np.linalg.svd(stacked, compute_uv=False)
        tol_abs = _tol_abs(svals, n, width, tol)
        r = int(np.count_nonzero(svals > tol_abs))
        q_econ, _, _ = scipy.linalg.qr(stacked, mode="economic", pivoting=True)
        basis = q_econ[:, :r]
    else:
        raise ValueError(f"unknown method {method!r}")
    return ResidualProjector(np.ascontiguousarray(basis), tol_abs, method)


class PermutedAnnihilator:
    """Projects D off col([X | X[g^k]]) for the members g^k of a cyclic group.

    The basis Q of col(X) and D - Q Q'D are computed once, at construction.
    A pass over the group (:meth:`stream`) takes the gathered bases
    Q_k' = Q'[:, g^k] from the group's orbit of Q', so no row map is made.  A
    chunk of m members is held member-major, N contiguous: the orbit's bases
    and rows [H_k' ; D'] (m x (p+d) x N), allocated once per pass.  The batched
    products C_k' = Q_k'Q, H_k' = Q_k' - C_k'Q', [G_k ; D'H_k] = [H_k' ; D'] H_k
    and pd_k = base - H_k v_k write into them and into the output, so a
    member costs one p x N gather, four gemms and a p x p ``eigh``, with no
    N-sized temporary.
    """

    def __init__(self, X: np.ndarray, D: np.ndarray):
        X = _as_matrix(X)
        self.D = _as_matrix(D)
        n, p = X.shape
        q = np.zeros((n, 0))
        if p:
            # The rank rule residual_projector applies to [X | X_perm].
            u, svals, _ = np.linalg.svd(X, full_matrices=False)
            rank = int(np.count_nonzero(svals > _tol_abs(svals, n, 2 * p, None)))
            # The transpose of a row-major array: each basis vector is
            # contiguous, as the member products want it.
            q = np.ascontiguousarray(u[:, :rank].T).T
        self.q = q
        self.base = self.D - q @ (q.T @ self.D)

    def stream(self, group, out: np.ndarray):
        """Write (I - P_k) D into ``out[k - 1]``, shape (K, n, d), for the
        members k = 1..K of the :class:`~clusterperm.permgroup.CyclicGroup`
        ``group``, one chunk at a time.

        Yields ``(members, flagged)`` once ``out[members]`` is written:
        ``flagged`` marks the members whose Gram has an eigenvalue in the
        band [1e-13, 1e-6].  Their rows of ``out`` are not to be trusted;
        rebuild them through :func:`residual_projector`.
        """
        qt, base = self.q.T, self.base
        r, d = qt.shape[0], self.D.shape[1]
        work = np.empty((group.chunks()[0].stop, r + d, qt.shape[1]))
        work[:, r:] = self.D.T
        for members, qk in group.orbit(qt):
            w = work[:len(qk)]
            h = w[:, :r]
            np.matmul(np.matmul(qk, qt.T), qt, out=h)
            np.subtract(qk, h, out=h)
            ht = h.transpose(0, 2, 1)
            # [G_k ; D'H_k]; with d >= 1 rows below H_k' the product is not
            # square, so numpy sends it to gemm, not to the slower syrk.
            gram = np.matmul(w, ht)
            evals, evecs = np.linalg.eigh(gram[:, :r])
            inv = np.divide(1.0, evals, out=np.zeros_like(evals), where=evals > _GRAM_CUTOFF)
            # (I - P_k) D = base - H_k G_k^+ H_k'D.
            hd = np.matmul(evecs.transpose(0, 2, 1), gram[:, r:].transpose(0, 2, 1))
            v = np.matmul(evecs, inv[:, :, None] * hd)
            chunk = out[members]
            np.matmul(ht, v, out=chunk)
            np.subtract(base, chunk, out=chunk)
            yield members, ((evals >= _GRAM_BAND[0]) & (evals <= _GRAM_BAND[1])).any(axis=1)


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
