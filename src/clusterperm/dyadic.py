"""Randomization tests for dyadic regression coefficients.

The statistic for family member k is the norm of D' V_k V_k' y, where V_k
spans the orthogonal complement of [X | X_pi_k,sigma_k].  Because a single
covariate projector must serve every member, the observed statistic is
minorized by its family minimum; ties therefore count toward the p-value,
which keeps the test level-correct at the cost of conservatism:

    pval = (1 + #{k : min_j a_j <= b_k}) / (K + 1).

All functions here operate on stacked data.  The family of row maps is a
:class:`~clusterperm.permgroup.CyclicGroup`, held as its generator, whose
members are streamed in chunks; a full (K+1, N) map or a
:class:`~clusterperm.model.PermutationFamily` is also accepted, but only if
it is the cyclic group that member 1 generates, which the validity argument
needs.  Any other family raises :class:`~clusterperm.exceptions.GroupError`.

:class:`PreparedTest` builds the annihilated treatments V_k V_k' D of all
members from one orthonormal basis of col(X), through p x p cross products
(:class:`~clusterperm.projector.PermutedAnnihilator`).  A member takes the
per-pair SVD route (:func:`~clusterperm.projector.residual_projector`) only
when its Gram has an eigenvalue in the ambiguous band [1e-13, 1e-6], or
when the caller sets ``tol``, a relative cutoff on the singular values of
[X | X_pi] that only that route computes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DegenerateInputError,
    DimensionError,
    GroupError,
    InsufficientDimensionError,
    NonFiniteInputError,
    ResolutionError,
)
from .model import DyadArray, PermutationFamily, StackedDesign
from .permgroup import CyclicGroup, default_num_perms, member_fault, two_way_group
from .projector import PermutedAnnihilator, residual_projector

_DEGENERATE_REL = 1e-10
# Row-map checks run in chunks of about this many entries.
_CHUNK_VALUES = 1 << 17


@dataclass(frozen=True)
class TestReport:
    """Outcome of one randomization test.

    ``a`` and ``b`` hold the observed and permuted statistics for members
    1..K; ``alpha_floor`` = 1/(K+1) is the smallest attainable p-value.
    """

    pval: float
    a: np.ndarray
    b: np.ndarray
    num_perms: int
    min_a: float
    alpha_floor: float
    seed: int | None = None
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "pval": self.pval,
            "num_perms": self.num_perms,
            "min_a": self.min_a,
            "alpha_floor": self.alpha_floor,
            "seed": self.seed,
            "notes": list(self.notes),
            "a": [float(v) for v in self.a],
            "b": [float(v) for v in self.b],
        }


@dataclass(frozen=True)
class ConfidenceInterval:
    """Test-inversion interval: the hull of grid points with pval > alpha."""

    lower: float
    upper: float
    alpha: float
    grid: dict
    open_ended: tuple[bool, bool]

    def covers(self, value: float) -> bool:
        return self.lower <= value <= self.upper

    def to_dict(self) -> dict:
        """Plain-JSON form: an infinite bound is None; ``open_ended`` names it."""
        return {
            "lower": self.lower if np.isfinite(self.lower) else None,
            "upper": self.upper if np.isfinite(self.upper) else None,
            "alpha": self.alpha,
            "open_ended": list(self.open_ended),
            "grid": dict(self.grid),
        }


@dataclass(frozen=True)
class GridSpec:
    """Evaluation grid for interval inversion.

    ``center`` defaults to the least-squares estimate, ``half_width`` to 4
    robust residual-scale units; the grid doubles its half-width until both
    endpoints are rejected or ``max_expansions`` is exhausted.
    """

    center: float | None = None
    half_width: float | None = None
    points: int = 201
    max_expansions: int = 6


def _require_finite(values: np.ndarray, name: str) -> None:
    """Fail closed: NaN or inf data would make every statistic meaningless."""
    bad = int(values.size - np.count_nonzero(np.isfinite(values)))
    if bad:
        raise NonFiniteInputError(
            f"{name} has {bad} non-finite value(s); the test needs finite data"
        )


def _validate_perms(perms: np.ndarray, n: int) -> CyclicGroup:
    """Accept a full (K+1, N) map only as the cyclic group member 1 generates.

    Member 0 is the identity, member 1 is a bijection of the rows, member k
    is member 1 applied to member k-1, and member 1 applied to member K is
    the identity again (checked by :class:`CyclicGroup`).  Every member is
    then a bijection.  One chunked pass, O(K * N); the first member that
    breaks the law is diagnosed so the error names the fault.
    """
    perms = np.asarray(perms, dtype=np.intp)
    if perms.ndim != 2 or perms.shape[1] != n:
        raise DimensionError(
            f"permutations must be (K+1, {n}), got {perms.shape}"
        )
    if perms.shape[0] < 2:
        raise DimensionError("need the identity plus at least one permutation")
    if not np.array_equal(perms[0], np.arange(n)):
        raise DimensionError("member 0 must be the identity")
    gen = perms[1]
    fault = member_fault(gen, n)
    if fault:
        raise DimensionError(f"member 1 {fault}")
    step = max(1, _CHUNK_VALUES // n)
    for lo in range(2, perms.shape[0], step):
        block = perms[lo:lo + step]
        # Rows before the first broken one are valid, so its expected row
        # is exact; 'clip' only keeps later, unused rows from raising.
        expected = np.take(gen, perms[lo - 1:lo - 1 + block.shape[0]], mode="clip")
        broken = (block != expected).any(axis=1)
        if broken.any():
            k = lo + int(np.argmax(broken))
            fault = member_fault(perms[k], n)
            if fault:
                raise DimensionError(f"member {k} {fault}")
            raise GroupError(
                f"row maps are not a cyclic group: member {k} is not member 1 "
                f"applied to member {k - 1}"
            )
    return CyclicGroup(gen, perms.shape[0] - 1)


class PreparedTest:
    """Annihilated treatments and the group for a fixed (X, D, family).

    The build works from one orthonormal basis Q of col(X): for each member
    it projects D off the directions that the permuted covariates add to
    col(X), found from p x p cross products (see
    :class:`~clusterperm.projector.PermutedAnnihilator`).  A member whose
    Gram has an eigenvalue in the ambiguous band is rebuilt through the SVD
    route, :func:`~clusterperm.projector.residual_projector`, and so is every
    member when an explicit ``tol`` is given: ``tol`` is a relative threshold
    on the singular values of [X | X_pi], which only that route computes.
    ``svd_members`` counts the members built through the SVD route.

    ``row_perms`` is a :class:`~clusterperm.permgroup.CyclicGroup`, or a
    full (K+1, N) map or :class:`~clusterperm.model.PermutationFamily` that
    must be the cyclic group its member 1 generates.  The object retains

    - ``pd``, shape (K, N, d): the annihilated treatments V_k V_k' D, and
    - ``group``: the group, held as its generator (N values),

    and every pass over the members streams them from the generator in
    chunks, so no other K x N array is made.  Shifted tests and interval
    inversion reuse it and only the outcome changes across evaluations.
    ``projectors`` is kept as an empty tuple for callers that read it; no
    projector outlives the build.
    """

    projectors: tuple = ()

    def __init__(
        self,
        X: np.ndarray,
        D: np.ndarray,
        row_perms,
        tol: float | None = None,
    ):
        X = np.asarray(X, dtype=float)
        if X.ndim == 1:
            X = X[:, None]
        D = np.asarray(D, dtype=float)
        if D.ndim == 1:
            D = D[:, None]
        n = D.shape[0]
        if X.shape[0] != n:
            raise DimensionError(f"X has {X.shape[0]} rows, D has {n}")
        if D.shape[1] < 1:
            raise DimensionError("treatment must have at least one column")
        _require_finite(X, "covariates")
        _require_finite(D, "treatment")
        p = X.shape[1]
        if 2 * p >= n:
            raise InsufficientDimensionError(
                f"covariate dimension too large: need p < N/2, got p={p}, N={n}"
            )
        if isinstance(row_perms, PermutationFamily):
            row_perms = row_perms.stacked()
        if isinstance(row_perms, CyclicGroup):
            group = row_perms
            if group.n != n:
                raise DimensionError(f"the group acts on {group.n} rows, the data have {n}")
        else:
            group = _validate_perms(row_perms, n)
        self.X = X
        self.D = D
        self.group = group
        self.num_perms = group.num_perms
        pd = np.empty((self.num_perms, n, D.shape[1]))
        annihilate = PermutedAnnihilator(X, D) if tol is None else None
        self.svd_members = 0
        for members, maps in group.orbit():
            out = pd[members]
            redo = range(len(maps)) if tol is not None else np.flatnonzero(annihilate(maps, out))
            for i in redo:
                out[i] = residual_projector(X, X[maps[i]], tol=tol).annihilate(D)
            self.svd_members += len(redo)
        self.pd = pd
        d_scale = float(np.linalg.norm(D))
        pd_scale = float(np.sqrt(np.einsum("knd,knd->k", pd, pd).max()))
        self.degenerate = pd_scale <= _DEGENERATE_REL * max(d_scale, 1.0)
        # In a cyclic group every member is the identity iff member 1 is.
        self.all_identity = bool(np.array_equal(group.generator, np.arange(n)))

    @property
    def n(self) -> int:
        return self.D.shape[0]

    @property
    def alpha_floor(self) -> float:
        return 1.0 / (self.num_perms + 1)

    def statistics(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Observed and permuted statistics (a, b) for one outcome vector."""
        y = np.asarray(y, dtype=float)
        if y.shape != (self.n,):
            raise DimensionError(f"outcome must have shape ({self.n},)")
        _require_finite(y, "outcome")
        a_vec = np.einsum("knd,n->kd", self.pd, y)
        b_vec = np.empty_like(a_vec)
        for members, y_perm in self.group.orbit(y):
            b_vec[members] = np.einsum("knd,kn->kd", self.pd[members], y_perm)
        return np.linalg.norm(a_vec, axis=1), np.linalg.norm(b_vec, axis=1)

    def min_stat(self, values: np.ndarray) -> float:
        """min_k ||D' V_k V_k' values||, the minorized statistic."""
        values = np.asarray(values, dtype=float)
        _require_finite(values, "outcome")
        stat = np.linalg.norm(np.einsum("knd,n->kd", self.pd, values), axis=1)
        return float(stat.min())

    def report(self, y: np.ndarray, seed: int | None = None,
               notes: tuple[str, ...] = ()) -> TestReport:
        a, b = self.statistics(y)
        notes = tuple(notes)
        if self.all_identity:
            notes = notes + (
                "every group member acts as the identity (axes shorter than "
                "the group size stay fixed); the p-value is 1 by construction",
            )
        if self.degenerate:
            notes = notes + (
                "treatment is annihilated by every projector; statistic is "
                "degenerate and the p-value is reported as 1",
            )
        if self.degenerate or self.all_identity:
            pval = 1.0
        else:
            pval = pvalue_from_stats(a, b)
        return TestReport(
            pval=pval,
            a=a,
            b=b,
            num_perms=self.num_perms,
            min_a=float(a.min()),
            alpha_floor=self.alpha_floor,
            seed=seed,
            notes=notes,
        )


def pvalue_from_stats(a: np.ndarray, b: np.ndarray) -> float:
    """Randomization p-value with ties counted as extreme."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or a.size < 1:
        raise DimensionError("a and b must be equal-length non-empty vectors")
    if np.isnan(a).any() or np.isnan(b).any():
        raise NonFiniteInputError("statistics contain NaN; no p-value is defined")
    count = int(np.count_nonzero(a.min() <= b))
    return (1 + count) / (a.size + 1)


def two_way_test(
    X: np.ndarray,
    D: np.ndarray,
    y: np.ndarray,
    family: PermutationFamily | CyclicGroup,
    seed: int | None = None,
    tol: float | None = None,
) -> TestReport:
    """Randomization test of no treatment effect under a two-way family.

    Parameters
    ----------
    X : ndarray, shape (N, p)
        Stacked covariates (may have zero columns).
    D : ndarray, shape (N, d)
        Stacked treatment.
    y : ndarray, shape (N,)
        Stacked outcome.
    family : CyclicGroup or PermutationFamily
        Acts on the stacked rows; a PermutationFamily must be the cyclic
        group its member 1 generates.
    """
    prepared = PreparedTest(X, D, family, tol=tol)
    return prepared.report(np.asarray(y, dtype=float), seed=seed)


def permutation_test(
    X: np.ndarray,
    D: np.ndarray,
    y: np.ndarray,
    row_perms,
    seed: int | None = None,
    tol: float | None = None,
    notes: tuple[str, ...] = (),
) -> TestReport:
    """Like :func:`two_way_test` for any group of stacked row maps.

    ``row_perms`` is a :class:`~clusterperm.permgroup.CyclicGroup`, or a
    full (K+1, N) map that must be the cyclic group its member 1 generates.
    """
    prepared = PreparedTest(X, D, row_perms, tol=tol)
    return prepared.report(np.asarray(y, dtype=float), seed=seed, notes=notes)


def shifted_test(
    X: np.ndarray,
    D: np.ndarray,
    y: np.ndarray,
    family: PermutationFamily | CyclicGroup,
    beta0,
    seed: int | None = None,
    tol: float | None = None,
    prepared: PreparedTest | None = None,
) -> TestReport:
    """Test the point null beta = beta0 by shifting the outcome to y - D beta0.

    The annihilated treatments depend only on (X, D, family), so a prebuilt
    :class:`PreparedTest` can be reused across many values of ``beta0``.
    """
    if prepared is None:
        prepared = PreparedTest(X, D, family, tol=tol)
    D_mat = prepared.D
    beta_vec = np.atleast_1d(np.asarray(beta0, dtype=float))
    if beta_vec.shape != (D_mat.shape[1],):
        raise DimensionError(
            f"beta0 must have shape ({D_mat.shape[1]},), got {beta_vec.shape}"
        )
    y_shift = np.asarray(y, dtype=float) - D_mat @ beta_vec
    return prepared.report(y_shift, seed=seed)


def _ols_center_and_unit(X: np.ndarray, D: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares center and a robust scale unit for the inversion grid."""
    design = np.hstack([X, D])
    theta, *_ = np.linalg.lstsq(design, y, rcond=None)
    center = float(theta[X.shape[1]])
    resid = y - design @ theta
    mad = float(np.median(np.abs(resid - np.median(resid))))
    scale = 1.4826 * mad
    if not np.isfinite(scale) or scale <= 0:
        scale = float(np.sqrt(np.mean(resid**2)))
    if X.shape[1] > 0:
        coef, *_ = np.linalg.lstsq(X, D, rcond=None)
        partial = D - X @ coef
    else:
        partial = D
    denom = float(np.linalg.norm(partial))
    unit = scale / denom if denom > 0 else 0.0
    if not np.isfinite(unit) or unit <= 0:
        unit = max(1.0, abs(center))
    return center, unit


class _AffineStats:
    """Member statistics as affine functions of the tested value b0 (d = 1).

    a_k(b0) = |u_k - b0 v_k| and b_k(b0) = |w_k - b0 z_k|, so a whole grid
    of point nulls costs four dot products per member plus scalar work.
    """

    def __init__(self, prepared: PreparedTest, y: np.ndarray):
        _require_finite(y, "outcome")
        pd = prepared.pd[:, :, 0]
        d_col = prepared.D[:, 0]
        self.u = pd @ y
        self.v = pd @ d_col
        self.w = np.empty_like(self.u)
        self.z = np.empty_like(self.u)
        for out, values in ((self.w, y), (self.z, d_col)):
            for members, moved in prepared.group.orbit(values):
                out[members] = np.einsum("kn,kn->k", pd[members], moved)
        self.num_perms = pd.shape[0]

    def pvalues(self, points: np.ndarray) -> np.ndarray:
        a = np.abs(self.u[None, :] - points[:, None] * self.v[None, :])
        b = np.abs(self.w[None, :] - points[:, None] * self.z[None, :])
        counts = np.count_nonzero(a.min(axis=1)[:, None] <= b, axis=1)
        return (1 + counts) / (self.num_perms + 1)


def invert_ci(
    X: np.ndarray,
    D: np.ndarray,
    y: np.ndarray,
    family: PermutationFamily | CyclicGroup,
    alpha: float = 0.05,
    grid: GridSpec | None = None,
    seed: int | None = None,
    tol: float | None = None,
) -> ConfidenceInterval:
    """Confidence interval for a scalar treatment effect by test inversion.

    Evaluates the shifted test over a grid of point nulls and returns the
    hull of accepted points (pval > alpha), expanding the grid until both
    endpoints are rejected.  A side whose endpoint is still accepted after
    the final expansion is reported open-ended (infinite bound).  A
    degenerate treatment or a group of identities gives the whole line.
    """
    grid = grid or GridSpec()
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    D = np.asarray(D, dtype=float)
    if D.ndim == 1:
        D = D[:, None]
    y = np.asarray(y, dtype=float)
    if D.shape[1] != 1:
        raise DimensionError(
            f"interval inversion supports a single treatment column, got {D.shape[1]}"
        )
    floor = 1.0 / (family.num_perms + 1)
    if alpha < floor - 1e-12:
        raise ResolutionError(
            f"alpha={alpha} is below the attainable floor 1/(K+1)={floor:.6g}; "
            "increase the number of permutations"
        )
    prepared = PreparedTest(X, D, family, tol=tol)
    _require_finite(y, "outcome")
    if prepared.degenerate or prepared.all_identity:
        # Every point null is accepted: the statistics vanish, or no member
        # moves the data so each b_k equals its a_k.
        desc = {"center": None, "half_width": None, "points": grid.points,
                "expansions_used": 0, "n_accepted": 0,
                "degenerate": prepared.degenerate, "all_identity": prepared.all_identity}
        return ConfidenceInterval(-np.inf, np.inf, alpha, desc, (True, True))

    affine = _AffineStats(prepared, y)
    if grid.center is None or grid.half_width is None:
        center, unit = _ols_center_and_unit(X, D[:, 0:1], y)
    else:
        center, unit = grid.center, 0.0
    if grid.center is not None:
        center = grid.center
    half = grid.half_width if grid.half_width is not None else 4.0 * unit
    if not np.isfinite(half) or half <= 0:
        half = 1.0

    expansions = 0
    while True:
        points = np.linspace(center - half, center + half, grid.points)
        pvals = affine.pvalues(points)
        accepted = pvals > alpha
        endpoint_open = accepted[0] or accepted[-1]
        if not endpoint_open or expansions >= grid.max_expansions:
            break
        half *= 2.0
        expansions += 1

    open_left = bool(accepted[0])
    open_right = bool(accepted[-1])
    zoomed = False
    if not accepted.any():
        # The accepted region may be narrower than the grid spacing; zoom in
        # around the best point before declaring the set empty.
        for _ in range(4):
            zoomed = True
            center = float(points[int(np.argmax(pvals))])
            half = max(4.0 * (points[1] - points[0]), half / float(grid.points - 1))
            points = np.linspace(center - half, center + half, grid.points)
            pvals = affine.pvalues(points)
            accepted = pvals > alpha
            if accepted.any():
                open_left = open_right = False
                break

    desc = {
        "center": center,
        "half_width": float(half),
        "points": grid.points,
        "expansions_used": expansions,
        "n_accepted": int(accepted.sum()),
        "zoomed": zoomed,
    }
    if accepted.any():
        lower = -np.inf if open_left else float(points[accepted][0])
        upper = np.inf if open_right else float(points[accepted][-1])
    else:
        best = float(points[int(np.argmax(pvals))])
        lower = upper = best
        desc["empty_at_resolution"] = True
        open_left = open_right = False
    return ConfidenceInterval(lower, upper, alpha, desc, (open_left, open_right))


def median_pvalue(pvals) -> float:
    """Lower median of a collection of p-values (conservative for even counts)."""
    arr = sorted(float(p) for p in pvals)
    if not arr:
        raise DegenerateInputError("median of an empty p-value collection")
    return arr[(len(arr) - 1) // 2]


def _stacked_dyadic(array: DyadArray, num_perms: int | None, seed: int):
    """Stacked design and two-way group of a complete dyadic array."""
    design = StackedDesign.from_array(array)
    if num_perms is None:
        num_perms = default_num_perms(array.n_rows, array.n_cols)
    return design, two_way_group(array.n_rows, array.n_cols, num_perms, seed)


def dyadic_test(
    array: DyadArray,
    num_perms: int | None = None,
    seed: int = 0,
    beta0=None,
    tol: float | None = None,
) -> TestReport:
    """Convenience front end: stack a complete dyadic array and test.

    ``beta0`` (scalar or length-d vector) switches to the shifted point
    null; default is the zero-effect null.
    """
    design, group = _stacked_dyadic(array, num_perms, seed)
    if beta0 is None:
        return two_way_test(design.x, design.d, design.y, group, seed=seed, tol=tol)
    return shifted_test(design.x, design.d, design.y, group, beta0, seed=seed, tol=tol)


def dyadic_ci(
    array: DyadArray,
    alpha: float = 0.05,
    num_perms: int | None = None,
    seed: int = 0,
    grid: GridSpec | None = None,
    tol: float | None = None,
) -> ConfidenceInterval:
    """Convenience front end for interval inversion on a dyadic array."""
    design, group = _stacked_dyadic(array, num_perms, seed)
    return invert_ci(design.x, design.d, design.y, group, alpha=alpha,
                     grid=grid, seed=seed, tol=tol)
