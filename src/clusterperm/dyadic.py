"""Randomization tests for dyadic regression coefficients.

The statistic for family member k is the norm of D' V_k V_k' y, where V_k
spans the orthogonal complement of [X | X_pi_k,sigma_k].  Because a single
covariate projector must serve every member, the observed statistic is
minorized by its family minimum; ties therefore count toward the p-value,
which keeps the test level-correct at the cost of conservatism:

    pval = (1 + #{k : min_j a_j <= b_k}) / (K + 1).

Every family of row maps passes through :func:`~clusterperm.permgroup.as_group`,
which returns the checked :class:`~clusterperm.permgroup.CyclicGroup` the
validity argument needs; its members are streamed in chunks.
:func:`permutation_test` is the zero-effect test (``two_way_test`` is another
name for it).  Every front end only describes its blocks of records:
:func:`stack_blocks` stacks them and builds their group (which notes the blocks
with a side too short to move), and :func:`dyadic_layout` is a grid's one block.

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
    InsufficientDimensionError,
    NoEligibleCellsError,
    NonFiniteInputError,
    ResolutionError,
)
from .model import DyadArray, PermutationFamily, StackedDesign
from .permgroup import CyclicGroup, as_group, block_product_group, default_num_perms
from .projector import PermutedAnnihilator, residual_projector
from .rng import AXIS_COLS, AXIS_ROWS

_DEGENERATE_REL = 1e-10


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
    notes: tuple[str, ...] = ()

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
            "notes": list(self.notes),
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

    def __post_init__(self):
        if self.points < 2 or self.max_expansions < 0:
            raise DimensionError("the grid needs points >= 2 and max_expansions >= 0")
        if self.center is not None and not np.isfinite(self.center):
            raise NonFiniteInputError(f"grid center must be finite, got {self.center}")
        if self.half_width is not None and not 0.0 < self.half_width < np.inf:
            raise DimensionError(f"grid half-width must be > 0 and finite, got {self.half_width}")


def _require_finite(values: np.ndarray, name: str) -> None:
    """Fail closed: NaN or inf data would make every statistic meaningless."""
    bad = int(values.size - np.count_nonzero(np.isfinite(values)))
    if bad:
        raise NonFiniteInputError(
            f"{name} has {bad} non-finite value(s); the test needs finite data"
        )


# The smallest normal float64.
_TINY = 2.0 ** -1022


def _unscale(name: str, exps: np.ndarray, scaled: np.ndarray) -> np.ndarray:
    """Statistics ``scaled[j]`` of outcome j scaled by 2^-exps[j], scaled back.

    Fails closed, naming the first outcome ``name.format(j)`` with one that is
    not a normal float in the data's units: it overflows, or it is nonzero on
    the scaled data but below the normal range, scaled or not, so its digits
    are lost.  An exact 0 is kept.  Callers silence numpy's overflow warnings.
    """
    exps = exps[:, None, None]
    values = np.ldexp(scaled, exps)
    # s and s 2^exp are both normal iff |s| >= TINY max(1, 2^-exp); only the
    # zeros may fall short
    lost = (np.abs(scaled) < np.ldexp(_TINY, np.maximum(0, -exps))) != (scaled == 0)
    for size, flow, bad in (("large", "overflow", ~np.isfinite(values)),
                            ("small", "underflow", lost)):
        if bad.any():
            j = np.nonzero(bad)[0][0]
            raise NonFiniteInputError(f"{name.format(j)} is too {size}: its contractions with "
                                      f"the annihilated treatments {flow} float64; rescale")
    return values


def _row_norms(v: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of ``v``, taken on the row scaled by a power
    of two so that its squares neither overflow nor underflow; the scaling is
    exact, so in range this equals ``np.linalg.norm(v, axis=1)`` bit for bit."""
    _, exp = np.frexp(np.abs(v).max(axis=1))
    return np.ldexp(np.linalg.norm(np.ldexp(v, -exp[:, None]), axis=1), exp)


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
    ``svd_members`` counts the members built through the SVD route; only
    they have their row map g^k built, as the other route streams the
    permuted basis itself.

    ``row_perms`` is any family :func:`~clusterperm.permgroup.as_group`
    accepts.  The object retains

    - ``pd``, shape (K, N, d): the annihilated treatments V_k V_k' D, and
    - ``group``: the group, held as its generator (N values),

    and every pass over the members streams them from the generator in
    chunks, so no other K x N array is made.  Only the outcome changes across
    evaluations, and a stack of outcomes is contracted in one pass.
    ``projectors`` is kept as an empty tuple for callers that read it; no
    projector outlives the build.

    ``degenerate`` holds iff max_k ||pd_k|| <= 1e-10 ||D||, whatever the
    scale of D: both sides are taken on D and each chunk of pd, as it is
    written, scaled by the same power of two, so finite D never overflows or
    underflows the check.
    """

    projectors: tuple = ()

    @np.errstate(over="ignore", invalid="ignore")
    def __init__(
        self,
        X: np.ndarray,
        D: np.ndarray,
        row_perms,
        tol: float | None = None,
    ):
        checked = []
        for a, name in ((X, "covariates"), (D, "treatment")):
            a = np.asarray(a, dtype=float)
            a = a[:, None] if a.ndim == 1 else a
            if a.ndim != 2:
                raise DimensionError(f"{name} must be 2-D, got shape {a.shape}")
            checked.append(a)
        X, D = checked
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
        group = as_group(row_perms, n)
        self.X = X
        self.D = D
        self.group = group
        self.num_perms = group.num_perms
        pd = np.empty((self.num_perms, n, D.shape[1]))
        chunks = (PermutedAnnihilator(X, D).stream(group, pd) if tol is None
                  else ((slice(k, k + 1), [True]) for k in range(self.num_perms)))
        self.svd_members = 0
        # max|D| = 2^shift up to a factor of 2, and the norms are compared in
        # units of 2^shift: the scaling is exact, and no square of a scaled
        # entry overflows or underflows.
        shift = int(np.frexp(np.abs(D).max())[1])
        pd_scale = 0.0
        for members, flagged in chunks:
            out = pd[members]
            for i in np.flatnonzero(flagged):
                perm = group.member(members.start + i + 1)
                out[i] = residual_projector(X, X[perm], tol=tol).annihilate(D)
            self.svd_members += int(np.count_nonzero(flagged))
            flat = np.ldexp(out.reshape(len(flagged), -1), -shift)
            pd_scale = np.maximum(pd_scale, np.matmul(flat[:, None], flat[:, :, None]).max())
        self.pd = pd
        d_norm = np.linalg.norm(np.ldexp(D, -shift))
        self.degenerate = bool(np.sqrt(pd_scale) <= _DEGENERATE_REL * d_norm)
        # In a cyclic group every member is the identity iff member 1 is.
        self.all_identity = bool(np.array_equal(group.generator, np.arange(n)))

    @property
    def n(self) -> int:
        return self.D.shape[0]

    @property
    def alpha_floor(self) -> float:
        return 1.0 / (self.num_perms + 1)

    def _outcome(self, y, stack: bool = True) -> np.ndarray:
        """``y`` as finite floats of shape (N,), or (N, m) when ``stack``."""
        y = np.asarray(y, dtype=float)
        if y.shape[:1] != (self.n,) or y.ndim > 1 + stack or not y.size:
            shapes = f"({self.n},)" + (f" or ({self.n}, m)" if stack else "")
            raise DimensionError(f"outcome must have shape {shapes}, got {y.shape}")
        _require_finite(y, "outcome")
        return y

    def _contract(self, v: np.ndarray, moved: bool = True) -> tuple[np.ndarray, np.ndarray]:
        """(e, C) for the columns v_j of v, shape (N, m): C[j, 0] holds pd_k'u_j
        and, if ``moved``, C[j, 1] pd_k'u_j[g^k] for members 1..K, where u_j =
        v_j 2^-e_j with 2^e_j the power of two nearest max|v_j|.  The u_j are a
        fresh outcome-major copy, so gathers and contractions run along N and
        each C[j] equals a one-column call's bit for bit.  :func:`_unscale`
        scales C back, exactly, and checks it."""
        exps = np.frexp(np.abs(v).max(axis=0))[1]
        u = np.ldexp(v.T, -exps[:, None], out=np.empty(v.shape[::-1]))
        out = np.empty((1 + moved, self.num_perms, self.D.shape[1], len(exps)))
        np.einsum("knd,mn->kdm", self.pd, u, out=out[0])
        if moved:
            for members, u_perm in self.group.orbit(u):
                out[1, members] = np.einsum("knd,kmn->kdm", self.pd[members], u_perm)
        return exps, out.transpose(3, 0, 1, 2)

    @np.errstate(over="ignore", invalid="ignore")
    def _statistics(self, y, moved: bool = True) -> np.ndarray:
        """Observed and permuted statistics of y, shape y.shape[1:] + (2, K), the
        observed alone unless ``moved``.  Taken on each outcome scaled by a power
        of two, they overflow or underflow only as a typed error, never a p-value."""
        y = self._outcome(y)
        exps, contracted = self._contract(y.reshape(self.n, -1), moved)
        norms = _row_norms(contracted.reshape(-1, contracted.shape[-1]))
        # pd_k'y scales with both y and D, so either may be the one to rescale
        name = "outcome column {} or treatment" if y.ndim == 2 else "outcome or treatment"
        stats = _unscale(name, exps, norms.reshape(contracted.shape[:-1]))
        return stats.reshape(y.shape[1:] + stats.shape[1:])

    def statistics(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Observed and permuted statistics (a, b), each of shape (K,), or
        (m, K) for a stack of m outcomes."""
        stats = self._statistics(y)
        return stats[..., 0, :], stats[..., 1, :]

    def min_stat(self, values: np.ndarray) -> float | np.ndarray:
        """min_k ||D' V_k V_k' values||, the minorized statistic, checked as
        :meth:`statistics` is: a float, or an array for a stack."""
        return self._statistics(values, moved=False)[..., 0, :].min(axis=-1)

    @property
    def notes(self) -> tuple[str, ...]:
        """The group's notes, then why p is 1 if it is: no member moves, or D is annihilated."""
        return self.group.notes + (
            ("every group member acts as the identity (axes shorter than "
             "the group size stay fixed); the p-value is 1 by construction",)
            if self.all_identity else ()) + (
            ("treatment is annihilated by every projector; statistic is "
             "degenerate and the p-value is reported as 1",)
            if self.degenerate else ())

    def report(self, y: np.ndarray,
               seed: int | None = None) -> TestReport | tuple[TestReport, ...]:
        """The test of outcome ``y``, or a tuple of one per column of a stack."""
        a, b = self.statistics(y)
        forced = self.degenerate or self.all_identity
        reports = tuple(
            TestReport(pval=1.0 if forced else pvalue_from_stats(a_j, b_j), a=a_j, b=b_j,
                       num_perms=self.num_perms, min_a=float(a_j.min()),
                       alpha_floor=self.alpha_floor, seed=seed, notes=self.notes)
            for a_j, b_j in zip(np.atleast_2d(a), np.atleast_2d(b)))
        return reports if a.ndim == 2 else reports[0]


def pvalue_from_stats(a: np.ndarray, b: np.ndarray):
    """Randomization p-value with ties counted as extreme; one per row of a stack."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim not in (1, 2) or a.shape[-1] < 1:
        raise DimensionError("a and b must be equal-shape non-empty vectors or stacks of rows")
    if np.isnan(a).any() or np.isnan(b).any():
        raise NonFiniteInputError("statistics contain NaN; no p-value is defined")
    counts = np.count_nonzero(a.min(axis=-1, keepdims=True) <= b, axis=-1)
    pvals = (1 + counts) / (a.shape[-1] + 1)
    return float(pvals) if a.ndim == 1 else pvals


def permutation_test(
    X: np.ndarray,
    D: np.ndarray,
    y: np.ndarray,
    row_perms,
    seed: int | None = None,
    tol: float | None = None,
) -> TestReport | tuple[TestReport, ...]:
    """Randomization test of no treatment effect under a group of row maps.

    Parameters
    ----------
    X : ndarray, shape (N, p)
        Stacked covariates (may have zero columns).
    D : ndarray, shape (N, d)
        Stacked treatment.
    y : ndarray, shape (N,) or (N, m)
        Stacked outcome, or m outcomes as columns: a tuple of m reports.
    row_perms : CyclicGroup, PermutationFamily or ndarray of shape (K+1, N)
        Acts on the stacked rows.  A PermutationFamily or a full map must be
        the cyclic group its member 1 generates
        (:func:`~clusterperm.permgroup.as_group` checks it).
    """
    return PreparedTest(X, D, row_perms, tol=tol).report(y, seed=seed)


two_way_test = permutation_test


def stack_blocks(x, d, y, blocks, num_perms: int, seed):
    """Stack disjoint blocks of records and build the group that permutes them.

    Each block is ``(key, axes, records)``: ``records`` holds positions of
    rows of x, d and y in an array shaped like the block's box, and ``axes``
    gives per box axis its ``AXIS_*`` family stream, or ``None`` to keep it
    fixed.  The boxes are stacked row-major in order and permuted by
    :func:`~clusterperm.permgroup.block_product_group`, seeded by ``seed``.
    Rows in no block never enter; records already in stacked order come back
    as views.  Returns ``(x, d, y, group)``; a moving axis with at most K
    indices never moves, and ``group.notes`` says how many blocks have one.
    """
    if not blocks:
        raise NoEligibleCellsError("no block of records to permute: the cover has no "
                                   "fully observed block with both sides >= min_block")
    specs, order = [], []
    for key, axes, records in blocks:
        records = np.asarray(records, dtype=np.intp)
        if records.ndim != len(axes):
            raise DimensionError(
                f"block {key} has records of shape {records.shape} for {len(axes)} axes"
            )
        specs.append((key, tuple(zip(records.shape, axes))))
        order.append(records.reshape(-1))
    order = np.concatenate(order)
    if np.array_equal(order, np.arange(order.size)):
        order = slice(order.size)
    group = block_product_group(specs, num_perms, seed)
    return np.asarray(x)[order], np.asarray(d)[order], np.asarray(y)[order], group


def block_test(x, d, y, blocks, num_perms: int, seed,
               tol: float | None = None) -> TestReport | tuple[TestReport, ...]:
    """Zero-effect test on the layout of :func:`stack_blocks`, with its notes."""
    return permutation_test(*stack_blocks(x, d, y, blocks, num_perms, seed), seed=seed, tol=tol)


def dyadic_layout(array: DyadArray, num_perms: int | None = None, seed=0):
    """:func:`stack_blocks` for a complete grid: one block whose rows and
    columns both move.  K defaults to :func:`default_num_perms` of the grid."""
    design = StackedDesign.from_array(array)
    if num_perms is None:
        num_perms = default_num_perms(array.n_rows, array.n_cols)
    grid = np.arange(design.n).reshape(array.n_rows, array.n_cols)
    return stack_blocks(design.x, design.d, design.y, [(0, (AXIS_ROWS, AXIS_COLS), grid)],
                        num_perms, seed)


def _beta_vector(beta0, d: int) -> np.ndarray:
    """``beta0`` as a finite vector of length d, or a typed error."""
    beta_vec = np.atleast_1d(np.asarray(beta0, dtype=float))
    if beta_vec.shape != (d,):
        raise DimensionError(f"beta0 must have shape ({d},), got {beta_vec.shape}")
    _require_finite(beta_vec, "beta0")
    return beta_vec


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
    beta_vec = _beta_vector(beta0, prepared.D.shape[1])
    return prepared.report(prepared._outcome(y, stack=False) - prepared.D @ beta_vec, seed=seed)


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
    of point nulls costs two contractions plus scalar work.  y and D are
    contracted apart: their stack would be one more 2 x N array at the peak.
    """

    @np.errstate(over="ignore", invalid="ignore")
    def __init__(self, prepared: PreparedTest, y: np.ndarray):
        exps, contracted = prepared._contract(y[:, None])
        (self.u, self.w), = _unscale("outcome or treatment", exps, contracted[..., 0])
        exps, contracted = prepared._contract(prepared.D)
        (self.v, self.z), = _unscale("treatment", exps, contracted[..., 0])

    def pvalues(self, points: np.ndarray) -> np.ndarray:
        a = np.abs(self.u[None, :] - points[:, None] * self.v[None, :])
        b = np.abs(self.w[None, :] - points[:, None] * self.z[None, :])
        return pvalue_from_stats(a, b)


def invert_ci(
    X: np.ndarray,
    D: np.ndarray,
    y: np.ndarray,
    family: PermutationFamily | CyclicGroup,
    alpha: float = 0.05,
    grid: GridSpec | None = None,
    tol: float | None = None,
) -> ConfidenceInterval:
    """Confidence interval for a scalar treatment effect by test inversion.

    Evaluates the shifted test over a grid of point nulls and returns the
    hull of accepted points (pval > alpha), expanding the grid until both
    endpoints are rejected.  A side whose endpoint is still accepted after
    the final expansion is reported open-ended (infinite bound).  A
    degenerate treatment or a group of identities gives the whole line.
    Any layout inverts this way (``invert_ci(*stack_blocks(...))``); the
    interval carries :attr:`PreparedTest.notes`, the group's first, as a test does.
    """
    if not 0.0 < alpha < 1.0:
        raise ResolutionError(f"alpha must lie in (0, 1), got {alpha}")
    grid = grid or GridSpec()
    if np.ndim(D) > 1 and np.shape(D)[1] != 1:
        raise DimensionError(
            f"interval inversion supports a single treatment column, got {np.shape(D)[1]}"
        )
    group = as_group(family, len(D))
    floor = 1.0 / (group.num_perms + 1)
    if alpha < floor - 1e-12:
        raise ResolutionError(
            f"alpha={alpha} is below the attainable floor 1/(K+1)={floor:.6g}; "
            "increase the number of permutations"
        )
    prepared = PreparedTest(X, D, group, tol=tol)
    y = prepared._outcome(y, stack=False)
    affine = _AffineStats(prepared, y)
    if prepared.degenerate or prepared.all_identity:
        # Every point null is accepted: the statistics vanish, or no member
        # moves the data so each b_k equals its a_k.
        desc = {"center": None, "half_width": None, "points": grid.points,
                "expansions_used": 0, "n_accepted": 0,
                "degenerate": prepared.degenerate, "all_identity": prepared.all_identity}
        return ConfidenceInterval(-np.inf, np.inf, alpha, desc, (True, True), prepared.notes)

    if grid.center is None or grid.half_width is None:
        center, unit = _ols_center_and_unit(prepared.X, prepared.D, y)
    if grid.center is not None:
        center = grid.center
    half = grid.half_width if grid.half_width is not None else 4.0 * unit

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
    zoomed = not accepted.any()
    if zoomed:
        # The accepted region may be narrower than the grid spacing; zoom in
        # around the best point before declaring the set empty.
        for _ in range(4):
            center = float(points[int(np.argmax(pvals))])
            half = 4.0 * (points[1] - points[0])
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
    return ConfidenceInterval(lower, upper, alpha, desc, (open_left, open_right), prepared.notes)


def median_pvalue(pvals) -> float:
    """Lower median of R p-values: the ceil(R/2)-th smallest.

    For even R this is the smaller of the two middle values, so for R = 2 it
    is the minimum; it is not conservative.  The repeats of one irregular
    test share their data, so their p-values are dependent, each valid.
    Rejecting when the lower median is at most alpha needs ceil(R/2) of the
    R p-values at most alpha, which by Markov's inequality has probability
    at most R alpha / ceil(R/2) <= 2 alpha: the worst-case size of a median
    of dependent p-values is 2 alpha, and twice the median is a valid
    p-value (Meinshausen, Meier & Buehlmann 2009; Vovk & Wang 2020).
    """
    arr = sorted(float(p) for p in pvals)
    if not arr:
        raise DegenerateInputError("median of an empty p-value collection")
    return arr[(len(arr) - 1) // 2]


def dyadic_test(
    array: DyadArray,
    num_perms: int | None = None,
    seed: int = 0,
    beta0=None,
    tol: float | None = None,
) -> TestReport:
    """Convenience front end: the test on :func:`dyadic_layout`.

    ``beta0`` (scalar or length-d vector) switches to the shifted point
    null, testing y - D beta0; default is the zero-effect null.
    """
    x, d, y, group = dyadic_layout(array, num_perms, seed)
    if beta0 is not None:
        y = y - d @ _beta_vector(beta0, d.shape[1])
    return permutation_test(x, d, y, group, seed=seed, tol=tol)


def dyadic_ci(
    array: DyadArray,
    alpha: float = 0.05,
    num_perms: int | None = None,
    seed: int = 0,
    grid: GridSpec | None = None,
    tol: float | None = None,
) -> ConfidenceInterval:
    """Convenience front end: interval inversion on :func:`dyadic_layout`."""
    return invert_ci(*dyadic_layout(array, num_perms, seed), alpha=alpha, grid=grid, tol=tol)
