"""Monte Carlo harness: data-generating processes and experiment runners.

The workhorse random-effects construction is additive with a row effect, a
column effect, and an idiosyncratic term.  Variance shares (phi1, phi2)
parametrize the component scales so the total variance is 1 for a
unit-variance base:

    value_ij = sigma1 * v1_i + sigma2 * v2_j + v3_ij,
    sigma_a^2 = phi_a / (1 - phi1 - phi2).

Rejection-rate runs derive one sub-seed per replicate from the replicate
index, so adding replicates or changing worker counts never changes what
any single replicate sees.  A panel's replicate returns one p-value per row,
so rows that differ only in their outcome share the replicate's draws,
layout, group and build.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import asdict, dataclass, replace
from functools import partial

import numpy as np

from .dyadic import PreparedTest, dyadic_layout
from .exceptions import DimensionError, VarianceBudgetError
from .missing import max_square_side
from .model import DyadArray, StackedDesign
from .multiway import MultiIndexDataset, irregular_test
from .permgroup import default_num_perms
from .rng import dgp_seed, generator, mask_seed, replicate_seed

_BASE_DISTS = ("gaussian", "lognormal-transform", "cauchy")

ERROR_KINDS = ("row-scale-lognormal", "two-way-weak", "row-heavy")


@dataclass(frozen=True)
class RandomEffectsSpec:
    """Variance shares and base law of the additive two-way construction."""

    phi1: float
    phi2: float
    base_dist: str = "gaussian"

    def __post_init__(self):
        if self.phi1 < 0 or self.phi2 < 0:
            raise VarianceBudgetError(
                f"variance shares must be non-negative, got ({self.phi1}, {self.phi2})"
            )
        if self.phi1 + self.phi2 >= 1:
            raise VarianceBudgetError(
                f"variance shares must sum below 1, got {self.phi1 + self.phi2}"
            )
        if self.base_dist not in _BASE_DISTS:
            raise ValueError(f"base_dist must be one of {_BASE_DISTS}")

    @property
    def sigma1(self) -> float:
        return float(np.sqrt(self.phi1 / (1.0 - self.phi1 - self.phi2)))

    @property
    def sigma2(self) -> float:
        return float(np.sqrt(self.phi2 / (1.0 - self.phi1 - self.phi2)))


def gen_random_effects(
    n_rows: int,
    n_cols: int,
    spec: RandomEffectsSpec,
    seed: int,
) -> np.ndarray:
    """Draw one (n_rows, n_cols) grid from the additive construction; the
    lognormal-transform base exponentiates half the Gaussian grid."""
    return _random_effects(n_rows, n_cols, [spec], seed)[0]


def _random_effects(n_rows: int, n_cols: int, specs, seed: int) -> list[np.ndarray]:
    """:func:`gen_random_effects` for several specs of one base law from one
    set of draws; each grid equals its one-spec call bit for bit."""
    base_dist = specs[0].base_dist
    if any(s.base_dist != base_dist for s in specs):
        raise ValueError("specs that share draws must share one base_dist")
    rng = generator(seed)
    if base_dist == "cauchy":
        v1 = rng.standard_cauchy(n_rows)
        v2 = rng.standard_cauchy(n_cols)
        v3 = rng.standard_cauchy((n_rows, n_cols))
    else:
        v1 = rng.standard_normal(n_rows)
        v2 = rng.standard_normal(n_cols)
        v3 = rng.standard_normal((n_rows, n_cols))
    grids = [s.sigma1 * v1[:, None] + s.sigma2 * v2[None, :] + v3 for s in specs]
    if base_dist == "lognormal-transform":
        return [np.exp(0.5 * grid) for grid in grids]
    return grids


def gen_dyadic_dataset(
    n: int,
    beta: float = 0.0,
    spec_cov: RandomEffectsSpec | None = None,
    spec_err: RandomEffectsSpec | None = None,
    cov_transform: str = "normal",
    gamma=(0.5, 1.0, 1.0),
    seed: int = 0,
) -> tuple[DyadArray, np.ndarray]:
    """Simulate one n x n dyadic dataset with clustered treatment and errors.

    Covariates are (1, z_i, z_j) with z ~ Uniform[0, 2]; the scalar
    treatment comes from the additive construction (``spec_cov``), either
    raw ("normal") or exponentiated as exp(0.5 w) ("lognormal"), or is drawn
    iid per cell as exp(0.5 w) with w ~ N(0, 5) ("iid-lognormal", the
    marginal law of the shares-(0.4, 0.4) construction; ``spec_cov`` is then
    unused); errors come from ``spec_err``.  Returns the array and the true
    error grid.
    """
    return _dyadic_cases(n, [spec_err or RandomEffectsSpec(0.05, 0.15)], [cov_transform],
                         beta=beta, spec_cov=spec_cov, gamma=gamma, seed=seed)[0]


def _dyadic_cases(n: int, specs_err, transforms, beta: float = 0.0,
                  spec_cov: RandomEffectsSpec | None = None, gamma=(0.5, 1.0, 1.0),
                  seed: int = 0) -> list[tuple[DyadArray, np.ndarray]]:
    """:func:`gen_dyadic_dataset` for every (transform, error spec) pair,
    transform-major.  The pairs share X, each transform's treatment and one
    set of error draws, and each equals its one-case call bit for bit."""
    spec_cov = spec_cov or RandomEffectsSpec(0.4, 0.4)
    gamma = np.asarray(gamma, dtype=float)
    z = generator(dgp_seed(seed, 0)).uniform(0.0, 2.0, n)
    x = np.empty((n, n, 3))
    x[:, :, 0] = 1.0
    x[:, :, 1] = z[:, None]
    x[:, :, 2] = z[None, :]
    if gamma.shape != (3,):
        raise DimensionError(f"gamma must have 3 entries, got {gamma.shape}")
    mean = x @ gamma
    w = None
    errors = _random_effects(n, n, specs_err, seed=dgp_seed(seed, 2))
    cases = []
    for transform in transforms:
        if transform == "iid-lognormal":
            w_iid = generator(dgp_seed(seed, 3)).standard_normal((n, n)) * np.sqrt(5.0)
            d = np.exp(0.5 * w_iid)
        elif transform in ("normal", "lognormal"):
            if w is None:
                w = gen_random_effects(n, n, spec_cov, seed=dgp_seed(seed, 1))
            d = np.exp(0.5 * w) if transform == "lognormal" else w
        else:
            raise ValueError(f"unknown cov_transform {transform!r}")
        cases += [(DyadArray(y=mean + d * float(beta) + eps, d=d[:, :, None], x=x), eps)
                  for eps in errors]
    return cases


def gen_semisynthetic_errors(
    i_idx: np.ndarray,
    j_idx: np.ndarray,
    kind: str,
    seed: int,
    n_rows: int | None = None,
    n_cols: int | None = None,
) -> np.ndarray:
    """Per-record errors clustered on observational row/column indices.

    * ``row-scale-lognormal``: exp(v_i * u_r) with v per row, u per record;
    * ``two-way-weak``: additive construction, shares (0.1, 0.1),
      idiosyncratic term drawn per record;
    * ``row-heavy``: additive construction, shares (0.9, 0.0).
    """
    i_idx = np.asarray(i_idx, dtype=np.intp)
    j_idx = np.asarray(j_idx, dtype=np.intp)
    if i_idx.shape != j_idx.shape or i_idx.ndim != 1:
        raise DimensionError("i and j index vectors must be 1-D and equal length")
    n_rows = n_rows if n_rows is not None else int(i_idx.max()) + 1
    n_cols = n_cols if n_cols is not None else int(j_idx.max()) + 1
    rng = generator(seed)
    n_obs = i_idx.shape[0]
    if kind == "row-scale-lognormal":
        v = rng.standard_normal(n_rows)
        u = rng.standard_normal(n_obs)
        return np.exp(v[i_idx] * u)
    if kind == "two-way-weak":
        shares = RandomEffectsSpec(0.1, 0.1)
    elif kind == "row-heavy":
        shares = RandomEffectsSpec(0.9, 0.0)
    else:
        raise ValueError(f"unknown error kind {kind!r}; choose from {ERROR_KINDS}")
    v1 = rng.standard_normal(n_rows)
    v2 = rng.standard_normal(n_cols)
    v3 = rng.standard_normal(n_obs)
    return shares.sigma1 * v1[i_idx] + shares.sigma2 * v2[j_idx] + v3


def gen_mcar_mask(n: int, rho: float, seed: int, n_cols: int | None = None) -> np.ndarray:
    """Bernoulli(rho) observation mask; equal seeds couple masks across rho."""
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [0, 1], got {rho}")
    n_cols = n_cols if n_cols is not None else n
    u = generator(mask_seed(seed, 0)).random((n, n_cols))
    return (u < rho).astype(np.int8)


@dataclass(frozen=True)
class McSummary:
    """Rejection-rate summary of a Monte Carlo run."""

    label: str
    reps: int
    alpha: float
    rejections: int
    rate: float
    mc_se: float
    config_digest: str

    def to_dict(self) -> dict:
        return asdict(self)


def _digest(label: str, reps: int, alpha: float, seed: int) -> str:
    payload = f"{label}|reps={reps}|alpha={alpha}|seed={seed}"
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def _rejection_rates(rep, labels, reps: int, alpha: float, seed: int,
                     threads: int) -> list[McSummary]:
    """Rejection rate per label of ``rep`` over derived replicate seeds.

    ``rep`` maps one integer seed to a sequence of p-values, one per label.
    Replicates run in min(threads, reps, CPUs) worker processes when that is
    more than one; each label's reduction is a count over its column, so
    scheduling cannot matter.
    """
    if reps < 1:
        raise DimensionError(f"reps must be positive, got {reps}")
    if not labels:  # a panel with no rows draws nothing
        return []
    seeds = [replicate_seed(seed, r) for r in range(reps)]
    workers = min(threads, reps, os.cpu_count() or 1)
    if workers > 1:
        # Imported here, so a serial run never loads multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        chunk = max(1, reps // (workers * 8))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(rep, seeds, chunksize=chunk))
    else:
        outcomes = [rep(s) for s in seeds]
    summaries = []
    for label, pvals in zip(labels, zip(*outcomes, strict=True), strict=True):
        rejections = sum(1 for p in pvals if p <= alpha)
        rate = rejections / reps
        summaries.append(McSummary(
            label=label,
            reps=reps,
            alpha=alpha,
            rejections=rejections,
            rate=rate,
            mc_se=float(np.sqrt(rate * (1.0 - rate) / reps)),
            config_digest=_digest(label, reps, alpha, seed),
        ))
    return summaries


def _one_pval(test_fn, rep_seed):
    outcome = test_fn(rep_seed)
    return (getattr(outcome, "pval", outcome),)


def mc_rejection_rate(
    test_fn,
    reps: int,
    alpha: float,
    seed: int,
    threads: int = 1,
    label: str = "",
) -> McSummary:
    """Rejection rate of ``test_fn`` over derived replicate seeds.

    ``test_fn`` maps one integer seed to a p-value (or anything with a
    ``pval`` attribute); it runs as :func:`_rejection_rates` runs a panel's
    replicates, serially or in worker processes.
    """
    return _rejection_rates(partial(_one_pval, test_fn), [label], reps, alpha, seed,
                            threads)[0]


def minorization_gap_suite(
    n: int = 12,
    num_perms: int = 11,
    reps: int = 200,
    seed: int = 0,
    cov_transform: str = "normal",
    spec_err: RandomEffectsSpec | None = None,
) -> dict:
    """Compare the feasible p-value with its error-oracle lower bound.

    The feasible test replaces each permuted-error statistic with the
    statistic of the permuted outcome, while the observed side is already
    minorized; the oracle minorizes both sides using the true errors.  The
    feasible p-value must dominate replicate by replicate.
    """
    spec_err = spec_err or RandomEffectsSpec(0.05, 0.15)
    pairs = []
    for r in range(reps):
        rs = replicate_seed(seed, r)
        array, eps = gen_dyadic_dataset(
            n, beta=0.0, spec_err=spec_err, cov_transform=cov_transform, seed=rs
        )
        x, d, y, group = dyadic_layout(array, num_perms, rs)
        prepared = PreparedTest(x, d, group)
        report = prepared.report(y)
        # the K translates of the errors, one outcome per member
        moved = eps.reshape(-1)[group.stacked()[1:]].T
        count = np.count_nonzero(report.min_a <= prepared.min_stat(moved))
        pairs.append((report.pval, (1 + count) / (num_perms + 1)))
    violations = sum(infeasible > feasible for feasible, infeasible in pairs)
    return {"reps": reps, "violations": violations, "pairs": pairs}


def biclique_growth_experiment(
    n_grid,
    rho_grid,
    reps: int,
    seed: int = 0,
    cap: int = 16,
) -> dict:
    """Median exact square-biclique side over MCAR masks on a (n, rho) grid.

    One uniform grid is drawn per replicate and shared across all (n, rho)
    points (thresholded at rho, windowed to n x n), so the monotonicity of
    the side in both arguments holds replicate by replicate.
    """
    n_grid = sorted(int(v) for v in n_grid)
    rho_grid = [float(v) for v in rho_grid]
    if not n_grid or not rho_grid or reps < 1:
        raise DimensionError("n_grid, rho_grid and reps must be non-empty/positive")
    max_n = n_grid[-1]
    sides = np.zeros((len(n_grid), len(rho_grid), reps), dtype=np.intp)
    for r in range(reps):
        u = generator(mask_seed(seed, 11, r)).random((max_n, max_n))
        for a, n in enumerate(n_grid):
            window = u[:n, :n]
            for b, rho in enumerate(rho_grid):
                sides[a, b, r] = max_square_side((window < rho).astype(np.int8), cap=cap)
    ordered = np.sort(sides, axis=2)
    medians = ordered[:, :, (reps - 1) // 2]
    return {
        "n_grid": n_grid,
        "rho_grid": rho_grid,
        "reps": reps,
        "median_side": medians.tolist(),
    }


# ---------------------------------------------------------------------------
# Panel runners behind the CLI; the per-replicate callables live at module
# level so worker processes can unpickle them.

def _size_rep(n, cov_transforms, phi2_values, num_perms, rep_seed):
    """One table1 replicate: a p-value per (transform, phi2) row, transform-major.

    The rows share the draws, the layout and the group, and the rows of one
    transform share its :class:`PreparedTest`, which is dropped before the
    next transform's build so that no two K x N states are held at once.
    A complete grid's layout keeps :class:`StackedDesign`'s row order, so
    each row's stacked design lines up with the group.
    """
    cases = _dyadic_cases(n, [RandomEffectsSpec(0.05, phi2) for phi2 in phi2_values],
                          cov_transforms, seed=rep_seed)
    *_, group = dyadic_layout(cases[0][0], num_perms, rep_seed)
    pvals = []
    for start in range(0, len(cases), len(phi2_values)):
        rows = [StackedDesign.from_array(array) for array, _ in
                cases[start:start + len(phi2_values)]]
        reports = PreparedTest(rows[0].x, rows[0].d, group).report(
            np.column_stack([row.y for row in rows]), seed=rep_seed)
        pvals += [report.pval for report in reports]
    return pvals


def _power_rep(n, betas, phi2, num_perms, rep_seed):
    """One table4 replicate: a p-value per effect size, from one dataset,
    group and :class:`PreparedTest`; only the outcome y0 + d beta changes."""
    # The treatment is drawn iid per cell: the cross-cell dependence of the
    # shares-(0.4, 0.4) two-way construction adds alignment noise that
    # roughly halves power at beta = 0.05 without affecting validity; the
    # iid draw is what the reference power figures correspond to.
    array, _ = gen_dyadic_dataset(
        n,
        beta=0.0,
        spec_err=RandomEffectsSpec(0.0, phi2),
        cov_transform="iid-lognormal",
        seed=rep_seed,
    )
    x, d, y0, group = dyadic_layout(array, num_perms, rep_seed)
    outcomes = y0[:, None] + d[:, :1] * np.asarray(betas, dtype=float)
    return [report.pval for report in
            PreparedTest(x, d, group).report(outcomes, seed=rep_seed)]


def gen_irregular_dataset(
    n_rows: int,
    n_cols: int,
    l0: int,
    kind: str,
    seed: int,
    extra_slots: int = 3,
    beta: float = 0.0,
) -> MultiIndexDataset:
    """Unbalanced per-cell records with clustered treatment and chosen errors.

    Cell sizes are uniform on [l0, l0 + extra_slots], so every cell stays
    eligible at threshold l0 while the subsampling step still has work to
    do.  Covariates are an intercept plus one uniform draw per row index
    and one per column index, mirroring the dyadic recipe; the treatment
    adds row and column effects to a per-record draw.
    """
    rng = generator(dgp_seed(seed, 4))
    sizes = rng.integers(l0, l0 + extra_slots + 1, size=(n_rows, n_cols))
    i_idx = np.repeat(np.repeat(np.arange(n_rows), n_cols), sizes.reshape(-1))
    j_idx = np.repeat(np.tile(np.arange(n_cols), n_rows), sizes.reshape(-1))
    slot = np.concatenate([np.arange(s) for s in sizes.reshape(-1)])
    n_obs = i_idx.shape[0]
    z_row = rng.uniform(0.0, 2.0, n_rows)
    z_col = rng.uniform(0.0, 2.0, n_cols)
    x = np.column_stack([np.ones(n_obs), z_row[i_idx], z_col[j_idx]])
    shares = RandomEffectsSpec(0.4, 0.4)
    a = rng.standard_normal(n_rows)
    b = rng.standard_normal(n_cols)
    d = shares.sigma1 * a[i_idx] + shares.sigma2 * b[j_idx] + rng.standard_normal(n_obs)
    eps = gen_semisynthetic_errors(
        i_idx, j_idx, kind, dgp_seed(seed, 5), n_rows=n_rows, n_cols=n_cols
    )
    y = x @ np.array([0.5, 1.0, 1.0]) + d * beta + eps
    return MultiIndexDataset(i=i_idx, j=j_idx, l=slot, y=y, d=d, x=x)


def _irregular_rep(n_rows, n_cols, l0, kinds, num_perms, repeats, rep_seed):
    """One table3 replicate: a p-value per error kind.  The kinds' datasets
    differ only in their errors, so one irregular test runs them as a stack."""
    datasets = [gen_irregular_dataset(n_rows, n_cols, l0, kind, seed=rep_seed)
                for kind in kinds]
    stacked = replace(datasets[0], y=np.column_stack([data.y for data in datasets]))
    return [result.pval for result in irregular_test(
        stacked, l0=l0, num_perms=num_perms, repeats=repeats, seed=dgp_seed(rep_seed, 6))]


def _panel(header: dict, rep, cases, reps: int, alpha: float, seed: int,
           threads: int) -> dict:
    """Rejection rate per case, as ``header`` plus one row per case.

    ``rep`` maps a replicate seed to one p-value per case, so each replicate
    is drawn and built once for all rows.  Each case is ``(label, fields)``,
    and ``fields`` are added to the case's row.
    """
    summaries = _rejection_rates(rep, [label for label, _ in cases], reps, alpha, seed,
                                 threads)
    rows = [{**summary.to_dict(), **fields} for summary, (_, fields) in zip(summaries, cases)]
    return {**header, "rows": rows}


def run_null_size_panel(
    n: int = 25,
    reps: int = 1000,
    alpha: float = 0.05,
    seed: int = 0,
    num_perms: int | None = None,
    threads: int = 1,
    phi2_values=(0.15, 0.9),
    cov_transforms=("normal", "lognormal"),
) -> dict:
    """Null rejection rates across covariate transforms and column shares."""
    if num_perms is None:
        num_perms = default_num_perms(n)
    cases = [(f"size n={n} cov={transform} phi2={phi2}",
              {"cov_transform": transform, "phi2": phi2})
             for transform in cov_transforms for phi2 in phi2_values]
    rep = partial(_size_rep, n, tuple(cov_transforms), tuple(phi2_values), num_perms)
    return _panel({"panel": "null-size", "n": n, "num_perms": num_perms}, rep, cases,
                  reps, alpha, seed, threads)


def run_power_panel(
    n: int = 25,
    reps: int = 500,
    alpha: float = 0.05,
    seed: int = 0,
    num_perms: int | None = None,
    threads: int = 1,
    betas=(0.01, 0.05, 0.10, 0.15),
    phi2: float = 0.1,
) -> dict:
    """Power curve over effect sizes with lognormal treatment."""
    if num_perms is None:
        num_perms = default_num_perms(n)
    cases = [(f"power n={n} beta={beta} phi2={phi2}", {"beta": beta, "phi2": phi2})
             for beta in betas]
    rep = partial(_power_rep, n, tuple(betas), phi2, num_perms)
    return _panel({"panel": "power", "n": n, "num_perms": num_perms}, rep, cases,
                  reps, alpha, seed, threads)


def run_irregular_size_panel(
    n_rows: int = 20,
    n_cols: int = 20,
    l0: int = 4,
    reps: int = 500,
    alpha: float = 0.05,
    seed: int = 0,
    num_perms: int = 19,
    repeats: int = 3,
    threads: int = 1,
    kinds=ERROR_KINDS,
) -> dict:
    """Null rejection rates of the irregular pipeline per error kind."""
    cases = [(f"irregular {n_rows}x{n_cols} l0={l0} errors={kind}", {"errors": kind})
             for kind in kinds]
    header = {"panel": "irregular-size", "n_rows": n_rows, "n_cols": n_cols, "l0": l0,
              "num_perms": num_perms, "repeats": repeats}
    rep = partial(_irregular_rep, n_rows, n_cols, l0, tuple(kinds), num_perms, repeats)
    return _panel(header, rep, cases, reps, alpha, seed, threads)
