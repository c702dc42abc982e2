"""Property tests of the p-value's validity.

Invariance: every member's projector annihilates X, so the statistics see
the outcome only through D' V_k V_k' y, and a positive rescaling multiplies
every a_k and b_k by the same c.  The p-value must therefore not move when
the outcome is rescaled by c > 0 or shifted by any X gamma, or when the
treatment is rescaled, which scales every statistic alike.  A projector
route that leaves part of col(X) or of col(X_pi) in the complement fails
this.

Orbit bound (Hemerik & Goeman, 2018): under y = X gamma + eps, at most
floor(alpha (K+1)) of the K+1 translates X gamma + eps[g^j] have p <= alpha,
for any finite gamma and eps, because the family is a group and the
feasible p-value dominates the oracle one.  The check is exact, not Monte
Carlo: a non-group family or a tie rule that drops ties breaks it.  The
outcome 0 (gamma = 0, eps = 0) is the case where every statistic ties.

The data come from a seeded generator, never from raw floats drawn by
hypothesis: an outcome in col(X), such as a constant, puts every statistic
at a rounding-level tie, where no ordering is meaningful.  Only the exact
outcome 0 ties every statistic exactly.

Scale: pd_k'y scales exactly with y and D by powers of two, so any exponent
pair gives the reference p-value, or a typed error when a statistic leaves
the normal floats; never a p-value from overflowed or underflowed statistics.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from clusterperm.dyadic import PreparedTest, dyadic_layout, dyadic_test, permutation_test
from clusterperm.exceptions import NonFiniteInputError
from clusterperm.model import DyadArray
from clusterperm.multiway import MultiIndexDataset, panel_test
from clusterperm.permgroup import block_product_group
from clusterperm.rng import AXIS_CELLS, AXIS_COLS, AXIS_ROWS
from clusterperm.simulate import gen_dyadic_dataset

_transforms = st.tuples(
    st.floats(0.05, 20.0),           # c
    st.floats(-1.0, 1.0),            # log10 of the scale of gamma
    st.integers(0, 2**32 - 1),       # seed of gamma's direction
)


def _transformed(y, x, transform):
    c, log_scale, seed = transform
    gamma = 10.0 ** log_scale * np.random.default_rng(seed).standard_normal(x.shape[-1])
    return c * y + x @ gamma


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_rows=st.integers(4, 9),
       n_cols=st.integers(4, 9), num_perms=st.integers(1, 7),
       transform=_transforms, log_d_scale=st.floats(-12.0, 12.0))
def test_dyadic_pvalue_invariant(seed, n_rows, n_cols, num_perms, transform, log_d_scale):
    rng = np.random.default_rng(seed)
    shape = (n_rows, n_cols)
    x = np.stack([np.ones(shape),
                  np.repeat(rng.standard_normal((n_rows, 1)), n_cols, axis=1),
                  rng.standard_normal(shape)], axis=-1)
    d = rng.standard_normal(shape + (1,))
    y = rng.standard_normal(n_rows)[:, None] + rng.standard_normal(shape)
    base = dyadic_test(DyadArray(y=y, d=d, x=x), num_perms=num_perms, seed=seed)
    moved = dyadic_test(DyadArray(y=_transformed(y, x, transform),
                                  d=10.0 ** log_d_scale * d, x=x),
                        num_perms=num_perms, seed=seed)
    assert moved.pval == base.pval
    assert moved.notes == base.notes


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(3, 7), n=st.integers(3, 7),
       ell=st.integers(1, 4), num_perms=st.integers(1, 5), transform=_transforms)
def test_panel_pvalue_invariant(seed, m, n, ell, num_perms, transform):
    rng = np.random.default_rng(seed)
    shape = (m, n, ell)
    # An intercept, a period effect (left fixed by the group) and a
    # covariate that moves with the rows.
    x = np.stack([np.ones(shape),
                  np.broadcast_to(rng.standard_normal(ell), shape),
                  np.broadcast_to(rng.standard_normal((m, 1, 1)), shape)], axis=-1)
    d = rng.standard_normal(shape)
    y = rng.standard_normal((1, n, 1)) + rng.standard_normal(shape)
    base = panel_test(MultiIndexDataset.from_box(y, d, x), num_perms=num_perms, seed=seed)
    moved = panel_test(MultiIndexDataset.from_box(_transformed(y, x, transform), d, x),
                       num_perms=num_perms, seed=seed)
    assert moved.pval == base.pval
    assert moved.notes == base.notes


_SIDE = st.integers(2, 6)


def _boxes(axes, count):
    """Between count[0] and count[1] blocks keyed 0.., each a box on ``axes``."""
    box = st.tuples(*[st.tuples(_SIDE, st.just(axis)) for axis in axes])
    return st.lists(box, min_size=count[0], max_size=count[1]).map(
        lambda boxes: list(enumerate(boxes)))


# The block layouts of the six tests, as they call block_product_group.
_LAYOUTS = {
    "dyadic": _boxes((AXIS_ROWS, AXIS_COLS), (1, 1)),
    "blockwise": _boxes((AXIS_ROWS, AXIS_COLS), (2, 4)),
    "threeway": _boxes((AXIS_ROWS, AXIS_COLS, AXIS_CELLS), (1, 1)),
    "panel": _boxes((AXIS_ROWS, AXIS_COLS, None), (1, 1)),
    "layout": _boxes((AXIS_CELLS,), (3, 8)),
    "irregular": _boxes((AXIS_ROWS, AXIS_COLS, None), (2, 3)),
}


@pytest.mark.parametrize("name", sorted(_LAYOUTS))
@settings(max_examples=45, deadline=None)
@given(data=st.data(), num_perms=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       log_scale=st.floats(-2.0, 4.0))
def test_orbit_bound(name, data, num_perms, seed, log_scale):
    group = block_product_group(data.draw(_LAYOUTS[name]), num_perms, seed)
    n = group.n
    assume(n >= 5)  # two covariates need N > 4
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), rng.standard_normal(n)])
    D = rng.standard_normal((n, 1))
    gamma = 10.0 ** log_scale * rng.standard_normal(2)
    eps = rng.standard_cauchy(n)
    prepared = PreparedTest(X, D, group)
    # gamma = 0, eps = 0 ties every statistic at exactly 0: its K+1
    # translates are equal, so the bound forces p = 1
    for shift, noise in ((X @ gamma, eps), (np.zeros(n), np.zeros(n))):
        ranks = np.array([round(prepared.report(shift + noise[member]).pval * (num_perms + 1))
                          for member in group.stacked()])
        # p <= m / (K+1) for at most m translates, for every level m / (K+1)
        for m in range(1, num_perms + 1):
            assert np.count_nonzero(ranks <= m) <= m, (m, ranks.tolist())


_SCALE_LAYOUT = dyadic_layout(gen_dyadic_dataset(20, seed=3)[0], 19, seed=3)
_SCALE_REFERENCE = permutation_test(*_SCALE_LAYOUT)
_TINY = 2.0 ** -1022


@settings(max_examples=80, deadline=None)
@given(s=st.integers(-1000, 1000), t=st.integers(-1000, 1000))
@example(s=-100, t=-1000)  # pd_k'y underflows to 0: p was 1, with no note
@example(s=-50, t=-1000)   # subnormal statistics
@example(s=0, t=1020)      # pd_k'y overflows
@example(s=1000, t=1000)
@example(s=-1000, t=1000)
def test_exponent_draws_give_the_reference_or_a_typed_error(s, t):
    x, d, y, group = _SCALE_LAYOUT
    try:
        report = permutation_test(x, np.ldexp(d, t), np.ldexp(y, s), group)
    except NonFiniteInputError as err:
        assert "outcome or treatment is too" in str(err)
        return
    assert report.pval == _SCALE_REFERENCE.pval == 0.95
    assert report.notes == _SCALE_REFERENCE.notes
    stats = np.concatenate([report.a, report.b])
    assert np.isfinite(stats).all() and (np.abs(stats) >= _TINY).all()
