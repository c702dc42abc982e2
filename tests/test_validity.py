"""Property tests: the p-value is invariant under y -> c * y + X gamma.

Every member's projector annihilates X, so the statistics see the outcome
only through D' V_k V_k' y, and a positive rescaling multiplies every a_k
and b_k by the same c.  The p-value must therefore not move when the
outcome is rescaled by c > 0 or shifted by any X gamma.  A projector route
that leaves part of col(X) or of col(X_pi) in the complement fails this.

The data come from a seeded normal generator, never from raw floats drawn
by hypothesis: an outcome such as y = 0 puts every statistic at a
rounding-level tie, where no ordering is meaningful.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterperm.dyadic import dyadic_test
from clusterperm.model import DyadArray
from clusterperm.multiway import MultiIndexDataset, panel_test

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
       transform=_transforms)
def test_dyadic_pvalue_invariant(seed, n_rows, n_cols, num_perms, transform):
    rng = np.random.default_rng(seed)
    shape = (n_rows, n_cols)
    x = np.stack([np.ones(shape),
                  np.repeat(rng.standard_normal((n_rows, 1)), n_cols, axis=1),
                  rng.standard_normal(shape)], axis=-1)
    d = rng.standard_normal(shape + (1,))
    y = rng.standard_normal(n_rows)[:, None] + rng.standard_normal(shape)
    base = dyadic_test(DyadArray(y=y, d=d, x=x), num_perms=num_perms, seed=seed)
    moved = dyadic_test(DyadArray(y=_transformed(y, x, transform), d=d, x=x),
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
