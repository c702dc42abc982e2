"""Tests for the dyadic data model: stacking and permutations."""

import numpy as np
import pytest

from clusterperm.exceptions import DimensionError, MissingDataError
from clusterperm.model import (
    DyadArray,
    PermutationFamily,
    StackedDesign,
    TwoWayPermutation,
    compose,
    row_index,
)
from clusterperm.multiway import MultiIndexDataset
from conftest import raises_exactly


def _grid_array(n_rows=3, n_cols=4, d_dim=1, p=2, seed=0):
    rng = np.random.default_rng(seed)
    return DyadArray(
        y=rng.standard_normal((n_rows, n_cols)),
        d=rng.standard_normal((n_rows, n_cols, d_dim)),
        x=rng.standard_normal((n_rows, n_cols, p)),
    )


class TestRowIndex:
    def test_two_by_two_corner(self):
        # cell (2, 1) of a 2-column grid lands at stacked row 3
        assert row_index(2, 1, 2) == 3

    def test_first_cell(self):
        assert row_index(1, 1, 5) == 1

    def test_general_formula(self):
        for n_cols in (1, 2, 7):
            for i in range(1, 4):
                for j in range(1, n_cols + 1):
                    assert row_index(i, j, n_cols) == (i - 1) * n_cols + j

    def test_zero_based_counterpart(self):
        # storage is 0-based: cell (i, j) sits at stacked row i * n_cols + j
        array = _grid_array(3, 4, seed=6)
        stacked = StackedDesign.from_array(array).y
        assert stacked[0] == array.y[0, 0]
        assert stacked[11] == array.y[2, 3]

    def test_out_of_range(self):
        with pytest.raises(DimensionError):
            row_index(1, 3, 2)
        with pytest.raises(DimensionError):
            row_index(0, 1, 2)


class TestStacking:
    def test_frozen_three_by_three_order(self):
        # y_ij = 10 i + j stacks to (11, 12, 13, 21, 22, 23, 31, 32, 33)
        grid = np.array([[10 * i + j for j in (1, 2, 3)] for i in (1, 2, 3)], dtype=float)
        array = DyadArray(y=grid, d=np.ones((3, 3, 1)), x=np.ones((3, 3, 1)))
        expected = np.array([11, 12, 13, 21, 22, 23, 31, 32, 33], dtype=float)
        assert np.array_equal(StackedDesign.from_array(array).y, expected)

    def test_round_trip_all_fields(self):
        array = _grid_array(4, 5, d_dim=2, p=3, seed=1)
        design = StackedDesign.from_array(array)
        assert np.array_equal(design.y.reshape(4, 5), array.y)
        assert np.array_equal(design.d.reshape(4, 5, 2), array.d)
        assert np.array_equal(design.x.reshape(4, 5, 3), array.x)
        # a complete array is stacked as views, never copied
        for stacked, grid in ((design.y, array.y), (design.d, array.d), (design.x, array.x)):
            assert np.shares_memory(stacked, grid)

    def test_incomplete_array_refuses_to_stack(self):
        observed = np.ones((3, 4), dtype=bool)
        observed[1, 2] = False
        array = DyadArray(
            y=np.zeros((3, 4)), d=np.zeros((3, 4, 1)), x=np.zeros((3, 4, 1)),
            observed=observed,
        )
        with pytest.raises(MissingDataError,
                           match="stack requires a fully observed array; 1 cells missing"):
            StackedDesign.from_array(array)

    def test_stacked_design(self):
        array = _grid_array(3, 3, seed=2)
        design = StackedDesign.from_array(array)
        assert design.n == 9
        assert design.y.shape == (9,)
        assert design.d.shape == (9, 1)
        assert design.x.shape == (9, 2)


class TestDyadArray:
    def test_two_d_treatment_promoted(self):
        array = DyadArray(y=np.zeros((2, 2)), d=np.ones((2, 2)), x=np.ones((2, 2)))
        assert array.d.shape == (2, 2, 1)
        assert array.x.shape == (2, 2, 1)
        assert array.d_dim == 1 and array.p == 1

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            DyadArray(y=np.zeros((2, 2)), d=np.ones((3, 2, 1)), x=np.ones((2, 2, 1)))

    def test_default_observed_is_complete(self):
        array = _grid_array()
        assert array.is_complete()
        assert array.n_cells == 12


_RECORDS = dict(i=[0, 1], j=[0, 0], l=[0, 0], y=[1.0, 2.0], d=[1.0, 2.0], x=[1.0, 1.0])
_GRID = dict(y=np.zeros((2, 2)), d=np.ones((2, 2, 1)), x=np.ones((2, 2, 1)))


@pytest.mark.parametrize("build, field, value", [
    (MultiIndexDataset, "y", np.ones((2, 1, 1))),
    (MultiIndexDataset, "d", np.ones((2, 1, 1))),
    (MultiIndexDataset, "x", np.ones((2, 1, 1))),
    (MultiIndexDataset, "y", 1.0),
    (MultiIndexDataset, "y", np.ones((2, 0))),
    (DyadArray, "d", np.ones((2, 2, 1, 1))),
    (DyadArray, "x", np.ones((2, 2, 1, 1))),
    (DyadArray, "d", 1.0),
])
def test_malformed_arrays_fail_at_construction(build, field, value):
    # these used to construct, or died later with IndexError or a reshape's
    # ValueError; every one is a DimensionError naming the shapes
    fields = _RECORDS if build is MultiIndexDataset else _GRID
    with pytest.raises(DimensionError):
        build(**{**fields, field: value})


class TestTwoWayPermutation:
    def test_identity_stacked_is_arange(self):
        perm = TwoWayPermutation(np.arange(3), np.arange(4))
        assert perm.is_identity()
        assert np.array_equal(perm.stacked(), np.arange(12))

    def test_stacked_source_map(self):
        # pi swaps the two rows, sigma reverses three columns
        perm = TwoWayPermutation(pi=[1, 0], sigma=[2, 1, 0])
        values = np.arange(6, dtype=float)
        moved = values[perm.stacked()]
        # cell (0, 0) reads from (pi(0), sigma(0)) = (1, 2), stacked row 5
        assert moved[0] == values[5]
        assert np.array_equal(np.sort(moved), values)

    def test_rejects_non_bijection(self):
        with pytest.raises(DimensionError):
            TwoWayPermutation(pi=[0, 0], sigma=[0, 1])
        with pytest.raises(DimensionError):
            TwoWayPermutation(pi=[0, 2], sigma=[0, 1])

    def test_compose_action_law(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = TwoWayPermutation(rng.permutation(4), rng.permutation(5))
            h = TwoWayPermutation(rng.permutation(4), rng.permutation(5))
            # reading through g's map and then h's is reading through g o h's
            assert np.array_equal(compose(g, h).stacked(), g.stacked()[h.stacked()])

    def test_apply_preserves_multiset(self):
        rng = np.random.default_rng(4)
        perm = TwoWayPermutation(rng.permutation(6), rng.permutation(3))
        values = rng.standard_normal(18)
        assert np.array_equal(np.sort(values[perm.stacked()]), np.sort(values))


class TestPermutationFamily:
    def test_member_zero_must_be_identity(self):
        swap = TwoWayPermutation(pi=[1, 0], sigma=[0, 1])
        with pytest.raises(DimensionError):
            PermutationFamily((swap,))

    def test_stacked_shape(self):
        identity = TwoWayPermutation(np.arange(2), np.arange(3))
        swap = TwoWayPermutation(pi=[1, 0], sigma=[1, 2, 0])
        family = PermutationFamily((identity, swap))
        stacked = family.stacked()
        assert stacked.shape == (2, 6)
        assert np.array_equal(stacked[0], np.arange(6))
        assert family.num_perms == 1

    def test_mixed_grids_rejected(self):
        with pytest.raises(DimensionError):
            PermutationFamily(
                (TwoWayPermutation(np.arange(2), np.arange(3)),
                 TwoWayPermutation(np.arange(3), np.arange(2)))
            )


@pytest.mark.parametrize("call, error, message", [
    (lambda: DyadArray(np.ones(4), np.ones((4, 1)), np.ones((4, 1))),
     DimensionError, "y must be 2-D, got shape (4,)"),
    (lambda: DyadArray(np.ones((2, 2)), np.ones((2, 2)), np.ones((2, 2, 1)),
                       observed=np.ones((2, 3))),
     DimensionError, "observed shape (2, 3) does not match grid (2, 2)"),
    (lambda: compose(TwoWayPermutation(np.arange(2), np.arange(3)),
                     TwoWayPermutation(np.arange(3), np.arange(3))),
     DimensionError, "cannot compose permutations on (2, 3) and (3, 3)"),
    (lambda: PermutationFamily(()),
     DimensionError, "a permutation family needs at least the identity"),
], ids=["y-1d", "observed-shape", "compose-shapes", "empty-family"])
def test_malformed_inputs_raise_typed_errors(call, error, message):
    raises_exactly(call, error, message)
