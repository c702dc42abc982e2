"""Tests for three-index designs: boxes, panels, layouts, irregular cells."""

import tracemalloc
from collections import Counter
from dataclasses import replace
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterperm import missing, multiway
from clusterperm.dyadic import two_way_test
from clusterperm.exceptions import (
    DimensionError,
    NoEligibleCellsError,
    UnbalancedError,
)
from clusterperm.model import DyadArray, StackedDesign
from clusterperm.missing import BicliqueCover, biclique_decompose
from clusterperm.multiway import (
    MultiIndexDataset,
    irregular_test,
    layout_test,
    panel_test,
    suggest_cell_threshold,
    threeway_test,
)
from clusterperm.permgroup import build_two_way_group
from clusterperm.rng import run_seed
from clusterperm.simulate import gen_dyadic_dataset, gen_irregular_dataset
from conftest import raises_exactly


def _box_data(m=6, n=6, ell=2, seed=0, beta=0.0):
    rng = np.random.default_rng(seed)
    d = rng.standard_normal((m, n, ell))
    x = np.stack([np.ones((m, n, ell)), rng.standard_normal((m, n, ell))], axis=-1)
    eps = rng.standard_normal((m, n, ell))
    y = x[..., 0] * 0.5 + x[..., 1] + beta * d + eps
    return MultiIndexDataset.from_box(y, d, x)


def _records_from_array(array: DyadArray) -> MultiIndexDataset:
    design = StackedDesign.from_array(array)
    m, n = array.n_rows, array.n_cols
    ii = np.repeat(np.arange(m), n)
    jj = np.tile(np.arange(n), m)
    return MultiIndexDataset(
        i=ii, j=jj, l=np.zeros(m * n, dtype=np.intp),
        y=design.y, d=design.d, x=design.x,
    )


class TestMultiIndexDataset:
    def test_from_box_round_trip(self):
        data = _box_data(3, 4, 2, seed=1)
        assert data.n_obs == 24
        assert data.n_rows == 3 and data.n_cols == 4 and data.n_slots == 2
        assert np.array_equal(data.cell_sizes(), np.full((3, 4), 2))

    def test_negative_index_rejected(self):
        with pytest.raises(DimensionError):
            MultiIndexDataset(
                i=[-1], j=[0], l=[0], y=[1.0], d=[1.0], x=[1.0]
            )

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            MultiIndexDataset(
                i=[0, 1], j=[0, 0], l=[0, 0], y=[1.0, 2.0],
                d=[[1.0], [2.0]], x=[[1.0]],
            )

    def test_empty_rejected(self):
        with pytest.raises(DimensionError):
            MultiIndexDataset(i=[], j=[], l=[], y=[], d=[], x=[])


class TestBalancedBoxValidation:
    def test_missing_record_unbalances(self):
        data = _box_data(3, 3, 2, seed=2)
        broken = MultiIndexDataset(
            i=data.i[:-1], j=data.j[:-1], l=data.l[:-1],
            y=data.y[:-1], d=data.d[:-1], x=data.x[:-1],
        )
        with pytest.raises(UnbalancedError):
            threeway_test(broken, num_perms=2)

    def test_duplicate_record_unbalances(self):
        data = _box_data(3, 3, 2, seed=3)
        dup = MultiIndexDataset(
            i=np.append(data.i[:-1], data.i[0]),
            j=np.append(data.j[:-1], data.j[0]),
            l=np.append(data.l[:-1], data.l[0]),
            y=np.append(data.y[:-1], data.y[0]),
            d=np.vstack([data.d[:-1], data.d[:1]]),
            x=np.vstack([data.x[:-1], data.x[:1]]),
        )
        with pytest.raises(UnbalancedError):
            panel_test(dup, num_perms=2)


def _runs(result):
    return result.runs if isinstance(result, multiway.IrregularResult) else (result,)


# Each layout's data and test; record order must not change any report.
_RECORD_ORDER_CASES = {
    "threeway": (lambda: _box_data(4, 4, 2, seed=4),
                 lambda data: threeway_test(data, num_perms=3, seed=9)),
    "panel": (lambda: _box_data(4, 4, 2, seed=4),
              lambda data: panel_test(data, num_perms=3, seed=9)),
    "layout": (lambda: _box_data(3, 3, 4, seed=4),
               lambda data: layout_test(data, num_perms=3, seed=9)),
    "irregular": (lambda: gen_irregular_dataset(8, 8, 3, "two-way-weak", seed=4),
                  lambda data: irregular_test(data, l0=3, num_perms=3, repeats=3, seed=9)),
}


@pytest.mark.parametrize("name", list(_RECORD_ORDER_CASES))
def test_record_order_does_not_matter(name):
    make, run = _RECORD_ORDER_CASES[name]
    data = make()
    shuffled_order = np.random.default_rng(4).permutation(data.n_obs)
    shuffled = MultiIndexDataset(
        i=data.i[shuffled_order], j=data.j[shuffled_order],
        l=data.l[shuffled_order], y=data.y[shuffled_order],
        d=data.d[shuffled_order], x=data.x[shuffled_order],
    )
    a, b = run(data), run(shuffled)
    assert a.pval == b.pval
    for run_a, run_b in zip(_runs(a), _runs(b), strict=True):
        assert run_a.pval == run_b.pval
        assert run_a.a.tobytes() == run_b.a.tobytes()
        assert run_a.b.tobytes() == run_b.b.tobytes()


class TestReductionIdentities:
    def test_threeway_with_single_slot_equals_dyadic(self):
        array, _ = gen_dyadic_dataset(8, seed=41)
        design = StackedDesign.from_array(array)
        family = build_two_way_group(8, 8, 3, seed=17)
        direct = two_way_test(design.x, design.d, design.y, family, seed=17)
        records = _records_from_array(array)
        boxed = threeway_test(records, num_perms=3, seed=17)
        assert boxed.pval == direct.pval
        assert np.array_equal(boxed.a, direct.a)
        assert np.array_equal(boxed.b, direct.b)

    def test_panel_with_single_period_equals_dyadic(self):
        array, _ = gen_dyadic_dataset(8, seed=42)
        design = StackedDesign.from_array(array)
        family = build_two_way_group(8, 8, 3, seed=23)
        direct = two_way_test(design.x, design.d, design.y, family, seed=23)
        records = _records_from_array(array)
        panel = panel_test(records, num_perms=3, seed=23)
        assert panel.pval == direct.pval
        assert np.array_equal(panel.a, direct.a)
        assert np.array_equal(panel.b, direct.b)

    def test_panel_and_threeway_share_row_col_families(self):
        # with one slot the third axis cannot move, so both tests coincide
        array, _ = gen_dyadic_dataset(6, seed=43)
        records = _records_from_array(array)
        assert threeway_test(records, num_perms=2, seed=5).pval == \
            panel_test(records, num_perms=2, seed=5).pval


class TestThreewayAndPanel:
    def test_default_num_perms_from_extents(self):
        data = _box_data(20, 20, 2, seed=6)
        report = panel_test(data, seed=6)
        assert report.num_perms == 19

    def test_panel_absorbs_period_shift(self):
        # adding a deterministic per-period constant cannot change the test
        data = _box_data(6, 6, 3, seed=7)
        shift = np.array([10.0, -4.0, 2.5])[data.l]
        shifted = MultiIndexDataset(
            i=data.i, j=data.j, l=data.l, y=data.y + shift, d=data.d, x=data.x
        )
        base = panel_test(data, num_perms=2, seed=8)
        moved = panel_test(shifted, num_perms=2, seed=8)
        # period shifts permute with (i, j) maps, so a and b change together
        assert moved.pval == base.pval

    def test_threeway_moves_third_axis(self):
        data = _box_data(4, 4, 4, seed=9)
        three = threeway_test(data, num_perms=3, seed=10)
        panel = panel_test(data, num_perms=3, seed=10)
        assert not np.allclose(three.b, panel.b)

    def test_short_third_axis_noted(self):
        # 8 x 8 x 2 at K = 3: the third axis moves in a three-way test but
        # holds only 2 indices; a panel keeps periods fixed, which never count
        data = _box_data(8, 8, 2, seed=30)
        assert threeway_test(data, num_perms=3, seed=30).notes == (
            "1 of 1 blocks have a side shorter than K+1=4; their indices stay fixed",)
        assert panel_test(data, num_perms=3, seed=30).notes == ()

    def test_full_box_has_no_note(self):
        data = _box_data(8, 8, 4, seed=31)
        assert threeway_test(data, num_perms=3, seed=31).notes == ()
        assert panel_test(data, num_perms=3, seed=31).notes == ()


class TestLayoutTest:
    def test_empty_cell_rejected(self):
        data = _box_data(3, 3, 1, seed=11)
        sparse = MultiIndexDataset(
            i=data.i[:-1], j=data.j[:-1], l=data.l[:-1],
            y=data.y[:-1], d=data.d[:-1], x=data.x[:-1],
        )
        with pytest.raises(UnbalancedError):
            layout_test(sparse, num_perms=2)

    def test_all_cells_frozen_reports_one(self):
        data = _box_data(4, 4, 2, seed=12)
        report = layout_test(data, num_perms=5, seed=12)
        assert report.pval == 1.0
        assert any("p-value is 1" in note for note in report.notes)

    def test_partial_freezing_notes(self):
        rng = np.random.default_rng(13)
        sizes = {(0, 0): 4, (0, 1): 2, (1, 0): 4, (1, 1): 4}
        i, j, l = [], [], []
        for (a, b), size in sizes.items():
            for t in range(size):
                i.append(a)
                j.append(b)
                l.append(t)
        n_obs = len(i)
        data = MultiIndexDataset(
            i=i, j=j, l=l, y=rng.standard_normal(n_obs),
            d=rng.standard_normal(n_obs),
            x=np.ones((n_obs, 1)),
        )
        report = layout_test(data, num_perms=3, seed=13)
        assert any("1 of 4 blocks" in note for note in report.notes)

    def test_within_cell_resolution(self):
        # cells of 8 records support K = 7 with full resolution
        data = _box_data(3, 3, 8, seed=14)
        report = layout_test(data, num_perms=7, seed=14)
        assert report.pval >= 1 / 8
        assert not report.notes

    def test_cell_effects_cancel_with_cell_dummies(self):
        # cell dummies are invariant under within-cell permutations, so the
        # projector annihilates any per-cell constant shift exactly
        raw = _box_data(3, 3, 6, seed=15)
        cell = raw.i * 3 + raw.j
        dummies = np.eye(9)[cell]
        data = MultiIndexDataset(
            i=raw.i, j=raw.j, l=raw.l, y=raw.y, d=raw.d, x=dummies
        )
        bump = cell * 100.0
        shifted = MultiIndexDataset(
            i=raw.i, j=raw.j, l=raw.l, y=raw.y + bump, d=raw.d, x=dummies
        )
        base = layout_test(data, num_perms=5, seed=16)
        moved = layout_test(shifted, num_perms=5, seed=16)
        assert np.allclose(base.a, moved.a, atol=1e-6)
        assert np.allclose(base.b, moved.b, atol=1e-6)
        assert base.pval == moved.pval


class TestSuggestCellThreshold:
    def test_maximizes_retained_observations(self):
        # L0 = 5 keeps 2 * 5 = 10 > 9 (L0 = 3) > 4 (L0 = 1)
        assert suggest_cell_threshold([5, 5, 3, 1]) == 5

    def test_tie_prefers_smaller(self):
        # L0 = 2 and L0 = 4 both keep 8 observations
        assert suggest_cell_threshold([4, 4, 2, 2]) == 2

    def test_explicit_candidates(self):
        assert suggest_cell_threshold([5, 5, 3, 1], candidates=[1, 3]) == 3

    def test_no_observations_raises(self):
        with pytest.raises(NoEligibleCellsError):
            suggest_cell_threshold([0, 0])


class TestIrregularTest:
    def test_pipeline_deterministic(self):
        data = gen_irregular_dataset(8, 8, 3, "two-way-weak", seed=21)
        a = irregular_test(data, l0=3, num_perms=3, repeats=4, seed=21)
        b = irregular_test(data, l0=3, num_perms=3, repeats=4, seed=21)
        assert a.pval == b.pval
        assert [r.pval for r in a.runs] == [r.pval for r in b.runs]

    def test_pvals_on_grid_and_median(self):
        data = gen_irregular_dataset(8, 8, 3, "row-heavy", seed=22)
        result = irregular_test(data, l0=3, num_perms=3, repeats=5, seed=22)
        run_pvals = [r.pval for r in result.runs]
        for p in run_pvals:
            assert p == pytest.approx(round(p * 4) / 4)
        assert result.pval == sorted(run_pvals)[(len(run_pvals) - 1) // 2]
        assert result.eligible_cells == 64

    def test_threshold_too_high_raises(self):
        data = gen_irregular_dataset(6, 6, 3, "two-way-weak", seed=23, extra_slots=2)
        with pytest.raises(NoEligibleCellsError):
            irregular_test(data, l0=50, num_perms=3, repeats=2, seed=23)

    @pytest.mark.parametrize("solver", ["exact", "greedy"])
    def test_empty_cover_raises(self, solver):
        # only the diagonal cells hold l0 = 3 records: no 2x2 block exists
        i, j = np.divmod(np.arange(36), 6)
        counts = np.where(i == j, 3, 1)
        i, j = np.repeat(i, counts), np.repeat(j, counts)
        l = np.concatenate([np.arange(c) for c in counts])
        y = np.random.default_rng(29).standard_normal(i.size)
        data = MultiIndexDataset(i=i, j=j, l=l, y=y, d=y[::-1], x=np.ones(i.size))
        with pytest.raises(NoEligibleCellsError, match="no fully observed block"):
            irregular_test(data, l0=3, num_perms=3, repeats=2, solver=solver)

    def test_trimming_subsets_each_cell(self):
        data = gen_irregular_dataset(6, 6, 4, "two-way-weak", seed=24)
        result = irregular_test(data, l0=4, num_perms=2, repeats=2, seed=24)
        # every retained cell contributes exactly l0 records
        for run in result.runs:
            assert run.a.shape == (2,)
        assert result.l0 == 4

    def test_result_serialization(self):
        data = gen_irregular_dataset(6, 6, 3, "two-way-weak", seed=25)
        result = irregular_test(data, l0=3, num_perms=3, repeats=3, seed=25)
        payload = result.to_dict()
        assert payload["repeats"] == 3
        assert len(payload["run_pvals"]) == 3

    def test_notes_of_the_runs_with_their_counts(self):
        # every repeat is vacuous: K+1 = 20 exceeds both sides of the one block
        data = gen_irregular_dataset(12, 12, 3, "two-way-weak", seed=3)
        result = irregular_test(data, l0=3, num_perms=19, repeats=2, seed=3)
        assert result.to_dict()["run_pvals"] == [1.0, 1.0]
        assert result.to_dict()["notes"] == [
            "1 of 1 blocks have a side shorter than K+1=20; their indices stay fixed "
            "(2 of 2 repeats)",
            "every group member acts as the identity (axes shorter than the group size "
            "stay fixed); the p-value is 1 by construction (2 of 2 repeats)",
        ]

    def test_notes_count_the_repeats_that_wrote_them(self):
        data = gen_irregular_dataset(6, 6, 3, "two-way-weak", seed=25)
        result = irregular_test(data, l0=3, num_perms=3, repeats=1, seed=25)
        runs = tuple(replace(result.runs[0], notes=notes)
                     for notes in [("b",), ("a", "b"), (), ("a",)])
        result = replace(result, runs=runs)
        assert result.to_dict()["notes"] == ["b (2 of 4 repeats)", "a (2 of 4 repeats)"]

    def test_exact_cover_built_once(self, monkeypatch):
        # one lockstep call decomposes every repeat; the exact cover ignores
        # the seed, so each round's exact solve serves every repeat
        data = gen_irregular_dataset(8, 8, 3, "row-heavy", seed=27)
        lockstep = _count_calls(monkeypatch, multiway, "biclique_covers")
        solves = _count_calls(monkeypatch, missing, "max_biclique_exact")
        kwargs = dict(l0=3, num_perms=3, seed=27)
        irregular_test(data, solver="exact", repeats=1, **kwargs)
        rounds = len(solves)
        once = irregular_test(data, solver="exact", repeats=4, **kwargs)
        assert len(lockstep) == 2 and len(solves) == 2 * rounds > 0
        irregular_test(data, solver="greedy", repeats=4, **kwargs)
        assert len(lockstep) == 3

        # Building the exact cover again for every repeat gives the same reports.
        monkeypatch.setattr(multiway, "biclique_covers", _one_seed_covers)
        solves.clear()
        every = irregular_test(data, solver="exact", repeats=4, **kwargs)
        assert len(solves) == 4 * rounds
        assert once.to_dict() == every.to_dict()
        for a, b in zip(once.runs, every.runs):
            assert np.array_equal(a.a, b.a) and np.array_equal(a.b, b.b)

    def test_lockstep_covers_change_nothing(self, monkeypatch):
        # the repeats are decomposed in lockstep, sharing their local
        # searches; one-seed decompositions, one per repeat, must give the
        # same bytes, after searching more start sets
        data = gen_irregular_dataset(12, 12, 3, "row-heavy", seed=30)
        kwargs = dict(l0=3, num_perms=3, repeats=6, seed=30, solver="greedy")
        searched = _count_calls(monkeypatch, missing, "_local_search")
        shared = irregular_test(data, **kwargs)
        shared_searches = len(searched)
        searched.clear()
        monkeypatch.setattr(multiway, "biclique_covers", _one_seed_covers)
        unshared = irregular_test(data, **kwargs)
        assert 0 < shared_searches < len(searched)
        assert shared.to_dict() == unshared.to_dict()
        for a, b in zip(shared.runs, unshared.runs):
            assert a.a.tobytes() == b.a.tobytes() and a.b.tobytes() == b.b.tobytes()
            assert a.pval == b.pval

    def test_one_scoring_pass_per_round_and_mask_left(self, monkeypatch):
        # the greedy solver scores each (round, mask left) state of the
        # repeats once, not once per repeat and round
        data = _records(np.random.default_rng(31).poisson(3, (24, 24)), seed=31)
        mask = (data.cell_sizes() >= 3).astype(np.int8)
        kwargs = dict(solver="greedy", min_block=2, restarts=16)
        passes = []
        real = missing._greedy_blocks

        def counting(work, *args):
            passes.append(work.tobytes())
            return real(work, *args)

        monkeypatch.setattr(missing, "_greedy_blocks", counting)
        states = []
        for r in range(12):
            passes.clear()
            biclique_decompose(mask, seed=run_seed(31, r), **kwargs)
            states.extend(enumerate(passes))
        passes.clear()
        irregular_test(data, l0=3, num_perms=3, repeats=12, seed=31, **kwargs)
        assert Counter(passes) == Counter(work for _, work in set(states))
        assert len(passes) == 12 and len(states) == 60

    def test_restarts_below_one_rejected(self):
        data = gen_irregular_dataset(6, 6, 3, "two-way-weak", seed=28)
        with pytest.raises(DimensionError, match="restarts"):
            irregular_test(data, l0=3, num_perms=3, repeats=2, restarts=0)

    def test_validation(self):
        data = gen_irregular_dataset(6, 6, 3, "two-way-weak", seed=26)
        with pytest.raises(DimensionError):
            irregular_test(data, l0=0, num_perms=3, repeats=2)
        with pytest.raises(DimensionError):
            irregular_test(data, l0=3, num_perms=3, repeats=0)


def _count_calls(monkeypatch, owner, name):
    """Patch ``owner.name`` to log each call; returns the log."""
    calls = []
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def _one_seed_covers(mask, seeds, **kwargs):
    """:func:`biclique_covers` as one :func:`biclique_decompose` call per seed."""
    return tuple(biclique_decompose(mask, seed=s, **kwargs) for s in seeds)


def _records(sizes, seed=0):
    """Records filling each cell (i, j) with sizes[i, j] slots, in shuffled
    order; y, d and x are standard normal draws."""
    i, j = np.divmod(np.repeat(np.arange(sizes.size), sizes.ravel()), sizes.shape[1])
    l = np.concatenate([np.arange(c) for c in sizes.ravel()])
    rng = np.random.default_rng(seed)
    shuffle = rng.permutation(i.size)
    y, d, x = rng.standard_normal((3, i.size))
    return MultiIndexDataset(i=i[shuffle], j=j[shuffle], l=l[shuffle], y=y, d=d, x=x)


def _trim(data, cover, l0, rng):
    return multiway._trim_cover(multiway._cells_in_order(data), data.n_cols, cover, l0, rng)


@st.composite
def _trim_cases(draw):
    """Records on a random cell-size grid, an L0 and a cover of eligible cells."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_rows, n_cols = rng.integers(1, 9, size=2)
    sizes = rng.integers(0, rng.integers(1, 9), size=(n_rows, n_cols))
    sizes[-1, -1] = max(sizes[-1, -1], 1)
    l0 = int(rng.integers(1, sizes.max() + 1))
    mask = (sizes >= l0).astype(np.int8)
    cover = biclique_decompose(mask, solver=draw(st.sampled_from(["exact", "greedy"])),
                               min_block=draw(st.integers(1, 2)), restarts=3,
                               seed=draw(st.integers(0, 2**31)))
    return _records(sizes, seed=draw(st.integers(0, 2**31))), l0, cover


class TestTrims:
    @settings(max_examples=150, deadline=None)
    @given(case=_trim_cases(), seed=st.integers(0, 2**31))
    def test_each_cell_keeps_l0_of_its_own_records_in_slot_order(self, case, seed):
        data, l0, cover = case
        trimmed = _trim(data, cover, l0, np.random.default_rng(seed))
        assert len(trimmed) == len(cover)
        for records, (rows, cols) in zip(trimmed, cover.blocks):
            assert records.shape == (len(rows), len(cols), l0)
            for a, b in np.ndindex(len(rows), len(cols)):
                kept = records[a, b]
                assert (data.i[kept] == rows[a]).all() and (data.j[kept] == cols[b]).all()
                assert np.unique(kept).size == l0
                assert (np.diff(data.l[kept]) > 0).all()

    @pytest.mark.parametrize("solver", ["exact", "greedy"])
    def test_outcome_moves_neither_cover_nor_trims(self, solver):
        # the cover and the trims read i, j and l alone
        data = gen_irregular_dataset(12, 12, 3, "row-heavy", seed=31, extra_slots=3)
        other = replace(data, y=np.random.default_rng(32).standard_normal(data.n_obs))
        seen = []
        real = multiway.block_test

        def recording(x, d, y, blocks, *args):
            seen.append([(key, axes, records.tolist()) for key, axes, records in blocks])
            return real(x, d, y, blocks, *args)

        with mock.patch.object(multiway, "block_test", recording):
            for dataset in (data, other):
                irregular_test(dataset, l0=3, num_perms=3, repeats=3, seed=33, solver=solver)
        assert len(seen) == 6 and seen[:3] == seen[3:]
        assert len({str(blocks) for blocks in seen[:3]}) > 1

    def test_subsets_are_uniform(self):
        # one cell of three records, L0 = 2: each of the three subsets
        # should come up about 1,000 times in 3,000 draws
        data = MultiIndexDataset(i=[0, 0, 0], j=[0, 0, 0], l=[2, 0, 1], y=[0.0] * 3,
                                 d=[0.0] * 3, x=[1.0] * 3)
        cover = BicliqueCover((((0,), (0,)),), 1, 1)
        rng = np.random.default_rng(34)
        counts = dict.fromkeys(combinations([1, 2, 0], 2), 0)
        for _ in range(3000):
            counts[tuple(_trim(data, cover, 2, rng)[0].ravel().tolist())] += 1
        assert sum(counts.values()) == 3000
        assert all(abs(c - 1000) < 150 for c in counts.values()), counts

    def test_memory_is_linear_in_the_records(self):
        # one cell of 10**5 records on a 30x30 grid: padding every cell to the
        # largest would take 900 x 10**5 slots, 720 MB of int64; the trims
        # take about 40 bytes per record
        sizes = np.full((30, 30), 2)
        sizes[4, 7] = 10**5
        data = _records(sizes, seed=35)
        cells = multiway._cells_in_order(data)
        cover = BicliqueCover(((tuple(range(30)), tuple(range(30))),), 30, 30)
        tracemalloc.start()
        try:
            trimmed = multiway._trim_cover(cells, 30, cover, 2, np.random.default_rng(36))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert trimmed[0].shape == (30, 30, 2)
        assert peak < 128 * data.n_obs


_Z = np.zeros(4, dtype=int)


@pytest.mark.parametrize("call, error, message", [
    (lambda: MultiIndexDataset(np.zeros(3, dtype=int), _Z, _Z, np.ones(4), np.ones(4),
                               np.ones(4)),
     DimensionError, "column i must have shape (4,)"),
    (lambda: MultiIndexDataset.from_box(np.ones((2, 2)), np.ones((2, 2)), np.ones((2, 2))),
     DimensionError, "box outcome must be 3-D, got shape (2, 2)"),
    (lambda: MultiIndexDataset.from_box(np.ones((2, 2, 2)), np.ones((2, 2, 3)),
                                        np.ones((2, 2, 2))),
     DimensionError, "box grids disagree on shape"),
    (lambda: suggest_cell_threshold([[1, 2]], candidates=[0, -1]),
     NoEligibleCellsError, "no positive threshold candidate"),
], ids=["index-shape", "box-2d", "box-shapes", "no-positive-candidate"])
def test_malformed_inputs_raise_typed_errors(call, error, message):
    raises_exactly(call, error, message)
