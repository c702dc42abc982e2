"""Tests for biclique solvers, mask decomposition, and the blockwise test."""

import itertools
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterperm import missing
from clusterperm.dyadic import two_way_test
from clusterperm.exceptions import (
    CapExceededError,
    DimensionError,
    EmptyMaskError,
    MissingDataError,
)
from clusterperm.missing import (
    MAX_EXACT_CAP,
    BicliqueCover,
    as_mask,
    biclique_covers,
    biclique_decompose,
    blockwise_test,
    max_biclique_exact,
    max_biclique_greedy,
    max_square_side,
)
from clusterperm.model import StackedDesign
from clusterperm.permgroup import build_two_way_group
from clusterperm.rng import mask_seed
from clusterperm.simulate import gen_dyadic_dataset, gen_mcar_mask
from conftest import raises_exactly


def _brute_force_biclique(mask, min_side=1):
    """Reference solver: enumerate every row subset with itertools."""
    mask = np.asarray(mask).astype(bool)
    n_rows = mask.shape[0]
    best = None
    for size in range(1, n_rows + 1):
        for rows in itertools.combinations(range(n_rows), size):
            common = np.logical_and.reduce(mask[list(rows)], axis=0)
            cols = tuple(int(c) for c in np.flatnonzero(common))
            if len(rows) < min_side or len(cols) < min_side:
                continue
            key = (-len(rows) * len(cols), -len(rows), rows)
            if best is None or key < best[0]:
                best = (key, (tuple(rows), cols))
    return None if best is None else best[1]


def _brute_force_square_side(mask):
    mask = np.asarray(mask).astype(bool)
    best = 0
    for size in range(1, mask.shape[0] + 1):
        for rows in itertools.combinations(range(mask.shape[0]), size):
            common = int(np.logical_and.reduce(mask[list(rows)], axis=0).sum())
            best = max(best, min(size, common))
    return best


def _random_mask(n_rows, n_cols, rho, seed):
    rng = np.random.default_rng(seed)
    return (rng.random((n_rows, n_cols)) < rho).astype(np.int8)


class _RecordingGenerator:
    """A Generator stand-in that keeps a copy of every row it draws."""

    def __init__(self, generator):
        self._generator = generator
        self.rows = []

    def random(self, size):
        out = self._generator.random(size)
        self.rows.extend(out.copy())
        return out


# The row-by-row greedy search as it was before the search was vectorized,
# kept verbatim (with its two helpers) as the reference the current solver
# must match move for move.
def _common_cols(mask_bool: np.ndarray, rows) -> np.ndarray:
    return np.logical_and.reduce(mask_bool[list(rows)], axis=0)


def _candidate_key(score: int, rows: tuple, cols: tuple):
    return (-score, -len(rows), rows, cols)


def _reference_greedy(mask, restarts: int = 16, seed: int = 0, min_side: int = 1, rng=None):
    # The reference searches every restart afresh.  Its restarts draw their
    # noise rows one after another from one Generator: ``rng`` when given,
    # else numpy's own default_rng(mask_seed(seed, 7)).
    mask = as_mask(mask)
    mask_bool = mask.astype(bool)
    degrees = mask_bool.sum(axis=1)
    active = np.flatnonzero(degrees > 0)
    if active.size == 0:
        raise EmptyMaskError("mask has no observed cells")
    best = None
    if rng is None:
        rng = np.random.default_rng(mask_seed(seed, 7))

    for t in range(restarts):
        rng_noise = rng.random(active.size)
        order = active[np.lexsort((rng_noise, -degrees[active]))]
        common = np.ones(mask_bool.shape[1], dtype=bool)
        chosen: list[int] = []
        start = None
        for r in order:
            new_common = common & mask_bool[r]
            count = int(new_common.sum())
            if count == 0:
                break
            chosen.append(int(r))
            common = new_common
            if len(chosen) >= min_side and count >= min_side:
                score = len(chosen) * count
                if start is None or score > start[0]:
                    start = (score, set(chosen), common.copy())
        if start is None:
            continue
        _, rows_set, _ = start
        rows_set = set(rows_set)
        guard = 0
        while guard < 200:
            guard += 1
            common = _common_cols(mask_bool, rows_set)
            score = len(rows_set) * int(common.sum())
            move = None
            for r in active:
                if r in rows_set:
                    continue
                new_cols = int((common & mask_bool[r]).sum())
                if new_cols >= min_side and (len(rows_set) + 1) * new_cols > score:
                    move = ("add", int(r), None)
                    break
            if move is None and len(rows_set) > min_side:
                for r in sorted(rows_set):
                    rest = rows_set - {r}
                    new_cols = int(_common_cols(mask_bool, rest).sum())
                    if new_cols >= min_side and (len(rows_set) - 1) * new_cols > score:
                        move = ("remove", r, None)
                        break
            if move is None:
                for r_out in sorted(rows_set):
                    base = _common_cols(mask_bool, rows_set - {r_out})
                    for r_in in active:
                        if r_in in rows_set:
                            continue
                        new_cols = int((base & mask_bool[r_in]).sum())
                        if new_cols >= min_side and len(rows_set) * new_cols > score:
                            move = ("swap", r_out, int(r_in))
                            break
                    if move is not None:
                        break
            if move is None:
                break
            kind, first, second = move
            if kind == "add":
                rows_set.add(first)
            elif kind == "remove":
                rows_set.discard(first)
            else:
                rows_set.discard(first)
                rows_set.add(second)
        common = _common_cols(mask_bool, rows_set)
        rows = tuple(sorted(int(r) for r in rows_set))
        cols = tuple(int(c) for c in np.flatnonzero(common))
        if len(rows) < min_side or len(cols) < min_side:
            continue
        key = _candidate_key(len(rows) * len(cols), rows, cols)
        if best is None or key < best[0]:
            best = (key, (rows, cols))
    return None if best is None else best[1]


def _reference_decompose(mask, min_block=2, restarts=16, seed=0):
    """The blocks of a one-seed greedy decomposition, round by round, each
    round a :func:`_reference_greedy` call on the mask left, all drawing from
    numpy's own default_rng(mask_seed(seed, 9))."""
    work = as_mask(mask).astype(bool)
    rng = np.random.default_rng(mask_seed(seed, 9))
    blocks = []
    while ((work.sum(axis=1) >= min_block).sum() >= min_block
           and (work.sum(axis=0) >= min_block).sum() >= min_block):
        found = _reference_greedy(work, restarts, min_side=min_block, rng=rng)
        if found is None:
            break
        blocks.append(found)
        work[list(found[0]), :] = False
        work[:, list(found[1])] = False
    return tuple(blocks)


@st.composite
def _masks(draw, max_side=40):
    """A 0/1 mask up to max_side on each side, of any density."""
    n_rows = draw(st.integers(1, max_side))
    n_cols = draw(st.integers(1, max_side))
    density = draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return (rng.random((n_rows, n_cols)) < density).astype(np.int8)


class TestAsMask:
    def test_bool_and_int_accepted(self):
        assert as_mask(np.eye(3, dtype=bool)).dtype == np.int8
        assert np.array_equal(as_mask([[0, 1], [1, 0]]), np.array([[0, 1], [1, 0]]))

    def test_rejects_other_values(self):
        with pytest.raises(DimensionError):
            as_mask([[0, 2], [1, 0]])
        with pytest.raises(DimensionError):
            as_mask([0, 1, 1])


class TestMaxBicliqueExact:
    def test_frozen_identity_mask(self):
        # three 1x1 candidates tie; lexicographically smallest row set wins
        assert max_biclique_exact(np.eye(3, dtype=np.int8)) == ((0,), (0,))

    def test_full_mask(self):
        assert max_biclique_exact(np.ones((3, 4), dtype=np.int8)) == (
            (0, 1, 2),
            (0, 1, 2, 3),
        )

    def test_frozen_structured_mask(self):
        mask = np.array([
            [1, 1, 0, 1],
            [1, 1, 0, 1],
            [0, 1, 1, 0],
            [1, 1, 0, 1],
        ], dtype=np.int8)
        # rows {0, 1, 3} share columns {0, 1, 3}: 9 cells, the unique optimum
        assert max_biclique_exact(mask) == ((0, 1, 3), (0, 1, 3))

    def test_min_side_filters(self):
        assert max_biclique_exact(np.eye(3, dtype=np.int8), min_side=2) is None

    def test_empty_mask_raises(self):
        with pytest.raises(EmptyMaskError):
            max_biclique_exact(np.zeros((3, 3), dtype=np.int8))

    def test_cap_enforced(self):
        with pytest.raises(CapExceededError):
            max_biclique_exact(np.ones((17, 3), dtype=np.int8))
        max_biclique_exact(np.ones((17, 3), dtype=np.int8), cap=17)

    def test_cap_above_maximum_rejected(self):
        # uint32 column bitsets used to overflow here; 2**cap tables grew unbounded
        assert 17 <= MAX_EXACT_CAP <= 32
        wide = np.ones((3, 40), dtype=np.int8)
        with pytest.raises(CapExceededError, match="maximum"):
            max_biclique_exact(wide, cap=40)
        with pytest.raises(CapExceededError, match="maximum"):
            max_square_side(wide, cap=MAX_EXACT_CAP + 1)
        for solver in ("auto", "greedy"):
            with pytest.raises(CapExceededError, match="maximum"):
                biclique_decompose(wide, solver=solver, cap=MAX_EXACT_CAP + 1)
        rows, cols = max_biclique_exact(np.ones((3, 20), dtype=np.int8), cap=MAX_EXACT_CAP)
        assert rows == (0, 1, 2) and len(cols) == 20

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n_rows = int(rng.integers(2, 8))
        n_cols = int(rng.integers(2, 8))
        rho = float(rng.uniform(0.2, 0.9))
        mask = _random_mask(n_rows, n_cols, rho, seed + 1000)
        if not mask.any():
            mask[0, 0] = 1
        min_side = int(rng.integers(1, 3))
        assert max_biclique_exact(mask, min_side=min_side) == _brute_force_biclique(
            mask, min_side=min_side
        )


class TestMaxSquareSide:
    def test_frozen_cases(self):
        assert max_square_side(np.eye(3, dtype=np.int8)) == 1
        assert max_square_side(np.ones((3, 5), dtype=np.int8)) == 3
        assert max_square_side(np.zeros((2, 2), dtype=np.int8)) == 0

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_brute_force(self, seed):
        mask = _random_mask(6, 6, 0.6, seed)
        assert max_square_side(mask) == _brute_force_square_side(mask)


class TestMaxBicliqueGreedy:
    def test_returns_valid_biclique(self):
        for seed in range(10):
            mask = _random_mask(12, 12, 0.5, seed)
            if not mask.any():
                continue
            found = max_biclique_greedy(mask, seed=seed)
            assert found is not None
            rows, cols = found
            assert np.asarray(mask, dtype=bool)[np.ix_(rows, cols)].all()

    def test_deterministic_given_seed(self):
        mask = _random_mask(14, 14, 0.5, 3)
        assert max_biclique_greedy(mask, seed=11) == max_biclique_greedy(mask, seed=11)

    def test_finds_planted_block(self):
        mask = np.zeros((14, 14), dtype=np.int8)
        mask[2:8, 3:9] = 1  # a clean 6x6 block dominates scattered noise
        mask[10, 10] = 1
        mask[11, 1] = 1
        assert max_biclique_greedy(mask, seed=0) == (
            tuple(range(2, 8)),
            tuple(range(3, 9)),
        )

    def test_quality_against_exact(self):
        # heuristic recovers >= 60% of the optimal cell count nearly always
        good = 0
        total = 100
        for seed in range(total):
            mask = _random_mask(12, 12, 0.5, 5000 + seed)
            exact_rows, exact_cols = max_biclique_exact(mask)
            target = len(exact_rows) * len(exact_cols)
            rows, cols = max_biclique_greedy(mask, seed=seed)
            if len(rows) * len(cols) >= 0.6 * target:
                good += 1
        assert good >= 0.9 * total

    def test_min_side_respected(self):
        mask = np.eye(5, dtype=np.int8)
        assert max_biclique_greedy(mask, min_side=2, seed=0) is None

    def test_empty_mask_raises(self):
        with pytest.raises(EmptyMaskError):
            max_biclique_greedy(np.zeros((4, 4), dtype=np.int8))

    @pytest.mark.parametrize("restarts", [0, -1])
    def test_restarts_below_one_rejected(self, restarts):
        with pytest.raises(DimensionError, match="restarts"):
            max_biclique_greedy(np.ones((3, 3), dtype=np.int8), restarts=restarts)

    @settings(max_examples=150, deadline=None)
    @given(
        mask=_masks(),
        min_side=st.integers(1, 3),
        restarts=st.integers(1, 6),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_matches_reference_search(self, mask, min_side, restarts, seed):
        kwargs = dict(restarts=restarts, seed=seed, min_side=min_side)
        if not mask.any():
            for solver in (max_biclique_greedy, _reference_greedy):
                with pytest.raises(EmptyMaskError):
                    solver(mask, **kwargs)
            return
        assert max_biclique_greedy(mask, **kwargs) == _reference_greedy(mask, **kwargs)

    def test_matches_reference_on_mid_density_masks(self):
        # mid-density masks of 25-40 per side make long local searches with
        # several improving swaps per step, where scan order decides the move
        for i in range(200):
            rng = np.random.default_rng(9000 + i)
            n_rows, n_cols = (int(v) for v in rng.integers(25, 41, size=2))
            mask = _random_mask(n_rows, n_cols, rng.uniform(0.35, 0.65), 9000 + i)
            kwargs = dict(restarts=4, seed=i, min_side=int(rng.integers(1, 4)))
            assert max_biclique_greedy(mask, **kwargs) == _reference_greedy(mask, **kwargs)

    @pytest.mark.parametrize("restarts", [1, 9, 40])
    def test_direct_call_matches_reference(self, restarts):
        # called without rng, the solver draws restart t's noise row, in every
        # chunk, as row t of generator(mask_seed(seed, 7)); a Generator passed
        # in gives its next rows, and the call advances it by exactly those
        mask = _random_mask(24, 20, 0.55, 17)
        kwargs = dict(restarts=restarts, seed=2**40 + 5, min_side=2)
        found = max_biclique_greedy(mask, **kwargs)
        assert found == _reference_greedy(mask, **kwargs)
        active = int(mask.any(axis=1).sum())
        recorder = _RecordingGenerator(np.random.default_rng(mask_seed(kwargs["seed"], 7)))
        assert max_biclique_greedy(mask, rng=recorder, **{**kwargs, "seed": 99}) == found
        expected = np.random.default_rng(mask_seed(kwargs["seed"], 7))
        assert np.array_equal(recorder.rows, expected.random((restarts, active)))
        assert np.array_equal(recorder.random(3), expected.random(3))

    def test_repeated_start_sets_match_reference(self):
        # a planted block makes every restart start from the same prefix
        mask = np.zeros((10, 10), dtype=np.int8)
        mask[1:7, 2:8] = 1
        mask[8, 0] = 1
        assert max_biclique_greedy(mask, restarts=12, seed=3) == _reference_greedy(
            mask, restarts=12, seed=3
        )


    def test_one_search_per_start_set_and_mask(self, monkeypatch):
        # the repeats of one lockstep call share every local search: a start
        # set on a mask left is searched once, where separate one-seed calls
        # search it once each, and the covers are the same
        mask = _random_mask(20, 20, 0.5, 3)
        seeds = list(range(8))
        calls = []
        real = missing._local_search

        def counting(A, start, min_side):
            calls.append((A.tobytes(), start.tobytes()))
            return real(A, start, min_side)

        monkeypatch.setattr(missing, "_local_search", counting)
        kwargs = dict(solver="greedy", min_block=2, restarts=8)
        covers = biclique_covers(mask, seeds, **kwargs)
        shared = list(calls)
        assert len(shared) == len(set(shared)) > 0
        calls.clear()
        assert covers == tuple(biclique_decompose(mask, seed=s, **kwargs) for s in seeds)
        assert len(calls) > len(shared) and set(calls) == set(shared)

    def test_restart_chunks_bound_memory(self):
        # restarts are scored in chunks of at most max(8 cells, 2^20) bytes:
        # once the chunks are full the peak grows with restarts only by the
        # search cache, under 1 KB per start set here, and it stays near two
        # float64 copies of the mask (the rows held for the local search, and
        # the rest) plus one chunk
        n = 200
        mask = _random_mask(n, n, 0.7, 5)
        max_biclique_greedy(mask, restarts=1)
        peaks = {}
        for restarts in (64, 256):
            tracemalloc.start()
            try:
                max_biclique_greedy(mask, restarts=restarts, seed=0)
                _, peaks[restarts] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        float_copy = n * n * 8
        assert peaks[256] <= peaks[64] + float_copy // 4 + (256 - 64) * 1024
        assert peaks[256] <= 2 * float_copy + max(float_copy, 1 << 20) + float_copy // 2

    def test_lockstep_chunks_bound_memory(self):
        # on a large mask, where 8 cells exceed 2^20 bytes, the restarts of
        # every repeat are scored eight at a time: the peak must not grow
        # with the repeats, and stays within four float64 copies of the mask
        # (the rows held for the local search, one chunk's bool prefixes and
        # the local search's own products)
        rng = np.random.default_rng(8)
        mask = (rng.random((360, 400)) < 0.02).astype(np.int8)
        mask[20:320, 50:350] = 1
        float_copy = mask.size * 8
        assert float_copy > 1 << 20
        biclique_covers(mask, [0], solver="greedy", restarts=16)
        peaks = {}
        for repeats in (1, 32):
            tracemalloc.start()
            try:
                biclique_covers(mask, list(range(repeats)), solver="greedy", restarts=16)
                _, peaks[repeats] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peaks[32] <= peaks[1] + float_copy // 8
        assert peaks[32] <= 4 * float_copy


class TestBicliqueCover:
    def test_normalizes_and_reports(self):
        cover = BicliqueCover(blocks=(((2, 0), (1, 0)), ((1,), (3, 2))), n_rows=3, n_cols=4)
        assert cover.blocks[0] == ((0, 2), (0, 1))
        assert cover.cell_count == 4 + 2
        assert cover.sides() == [(2, 2), (1, 2)]
        payload = cover.to_dict()
        assert payload["blocks"][0] == {"rows": [1, 3], "cols": [1, 2]}

    def test_overlap_rejected(self):
        with pytest.raises(DimensionError):
            BicliqueCover(blocks=(((0, 1), (0,)), ((1, 2), (1,))), n_rows=3, n_cols=2)
        with pytest.raises(DimensionError):
            BicliqueCover(blocks=(((0,), (0, 1)), ((1,), (1,))), n_rows=2, n_cols=2)

    def test_out_of_range_rejected(self):
        with pytest.raises(DimensionError):
            BicliqueCover(blocks=(((0, 3), (0,)),), n_rows=3, n_cols=2)

    def test_check_observed(self):
        mask = np.array([[1, 1], [1, 0]], dtype=np.int8)
        good = BicliqueCover(blocks=(((0,), (0, 1)),), n_rows=2, n_cols=2)
        good.check_observed(mask)
        bad = BicliqueCover(blocks=(((0, 1), (0, 1)),), n_rows=2, n_cols=2)
        with pytest.raises(MissingDataError):
            bad.check_observed(mask)


class TestBicliqueDecompose:
    @pytest.mark.parametrize("seed", range(25))
    def test_cover_invariants(self, seed):
        rng = np.random.default_rng(seed)
        n_rows = int(rng.integers(4, 16))
        n_cols = int(rng.integers(4, 16))
        rho = float(rng.uniform(0.3, 0.95))
        mask = _random_mask(n_rows, n_cols, rho, seed + 2000)
        if not mask.any():
            mask[0, 0] = 1
        cover = biclique_decompose(mask, min_block=2, seed=seed)
        cover.check_observed(mask)  # blocks fully observed, disjointness built in
        for nr, nc in cover.sides():
            assert nr >= 2 and nc >= 2

    def test_nothing_eligible_left_behind(self):
        mask = _random_mask(10, 10, 0.55, 77)
        cover = biclique_decompose(mask, min_block=2, seed=0)
        work = mask.astype(bool).copy()
        for rows, cols in cover.blocks:
            work[list(rows), :] = False
            work[:, list(cols)] = False
        if work.any():
            assert max_biclique_exact(work.astype(np.int8), min_side=2) is None

    def test_full_mask_single_block(self):
        cover = biclique_decompose(np.ones((5, 7), dtype=np.int8), seed=0)
        assert cover.blocks == ((tuple(range(5)), tuple(range(7))),)

    def test_solver_routes_agree_on_planted_blocks(self):
        mask = np.zeros((12, 12), dtype=np.int8)
        mask[:5, :5] = 1
        mask[6:12, 6:11] = 1
        exact = biclique_decompose(mask, solver="exact", seed=0)
        greedy = biclique_decompose(mask, solver="greedy", seed=0)
        assert set(exact.blocks) == set(greedy.blocks)

    def test_greedy_route_deterministic(self):
        mask = _random_mask(20, 20, 0.6, 9)
        a = biclique_decompose(mask, solver="greedy", seed=4)
        b = biclique_decompose(mask, solver="greedy", seed=4)
        assert a.blocks == b.blocks

    def test_empty_mask_raises(self):
        with pytest.raises(EmptyMaskError):
            biclique_decompose(np.zeros((4, 4), dtype=np.int8))

    def test_unknown_solver(self):
        with pytest.raises(ValueError):
            biclique_decompose(np.ones((3, 3), dtype=np.int8), solver="ilp")

    def test_sparse_mask_can_yield_empty_cover(self):
        cover = biclique_decompose(np.eye(4, dtype=np.int8), min_block=2, seed=0)
        assert len(cover) == 0

    @pytest.mark.parametrize("solver", ["exact", "greedy"])
    def test_no_solver_call_when_no_block_can_fit(self, solver):
        # a planted 3x3 block, then a mask left with rows of two cells but
        # only one column of two cells: no 2x2 block fits after the first
        mask = np.zeros((12, 12), dtype=np.int8)
        mask[:3, :3] = 1
        mask[3:9, 3] = 1
        mask[np.arange(3, 9), np.arange(4, 10)] = 1
        name = {"exact": "max_biclique_exact", "greedy": "_greedy_blocks"}[solver]
        real = getattr(missing, name)
        with mock.patch.object(missing, name, side_effect=real) as spy:
            cover = biclique_decompose(mask, solver=solver, min_block=2, seed=0)
        assert spy.call_count == 1
        assert cover.blocks == (((0, 1, 2), (0, 1, 2)),)
        rest = mask.copy()
        rest[:3, :] = 0
        rest[:, :3] = 0
        solve = getattr(missing, f"max_biclique_{solver}")
        assert solve(rest, min_side=2) is None  # the call the loop skipped
        with mock.patch.object(missing, name, side_effect=real) as spy:
            assert len(biclique_decompose(np.eye(12, dtype=np.int8), solver=solver)) == 0
        assert spy.call_count == 0

    @pytest.mark.parametrize("solver", ["auto", "exact", "greedy"])
    def test_restarts_below_one_rejected(self, solver):
        # restarts=0 used to return an empty greedy cover
        with pytest.raises(DimensionError, match="restarts"):
            biclique_decompose(np.ones((20, 20), dtype=np.int8), solver=solver,
                               cap=20, restarts=0)

    @settings(max_examples=40, deadline=None)
    @given(
        mask=_masks(),
        min_block=st.integers(1, 3),
        restarts=st.integers(1, 6),
        seed=st.integers(0, 2**31 - 1),
    )
    def test_greedy_cover_matches_reference_search(self, mask, min_block, restarts, seed):
        if not mask.any():
            mask[0, 0] = 1
        cover = biclique_decompose(mask, solver="greedy", min_block=min_block,
                                   restarts=restarts, seed=seed)
        assert cover.blocks == _reference_decompose(mask, min_block, restarts, seed)


    @pytest.mark.parametrize("seed", [0, 2**32 + 1])
    def test_cover_past_one_batch_matches_reference(self, seed):
        # fifteen disjoint blocks of two rows, 2 to 16 columns wide, in
        # shuffled order: one greedy round each, and every round draws from
        # the one Generator of the call, where the round before it stopped
        rng = np.random.default_rng(23)
        mask = np.zeros((30, 135), dtype=np.int8)
        for q, col in enumerate(np.cumsum(np.arange(2, 17)) - np.arange(2, 17)):
            mask[2 * q:2 * q + 2, col:col + q + 2] = 1
        mask = mask[rng.permutation(30)][:, rng.permutation(135)]
        streams, draws = [], []
        real = missing._greedy_blocks

        def counting(work, group, restarts, *args):
            streams.extend(group)
            draws.append(len(group) * restarts * int(work.any(axis=1).sum()))
            return real(work, group, restarts, *args)

        kwargs = dict(solver="greedy", min_block=2, restarts=5, seed=seed)
        with mock.patch.object(missing, "_greedy_blocks", counting):
            cover = biclique_decompose(mask, **kwargs)
        assert len(streams) == len(draws) >= 15 and len(cover) >= 15
        assert all(stream is streams[0] for stream in streams)
        expected = np.random.default_rng(mask_seed(seed, 9))
        expected.random(sum(draws))
        assert streams[0].random(4).tolist() == expected.random(4).tolist()
        assert cover.blocks == _reference_decompose(mask, 2, 5, seed)

    def test_one_seed_one_cover(self):
        # a cover depends on its seed alone: not on the other seeds decomposed
        # with it, their order, or the searches they share
        mask = _random_mask(30, 30, 0.6, 12)
        kwargs = dict(solver="greedy", min_block=2, restarts=6)
        first, other, again = biclique_covers(mask, [4, 5, 4], **kwargs)
        assert again == first == biclique_decompose(mask, seed=4, **kwargs)
        assert other != first
        assert biclique_covers(mask, [5, 4], **kwargs) == (other, first)
        assert biclique_covers(mask, [], **kwargs) == ()

    @settings(max_examples=60, deadline=None)
    @given(
        mask=_masks(),
        min_block=st.sampled_from([1, 2, 3]),
        restarts=st.sampled_from([1, 5, 8, 13, 16]),
        seed=st.integers(0, 2**31 - 1),
        repeats=st.integers(1, 12),
    )
    def test_lockstep_covers_match_one_seed_calls(self, mask, min_block, restarts, seed,
                                                  repeats):
        # seeds whose masks left part ways mid-decomposition leave their group
        # and go on alone; each cover is still the one its seed gets alone
        if not mask.any():
            mask[0, 0] = 1
        seeds = [seed + 7 * r for r in range(repeats)]
        kwargs = dict(solver="greedy", min_block=min_block, restarts=restarts)
        covers = biclique_covers(mask, seeds, **kwargs)
        assert covers == tuple(biclique_decompose(mask, seed=s, **kwargs) for s in seeds)

    def test_lockstep_groups_part_ways(self, monkeypatch):
        # the hypothesis draws above include masks where the seeds' covers
        # differ; on this one they differ after a shared first round
        mask = _random_mask(30, 30, 0.6, 12)
        groups = []
        real = missing._greedy_blocks

        def counting(work, group, *args):
            groups.append(len(group))
            return real(work, group, *args)

        monkeypatch.setattr(missing, "_greedy_blocks", counting)
        covers = biclique_covers(mask, range(10), solver="greedy", min_block=2, restarts=6)
        # 11 passes where one-seed calls make one per block, 58: three shared rounds,
        # then groups of 5, then of 2 and 3
        assert groups == [10, 10, 10, 5, 5, 5, 2, 3, 5, 2, 3]
        assert len(set(covers)) == 3
        assert covers == tuple(biclique_decompose(mask, seed=s, solver="greedy", min_block=2,
                                                  restarts=6) for s in range(10))


class TestBlockwiseTest:
    def test_single_full_block_reduces_to_two_way_test(self):
        array, _ = gen_dyadic_dataset(8, seed=31)
        design = StackedDesign.from_array(array)
        family = build_two_way_group(8, 8, 3, seed=31)
        direct = two_way_test(design.x, design.d, design.y, family, seed=31)
        cover = BicliqueCover(
            blocks=((tuple(range(8)), tuple(range(8))),), n_rows=8, n_cols=8
        )
        mask = np.ones((8, 8), dtype=np.int8)
        blockwise = blockwise_test(array, mask, cover, num_perms=3, seed=31)
        assert blockwise.pval == direct.pval
        assert np.array_equal(blockwise.a, direct.a)
        assert np.array_equal(blockwise.b, direct.b)

    def test_short_block_warns_and_notes(self):
        array, _ = gen_dyadic_dataset(6, seed=32)
        mask = np.ones((6, 6), dtype=np.int8)
        cover = BicliqueCover(
            blocks=(((0, 1), (0, 1)), ((2, 3, 4, 5), (2, 3, 4, 5))),
            n_rows=6, n_cols=6,
        )
        # the note is the report's alone: no Python warning repeats it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = blockwise_test(array, mask, cover, num_perms=3, seed=32)
        assert report.notes == ("1 of 2 blocks have a side shorter than K+1=4; "
                                "their indices stay fixed",)

    def test_unobserved_block_rejected(self):
        array, _ = gen_dyadic_dataset(4, seed=33)
        mask = np.ones((4, 4), dtype=np.int8)
        mask[1, 1] = 0
        cover = BicliqueCover(
            blocks=((tuple(range(4)), tuple(range(4))),), n_rows=4, n_cols=4
        )
        with pytest.raises(MissingDataError):
            blockwise_test(array, mask, cover, num_perms=3, seed=33)

    def test_mask_shape_checked(self):
        array, _ = gen_dyadic_dataset(4, seed=34)
        cover = BicliqueCover(blocks=(((0, 1), (0, 1)),), n_rows=4, n_cols=4)
        with pytest.raises(DimensionError):
            blockwise_test(array, np.ones((3, 4), dtype=np.int8), cover, num_perms=3)

    def test_incomplete_grid_pipeline(self):
        # decompose an MCAR mask and run a small non-vacuous blockwise test
        array, _ = gen_dyadic_dataset(12, seed=35)
        mask = gen_mcar_mask(12, 0.8, seed=35)
        cover = biclique_decompose(mask, min_block=2, seed=35)
        assert len(cover) >= 1
        report = blockwise_test(array, mask, cover, num_perms=3, seed=35)
        floor = 1 / 4
        assert floor <= report.pval <= 1.0
        steps = round(report.pval * 4)
        assert report.pval == pytest.approx(steps / 4)


@pytest.mark.parametrize("call, error, message", [
    (lambda: BicliqueCover(blocks=(((), (0,)),), n_rows=2, n_cols=2),
     DimensionError, "cover blocks must be non-empty on both sides"),
    (lambda: BicliqueCover(blocks=(((0,), (0,)),), n_rows=2, n_cols=2).check_observed(
        np.ones((3, 2))),
     DimensionError, "mask shape (3, 2) does not match cover grid (2, 2)"),
    (lambda: biclique_decompose(np.ones((3, 3)), min_block=0),
     DimensionError, "min_block must be at least 1"),
], ids=["empty-side", "mask-shape", "min-block"])
def test_malformed_inputs_raise_typed_errors(call, error, message):
    raises_exactly(call, error, message)
