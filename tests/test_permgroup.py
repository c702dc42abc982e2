"""Tests for cyclic family construction and its group structure."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterperm import permgroup
from clusterperm.exceptions import DimensionError, GroupError
from clusterperm.model import TwoWayPermutation
from clusterperm.permgroup import (
    CyclicGroup,
    _blockwise_shift,
    as_group,
    block_product_group,
    build_cyclic_family,
    build_two_way_group,
    composition_law_holds,
    default_num_perms,
    fixed_point_free,
    verify_group,
)
from clusterperm.rng import AXIS_CELLS, AXIS_COLS, AXIS_ROWS, family_seed
from conftest import raises_exactly, two_way_group


def _with_cycles(lengths):
    """A row map made of consecutive cycles of the given lengths."""
    gen = np.arange(sum(lengths))
    start = 0
    for length in lengths:
        cycle = np.arange(start, start + length)
        gen[cycle] = np.roll(cycle, -1)
        start += length
    return gen


def _cycle_type(perm):
    n = perm.shape[0]
    seen = np.zeros(n, dtype=bool)
    lengths = []
    for start in range(n):
        if seen[start]:
            continue
        length, cur = 0, start
        while not seen[cur]:
            seen[cur] = True
            cur = perm[cur]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths))


def _shift_power(n, num_perms, k):
    """The k-th power of the canonical shift, written out directly: within
    each complete block of K+1 an index moves forward by k, cyclically."""
    size = num_perms + 1
    idx = np.arange(n)
    m = size * (n // size)
    idx[:m] = idx[:m] - idx[:m] % size + (idx[:m] % size + k) % size
    return idx


class TestBlockwiseShift:
    def test_frozen_six_with_two_perms(self):
        # n = 6, K = 2: 1-based images (2, 3, 1, 5, 6, 4)
        assert _blockwise_shift(6, 2).tolist() == [1, 2, 0, 4, 5, 3]

    def test_frozen_six_second_member(self):
        # member 2 is the square of member 1: 1-based images (3, 1, 2, 6, 4, 5)
        first = _blockwise_shift(6, 2)
        assert first[first].tolist() == [2, 0, 1, 5, 3, 4]

    def test_tail_is_fixed(self):
        # n = 7 leaves one index beyond the last complete block of 3
        assert _blockwise_shift(7, 2).tolist() == [1, 2, 0, 4, 5, 3, 6]

    def test_short_vector_is_identity(self):
        # no complete block when n < K + 1
        assert _blockwise_shift(3, 4).tolist() == [0, 1, 2]

    def test_members_are_powers_of_the_first(self):
        for n, num_perms in ((12, 3), (10, 4), (9, 2), (7, 2), (3, 4)):
            first = _blockwise_shift(n, num_perms)
            power = np.arange(n)
            for k in range(1, num_perms + 2):
                power = first[power]
                assert np.array_equal(_shift_power(n, num_perms, k), power)


class TestBuildCyclicFamily:
    def test_shape_and_identity_member(self):
        family = build_cyclic_family(10, 4, seed=0)
        assert family.shape == (5, 10)
        assert np.array_equal(family[0], np.arange(10))

    def test_members_are_bijections(self):
        family = build_cyclic_family(11, 3, seed=1)
        for member in family:
            assert np.array_equal(np.sort(member), np.arange(11))

    def test_conjugation_preserves_cycle_type(self):
        for seed in range(5):
            family = build_cyclic_family(12, 2, seed=seed)
            for k in (1, 2):
                raw = _shift_power(12, 2, k)
                assert _cycle_type(family[k]) == _cycle_type(raw)

    def test_family_is_cyclic_in_k(self):
        family = build_cyclic_family(15, 4, seed=7)
        power = np.arange(15)
        for k in range(1, 5):
            power = family[1][power]
            assert np.array_equal(family[k], power)

    def test_seed_independent_structure(self):
        a = build_cyclic_family(20, 4, seed=0)
        b = build_cyclic_family(20, 4, seed=99)
        assert not np.array_equal(a[1], b[1])
        assert _cycle_type(a[1]) == _cycle_type(b[1])

    def test_validation(self):
        with pytest.raises(DimensionError):
            build_cyclic_family(0, 2, seed=0)
        with pytest.raises(DimensionError):
            build_cyclic_family(5, 0, seed=0)


class TestGroupStructure:
    @pytest.mark.parametrize("n,num_perms", [(6, 2), (8, 3), (12, 5), (7, 2), (30, 9)])
    def test_closure(self, n, num_perms):
        family = build_cyclic_family(n, num_perms, seed=n + num_perms)
        assert verify_group(family)

    @pytest.mark.parametrize("n,num_perms", [(6, 2), (12, 3), (30, 9), (25, 4)])
    def test_composition_law_exhaustive(self, n, num_perms):
        family = build_cyclic_family(n, num_perms, seed=3)
        assert composition_law_holds(family)

    def test_two_way_group_structure(self):
        family = build_two_way_group(6, 9, 2, seed=4)
        assert verify_group(family)
        assert composition_law_holds(family)
        assert family.num_perms == 2
        assert family[0].is_identity()

    def test_fixed_point_free_when_size_divides(self):
        family = build_cyclic_family(12, 3, seed=0)
        assert fixed_point_free(family)
        two_way = build_two_way_group(12, 8, 3, seed=0)
        assert fixed_point_free(two_way)

    def test_fixed_points_when_tail_exists(self):
        family = build_cyclic_family(13, 3, seed=0)
        assert not fixed_point_free(family)

    def test_broken_family_fails_closure(self):
        family = build_cyclic_family(8, 3, seed=0).copy()
        family[2] = np.roll(np.arange(8), 1)
        assert not verify_group(family)
        # a two-way family whose member 2 has a foreign row map
        members = list(build_two_way_group(6, 6, 2, seed=0))
        members[2] = TwoWayPermutation(np.roll(np.arange(6), 1), members[2].sigma)
        assert not verify_group(members)
        assert not composition_law_holds(members)


_AXES = st.one_of(st.none(), st.sampled_from([AXIS_ROWS, AXIS_COLS, AXIS_CELLS]))


@st.composite
def _block_layouts(draw):
    """1-3 blocks of 1-3 axes each, sides 1-7, some axes fixed (None)."""
    return [
        (draw(st.integers(0, 40)),
         tuple(draw(st.lists(st.tuples(st.integers(1, 7), _AXES), min_size=1, max_size=3))))
        for _ in range(draw(st.integers(1, 3)))
    ]


def _reference_family(n, num_perms, seed):
    """Every member k built directly as the k-th shift under one relabeling."""
    relabel = np.random.default_rng(seed).permutation(n)
    inverse = np.empty(n, dtype=np.intp)
    inverse[relabel] = np.arange(n)
    return np.stack([inverse[_shift_power(n, num_perms, k)[relabel]]
                     for k in range(num_perms + 1)])


def _reference_block_product(blocks, num_perms, seed):
    """The (K+1, N) maps written member by member from full families."""
    size = num_perms + 1
    parts, offset = [], 0
    for key, axes in blocks:
        shape = tuple(s for s, _ in axes)
        maps = np.zeros((size,) + shape, dtype=np.intp)
        stride = int(np.prod(shape))
        for a, (n, axis) in enumerate(axes):
            stride //= n
            images = (np.tile(np.arange(n), (size, 1)) if axis is None
                      else _reference_family(n, num_perms, family_seed(seed, key, axis)))
            maps += (images * stride).reshape((size,) + (1,) * a + (n,) + (1,) * (len(axes) - a - 1))
        parts.append(maps.reshape(size, -1) + offset)
        offset += int(np.prod(shape))
    return np.concatenate(parts, axis=1)


class TestBlockProductPerms:
    @settings(max_examples=200, deadline=None)
    @given(blocks=_block_layouts(), num_perms=st.integers(1, 6),
           seed=st.integers(0, 2**63 - 1))
    def test_cyclic_group_of_block_bijections(self, blocks, num_perms, seed):
        perms = block_product_group(blocks, num_perms, seed).stacked()
        size = num_perms + 1
        n = sum(int(np.prod([s for s, _ in axes])) for _, axes in blocks)
        assert perms.shape == (size, n) and perms.dtype == np.intp
        assert np.array_equal(perms[0], np.arange(n))
        for row in perms:
            assert np.array_equal(np.sort(row), np.arange(n))
        offset = 0
        for _, axes in blocks:
            end = offset + int(np.prod([s for s, _ in axes]))
            assert ((perms[:, offset:end] >= offset) & (perms[:, offset:end] < end)).all()
            offset = end
        for r in range(size):
            for s in range(size):
                assert np.array_equal(perms[r][perms[s]], perms[(r + s) % size])

    @settings(max_examples=50, deadline=None)
    @given(m=st.integers(1, 9), n=st.integers(1, 9), num_perms=st.integers(1, 6),
           seed=st.integers(0, 2**63 - 1))
    def test_reduces_to_two_way_group(self, m, n, num_perms, seed):
        # criterion 12 on the maps: a box with l = 1, a panel with T = 1 and
        # one full cover block each give exactly the dyadic group
        two_way = build_two_way_group(m, n, num_perms, seed).stacked()
        assert np.array_equal(two_way_group(m, n, num_perms, seed).stacked(), two_way)
        rows_cols = ((m, AXIS_ROWS), (n, AXIS_COLS))
        for axes in (rows_cols + ((1, AXIS_CELLS),), rows_cols + ((1, None),), rows_cols):
            assert np.array_equal(block_product_group([(0, axes)], num_perms, seed).stacked(),
                                  two_way)

    def test_fixed_axis_rides_along(self):
        perms = block_product_group([(3, ((4, AXIS_ROWS), (2, None)))], 3, seed=1).stacked()
        rows = build_cyclic_family(4, 3, seed=family_seed(1, 3, AXIS_ROWS))
        assert np.array_equal(perms, (rows[:, :, None] * 2 + np.arange(2)).reshape(4, 8))

    def test_validation(self):
        with pytest.raises(DimensionError):
            block_product_group([(0, ((3, AXIS_ROWS),))], 0, seed=0)
        with pytest.raises(DimensionError):
            block_product_group([(0, ((3, AXIS_ROWS), (0, None)))], 2, seed=0)


@st.composite
def _short_side_layouts(draw):
    """1-4 blocks of 1-3 axes, sides 1-30, some axes fixed (None)."""
    return [
        (draw(st.integers(0, 10**6)),
         tuple(draw(st.lists(st.tuples(st.integers(1, 30), _AXES), min_size=1, max_size=3))))
        for _ in range(draw(st.integers(1, 4)))
    ]


class TestShortAxesStayFixed:
    """An axis of at most K indices draws no family, and the group says so."""

    @settings(max_examples=150, deadline=None)
    @given(blocks=_short_side_layouts(), num_perms=st.integers(1, 25),
           seed=st.integers(0, 2**63 - 1))
    def test_short_axes_draw_nothing_and_are_noted(self, blocks, num_perms, seed):
        seen = []

        def recording(*args):
            seen.append(args)
            return family_seed(*args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(permgroup, "family_seed", recording)
            group = block_product_group(blocks, num_perms, seed)
        # a family of order K+1 on at most K indices is the identity, so the
        # reference, which draws one for every axis not given as None, agrees
        expected = _reference_block_product(blocks, num_perms, seed)[1]
        assert group.generator.tobytes() == expected.astype(np.intp).tobytes()
        assert seen == [(seed, key, axis) for key, axes in blocks for size, axis in axes
                        if axis is not None and size > num_perms]
        short = sum(any(size <= num_perms for size, axis in axes if axis is not None)
                    for _, axes in blocks)
        assert group.notes == ((f"{short} of {len(blocks)} blocks have a side shorter than "
                                f"K+1={num_perms + 1}; their indices stay fixed",)
                               if short else ())

    def test_only_block_product_groups_carry_notes(self):
        assert block_product_group([(0, ((3, AXIS_ROWS),))], 3, seed=0).notes == (
            "1 of 1 blocks have a side shorter than K+1=4; their indices stay fixed",)
        assert CyclicGroup(np.arange(3), 3).notes == ()
        assert as_group(np.tile(np.arange(3), (4, 1)), 3).notes == ()


_SIDES = st.integers(1, 12)


@st.composite
def _wide_layouts(draw):
    """1-4 blocks of 1-3 axes, sides up to 12: some shorter and some longer than K+1."""
    return [
        (draw(st.integers(0, 10**6)),
         tuple(draw(st.lists(st.tuples(_SIDES, _AXES), min_size=1, max_size=3))))
        for _ in range(draw(st.integers(1, 4)))
    ]


class TestCyclicGroup:
    @settings(max_examples=150, deadline=None)
    @given(blocks=_wide_layouts(), num_perms=st.integers(1, 9),
           seed=st.integers(0, 2**63 - 1))
    def test_matches_member_by_member_construction(self, blocks, num_perms, seed):
        group = block_product_group(blocks, num_perms, seed)
        expected = _reference_block_product(blocks, num_perms, seed)
        assert np.array_equal(group.stacked(), expected)
        assert np.array_equal(group.generator, expected[1])

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(1, 40), num_perms=st.integers(1, 12), width=st.integers(0, 3),
           seed=st.integers(0, 2**32 - 1))
    def test_orbit_moves_values_by_each_member(self, n, num_perms, width, seed):
        group = CyclicGroup(_reference_family(n, num_perms, seed)[1], num_perms)
        maps = group.stacked()
        values = np.random.default_rng(seed).standard_normal((width, n) if width else n)
        seen = 0
        for members, block in group.orbit(values):
            assert members.start == seen
            assert np.array_equal(block, np.moveaxis(values[..., maps[1:][members]], -2, 0))
            seen = members.stop
        assert seen == num_perms

    def test_generator_is_one_read_only_copy(self):
        # the group holds g once: ``generator`` is a read-only view of the
        # writeable index the walk gathers with, and owns no copy of its own
        source = _reference_family(40, 4, 3)[1]
        group = CyclicGroup(source, 4)
        assert not group.generator.flags.writeable
        assert group._index.flags.writeable
        assert np.shares_memory(group.generator, group._index)
        assert not np.shares_memory(group._index, source)
        with pytest.raises(ValueError, match="read-only"):
            group.generator[0] = 0
        source[:] = np.arange(40)
        assert np.array_equal(group.generator, _reference_family(40, 4, 3)[1])

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(2, 30), num_perms=st.integers(1, 130), seed=st.integers(0, 2**32 - 1))
    def test_order_must_divide_group_size(self, n, num_perms, seed):
        gen = np.random.default_rng(seed).permutation(n)
        cycles = _cycle_type(gen)
        order = int(np.lcm.reduce(cycles))
        if (num_perms + 1) % order == 0:
            group = CyclicGroup(gen, num_perms)
            assert composition_law_holds(group.stacked())
        else:
            with pytest.raises(GroupError, match="not the identity"):
                CyclicGroup(gen, num_perms)

    @pytest.mark.parametrize("size", [64, 100, 127, 128])
    def test_squaring_check_at_large_orders(self, size):
        # One cycle per divisor of K+1 = size: g^size is the identity, and
        # member(k) is g applied k times for every k up to K+1.
        gen = _with_cycles([c for c in range(2, size + 1) if size % c == 0])
        group = CyclicGroup(gen, size - 1)
        power = np.arange(gen.size)
        for k in range(size + 1):
            assert np.array_equal(group.member(k), power), k
            power = gen[power]
        assert np.array_equal(group.member(size), np.arange(gen.size))
        # A cycle one longer or one shorter than K+1 does not divide it.
        for length in (size - 1, size + 1):
            with pytest.raises(GroupError, match=f"K\\+1={size} times is not the identity"):
                CyclicGroup(_with_cycles([2, length]), size - 1)

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(2, 30), num_perms=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    def test_non_bijection_raises(self, n, num_perms, seed):
        rng = np.random.default_rng(seed)
        gen = rng.permutation(n)
        i, j = rng.choice(n, size=2, replace=False)
        gen[i] = gen[j]
        with pytest.raises(DimensionError, match="not a bijection"):
            CyclicGroup(gen, num_perms)
        gen[i] = n
        with pytest.raises(DimensionError, match="maps outside"):
            CyclicGroup(gen, num_perms)

    @pytest.mark.parametrize("per_chunk", [1, 2, None])
    def test_kept_blocks_must_be_copied(self, monkeypatch, per_chunk):
        # A block is a view into the walk's ring, which the next steps
        # overwrite; stacked() copies each block and so equals member(k).
        group = CyclicGroup(_with_cycles([6, 3, 2, 1]), 5)
        if per_chunk:
            monkeypatch.setattr(permgroup, "_CHUNK_VALUES", per_chunk * group.n)
        kept = [block for _, block in group.orbit()]
        if per_chunk == 1:
            # Two slots: member 5 landed where member 1 was.
            assert np.shares_memory(kept[0], kept[2])
            assert np.array_equal(kept[0][0], group.member(5))
            assert not np.array_equal(kept[0][0], group.member(1))
        assert np.array_equal(group.stacked(), [group.member(k) for k in range(6)])

    def test_validation(self):
        with pytest.raises(DimensionError):
            next(CyclicGroup(np.arange(4), 2).orbit(np.ones(5)))
        with pytest.raises(DimensionError):
            CyclicGroup(np.arange(4), 0)
        with pytest.raises(DimensionError):
            CyclicGroup(np.zeros((2, 2), dtype=int), 1)


class TestDefaultNumPerms:
    def test_divisor_within_range(self):
        # 25 is divisible by 25 in [20, 100] -> K = 24
        assert default_num_perms(25) == 24
        assert default_num_perms(50) == 49
        assert default_num_perms(100) == 99

    def test_two_extents(self):
        assert default_num_perms(40, 60) == 19
        assert default_num_perms(25, 50) == 24

    def test_prime_extent_divides_itself(self):
        assert default_num_perms(23) == 22

    def test_fallback(self):
        # No size in [20, 100] divides 19, nor both of 21 and 22: without an
        # extent of 20 or more K stays 99, else K+1 is the smallest such
        # extent, so that axis moves.
        assert default_num_perms(19) == 99
        assert default_num_perms(21, 22) == 20
        assert default_num_perms(20, 30) == 19
        assert default_num_perms(24, 36) == 23
        assert default_num_perms(7, 150) == 99
        assert default_num_perms(101) == 99

    # Extents with many divisors in [20, 100] make common divisors likely.
    @settings(max_examples=500, deadline=None)
    @given(extents=st.lists(st.integers(1, 150) | st.sampled_from(
        [20, 24, 25, 30, 40, 48, 50, 60, 72, 75, 80, 96, 100, 120, 144, 150]),
        min_size=1, max_size=3))
    def test_default_moves_an_axis(self, extents):
        # One or two extents take one call; a third axis takes the smaller
        # of the first two's K and its own, as multiway._box_test does.
        calls = [extents[:2]] + [extents[2:]] * (len(extents) == 3)
        ks = [default_num_perms(*call) for call in calls]
        for call, k in zip(calls, ks):
            divisors = [s for s in range(100, 19, -1) if all(e % s == 0 for e in call)]
            if divisors:
                assert k == divisors[0] - 1
        # An axis of e indices moves under K iff e >= K+1.
        if max(extents) >= 20:
            assert max(extents) >= min(ks) + 1

    def test_validation(self):
        with pytest.raises(DimensionError):
            default_num_perms(0)


def _powers(gen, count):
    """The first ``count`` powers of ``gen`` as a row map, row 0 the identity."""
    perms = [np.arange(gen.size)]
    for _ in range(count - 1):
        perms.append(gen[perms[-1]])
    return np.stack(perms)


def _break(perms, row, how):
    perms = perms.copy()
    if how == "repeat":
        perms[row, 0] = perms[row, 1]
    elif how == "outside":
        perms[row, 0] = perms.shape[1]
    else:
        perms[row, [0, 1]] = perms[row, [1, 0]]
    return perms


class TestAsGroup:
    """A row map becomes a group only as the powers of its member 1."""

    _GEN = _with_cycles([6, 3, 2, 1])

    @pytest.mark.parametrize("family, n, error, message", [
        (CyclicGroup(np.arange(4), 1), 5, DimensionError,
         "the group acts on 4 rows, the data have 5"),
        (np.zeros((2, 3), dtype=np.intp), 4, DimensionError,
         "permutations must be (K+1, 4), got (2, 3)"),
        (np.arange(4)[None], 4, DimensionError,
         "need the identity plus at least one permutation"),
    ])
    def test_malformed_families_raise(self, family, n, error, message):
        raises_exactly(lambda: as_group(family, n), error, message)

    @pytest.mark.parametrize("per_chunk", [1, 2, None])
    @pytest.mark.parametrize("row, how, count, error, message", [
        (1, "repeat", 6, DimensionError, "member 1 is not a bijection"),
        (3, "repeat", 6, DimensionError, "member 3 is not a bijection"),
        (3, "outside", 6, DimensionError, "member 3 maps outside the row range"),
        (3, "swap", 6, GroupError,
         "row maps are not a cyclic group: member 3 is not member 1 applied to member 2"),
        (None, None, 5, GroupError,
         "row maps are not a cyclic group: member 1 applied K+1=5 times is not the identity"),
        # A broken row is named before the closure that also fails.
        (3, "swap", 5, GroupError,
         "row maps are not a cyclic group: member 3 is not member 1 applied to member 2"),
        (4, "swap", 5, GroupError,
         "row maps are not a cyclic group: member 4 is not member 1 applied to member 3"),
    ])
    def test_broken_maps_name_their_fault(self, monkeypatch, per_chunk, row, how, count,
                                          error, message):
        perms = _powers(self._GEN, count)
        if row is not None:
            perms = _break(perms, row, how)
        if per_chunk:
            monkeypatch.setattr(permgroup, "_CHUNK_VALUES", per_chunk * self._GEN.size)
        with pytest.raises(error) as raised:
            as_group(perms, self._GEN.size)
        assert str(raised.value) == message

    @pytest.mark.parametrize("per_chunk", [1, 2, None])
    def test_powers_become_their_group(self, monkeypatch, per_chunk):
        if per_chunk:
            monkeypatch.setattr(permgroup, "_CHUNK_VALUES", per_chunk * self._GEN.size)
        perms = _powers(self._GEN, 12)
        group = as_group(perms, self._GEN.size)
        assert group.num_perms == 11 and np.array_equal(group.stacked(), perms)
        # The caller's map is not the group's: a later write undoes no check.
        perms[1] = np.arange(self._GEN.size)
        assert np.array_equal(group.generator, self._GEN)
