import copy
import dataclasses
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from halfdensity import trivializer as tz
from halfdensity import words
from halfdensity.rng import RandomSource
from halfdensity.words import (
    ModelParams,
    Presentation,
    concat_reduce,
    free_reduce,
    invert,
    is_reduced,
    sample_presentation,
    word_from_str,
)


def W(s):
    return word_from_str(s)


# Synthetic presentation whose triviality proof needs one collision, one
# w-reduction, and two tail-match conclusions (m=2, k=1, block size 36).
def build_reduction_fixture():
    T = tuple([1, 2, 2, 1] * 10)
    r1 = (1, 2) + T
    r2 = (2, 2) + T                      # collision with r1: w = Ab
    F1 = (1, 1, 2, 1, 2, 2, 1)
    plant = (2, -1, 2, 1)                # s=b, w=Ab, t=a at positions 10..13
    F2 = tuple([2, 1] * 13) + (2,)
    r3 = (1, 2) + F1 + plant + F2        # length 40, one full block
    r4 = (-1,) + r3[1:10] + r3[12:]      # matches reduced r3 from position 2
    pres = Presentation(2, [r1, r2, r3, r4])
    pres.validate()
    return pres


class TestChooseK:
    def test_small_ell(self):
        assert tz.choose_k(81, 2) == 1

    def test_large_ell(self):
        assert tz.choose_k(3**10, 2) == 3

    def test_clamped_to_one(self):
        assert tz.choose_k(2, 2) == 1
        assert tz.choose_k(9, 2) == 1

    def test_requires_ell_two(self):
        with pytest.raises(ValueError):
            tz.choose_k(1, 2)

    def test_requires_two_generators(self):
        # log base 2m-1 = 1 would divide by zero
        with pytest.raises(ValueError, match="m must be >= 2"):
            tz.choose_k(10, 1)


class TestConfig:
    def test_block_geometry(self):
        cfg = tz.TrivializerConfig(m=2, ell=110, k=1)
        assert cfg.block_size == 4 * 9 == 36
        assert cfg.block_count_for(cfg.ell) == 3
        assert cfg.block_count_for(37) == 0
        assert cfg.block_count_for(38) == 1

    def test_block_count_never_negative(self):
        assert tz.TrivializerConfig(m=2, ell=1, k=1).block_count_for(1) == 0

    def test_k_bounds(self):
        with pytest.raises(ValueError):
            tz.TrivializerConfig(m=2, ell=4, k=5)
        with pytest.raises(ValueError):
            tz.TrivializerConfig(m=2, ell=4, k=0)

    def test_m_and_round_bounds(self):
        with pytest.raises(ValueError, match="^m must be >= 2, got 1$"):
            tz.TrivializerConfig(m=1, ell=4, k=1)
        with pytest.raises(ValueError, match="^max_rounds must be >= 1, got 0$"):
            tz.TrivializerConfig(m=2, ell=4, k=1, max_rounds=0)


class TestFindTailCollisions:
    """The collision search trivialize runs."""

    @staticmethod
    def search(words_, k):
        mat = Presentation(2, [W(s) for s in words_]).matrix
        return tz._best_collision(mat, tz._group_tails(mat, k), k, set())

    def test_crossed_prefix_pair(self):
        best, pairs = self.search(["abab", "baab"], 2)
        assert pairs == 1
        i1, i2, w = best
        assert (i1, i2) == (0, 1)
        assert w == W("BAba")
        assert len(w) == 4 and is_reduced(w)

    def test_duplicates_same_class(self):
        assert self.search(["abab", "abab"], 2) == (None, 0)

    def test_no_matching_tails(self):
        assert self.search(["abab", "baba"], 2) == (None, 0)

    def test_same_second_letter_k2_blocked_by_kth_letter(self):
        # shared second letter forces equal position-k letters, which k=2 forbids
        assert self.search(["abab", "bbab"], 2) == (None, 0)


def tail_groups_reference(rows, start):
    """Groups of 2+ indices of words of length >= start, keyed by the slice u[start:]."""
    groups = {}
    for i, u in enumerate(rows):
        if len(u) >= start:
            groups.setdefault(u[start:], []).append(i)
    return [g for g in groups.values() if len(g) >= 2]


class TestGroupTails:
    def test_sorted_runs_match_ragged_grouping(self):
        # 3 symbols over 6 columns: many equal tails at every start
        rng = np.random.default_rng(5)
        mat = rng.integers(1, 4, size=(400, 6)).astype(np.int8)
        rows = [tuple(r) for r in mat.tolist()]
        for start in range(1, mat.shape[1] + 2):
            groups = tz._group_tails(mat, start)
            assert groups == tail_groups_reference(rows, start)
            assert all(len(g) >= 2 and g == sorted(g) for g in groups)
            assert [g[0] for g in groups] == sorted(g[0] for g in groups)

    def test_ragged_rows_match_tuple_slices(self):
        # lengths 0..6 over 2 symbols, so at every start some rows are shorter
        # than start, some end exactly there (empty tail) and some run past it
        rng = np.random.default_rng(8)
        rows = [tuple(rng.integers(1, 3, size=n).tolist())
                for n in rng.integers(0, 7, size=300)]
        mat = Presentation(2, rows).matrix
        for start in range(1, mat.shape[1] + 2):
            groups = tz._group_tails(mat, start)
            assert groups == tail_groups_reference(rows, start)
            lengths = {len(rows[i]) for g in groups for i in g}
            assert any(len(u) < start for u in rows)
            assert (start in lengths) == (start <= mat.shape[1])
            assert (max(lengths, default=0) > start) == (start < mat.shape[1])

    @pytest.mark.parametrize("width", [*range(1, 10), 15, 16, 17])
    def test_every_start_at_widths_around_a_word(self, width):
        # rows copy one of a few bases and redraw a prefix of random length, so
        # at every start equal tails sit behind differing heads, the letters
        # before start in the last 8 columns included
        rng = np.random.default_rng(width)
        mat = rng.choice(np.array([1, -2], dtype=np.int8), size=(12, width))[
            rng.integers(12, size=300)]
        for row, cut in zip(mat, rng.integers(0, width + 1, size=300)):
            row[:cut] = rng.choice(np.array([1, -2], dtype=np.int8), size=cut)
        rows = [tuple(r) for r in mat.tolist()]
        for start in range(1, width + 2):
            assert tz._group_tails(mat, start) == tail_groups_reference(rows, start)

    def test_short_rows_share_the_zero_tail_with_real_groups(self):
        # empty and short rows have an all-zero tail, as do the rows that end
        # exactly at start; only those may group on it
        rng = np.random.default_rng(11)
        bases = [tuple(rng.integers(1, 3, size=9).tolist()) for _ in range(5)]
        rows = [()] * 80 + [(1,)] * 40 + [(2, 1)] * 20
        rows += [bases[i][:n] for i, n in zip(rng.integers(5, size=200),
                                               rng.integers(1, 10, size=200))]
        rows = [rows[i] for i in rng.permutation(len(rows))]
        mat = Presentation(2, rows).matrix
        for start in range(1, mat.shape[1] + 2):
            groups = tz._group_tails(mat, start)
            assert groups == tail_groups_reference(rows, start)
            ended = [g for g in groups if len(rows[g[0]]) == start]
            assert len(ended) == (start <= mat.shape[1])

    def test_matrices_not_in_c_order(self):
        # a column slice and a Fortran-order copy, as Presentation(m, matrix=...) accepts
        mat = np.random.default_rng(5).integers(1, 4, size=(400, 12)).astype(np.int8)
        rows = [tuple(r) for r in mat[:, :10].tolist()]
        for view in (mat[:, :10], np.asfortranarray(mat[:, :10])):
            assert not view.flags.c_contiguous
            for start in range(1, 12):
                assert tz._group_tails(view, start) == tail_groups_reference(rows, start)

    def test_single_row_has_no_group(self):
        mat = np.array([[1, 2, 1]], dtype=np.int8)
        assert tz._group_tails(mat, 1) == []

    @staticmethod
    def long_ragged_rows(m, width, seed):
        """Rows sharing a few long tails, cut to many lengths, some with a changed last letter."""
        rng = np.random.default_rng(seed)
        letters = np.concatenate([np.arange(1, m + 1), -np.arange(1, m + 1)])
        bases = rng.choice(letters, size=(4, width + 1)).tolist()
        rows = []
        for _ in range(400):
            u = bases[rng.integers(4)][: rng.choice([0, 1, 2, width // 2, width, width + 1])]
            if u and rng.random() < 0.3:
                u[-1] = int(rng.choice(letters))  # differs from its kin past the first chunk
            rows.append(tuple(u))
        return rows

    @pytest.mark.parametrize("m,width", [(2, 60), (127, 12)])
    @pytest.mark.parametrize("constant_keys", [False, True])
    def test_tails_wider_than_an_exact_key(self, monkeypatch, m, width, constant_keys):
        # tails past 8 letters get hashed keys; with every key equal, all rows
        # reach the exact check, so the groups cannot change
        if constant_keys:
            monkeypatch.setattr(tz, "_tail_keys",
                                lambda mat, start: np.zeros(len(mat), dtype=np.uint64))
        rows = self.long_ragged_rows(m, width, seed=m)
        mat = Presentation(m, rows).matrix
        assert mat.shape[1] == width + 1
        for start in (1, 2, 3, 9, width // 2, width, width + 1, width + 2):
            assert tz._group_tails(mat, start) == tail_groups_reference(rows, start)

    def test_constant_keys_keep_random_groups(self, monkeypatch):
        rng = np.random.default_rng(5)
        mat = rng.integers(1, 4, size=(400, 6)).astype(np.int8)
        rows = [tuple(r) for r in mat.tolist()]
        monkeypatch.setattr(tz, "_tail_keys",
                            lambda mat, start: np.zeros(len(mat), dtype=np.uint64))
        for start in range(1, mat.shape[1] + 2):
            assert tz._group_tails(mat, start) == tail_groups_reference(rows, start)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.lists(st.sampled_from([1, 2, 3, -1, -2, -3]), max_size=12),
                    min_size=1, max_size=25),
           st.data())
    def test_duplicates_and_inverse_pairs(self, raw, data):
        rows = [free_reduce(tuple(u)) for u in raw]
        rows += [rows[i] for i in data.draw(st.lists(st.integers(0, len(rows) - 1)))]
        rows += [invert(rows[i]) for i in data.draw(st.lists(st.integers(0, len(rows) - 1)))]
        rows = data.draw(st.permutations(rows))
        mat = Presentation(3, rows).matrix
        for start in range(1, mat.shape[1] + 2):
            assert tz._group_tails(mat, start) == tail_groups_reference(rows, start)


def scan(r, w, search_from=1):
    """The reduction record of the leftmost pattern within positions search_from..|r|."""
    lo0 = search_from - 1
    rows, si, ti = tz._first_patterns(np.array([r[lo0:]], dtype=np.int8), w)
    si, ti = (si + lo0).tolist(), (ti + lo0).tolist()
    return tz._records(r, si, ti, len(w))[0] if len(rows) else None


def reference_reduce(r, w, cfg):
    """reduce_relator as a pure-Python scan of each block of the word as it stands."""
    W, size = len(w), cfg.block_size
    records = []
    removed = 0
    for j in range(cfg.block_count_for(len(r))):
        # the block's 0-based window in the word after earlier excisions
        lo0 = tz.RESERVED_PREFIX + j * size - removed
        hi0 = lo0 + size - 1
        for i in range(lo0 + 1, hi0 - W + 1):
            if r[i : i + W] != w:
                continue
            n = 0
            while (i - n - 2 >= lo0 and i + W + n + 1 <= hi0
                   and r[i - n - 1] == -r[i + W + n]):
                n += 1
            si, ti = i - n - 1, i + W + n
            if si < lo0 or ti > hi0 or r[si] == -r[ti]:
                continue
            r_next = r[: si + 1] + r[ti:]
            records.append((si + 2, ti, r[si + 1 : i], r[si], r[ti], r_next))
            removed += len(r) - len(r_next)
            r = r_next
            break
    return r, records


class TestWReduceOnce:
    def test_conjugated_occurrence(self):
        # r = b a a b A b, w = ab: pattern s=b, d=a, w, d^-1=A, t=b
        rec = scan(W("baabAb"), W("ab"))
        assert rec is not None
        start, end, conjugator, s, t, reduced = rec
        assert reduced == W("bb")
        assert (start, end) == (2, 5)
        assert conjugator == W("a")
        assert (s, t) == (2, 2)

    def test_clean_occurrence_deletes_exactly_w(self):
        r = (1, 1, 2, -1, 2, 2, 1)        # s=b at pos 3, w=Ab at 4..5, t=b
        start, end, conjugator, _, _, reduced = scan(r, W("Ab"))
        assert reduced == (1, 1, 2, 2, 1)
        assert conjugator == ()
        assert end - start + 1 == 2

    def test_window_edge_occurrence_skipped_then_found(self):
        # a a b A | b a b b: first occurrence sits as d w d^-1 at the window
        # start (no room for s); the later clean occurrence wins
        r = (1, 1, 2, -1, 2, 1, 2, 2)
        rec = scan(r, W("ab"))
        assert rec is not None
        assert rec[:2] == (6, 7)
        assert rec[-1] == (1, 1, 2, -1, 2, 2)

    def test_no_occurrence(self):
        assert scan(W("bbbb"), W("ab")) is None

    def test_respects_reserved_prefix(self):
        # only occurrence touches positions 1..2: the reduction stage's
        # first window starts at position 3 and skips it
        r = (2, 1, 2, 1, 1, 1)
        assert scan(r, W("ab"), search_from=tz.RESERVED_PREFIX + 1) is None
        assert scan(r, W("ab")) is not None

    def test_result_stays_reduced_by_flank_rule(self):
        assert is_reduced(scan(W("baabAb"), W("ab"))[-1])


def first_pattern_reference(r, w, lo0, hi0):
    """The flank columns (si, ti) of the leftmost valid pattern in columns lo0..hi0 of r, or None."""
    text, pattern = np.array(r, dtype=np.int8).tobytes(), np.array(w, dtype=np.int8).tobytes()
    i = text.find(pattern, lo0 + 1, hi0)  # occurrences lie within columns lo0+1..hi0-1
    while i >= 0:
        s, t = i - 1, i + len(w)
        while s > lo0 and t < hi0 and r[s] == -r[t]:
            s, t = s - 1, t + 1
        if r[s] != -r[t]:
            return s, t
        i = text.find(pattern, i + 1, hi0)
    return None


def assert_first_patterns(mat, w, lo0, hi0):
    """_first_patterns on columns lo0..hi0 of the matrix equals the per-row reference; returns
    its result, in the matrix's columns."""
    rows, si, ti = tz._first_patterns(mat[:, lo0 : hi0 + 1], w)
    si, ti = si + lo0, ti + lo0
    found = [(i, first_pattern_reference(r, w, lo0, hi0)) for i, r in enumerate(mat.tolist())]
    expected = [(i, *p) for i, p in found if p is not None]
    assert list(zip(rows.tolist(), si.tolist(), ti.tolist())) == expected
    return rows.tolist(), si.tolist(), ti.tolist()


class TestFirstPatterns:
    # w = ab; rows of width 16, window columns 0..15
    ROWS = [
        (1, 1, 2, -1, 2, 1, 2, 2) + (2,) * 8,    # first occurrence cancels at the window start
        (2,) * 16,                                 # no occurrence
        (1, 1, 2, -1) + (2,) * 12,                 # its only occurrence is invalid
        (2, 1, 2) + (2,) * 13,                     # valid first occurrence
        # two occurrences grown to the window start, then a valid one
        (1, 1, 2, -1, -2, 1, 2, 2, 1, -2, -1, -1, 2, 1, 2, 2),
        (2,) * 12 + (1, 1, 2, -1),                 # grown to the window end, cancelling
    ]

    def test_first_occurrence_invalid_then_valid(self):
        mat = np.array(self.ROWS, dtype=np.int8)
        assert assert_first_patterns(mat, W("ab"), 0, 15) == ([0, 3, 4], [4, 0, 12], [7, 3, 15])

    def test_window_right_of_column_zero(self):
        # the prefix holds occurrences of w and letters that would extend the
        # rows' conjugators past the window start; neither counts
        prefix = np.array([[1, 2, -2]] * len(self.ROWS), dtype=np.int8)
        mat = np.hstack([prefix, np.array(self.ROWS, dtype=np.int8)])
        assert assert_first_patterns(mat, W("ab"), 3, 18) == ([0, 3, 4], [7, 3, 15], [10, 6, 18])

    def test_window_of_many_candidate_columns(self):
        # k=3, m=2: the planted-rate window, columns 1..5832 of 5833, with w =
        # (ab)^3 starting at every column near each multiple of 64 candidates
        w = (1, 2) * 3
        size = tz.TrivializerConfig(m=2, ell=3, k=3).block_size
        lo0, hi0 = 1, size
        ncand = hi0 - len(w) - lo0
        starts = sorted({c for e in range(0, ncand + 64, 64)
                         for c in range(e - len(w) - 1, e + 2) if 0 <= c < ncand})
        rows = []
        for c in starts:
            r = [2] * (size + 1)
            r[lo0 + 1 + c : lo0 + 1 + c + len(w)] = w
            rows.append(r)
        # an invalid occurrence at the window start, then a valid one far right
        r = [2] * (size + 1)
        r[1], r[2:8], r[8] = 1, w, -1
        r[4000:4006] = w
        rows += [r, [2] * (size + 1)]
        mat = np.array(rows, dtype=np.int8)
        got_rows, si, ti = assert_first_patterns(mat, w, lo0, hi0)
        assert got_rows == list(range(len(starts) + 1))
        assert si == [lo0 + c for c in starts] + [3999]
        assert ti == [lo0 + c + len(w) + 1 for c in starts] + [4006]

    def test_pattern_at_column_zero_before_a_later_chunk(self):
        # a valid pattern with its left flank at column 0, and another in the
        # second chunk of candidate columns: the scan keeps the first
        w = (1, 2)
        r = [2] * (tz.SCAN_CHUNK + len(w) + 64)
        r[1:3] = w
        r[tz.SCAN_CHUNK + 40 : tz.SCAN_CHUNK + 42] = w
        mat = np.array([r, [2] * len(r)], dtype=np.int8)
        assert assert_first_patterns(mat, w, 0, len(r) - 1) == ([0], [0], [3])

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_per_row_reference(self, data):
        # many rows, with copies of c d w d^-1 c^-1 planted near both window
        # edges, so first occurrences are often invalid and later ones valid
        m = data.draw(st.integers(2, 3))
        letter = st.integers(-m, m).filter(bool)
        w = free_reduce(data.draw(st.lists(letter, min_size=2, max_size=4)))
        assume(len(w) >= 2)
        width = data.draw(st.integers(len(w) + 2, 80))
        lo0 = data.draw(st.integers(0, width - len(w) - 2))
        hi0 = data.draw(st.integers(lo0 + len(w) + 1, width - 1))
        n = data.draw(st.integers(1, 12))
        seed = data.draw(st.integers(0, 2**32 - 1))
        mat = words.sample_relator_matrix(m, width, n, RandomSource(seed))
        for i in range(n):
            for _ in range(data.draw(st.integers(0, 4))):
                d = free_reduce(data.draw(st.lists(letter, max_size=3)))
                plant = np.array(d + w + invert(d), dtype=np.int8)
                if len(plant) > width:
                    continue
                at = data.draw(st.one_of(st.integers(lo0 - 2, lo0 + 2),
                                         st.integers(0, width - 1),
                                         st.integers(hi0 - len(plant) - 2, hi0)))
                at = min(max(at, 0), width - len(plant))
                if at >= 1 and data.draw(st.booleans()):
                    mat[i, at - 1] = -mat[i, at + len(plant)] if at + len(plant) < width else 1
                mat[i, at : at + len(plant)] = plant
        assert_first_patterns(mat, w, lo0, hi0)


def hits_reference(mat, w, cfg):
    """_hits as first_pattern_reference on each block that a row holds in full."""
    found = []
    for i, r in enumerate(mat.tolist()):
        for j in range(cfg.block_count_for(np.count_nonzero(r))):
            lo0 = tz.RESERVED_PREFIX + j * cfg.block_size
            p = first_pattern_reference(r, w, lo0, lo0 + cfg.block_size - 1)
            if p is not None:
                found.append((i, *p))
    return found


class TestHits:
    def test_matches_per_block_reference(self):
        # m=2, k=1, blocks of 36: zero-padded rows holding 0..3 blocks, some
        # ending part-way into a block, with d w d^-1 planted at shifts around
        # every block edge that the row reaches
        cfg = tz.TrivializerConfig(m=2, ell=120, k=1)
        w, plant = W("ab"), W("aabA")
        lengths = [20, 37, 38, 55, 73, 74, 90, 109, 110, 120]
        shifts = [-len(plant) - 1, -len(plant), -2, -1, 0, 1, 2]
        mat = np.zeros((len(lengths) * len(shifts), max(lengths)), dtype=np.int8)
        for i, (length, shift) in enumerate(itertools.product(lengths, shifts)):
            mat[i, :length] = words.sample_relator_matrix(2, length, 1, RandomSource(i))[0]
            for j in range(4):
                at = tz.RESERVED_PREFIX + j * cfg.block_size + shift
                if 0 <= at <= length - len(plant):
                    mat[i, at : at + len(plant)] = plant
        rows, si, ti = tz._hits(mat, w, cfg)
        expected = hits_reference(mat, w, cfg)
        assert list(zip(rows.tolist(), si.tolist(), ti.tolist())) == expected
        assert {(s - tz.RESERVED_PREFIX) // cfg.block_size for _, s, _ in expected} == {0, 1, 2}
        # a matrix too narrow to hold a block has no hits
        assert len(tz._hits(mat[:, :cfg.block_size + 1], w, cfg)[0]) == 0

    def test_hits_ascend_by_row_then_column(self):
        # the reduction stage reads run bounds off neighbouring rows, so the
        # hits must come sorted; at m=2, k=1 most blocks of random rows hit
        cfg = tz.TrivializerConfig(m=2, ell=110, k=1)
        mat = words.sample_relator_matrix(2, 110, 60, RandomSource(5))
        mat[::3, 80:] = 0  # rows that hold fewer blocks
        rows, si, ti = tz._hits(mat, W("Ab"), cfg)
        pairs = list(zip(rows.tolist(), si.tolist()))
        assert pairs == sorted(pairs) and len(set(rows.tolist())) == len(mat)
        assert np.bincount(rows).max() == 3 and (ti > si).all()


def excise_reference(mat, at, si, ti, w_len=2):
    """_excise_rows as each row's last _records result, re-padded to mat's width."""
    out = np.zeros_like(mat)
    for p, u in enumerate(words.unpad(mat)):
        mine = at == p
        records = tz._records(u, si[mine].tolist(), ti[mine].tolist(), w_len)
        word = records[-1][-1] if records else u
        out[p, :len(word)] = word
    return out


def planned_hits(lengths, count, gen):
    """(at, si, ti) of 1..count disjoint hits per row of the given length, each
    excising an even span of at least 2 letters; odd rows end on a hit's t."""
    at, si, ti = [], [], []
    for p, length in enumerate(lengths):
        n = 1 + p % count
        room = (length - 1) // n  # each hit's s, span and t fit in its own stretch
        for h in range(n):
            span = 2 + 2 * int(gen.integers(0, (room - 2) // 2))
            lo = h * room
            s = lo + int(gen.integers(0, room - span - 1))
            if p % 2 and h == n - 1:
                s = length - 2 - span  # t is the row's last letter
            at.append(p), si.append(s), ti.append(s + span + 1)
    return np.array(at), np.array(si), np.array(ti)


class TestExciseRows:
    @pytest.mark.parametrize("width,count", [(40, 3), (110, 3), (300, 5)])
    def test_matches_records_reference(self, width, count):
        # ragged rows of 1..count hits; past width 255 the padding mask compares in uint16
        gen = np.random.default_rng(width)
        lengths = [width - (p % 3) * (p % 5) for p in range(12)]
        mat = np.zeros((len(lengths), width), dtype=np.int8)
        for p, length in enumerate(lengths):
            mat[p, :length] = words.sample_relator_matrix(2, length, 1, RandomSource(p))[0]
        at, si, ti = planned_hits(lengths, count, gen)
        assert (ti == np.array(lengths)[at] - 1).any() and min(lengths) < width
        assert np.array_equal(tz._excise_rows(mat, at, si, ti), excise_reference(mat, at, si, ti))

    def test_matches_reference_on_found_hits(self):
        cfg = tz.TrivializerConfig(m=2, ell=110, k=1)
        mat = words.sample_relator_matrix(2, 110, 40, RandomSource(6))
        mat[::4, 60:] = 0
        rows, si, ti = tz._hits(mat, W("Ab"), cfg)
        assert np.array_equal(tz._excise_rows(mat, rows, si, ti),
                              excise_reference(mat, rows, si, ti))


class TestReduceRelator:
    def test_short_relator_untouched(self):
        cfg = tz.TrivializerConfig(m=2, ell=20, k=1)
        r = tuple([1, 2] * 10)
        out, records = tz.reduce_relator(r, W("Ab"), cfg)
        assert out == r and records == []

    def test_single_block_single_event(self):
        cfg = tz.TrivializerConfig(m=2, ell=40, k=1)
        F2 = tuple([2, 1] * 13) + (2,)
        r = (1, 2) + (1, 1, 2, 1, 2, 2, 1) + (2, -1, 2, 1) + F2
        out, records = tz.reduce_relator(r, W("Ab"), cfg)
        assert len(records) == 1
        assert len(out) == len(r) - 2
        assert is_reduced(out)

    def test_three_blocks_three_events(self):
        cfg = tz.TrivializerConfig(m=2, ell=110, k=1)
        assert cfg.block_count_for(cfg.ell) == 3

        def filler(n):
            return tuple([2, 1][i % 2] for i in range(n))

        plant = (2, -1, 2, 1)
        r = (1, 2) + filler(7) + plant + filler(31) + plant + filler(31) + plant + filler(27)
        assert len(r) == 110 and is_reduced(r)
        out, records = tz.reduce_relator(r, W("Ab"), cfg)
        assert len(records) == 3
        assert len(out) == 104
        assert is_reduced(out)
        for start, end, *_ in records:
            assert end - start + 1 >= 2  # at least 2k letters per excision

    def test_at_most_one_event_per_block(self):
        cfg = tz.TrivializerConfig(m=2, ell=40, k=1)

        def filler(n):
            return tuple([2, 1][i % 2] for i in range(n))

        # two plants inside the single block: only the first fires
        r = (1, 2) + filler(5) + (2, -1, 2, 1) + filler(3) + (2, -1, 2, 1) + filler(22)
        assert len(r) == 40 and is_reduced(r)
        out, records = tz.reduce_relator(r, W("Ab"), cfg)
        assert len(records) == 1

    @given(st.data())
    def test_records_replay_to_the_result(self, data):
        # hosts of 0..3 blocks (block size 36 at m=2, 100 at m=3) made of
        # random letters and planted copies of d w d^-1, freely reduced
        m = data.draw(st.integers(2, 3))
        letter = st.integers(-m, m).filter(bool)
        w = free_reduce(data.draw(st.lists(letter, min_size=2, max_size=5)))
        assume(len(w) >= 2)
        d = free_reduce(data.draw(st.lists(letter, max_size=2)))
        plant = st.just(list(d + w + invert(d)))
        pieces = data.draw(st.lists(st.one_of(st.lists(letter, max_size=12), plant),
                                    max_size=30))
        r = free_reduce(x for piece in pieces for x in piece)
        cfg = tz.TrivializerConfig(m=m, ell=max(len(r), 1), k=1)
        out, records = tz.reduce_relator(r, w, cfg)
        host = r
        for start, end, conjugator, s, t, result in records:
            assert end >= start
            assert s != -t
            assert host[start - 2] == s and host[end] == t
            assert host[start - 1 : end] == conjugator + w + invert(conjugator)
            assert result == host[: start - 1] + host[end:]
            assert is_reduced(result)
            host = result
        assert host == out
        assert bool(records) == (out != r)

    @given(st.data())
    def test_matches_reference_scan(self, data):
        # hosts of 1..3 blocks at k=1 (block size 36 at m=2, 100 at m=3) with
        # copies of d w d^-1 planted anywhere or across a block boundary
        m = data.draw(st.integers(2, 3))
        size = tz.TrivializerConfig(m=m, ell=2, k=1).block_size
        letter = st.integers(-m, m).filter(bool)
        w = free_reduce(data.draw(st.lists(letter, min_size=2, max_size=4)))
        assume(len(w) >= 2)
        length = 2 + data.draw(st.integers(1, 3)) * size + data.draw(st.integers(0, 3))
        seed = data.draw(st.integers(0, 2**32 - 1))
        r = list(words.sample_relator_matrix(m, length, 1, RandomSource(seed))[0].tolist())
        for _ in range(data.draw(st.integers(0, 4))):
            d = free_reduce(data.draw(st.lists(letter, max_size=2)))
            plant = list(d + w + invert(d))
            edge = tz.RESERVED_PREFIX + data.draw(st.integers(0, length // size)) * size
            at = data.draw(st.one_of(st.integers(0, length - 1),
                                     st.integers(edge - len(plant) - 1, edge + 1)))
            at = min(max(at, 0), len(r))
            r[at : at + len(plant)] = plant
        r = free_reduce(r)
        cfg = tz.TrivializerConfig(m=m, ell=max(len(r), 1), k=1)
        assert tz.reduce_relator(r, w, cfg) == reference_reduce(r, w, cfg)

    @pytest.mark.parametrize("w", [W("aAb"), W("a"), ()])
    def test_rejects_invalid_w(self, w):
        cfg = tz.TrivializerConfig(m=2, ell=110, k=1)
        r = (1, 2) + tuple([2, 1] * 54)
        with pytest.raises(ValueError):
            tz.reduce_relator(r, w, cfg)


def class_of_a(certificates) -> set:
    """The symbols that the certified x = y, with -x = -y, join to a, by a BFS."""
    edges = {}
    for c in certificates:
        for x, y in ((c.x, c.y), (-c.x, -c.y)):
            edges.setdefault(x, set()).add(y)
            edges.setdefault(y, set()).add(x)
    seen, todo = {1}, [1]
    while todo:
        new = edges.get(todo.pop(), set()) - seen
        seen |= new
        todo += new
    return seen


class TestTrivialize:
    def test_degenerate_tail_match_without_reduction(self):
        R = Presentation(2, [W("abb"), W("bbb")])
        v = tz.trivialize(R, tz.TrivializerConfig(m=2, ell=3, k=1))
        assert v.outcome == tz.OUTCOME_UNKNOWN  # one edge cannot connect 4 symbols
        assert v.stats.reductions_applied == 0
        assert len(v.certificates) == 1
        cert = v.certificates[0]
        assert (cert.x, cert.y) == (1, 2)
        assert tz.check_certificate(R, cert)

    def test_single_relator_unknown(self):
        R = Presentation(2, [W("abab")])
        v = tz.trivialize(R, tz.TrivializerConfig(m=2, ell=4, k=1))
        assert v.outcome == tz.OUTCOME_UNKNOWN
        assert v.certificates == []
        assert tz.abelianization_guard(R) == tz.CERTAINLY_NONTRIVIAL

    def test_sampled_trivial_run_with_valid_certificates(self):
        params = ModelParams.from_density(2, 16, 0.55)
        pres = sample_presentation(params, RandomSource(0).child(0))
        v = tz.trivialize(pres)
        assert v.outcome == tz.OUTCOME_TRIVIAL
        assert v.certificates
        for cert in v.certificates:
            assert tz.check_certificate(pres, cert)

    def test_synthetic_pipeline_with_reduction(self):
        pres = build_reduction_fixture()
        v = tz.trivialize(pres, tz.TrivializerConfig(m=2, ell=40, k=1))
        assert v.outcome == tz.OUTCOME_TRIVIAL
        assert v.stats.reductions_applied == 1
        kinds = {type(s).__name__ for c in v.certificates for s in c.steps}
        assert "CollisionStep" in kinds and "ReductionStep" in kinds
        for cert in v.certificates:
            assert tz.check_certificate(pres, cert)

    def test_deterministic_replay(self):
        params = ModelParams.from_density(2, 14, 0.5)
        a = tz.trivialize(sample_presentation(params, RandomSource(9).child(0)))
        b = tz.trivialize(sample_presentation(params, RandomSource(9).child(0)))
        assert json.dumps(a.to_json_dict(), sort_keys=True) == \
            json.dumps(b.to_json_dict(), sort_keys=True)

    def test_max_rounds_extension_runs(self):
        pres = build_reduction_fixture()
        v = tz.trivialize(pres, tz.TrivializerConfig(m=2, ell=40, k=1, max_rounds=3))
        assert v.outcome == tz.OUTCOME_TRIVIAL
        assert v.stats.rounds <= 3

    @pytest.mark.parametrize("m", [2, 3])
    def test_outcome_matches_certificate_classes(self, m):
        # trivial iff the certified equalities x = y, with -x = -y, join the
        # 2m symbols into one class
        outcomes = []
        for ell, density, seed in itertools.product(range(8, 13), (0.5, 0.55), range(4)):
            params = ModelParams.from_density(m, ell, density)
            v = tz.trivialize(sample_presentation(params, RandomSource(seed).child(0)))
            joined = len(class_of_a(v.certificates)) == 2 * m
            assert (v.outcome == tz.OUTCOME_TRIVIAL) == joined, (ell, density, seed)
            outcomes.append(v.outcome)
        assert set(outcomes) == {tz.OUTCOME_TRIVIAL, tz.OUTCOME_UNKNOWN}

    def test_rejects_config_for_other_m(self):
        R = Presentation(3, [W("abc"), W("bca")])
        with pytest.raises(ValueError, match="m=2.*m=3"):
            tz.trivialize(R, tz.TrivializerConfig(m=2, ell=3, k=1))

    def test_rejects_one_generator(self):
        with pytest.raises(ValueError, match="m must be >= 2"):
            tz.trivialize(Presentation(1, [(1, 1, 1)]))

    def test_empty_presentation(self):
        v = tz.trivialize(Presentation(2, []), tz.TrivializerConfig(m=2, ell=4, k=1))
        assert v.outcome == tz.OUTCOME_UNKNOWN

    @pytest.mark.parametrize("m,ell", [(2, 9), (2, 11), (3, 7), (3, 9)])
    def test_sampled_matrix_path_matches_ragged_path(self, m, ell):
        # a sampled matrix and the same words packed from a list of tuples
        params = ModelParams.from_density(m, ell, 0.55)
        k = tz.choose_k(ell, m)
        duplicated = 0
        for seed in range(4):
            sampled = sample_presentation(params, RandomSource(seed).child(0))
            mat = sampled.matrix
            duplicated += len(tz._group_tails(mat, 1)) + len(tz._group_tails(mat, k))
            got = tz.trivialize(sampled).to_json_dict()
            listed = Presentation(m, list(sampled.relators))
            assert tz.trivialize(listed).to_json_dict() == got
        assert duplicated > 0

    def test_sampled_pipeline_never_builds_relator_list(self, monkeypatch):
        pres = sample_presentation(ModelParams.from_density(2, 16, 0.55),
                                   RandomSource(0).child(0))
        monkeypatch.setattr(words.Presentation, "relators",
                            property(lambda self: pytest.fail("relator list built")))
        v = tz.trivialize(pres)
        assert v.outcome == tz.OUTCOME_TRIVIAL and v.certificates
        assert all(tz.check_certificate(pres, cert) for cert in v.certificates)
        assert tz.abelianization_guard(pres) == tz.POSSIBLY_TRIVIAL

    def test_builds_reduction_steps_only_for_certificates(self, monkeypatch):
        # 1,080 reductions; the certificates cite a handful of them
        from test_golden import reduction_sweep_presentation

        built = []
        init = tz.ReductionStep.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(tz.ReductionStep, "__init__", counting_init)
        v = tz.trivialize(reduction_sweep_presentation(True),
                          tz.TrivializerConfig(m=2, ell=80, k=1, max_rounds=3))
        assert v.stats.reductions_applied == 1080
        in_certs = [s for c in v.certificates for s in c.steps
                    if isinstance(s, tz.ReductionStep)]
        # the certificates' own steps are the re-indexed copies
        outside = [s for s in built if not any(s is t for t in in_certs)]
        assert in_certs and len(outside) <= len(in_certs)

    @staticmethod
    def count_groupings(monkeypatch):
        """The (start, matrix) of every _group_tails call trivialize makes."""
        calls = []
        group_tails = tz._group_tails

        def recording(mat, start):
            calls.append((start, mat.copy()))
            return group_tails(mat, start)

        monkeypatch.setattr(tz, "_group_tails", recording)
        return calls

    def test_groups_tails_once_at_k1_when_reduction_is_inert(self, monkeypatch):
        calls = self.count_groupings(monkeypatch)
        pres = sample_presentation(ModelParams.from_density(2, 16, 0.55),
                                   RandomSource(0).child(0))
        for max_rounds in (1, 3):
            calls.clear()
            v = tz.trivialize(pres, tz.TrivializerConfig.for_params(2, 16, max_rounds=max_rounds))
            assert v.config.k == 1 and v.stats.reductions_applied == 0
            assert v.outcome == tz.OUTCOME_TRIVIAL
            assert [start for start, _ in calls] == [1]

    def test_groups_tails_afresh_after_excision(self, monkeypatch):
        calls = self.count_groupings(monkeypatch)
        pres = build_reduction_fixture()
        v = tz.trivialize(pres, tz.TrivializerConfig(m=2, ell=40, k=1))
        assert v.stats.reductions_applied == 1
        assert [start for start, _ in calls] == [1, 1]
        assert np.array_equal(calls[0][1], pres.matrix)
        assert not np.array_equal(calls[1][1], pres.matrix)  # the reduced matrix

    def test_next_round_reuses_the_conclusion_groups(self, monkeypatch):
        from test_golden import reduction_sweep_presentation

        calls = self.count_groupings(monkeypatch)
        v = tz.trivialize(reduction_sweep_presentation(True),
                          tz.TrivializerConfig(m=2, ell=80, k=1, max_rounds=3))
        assert v.stats.rounds >= 2 and v.stats.reductions_applied
        # one grouping for the input, then one after each round that excised
        assert len(calls) == v.stats.rounds + 1
        mats = [mat.tobytes() for _, mat in calls]
        assert len(set(mats)) == len(mats)

    def test_groups_tails_twice_a_round_at_k2(self, monkeypatch):
        calls = self.count_groupings(monkeypatch)
        pres = sample_presentation(ModelParams.from_density(2, 16, 0.55),
                                   RandomSource(0).child(0))
        v = tz.trivialize(pres, tz.TrivializerConfig(m=2, ell=16, k=2))
        assert v.stats.rounds == 1
        assert [start for start, _ in calls] == [2, 1]

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_properties_on_small_ragged_presentations(self, data):
        m = data.draw(st.sampled_from([2, 3]))
        letters = [x for x in range(-m, m + 1) if x]
        raw = data.draw(st.lists(st.lists(st.sampled_from(letters), max_size=12),
                                 max_size=14))
        rows = [free_reduce(tuple(u)) for u in raw]
        for _ in range(data.draw(st.integers(0, 6)) if rows else 0):
            r = rows[data.draw(st.integers(0, len(rows) - 1))]
            kind = data.draw(st.sampled_from(["duplicate", "inverse", "new first letter"]))
            if kind == "duplicate":
                rows.append(r)
            elif kind == "inverse":
                rows.append(invert(r))
            elif r:
                # the same tail under a first letter that keeps the word reduced
                firsts = [z for z in letters if len(r) < 2 or z != -r[1]]
                rows.append((data.draw(st.sampled_from(firsts)),) + r[1:])
        R = Presentation(m, data.draw(st.permutations(rows))[:14])
        k = data.draw(st.integers(1, 3))
        cfg = tz.TrivializerConfig(m=m, ell=max(R.max_length(), k), k=k,
                                   max_rounds=data.draw(st.integers(1, 3)))
        v = tz.trivialize(R, cfg)  # a SoundnessError fails the test
        assert all(tz.check_certificate(R, cert) for cert in v.certificates)
        assert (v.outcome == tz.OUTCOME_TRIVIAL) == (len(class_of_a(v.certificates)) == 2 * m)
        if v.outcome == tz.OUTCOME_TRIVIAL:
            assert tz.abelianization_guard(R) == tz.POSSIBLY_TRIVIAL
        assert v.stats.equality_edges == len(v.certificates)
        assert 1 <= v.stats.rounds <= cfg.max_rounds
        assert json.dumps(tz.trivialize(R, cfg).to_json_dict()) == json.dumps(v.to_json_dict())

    def test_verdict_json_serializable(self):
        pres = build_reduction_fixture()
        v = tz.trivialize(pres, tz.TrivializerConfig(m=2, ell=40, k=1))
        payload = json.dumps(v.to_json_dict(), sort_keys=True)
        assert '"outcome": "trivial"' in payload


class TestCheckCertificate:
    @pytest.fixture()
    def fixture_run(self):
        pres = build_reduction_fixture()
        v = tz.trivialize(pres, tz.TrivializerConfig(m=2, ell=40, k=1))
        chain_cert = next(c for c in v.certificates
                          if any(isinstance(s, tz.ReductionStep) for s in c.steps))
        return pres, chain_cert

    def test_roundtrip_json(self, fixture_run):
        pres, cert = fixture_run
        back = tz.Certificate.from_json_dict(cert.to_json_dict())
        assert tz.check_certificate(pres, back)

    def test_corrupt_collision_w_fails_replay(self, fixture_run):
        pres, cert = fixture_run
        steps = list(cert.steps)
        idx, col = next((i, s) for i, s in enumerate(steps)
                        if isinstance(s, tz.CollisionStep))
        bad_w = (col.w[0], -col.w[0]) + col.w[2:]  # still parses, wrong word
        steps[idx] = dataclasses.replace(col, w=bad_w)
        assert tz.check_certificate(pres, tz.Certificate(cert.x, cert.y, steps)) is False

    def test_corrupt_reduction_result_fails_replay(self, fixture_run):
        pres, cert = fixture_run
        steps = list(cert.steps)
        idx, red = next((i, s) for i, s in enumerate(steps)
                        if isinstance(s, tz.ReductionStep))
        steps[idx] = dataclasses.replace(red, result=red.result[:-1] + (red.result[-1] * -1,))
        assert tz.check_certificate(pres, tz.Certificate(cert.x, cert.y, steps)) is False

    def test_citing_foreign_relator_raises(self, fixture_run):
        pres, cert = fixture_run
        steps = list(cert.steps)
        idx, rel = next((i, s) for i, s in enumerate(steps)
                        if isinstance(s, tz.RelatorStep))
        steps[idx] = dataclasses.replace(rel, word=rel.word[:-1] + (2, 1))
        with pytest.raises(tz.CertificateError):
            tz.check_certificate(pres, tz.Certificate(cert.x, cert.y, steps))

    def test_out_of_range_relator_index_raises(self, fixture_run):
        pres, cert = fixture_run
        steps = list(cert.steps)
        idx, rel = next((i, s) for i, s in enumerate(steps)
                        if isinstance(s, tz.RelatorStep))
        steps[idx] = dataclasses.replace(rel, index=99)
        with pytest.raises(tz.CertificateError):
            tz.check_certificate(pres, tz.Certificate(cert.x, cert.y, steps))

    def test_forward_reference_raises(self, fixture_run):
        pres, cert = fixture_run
        steps = list(cert.steps)
        idx, con = next((i, s) for i, s in enumerate(steps)
                        if isinstance(s, tz.ConclusionStep))
        steps[idx] = dataclasses.replace(con, r1=len(steps) + 5)
        with pytest.raises(tz.CertificateError):
            tz.check_certificate(pres, tz.Certificate(cert.x, cert.y, steps))

    def test_missing_conclusion_raises(self, fixture_run):
        pres, cert = fixture_run
        steps = [s for s in cert.steps if not isinstance(s, tz.ConclusionStep)]
        with pytest.raises(tz.CertificateError):
            tz.check_certificate(pres, tz.Certificate(cert.x, cert.y, steps))

    def test_unknown_step_kind_rejected(self, fixture_run):
        _, cert = fixture_run
        bad = cert.to_json_dict()
        bad["steps"][0]["kind"] = "lemma"
        with pytest.raises(tz.CertificateError, match="unknown step kind 'lemma'"):
            tz.Certificate.from_json_dict(bad)

    def test_no_steps_raises(self, fixture_run):
        pres, cert = fixture_run
        with pytest.raises(tz.CertificateError, match="no steps"):
            tz.check_certificate(pres, tz.Certificate(cert.x, cert.y, []))

    def test_step_of_no_step_type_raises(self, fixture_run):
        pres, cert = fixture_run
        steps = [tuple(dataclasses.astuple(cert.steps[0]))] + list(cert.steps[1:])
        with pytest.raises(tz.CertificateError, match="unknown step type tuple"):
            tz.check_certificate(pres, tz.Certificate(cert.x, cert.y, steps))

    def test_citing_a_conclusion_raises(self, fixture_run):
        pres, cert = fixture_run
        steps = list(cert.steps)
        idx, con = next((i, s) for i, s in enumerate(steps)
                        if isinstance(s, tz.ConclusionStep))
        steps.append(dataclasses.replace(con, r1=idx))
        with pytest.raises(tz.CertificateError, match="references a non-word step"):
            tz.check_certificate(pres, tz.Certificate(cert.x, cert.y, steps))

    def test_conclusion_citing_an_empty_relator_fails(self):
        pres = Presentation(2, [(), (1, 2)])
        steps = [tz.RelatorStep(0, ()), tz.RelatorStep(1, (1, 2)),
                 tz.ConclusionStep(0, 1, 2, 1)]
        assert tz.check_certificate(pres, tz.Certificate(2, 1, steps)) is False

    def test_wrong_asserted_equality_fails(self, fixture_run):
        pres, cert = fixture_run
        assert tz.check_certificate(pres, tz.Certificate(cert.y, cert.x, cert.steps)) is False

    @pytest.mark.parametrize("kind,key,value", [
        ("reduction", "start", 11.9),
        ("collision", "k", "1"),
        ("reduction", "host", 3.5),
        ("collision", "k", True),
    ])
    def test_non_integer_in_int_field_rejected(self, fixture_run, kind, key, value):
        _, cert = fixture_run
        bad = cert.to_json_dict()
        next(st for st in bad["steps"] if st["kind"] == kind)[key] = value
        with pytest.raises(tz.CertificateError):
            tz.Certificate.from_json_dict(bad)

    @pytest.mark.parametrize("kind,key,value", [
        ("collision", "w", ["A", "b"]),
        ("relator", "word", {"a": 1}),
        ("reduction", "conjugator", {}),
    ])
    def test_word_field_that_is_no_string_rejected(self, fixture_run, kind, key, value):
        # each would read as a word of its characters: Ab, a and the empty word
        _, cert = fixture_run
        bad = cert.to_json_dict()
        next(st for st in bad["steps"] if st["kind"] == kind)[key] = value
        with pytest.raises(tz.CertificateError, match="expected a word string"):
            tz.Certificate.from_json_dict(bad)

    def test_multi_letter_string_in_letter_field_rejected(self, fixture_run):
        _, cert = fixture_run
        good = cert.to_json_dict()
        slots = [(None, "x"), (None, "y")] + [
            (i, key) for i, st in enumerate(good["steps"])
            for key in ("x", "y", "s_letter", "t_letter") if key in st
        ]
        assert len(slots) == 6
        for i, key in slots:
            bad = copy.deepcopy(good)
            target = bad if i is None else bad["steps"][i]
            target[key] += "bAB"
            with pytest.raises(tz.CertificateError):
                tz.Certificate.from_json_dict(bad)


def replay_edited(cert, relators, claim=None, **edits):
    """check_certificate of cert on the presentation of relators, each relator
    step citing its relator there, the fields of its one collision, reduction
    or conclusion step replaced by edits[kind], and claim (x, y) if given."""
    steps = [dataclasses.replace(s, word=relators[s.index]) if isinstance(s, tz.RelatorStep)
             else dataclasses.replace(s, **edits.get(s.kind, {})) for s in cert.steps]
    x, y = claim or (cert.x, cert.y)
    return tz.check_certificate(Presentation(2, relators), tz.Certificate(x, y, steps))


class TestCheckerEdges:
    """Certificates at the edges of each checker test, edited from the fixture's.

    The chain certificate reads: relators r0 = ab T and r1 = bb T collide at
    k = 1 with w = Ab; the host's w at 11..12, between the flanks b and a, is
    excised; the partner agrees with the result from position 2, so a = A.
    """

    @pytest.fixture()
    def run(self):
        pres = build_reduction_fixture()
        v = tz.trivialize(pres, tz.TrivializerConfig(m=2, ell=40, k=1))
        first, chain = v.certificates
        assert replay_edited(chain, pres.relators) and replay_edited(first, pres.relators)
        return pres.relators, chain, first

    def test_reduction_whose_flanks_cancel_fails(self, run):
        (r0, r1, host, _), chain, _ = run
        # flanks B and b around w = Ab: the host stays freely reduced, the result does not
        host = host[:9] + (-2, -1, 2, 2) + host[13:]
        result = host[:10] + host[12:]
        assert replay_edited(chain, [r0, r1, host, (-1,) + result[1:]],
                             reduction={"s_letter": -2, "t_letter": 2, "result": result}) is False

    def test_collision_of_whole_words_replays(self, run):
        (r0, r1, host, partner), chain, _ = run
        # the relators a and b collide at k = 1 = len(u) = len(v), with empty tails
        assert replay_edited(chain, [r0[:1], r1[:1], host, partner]) is True

    def test_reduction_at_start_two_replays(self, run):
        (r0, r1, host, _), chain, _ = run
        # the host from its flank b on, so w = Ab is at 2..3; a partner B... gives b = B
        host = host[9:]
        result = host[:1] + host[3:]
        assert replay_edited(chain, [r0, r1, host, (-2,) + result[1:]], claim=(2, -2),
                             reduction={"start": 2, "end": 3, "result": result},
                             conclusion={"x": 2, "y": -2}) is True

    def test_reduction_ending_before_the_last_letter_replays(self, run):
        (r0, r1, host, _), chain, _ = run
        # the host up to its flank a: end = 12 = len(host) - 1
        host = host[:13]
        result = host[:10] + host[12:]
        assert replay_edited(chain, [r0, r1, host, (-1,) + result[1:]],
                             reduction={"result": result}) is True

    def test_reduction_with_no_right_flank_fails(self, run):
        (r0, r1, host, partner), chain, _ = run
        # the host ends with w: end = 12 = len(host), and there is no letter t
        host = host[:12]
        assert replay_edited(chain, [r0, r1, host, partner],
                             reduction={"result": host[:10]}) is False

    def test_collision_past_the_shorter_word_fails(self, run):
        (r0, r1, host, partner), chain, _ = run
        # u = ab and v = b at k = 2: k <= len(u) but k > len(v)
        assert replay_edited(chain, [r0[:2], r1[:1], host, partner],
                             collision={"k": 2, "w": (-2, -1, 2)}) is False

    def test_conclusion_on_one_letter_words_replays(self, run):
        (r0, r1, _, _), _, first = run
        # the fixture's a = b certificate, its relators cut to a and b
        assert replay_edited(first, [r0[:1], r1[:1]]) is True

    def test_collision_whose_kth_letters_agree_fails(self, run):
        (r0, r1, host, _), chain, _ = run
        # ab T and bb T at k = 2: first letters differ, second letters agree.
        # Every later step is consistent with w = BAbb, so only the collision's
        # form refutes the certificate.
        w = invert(r0[:2]) + r1[:2]
        host = host[:9] + (1,) + w + (1,) + host[13:]
        result = host[:10] + host[14:]
        assert replay_edited(chain, [r0, r1, host, (-1,) + result[1:]],
                             collision={"k": 2, "w": w},
                             reduction={"end": 14, "s_letter": 1, "t_letter": 1,
                                        "result": result}) is False


def _perturbations(value):
    """Single-field edits: +-1 and negation for ints, drop/extend/invert for words."""
    if isinstance(value, tuple):
        cands = [value[:-1], value + (value[-1] if value else 1,), invert(value)]
    else:
        cands = [value + 1, value - 1, -value]
    return [c for c in cands if c != value]


class TestCertificateMutations:
    def test_every_single_field_perturbation_is_rejected(self):
        pres = build_reduction_fixture()
        v = tz.trivialize(pres, tz.TrivializerConfig(m=2, ell=40, k=1))
        mutants = []
        for cert in v.certificates:
            assert tz.check_certificate(pres, cert)
            for name in ("x", "y"):
                mutants += [(name, dataclasses.replace(cert, **{name: bad}))
                            for bad in _perturbations(getattr(cert, name))]
            for pos, step in enumerate(cert.steps):
                for f in dataclasses.fields(step):
                    for bad in _perturbations(getattr(step, f.name)):
                        steps = list(cert.steps)
                        steps[pos] = dataclasses.replace(step, **{f.name: bad})
                        mutants.append(((pos, f.name), dataclasses.replace(cert, steps=steps)))
        assert len(mutants) == 102
        for where, mutant in mutants:
            try:
                ok = tz.check_certificate(pres, mutant)
            except tz.CertificateError:
                continue
            assert ok is False, (where, mutant)

    def test_collision_with_unequal_tails_is_rejected(self):
        # abab and baba have different heads, and w = Ab is their prefix
        # quotient; only the tail check (bab != aba) refutes the collision,
        # which would otherwise certify A = a through the tails of Ab and ab
        pres = Presentation(2, [W("abab"), W("baba"), W("ab")])
        steps = [tz.RelatorStep(0, W("abab")), tz.RelatorStep(1, W("baba")),
                 tz.CollisionStep(0, 1, 1, W("Ab")), tz.RelatorStep(2, W("ab")),
                 tz.ConclusionStep(2, 3, -1, 1)]
        assert tz.check_certificate(pres, tz.Certificate(-1, 1, steps)) is False


class TestAbelianizationGuard:
    def test_contradicted_trivial_verdict_raises(self, monkeypatch):
        # trivialize runs the guard on its own trivial verdicts
        pres = build_reduction_fixture()
        cfg = tz.TrivializerConfig(m=2, ell=40, k=1)
        assert tz.trivialize(pres, cfg).outcome == tz.OUTCOME_TRIVIAL
        monkeypatch.setattr(tz, "abelianization_guard", lambda R: tz.CERTAINLY_NONTRIVIAL)
        with pytest.raises(tz.SoundnessError):
            tz.trivialize(pres, cfg)

    def test_rank_two(self):
        assert tz.abelianization_guard(Presentation(2, [W("ab"), W("aB")])) \
            == tz.POSSIBLY_TRIVIAL

    def test_rank_one(self):
        assert tz.abelianization_guard(Presentation(2, [W("abab")])) \
            == tz.CERTAINLY_NONTRIVIAL

    def test_free_group(self):
        assert tz.abelianization_guard(Presentation(2, [])) == tz.CERTAINLY_NONTRIVIAL

    def test_redundant_rows(self):
        R = Presentation(2, [W("ab"), W("ab"), W("abab")])
        assert tz.abelianization_guard(R) == tz.CERTAINLY_NONTRIVIAL

    def test_later_row_lifts_deficient_probe(self):
        # the first 4m rows have zero exponent sum in b; row 9 is b
        R = Presentation(2, [W("a"), W("aa"), W("bAB"), W("abaB"), W("A"), W("baB"),
                             W("Bab"), W("bbaBB"), W("b")])
        assert tz.abelianization_guard(R) == tz.POSSIBLY_TRIVIAL

    def test_every_row_deficient(self):
        R = Presentation(2, [W("a"), W("aa"), W("bAB"), W("abaB"), W("baB")] * 3)
        assert tz.abelianization_guard(R) == tz.CERTAINLY_NONTRIVIAL

    @given(st.data())
    def test_matches_gcd_of_minors(self, data):
        # the index [Z^m : L] of the row lattice L is the gcd of the m x m
        # minors of the exponent matrix, 0 when they all vanish
        def det(M):
            if len(M) == 1:
                return M[0][0]
            return sum((-1) ** j * M[0][j] * det([r[:j] + r[j + 1:] for r in M[1:]])
                       for j in range(len(M)))

        m = data.draw(st.integers(1, 3))
        letter = st.integers(-m, m).filter(bool)
        rows = data.draw(st.lists(st.lists(letter, max_size=5).map(tuple), max_size=16))
        for _ in range(data.draw(st.integers(0, 3)) if rows else 0):
            rows.insert(data.draw(st.integers(0, len(rows))), data.draw(st.sampled_from(rows)))
        E = [[r.count(g) - r.count(-g) for g in range(1, m + 1)] for r in rows]
        index = math.gcd(*(det(list(M)) for M in itertools.combinations(E, m)))
        assert tz.abelianization_guard(Presentation(m, rows)) == \
            (tz.POSSIBLY_TRIVIAL if index in (1, 2) else tz.CERTAINLY_NONTRIVIAL)

    def test_index_above_two_is_nontrivial(self):
        # full rank, but Z^2 / L is Z/3 or Z/2 x Z/2
        assert tz.abelianization_guard(Presentation(2, [W("a"), W("bbb")])) \
            == tz.CERTAINLY_NONTRIVIAL
        assert tz.abelianization_guard(Presentation(2, [W("aa"), W("bb")])) \
            == tz.CERTAINLY_NONTRIVIAL
        assert tz.abelianization_guard(Presentation(2, [W("aa"), W("bb"), W("ab")])) \
            == tz.POSSIBLY_TRIVIAL

    def test_sampled_guard_reads_only_the_probe(self, monkeypatch):
        pres = sample_presentation(ModelParams.from_density(3, 12, 0.5), RandomSource(8).child(0))
        probed = []
        exponent_matrix = tz._exponent_matrix
        monkeypatch.setattr(tz, "_exponent_matrix",
                            lambda mat, m: probed.append(len(mat)) or exponent_matrix(mat, m))
        assert tz.abelianization_guard(pres) == tz.POSSIBLY_TRIVIAL
        assert probed == [12] and len(pres) > 12

    def test_relator_list_edit_leaves_presentation_unchanged(self):
        params = ModelParams(2, 10, 50)
        pres = sample_presentation(params, RandomSource(3).child(0))
        relators, matrix = pres.relators, pres.matrix.copy()
        exponents = tz._exponent_matrix(pres.matrix, pres.m)
        guard = tz.abelianization_guard(pres)
        listed = pres.relators
        listed[5] = (1, 2) * 5
        assert pres.relators == relators and listed != relators
        assert np.array_equal(pres.matrix, matrix)
        assert np.array_equal(tz._exponent_matrix(pres.matrix, pres.m), exponents)
        assert tz.abelianization_guard(pres) == guard
        with pytest.raises(ValueError):
            pres.matrix[5, 0] = 1

    def test_exponent_matrix_same_for_matrix_and_ragged_input(self):
        pres = sample_presentation(ModelParams(3, 12, 300), RandomSource(4).child(0))
        ragged = Presentation(3, list(pres.relators) + [W("cA")])
        assert ragged.matrix[-1].tolist() == [3, -1] + [0] * 10
        E = tz._exponent_matrix(pres.matrix, pres.m)
        expected = [[sum((x == g) - (x == -g) for x in r) for g in (1, 2, 3)]
                    for r in ragged.relators]
        assert E.tolist() == expected[:-1]
        assert tz._exponent_matrix(ragged.matrix, ragged.m).tolist() == expected

    def test_matches_for_sampled(self):
        params = ModelParams.from_density(2, 10, 0.5)
        pres = sample_presentation(params, RandomSource(3).child(0))
        assert tz.abelianization_guard(pres) == tz.POSSIBLY_TRIVIAL

    @pytest.mark.parametrize("block_letters", [1, 7, 12, 50, 1 << 18])
    def test_exponent_matrix_same_over_row_blocks(self, monkeypatch, block_letters):
        # the guard bins blocks of at most max(1, block_letters // width) rows,
        # in row order, and its verdict does not depend on the cap
        pres = sample_presentation(ModelParams(3, 12, 300), RandomSource(5).child(0))
        ragged = Presentation(3, list(pres.relators) + [W("cA"), (), W("bbC")])
        control = b_sum_control(0, 3, lambda b: b % 3 == 0)  # index 3
        verdicts = [tz.abelianization_guard(R) for R in (ragged, control)]
        assert verdicts[1] == tz.CERTAINLY_NONTRIVIAL
        blocks = []
        exponent_matrix = tz._exponent_matrix
        monkeypatch.setattr(tz, "_exponent_matrix",
                            lambda mat, m: blocks.append(mat) or exponent_matrix(mat, m))
        monkeypatch.setattr(tz, "EXPONENT_BLOCK_LETTERS", block_letters)
        for R, verdict in zip((ragged, control), verdicts):
            blocks.clear()
            assert tz.abelianization_guard(R) == verdict
            cap = max(1, block_letters // R.matrix.shape[1])
            assert blocks and all(len(b) <= cap for b in blocks)
            read = np.concatenate(blocks)
            assert np.array_equal(read, R.matrix[:len(read)])
        assert len(read) == len(control)  # a nontrivial verdict reads every row

    def test_guard_peak_memory_is_a_few_matrices(self):
        import tracemalloc

        pres = sample_presentation(ModelParams(2, 22, 177_147), RandomSource(6))
        tz.abelianization_guard(Presentation(2, [W("ab")]))
        tracemalloc.start()
        try:
            tz.abelianization_guard(pres)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one intp bin index per letter of the whole matrix takes over 10x
        assert peak < 4 * pres.matrix.nbytes


class TestPlantedRate:
    def test_rate_clears_quarter(self):
        rate, se = tz.planted_reduction_rate(2, 2, 5000, RandomSource(17))
        assert rate > 0.25 - 3 * se

    def test_deterministic(self):
        a = tz.planted_reduction_rate(2, 2, 2000, RandomSource(18))
        b = tz.planted_reduction_rate(2, 2, 2000, RandomSource(18))
        assert a == b

    @pytest.mark.parametrize("blocks", [0, -1])
    def test_rejects_fewer_than_one_block(self, blocks):
        with pytest.raises(ValueError, match="blocks"):
            tz.planted_reduction_rate(2, 2, blocks, RandomSource(18))


def b_sum_control(seed, m, keep):
    """Relators whose exponent sums in b pass keep, set up for the reduction stage.

    Tail pairs (a T, A T) give round 1 the trivial word w = AA, and copies of
    w planted in block 0 of the hosts let the reduction stage fire.
    """
    gen = RandomSource(seed).generator()
    length = tz.TrivializerConfig(m=m, ell=2, k=1).block_size + 24
    mat = words.sample_relator_matrix(m, length, 800, gen)
    balanced = [tuple(r) for r, b in zip(mat.tolist(), (mat == 2).sum(1) - (mat == -2).sum(1))
                if keep(b)]
    rows = []
    for T in [r for r in balanced if abs(r[0]) == 2][:6]:
        rows += [(1,) + T, (-1,) + T]
    for r in balanced[:40]:
        r = list(r)
        at = int(gen.integers(tz.RESERVED_PREFIX, 30))
        r[at:at] = (-1, -1)
        rows.append(free_reduce(r))
    return Presentation(m, rows)


def reduction_presentation(m, k, pick, between, gen):
    """A presentation on which the reduction stage fires at head length k.

    pick(options) and between(lo, hi) make the random choices and gen samples
    the random words.  Rows hold one to three blocks.  Rows 0 and 1 are a
    tail-collision pair (h1 T, h2 T) whose heads of length k differ at
    positions 1 and k, so round 1's w is h1^-1 h2.  Later pairs (-h1 T',
    -h2 T'), (h2 T', h1 T') or (-h2 T', -h1 T'), with -h the letterwise
    inverse, supply other w for later rounds.  Copies of d w d^-1 are
    planted in blocks, and partners z h'[2..] of hosts h reduced by the first
    few w let conclusions cite reductions, from several rounds.  With
    x = h1[0] and y = h2[0], x != -y, so {x, y} and {-x, -y} are two classes.
    Returns the presentation and the w of the pairs, in row order.
    """
    size = tz.TrivializerConfig(m=m, ell=2, k=k).block_size
    cfg1 = tz.TrivializerConfig(m=m, ell=3 * size + 2, k=k)
    letters = [z for x in range(1, m + 1) for z in (x, -x)]

    def word(length):
        return list(words.sample_relator_matrix(m, length, 1, gen)[0].tolist())

    def neg(h):
        return tuple(-z for z in h)

    def head(first_not, last_not):
        h = []
        for i in range(k):
            banned = {-h[-1]} if h else set()
            banned |= set(first_not) if i == 0 else set()
            banned |= set(last_not) if i == k - 1 else set()
            h.append(pick([z for z in letters if z not in banned]))
        return tuple(h)

    def plant(r, w, block, dmax=3):
        d = free_reduce([pick(letters) for _ in range(between(0, dmax))])
        lo = tz.RESERVED_PREFIX + block * size
        at = between(lo, min(lo + size, len(r)) - 2 * len(d) - len(w))
        r[at : at + 2 * len(d) + len(w)] = d + w + invert(d)

    tail = tuple(word(between(size + 2, 3 * size + 2) - k))
    h1 = head((), (-tail[0],))
    h2 = head((h1[0], -h1[0]), (-tail[0], h1[-1]))
    x, y = h1[0], h2[0]
    same_class = {x: y, y: x, -x: -y, -y: -x}
    rows, ws = [h1 + tail, h2 + tail], [concat_reduce(invert(h1), h2)]
    count = between(5, 40)
    while len(rows) < count:
        kind = pick(["plain", "planted", "pair", "partner"])
        r = word(between(size + 2, 3 * size + 2))
        if kind == "pair":
            a, b = pick([(neg(h1), neg(h2)), (h2, h1), (neg(h2), neg(h1))])
            if r[k] not in (-a[-1], -b[-1]):
                rows += [a + tuple(r[k:]), b + tuple(r[k:])]
                w = concat_reduce(invert(a), b)
                ws += [w] if w not in ws else []
            continue
        if kind == "planted":
            for block in range(cfg1.block_count_for(len(r))):
                plant(r, pick(ws), block)
        if kind == "partner":
            # one block that each round may shorten by a bare w, as in
            # perfbench's planted hosts; the partner then has no block
            r = word(between(size + 4, size + 8))
            for w_i in ws[:3]:
                plant(r, w_i, 0, dmax=between(0, 1))
        r = free_reduce(r)
        if kind == "partner" and len(r) >= 2:
            reduced, rounds = r, 0
            for i, w_i in enumerate(ws[: between(1, len(ws))]):
                reduced, records = tz.reduce_relator(reduced, w_i, cfg1)
                rounds = i + 1 if records else rounds
            # a round-1 match stays inside a class, so later rounds matter
            zs = [same_class.get(r[0])] if rounds <= 1 else letters
            zs = [z for z in zs if z not in (None, r[0], -reduced[1])]
            if zs:
                rows.append((pick(zs),) + reduced[1:])
        if r:
            rows.append(r)
    return Presentation(m, rows[:count]), ws


class TestSoundnessSweep:
    @staticmethod
    def assert_unknown_and_guarded(R, max_rounds):
        cfg = tz.TrivializerConfig(m=R.m, ell=R.max_length(), k=1, max_rounds=max_rounds)
        v = tz.trivialize(R, cfg)  # a SoundnessError fails the test
        assert v.outcome == tz.OUTCOME_UNKNOWN
        assert v.stats.reductions_applied > 0
        assert all(tz.check_certificate(R, cert) for cert in v.certificates)
        assert tz.abelianization_guard(R) == tz.CERTAINLY_NONTRIVIAL

    @pytest.mark.parametrize("max_rounds", [1, 3])
    @pytest.mark.parametrize("seed", range(3))
    def test_negative_controls(self, seed, max_rounds):
        # Every relator has zero exponent sum in b, so b has infinite order in
        # the abelianization and the group is not trivial, whatever the
        # derivation finds.
        R = b_sum_control(seed, 2, lambda b: b == 0)
        assert not tz._exponent_matrix(R.matrix, 2)[:, 1].any()
        self.assert_unknown_and_guarded(R, max_rounds)

    @pytest.mark.parametrize("max_rounds", [1, 3])
    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("modulus", [3, 4])
    def test_finite_negative_controls(self, modulus, m, max_rounds):
        # Every exponent sum in b is divisible by the modulus, so the
        # abelianization maps onto Z/modulus: the exponent rows have full
        # rank, yet the group has order above two.
        R = b_sum_control(0, m, lambda b: b % modulus == 0)
        E = tz._exponent_matrix(R.matrix, m)
        assert not (E[:, 1] % modulus).any()
        assert tz._add_rows([None] * m, E.tolist()) == modulus
        self.assert_unknown_and_guarded(R, max_rounds)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("density", [0.45, 0.5, 0.55])
    def test_small_grid(self, seed, density):
        params = ModelParams.from_density(2, 10, density)
        pres = sample_presentation(params, RandomSource(seed).child(0))
        v = tz.trivialize(pres)
        for cert in v.certificates:
            assert tz.check_certificate(pres, cert)
        if v.outcome == tz.OUTCOME_TRIVIAL:
            assert tz.abelianization_guard(pres) == tz.POSSIBLY_TRIVIAL

    @staticmethod
    def check_reduction_run(R, ws, k, max_rounds):
        """Trivialize R at head length k; every certificate replays, the guard agrees,
        round 1 makes exactly the reductions its w = ws[0] finds, and a rerun matches."""
        cfg = tz.TrivializerConfig(m=R.m, ell=R.max_length(), k=k, max_rounds=max_rounds)
        v = tz.trivialize(R, cfg)  # a SoundnessError fails the test
        for cert in v.certificates:
            assert tz.check_certificate(R, cert)
        if v.outcome == tz.OUTCOME_TRIVIAL:
            assert tz.abelianization_guard(R) == tz.POSSIBLY_TRIVIAL
        # round 1 excises exactly what the one-row call finds with its w
        first_round = sum(len(tz.reduce_relator(r, ws[0], cfg)[1]) for r in R.relators)
        assert v.stats.reductions_applied >= first_round
        if max_rounds == 1:
            assert v.stats.reductions_applied == first_round
        again = tz.trivialize(R, cfg)
        assert json.dumps(again.to_json_dict()) == json.dumps(v.to_json_dict())
        return v

    @settings(max_examples=60)
    @given(st.data())
    def test_reduction_stage_fires(self, data):
        gen = RandomSource(data.draw(st.integers(0, 2**32 - 1))).generator()
        R, ws = reduction_presentation(2, 1, lambda xs: data.draw(st.sampled_from(xs)),
                                       lambda lo, hi: data.draw(st.integers(lo, hi)), gen)
        self.check_reduction_run(R, ws, 1, data.draw(st.sampled_from([3, 2, 1])))

    @pytest.mark.parametrize("m,k", [(2, 1), (3, 1), (2, 2), (3, 2)])
    def test_seeded_reduction_sweep(self, m, k):
        # block sizes 36, 100, 486 and 3750; each of four seeds' presentations
        # runs at one to three rounds, and some runs must reduce, reach round 2 and
        # certify an equality that cites a reduction
        reduced = second_rounds = cited = 0
        for seed in range(4):
            gen = RandomSource(seed).child(m * 10 + k).generator()
            R, ws = reduction_presentation(
                m, k, lambda xs: xs[int(gen.integers(len(xs)))],
                lambda lo, hi: int(gen.integers(lo, hi + 1)), gen)
            for max_rounds in (1, 2, 3):
                v = self.check_reduction_run(R, ws, k, max_rounds)
                reduced += v.stats.reductions_applied > 0
                second_rounds += v.stats.rounds >= 2
                cited += any(isinstance(s, tz.ReductionStep)
                             for cert in v.certificates for s in cert.steps)
        assert reduced and second_rounds and cited


def build_three_hit_fixture():
    """build_reduction_fixture with a host of three blocks, each planted once.

    Round 1's collision (r1, r2) gives w = Ab, which cuts one plant from each
    block of r3; r4 matches the reduced r3 from position 2, so the conclusion
    a = A cites all three of r3's reductions.
    """
    T = tuple([1, 2, 2, 1] * 10)
    F1 = (1, 1, 2, 1, 2, 2, 1)
    F2 = tuple([2, 1] * 12) + (2,)
    r3 = (1, 2) + (F1 + (2, -1, 2, 1) + F2) * 3  # s=b, w=Ab, t=a in each block of 36
    r4 = (-1, 2) + (F1 + (2, 1) + F2) * 3
    pres = Presentation(2, [(1, 2) + T, (2, 2) + T, r3, r4])
    pres.validate()
    return pres


def deferred_slots(rd, t):
    """The row p of a deferred round that holds slot t, and the range of p's slots."""
    base = rd.ends - np.diff(rd.bounds) - (rd.prior < 0)  # each row's first slot
    p = int(np.searchsorted(base, t, side="right")) - 1
    return p, range(int(base[p]), int(rd.ends[p]))


def deferred_step_reference(rd, t):
    """Slot t of a deferred round built alone: the row's hits up to t replayed,
    of which the last record is kept."""
    p, slots = deferred_slots(rd, t)
    h, prior, u = t - slots.start, int(rd.prior[p]), words.unpad(rd.words[p:p + 1])[0]
    if prior < 0 and h == 0:
        return tz.RelatorStep(int(rd.rows[p]), u)
    h -= prior < 0  # the row's RelatorStep slot
    hits = slice(int(rd.bounds[p]), int(rd.bounds[p]) + h + 1)  # the row's hits to t
    rec = tz._records(u, rd.si[hits].tolist(), rd.ti[hits].tolist(), rd.w_len)[-1]
    return tz.ReductionStep(prior if h == 0 and prior >= 0 else t - 1, rd.w_ref, *rec)


class TestDeferredRound:
    @staticmethod
    def checked_fills(monkeypatch):
        """Check each slot that _DeferredRound.fill writes against the per-slot build.

        Returns a list that gains, for each row filled, its number of hits and
        whether it was a first-time host.
        """
        filled = []
        fill = tz._DeferredRound.fill

        def checking(rd, deriv, t):
            before = list(deriv)
            fill(rd, deriv, t)
            p, slots = deferred_slots(rd, t)
            written = [i for i, (a, b) in enumerate(zip(before, deriv)) if a is not b]
            assert written == list(slots) and all(before[i] is rd for i in slots)
            assert [deriv[i] for i in slots] == [deferred_step_reference(rd, i) for i in slots]
            filled.append((len(slots) - int(rd.prior[p] < 0), bool(rd.prior[p] < 0)))

        monkeypatch.setattr(tz._DeferredRound, "fill", checking)
        return filled

    def test_fill_matches_the_per_slot_build(self, monkeypatch):
        filled = self.checked_fills(monkeypatch)
        runs = [(build_reduction_fixture(), 1), (build_three_hit_fixture(), 1)]
        for m, k in [(2, 1), (3, 1), (2, 2), (3, 2)]:
            for seed in range(4):
                gen = RandomSource(seed).child(m * 10 + k).generator()
                R, _ = reduction_presentation(
                    m, k, lambda xs: xs[int(gen.integers(len(xs)))],
                    lambda lo, hi: int(gen.integers(lo, hi + 1)), gen)
                runs += [(R, k)]
        for R, k in runs:
            for max_rounds in (1, 2, 3):
                v = tz.trivialize(R, tz.TrivializerConfig(m=R.m, ell=R.max_length(), k=k,
                                                          max_rounds=max_rounds))
                assert all(tz.check_certificate(R, cert) for cert in v.certificates)
        # cited rows of one, two and three hits; first-time hosts and rows
        # that hold a step from an earlier round
        assert {h for h, _ in filled} == {1, 2, 3}
        assert {first for _, first in filled} == {True, False}

    def test_replays_a_cited_row_once(self, monkeypatch):
        pres = build_three_hit_fixture()
        replays = []
        records = tz._records

        def counting(u, si, ti, w_len):
            replays.append(len(si))
            return records(u, si, ti, w_len)

        monkeypatch.setattr(tz, "_records", counting)
        v = tz.trivialize(pres, tz.TrivializerConfig(m=2, ell=110, k=1))
        assert v.outcome == tz.OUTCOME_TRIVIAL and v.stats.reductions_applied == 3
        cited = [s for c in v.certificates for s in c.steps if isinstance(s, tz.ReductionStep)]
        assert len(cited) == 3
        assert all(tz.check_certificate(pres, cert) for cert in v.certificates)
        assert replays == [3]
