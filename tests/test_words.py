import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfdensity import words
from halfdensity.rng import RandomSource
from halfdensity.words import (
    ModelParams,
    Presentation,
    ResourceLimitError,
    concat_reduce,
    free_reduce,
    invert,
    is_reduced,
    presentation_from_text,
    presentation_to_text,
    sample_presentation,
    sample_relator_matrix,
    word_from_str,
    word_to_str,
)

letters = st.integers(min_value=-4, max_value=4).filter(lambda x: x != 0)
raw_words = st.lists(letters, max_size=40)


def W(s):
    return word_from_str(s)


def padded_reference(relators):
    """Each word as its own np.array(w, dtype=np.int8) row, zero-padded to the longest."""
    width = max(map(len, relators), default=0)
    matrix = np.zeros((len(relators), width), dtype=np.int8)
    for i, r in enumerate(relators):
        matrix[i, :len(r)] = np.array(r, dtype=np.int8)
    return matrix


class TestFreeReduce:
    def test_adjacent_cancellation(self):
        assert free_reduce([1, -1, 2]) == (2,)

    def test_identity(self):
        assert free_reduce([]) == ()

    def test_nested_cancellation(self):
        assert free_reduce(W("abBAc")) == (3,)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            free_reduce([1, 0])

    @given(raw_words)
    def test_idempotent_and_nonincreasing(self, raw):
        once = free_reduce(raw)
        assert len(once) <= len(raw)
        assert free_reduce(once) == once
        assert is_reduced(once)

    @given(raw_words)
    def test_parity_preserved(self, raw):
        assert (len(free_reduce(raw)) - len(raw)) % 2 == 0


class TestConcatReduce:
    def test_full_cancellation(self):
        assert concat_reduce(W("ab"), W("BA")) == ()

    def test_identity_element(self):
        assert concat_reduce(W("ab"), ()) == W("ab")
        assert concat_reduce((), W("ab")) == W("ab")

    def test_partial_cancellation(self):
        # abab * (baab)^-1 leaves the commutator-like a b a^-1 b^-1
        assert concat_reduce(W("abab"), W("BAAB")) == W("abAB")

    @given(raw_words)
    def test_inverse_cancels(self, raw):
        u = free_reduce(raw)
        assert concat_reduce(u, invert(u)) == ()

    @given(raw_words, raw_words)
    def test_length_bounds_and_parity(self, raw1, raw2):
        u, v = free_reduce(raw1), free_reduce(raw2)
        out = concat_reduce(u, v)
        assert abs(len(u) - len(v)) <= len(out) <= len(u) + len(v)
        assert (len(out) + len(u) + len(v)) % 2 == 0
        assert out == free_reduce(u + v)


class TestInvert:
    def test_basic(self):
        assert invert(W("ab")) == W("BA")

    def test_empty(self):
        assert invert(()) == ()

    def test_mixed(self):
        assert invert(W("abA")) == W("aBA")

    @given(raw_words)
    def test_involution(self, raw):
        u = free_reduce(raw)
        assert invert(invert(u)) == u


class TestSubword:
    @given(raw_words, st.data())
    def test_fragment_of_reduced_is_reduced(self, raw, data):
        u = free_reduce(raw)
        if not u:
            return
        i = data.draw(st.integers(1, len(u)))
        j = data.draw(st.integers(i, len(u)))
        assert is_reduced(u[i - 1 : j])


def is_reduced_reference(seq):
    """is_reduced as first written: no 0, and no letter followed by its inverse."""
    if any(x == 0 for x in seq):
        return False
    return all(seq[i] != -seq[i + 1] for i in range(len(seq) - 1))


class TestIsReduced:
    @pytest.mark.parametrize("seq", [
        (), (1,), (-2,), (0,), (0, 1, 2), (1, 0, 2), (1, 2, 0), (1, -1, 2), (1, 2, -2),
        (1, 2, 1), W("abAB"), [1, 2, -1], np.array([1, 2, -1], dtype=np.int8),
        np.array([2, 1, -1], dtype=np.int8), np.array([1, 0], dtype=np.int8),
    ])
    def test_matches_reference(self, seq):
        assert is_reduced(seq) == is_reduced_reference(seq)

    @given(st.lists(st.integers(-3, 3), max_size=12))
    def test_matches_reference_property(self, seq):
        assert is_reduced(seq) == is_reduced_reference(seq)
        assert is_reduced(np.array(seq, dtype=np.int8)) == is_reduced_reference(seq)


class TestLetters:
    def test_roundtrip(self):
        for x in (1, -1, 3, -26, 26):
            assert words.char_to_letter(words.letter_to_char(x)) == x


class TestModelParams:
    def test_density_half_exact_power(self):
        p = ModelParams.from_density(2, 12, 0.5)
        assert p.num == 729

    def test_from_f(self):
        p = ModelParams.from_f(3, 10, 0.1)
        assert p.num == 625

    def test_density_roundtrip(self):
        p = ModelParams.from_density(2, 20, 0.55)
        assert p.num == 3**11
        assert abs(p.density - 0.55) < 1e-12
        assert abs(p.f - (0.5 - 0.55)) < 1e-12

    def test_non_integer_exponent_rounds(self):
        p = ModelParams.from_density(2, 8, 0.45)
        assert p.num == round(3**3.6)

    @pytest.mark.parametrize("m, ell, density", [
        (2, 10, math.inf), (2, 10, -math.inf), (2, 10, math.nan),
        (2, 1000, 0.6543),  # a float power past the float range
        (2, 2000, 0.5),  # an exact power of 1,585 bits
    ])
    def test_count_past_two_to_the_1024_rejected(self, m, ell, density):
        with pytest.raises(ValueError, match="below 2\\^1024"):
            ModelParams.from_density(m, ell, density)

    @pytest.mark.parametrize("m, ell, density", [
        (2, 10**400, 0.5), (2, 10**400, 0.0), (2, 2**1000, 0.0),
        (10**400, 2, 0.25),  # a float power of an int past the float range
    ], ids=["ell-10^400", "zero-density-ell-10^400", "ell-2^1000", "m-10^400"])
    def test_m_or_ell_past_two_to_the_1000_rejected(self, m, ell, density):
        with pytest.raises(ValueError, match="^m and ell must be below 2\\^1000"):
            ModelParams.from_density(m, ell, density)

    def test_negative_exponent_gives_one_relator(self):
        assert ModelParams.from_density(2, 10, -0.5).num == 1

    def test_exact_count_below_two_to_the_1024(self):
        assert ModelParams.from_density(2, 1000, 0.6).num == 3**600

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelParams(1, 4, 2)
        with pytest.raises(ValueError):
            ModelParams(2, 0, 2)
        with pytest.raises(ValueError):
            ModelParams(2, 4, 0)


def reference_relator_matrix(m, ell, num, gen):
    """The column-at-a-time sampler with default int64 draws and the inverse skipped
    by arithmetic; sample_relator_matrix must give the same bytes and stream."""
    code_letter = np.array(list(range(1, m + 1)) + list(range(-1, -m - 1, -1)), dtype=np.int8)
    letters = np.empty((num, ell), dtype=np.int8)
    codes = gen.integers(0, 2 * m, size=num)
    letters[:, 0] = code_letter[codes]
    for j in range(1, ell):
        forbidden = (codes + m) % (2 * m)
        codes = gen.integers(0, 2 * m - 1, size=num)
        codes += codes >= forbidden
        letters[:, j] = code_letter[codes]
    return letters


def assert_matches_reference(m, ell, num, seed, state=None):
    """Two calls in a row on one generator, as perfbench/planted.py shares one:
    same bytes and same generator state as reference_relator_matrix.  A
    bit-generator state, when given, replaces the seeded one."""
    got_gen, ref_gen = (RandomSource(seed).generator() for _ in range(2))
    if state is not None:
        got_gen.bit_generator.state = ref_gen.bit_generator.state = state
    for _ in range(2):
        got = sample_relator_matrix(m, ell, num, got_gen)
        ref = reference_relator_matrix(m, ell, num, ref_gen)
        assert got.dtype == np.int8 and got.tobytes() == ref.tobytes(), (m, ell, num)
        assert got_gen.bit_generator.state == ref_gen.bit_generator.state


#: PCG64's 128-bit LCG multiplier, and its inverse mod 2^128.
PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
PCG64_MULTIPLIER_INVERSE = pow(PCG64_MULTIPLIER, -1, 1 << 128)


def forced_output_state(k, output=0, has_uint32=0, uinteger=0, inc=0xDA3E39CB94B95BDB):
    """A PCG64 state whose k-th next 64-bit output (k >= 1) is output; has_uint32
    and uinteger are the 32-bit half it holds.

    PCG64 steps its LCG state s -> s * multiplier + inc mod 2^128 (inc odd),
    then outputs the xor of the new state's 64-bit halves hi and lo rotated
    right by hi >> 58 (XSL-RR): lo = hi ^ (output rotated left) gives output,
    and equal halves give 0.  The start is k steps back from that state.
    """
    hi, mask = 0x9E3779B97F4A7C15, (1 << 64) - 1
    rot = hi >> 58
    lo = hi ^ ((output << rot | output >> (64 - rot)) & mask)
    state = hi << 64 | lo
    for _ in range(k):
        state = (state - inc) * PCG64_MULTIPLIER_INVERSE % (1 << 128)
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": has_uint32, "uinteger": uinteger}


def half_with_remainder(b, rem):
    """The least 32-bit half u with u * b mod 2^32 == rem, or None."""
    for j in range(b):
        u, r = divmod(j * 2**32 + rem, b)
        if r == 0 and u < 2**32:
            return u
    return None


class TestForcedSkips:
    """A 32-bit half of 0 gives u * b mod 2^32 = 0 < 2^32 mod b, so Lemire's rule
    skips it for every bound b but a power of two: for 2m - 1 and for 2m at
    m = 3, not for 2m = 4 at m = 2.  Zero outputs are placed in the first
    column, across its end, in later columns, across the two matrices of
    assert_matches_reference, and after a start that holds a half of 0."""

    @pytest.mark.parametrize("output", [0, 1, 2**32 - 1, 2**32, 0xDEADBEEF12345678, 2**64 - 1])
    def test_forced_output_state(self, output):
        for k in (1, 2, 17):
            raw = np.random.PCG64()
            raw.state = forced_output_state(k, output)
            out = raw.random_raw(k + 1)
            assert out[k - 1] == output and out[:k - 1].all() and out[k] not in (0, output)

    # (m, ell, num, SAMPLE_BLOCK, the k to place a zero output at): num is odd,
    # so a call's last output leaves its high half for the next call; the
    # first column takes (num + 1) // 2 outputs and a matrix about num * ell / 2
    @pytest.mark.parametrize("m,ell,num,block,ks", [
        # block path: one block
        (2, 40, 41, None, [*range(1, 4), *range(19, 25), 400, *range(816, 826), 1641]),
        (3, 40, 41, None, [*range(1, 4), *range(19, 25), 400, *range(816, 826), 1641]),
        # block path: blocks of 16 columns (m = 2) and 12 (m = 3), and a short last one
        (2, 40, 41, 41 * 16, [*range(19, 25), *range(180, 190), *range(400, 420)]),
        (3, 40, 41, 41 * 15, [*range(19, 25), *range(165, 175), *range(390, 420)]),
        # column path, a column read in rounds of 16 draws where the sampler reads so
        (2, 19, 41, 16, [*range(1, 60), *range(380, 400)]),
        (3, 13, 41, 16, [*range(1, 60), *range(260, 275)]),
        # column path at SAMPLE_BLOCK: the first matrices with one generator call a column
        (2, 9, 8193, None, [1, 4096, 4097, 4098, 8193, 8194, 20000]),
        (3, 7, 16385, None, [1, 8192, 8193, 8194, 16385, 16386, 30000]),
    ], ids=["block-m2", "block-m3", "blocks-m2", "blocks-m3", "rounds-m2", "rounds-m3",
            "columns-m2", "columns-m3"])
    @pytest.mark.parametrize("held", [False, True], ids=["even", "held-zero"])
    def test_matches_reference(self, m, ell, num, block, ks, held):
        r = words._step_tables(m)[1]
        with mock.patch.object(words, "SAMPLE_BLOCK", block or words.SAMPLE_BLOCK):
            width = words.SAMPLE_BLOCK // num // r * r
            assert (width > 1) == (block != 16 and num < 1000)
            for k in ks:
                assert_matches_reference(m, ell, num, 0, forced_output_state(k, 0, held, 0))


class TestDraws:
    """words._Draws against gen.integers(0, b, n, dtype=np.int32) on a twin generator:
    the same values call by call, and the same state after the draws.  Bounds up
    to 6 map halves by threshold compares, larger ones by a float multiply."""

    SIZES = [1, 2, 7, 8, 1, 33, 64, 3, 1000, 1, 17, 16, 2]

    @staticmethod
    def twins(state):
        got, ref = (np.random.Generator(np.random.PCG64(7)) for _ in range(2))
        if state is not None:
            got.bit_generator.state = ref.bit_generator.state = state
        return got, ref

    def assert_matches_integers(self, b, state, sizes=SIZES):
        got, ref = self.twins(state)
        with words._Draws(got) as draw:
            for n in sizes:
                values = draw(b, n)
                assert values.dtype == np.uint8 and values.shape == (n,)
                assert np.array_equal(values, ref.integers(0, b, n, dtype=np.int32)), (b, n)
        assert got.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("b", [3, 4, 5, 6, 7, 8, 9, 253, 254])
    @pytest.mark.parametrize("block", [None, 16, 5], ids=["block", "rounds-16", "rounds-5"])
    def test_matches_integers(self, b, block):
        # a half of the largest remainder u * b mod 2^32 that is skipped (below
        # skip) and one of the least that is kept (skip), forced into outputs as
        # low and high half, and whole-zero outputs, across calls and rounds
        skip = 2**32 % b
        kept = half_with_remainder(b, skip)
        reached = [u for u in map(half_with_remainder, [b] * skip, range(skip)) if u is not None]
        skipped = reached[-1] if reached else kept
        forced = [(1, 0), (2, skipped | kept << 32), (5, kept | skipped << 32),
                  (40, 0), (300, skipped | skipped << 32), (600, 0), (601, 0)]
        # the halves just below and at ceil(i 2^32 / b), where draws step from i - 1 to i
        edges = [((i << 32) + b - 1) // b for i in (1, b // 2, b - 1)]
        forced += [(3 + j, t - 1 | t << 32) for j, t in enumerate(edges)]
        with mock.patch.object(words, "SAMPLE_BLOCK", block or words.SAMPLE_BLOCK):
            for held in (0, 1):
                self.assert_matches_integers(b, None if not held else
                                             {**self.twins(None)[0].bit_generator.state,
                                              "has_uint32": 1, "uinteger": skipped})
                for k, output in forced:
                    self.assert_matches_integers(b, forced_output_state(k, output, held, 0))

    def test_one_call_longer_than_a_read(self):
        for b in (3, 6):
            self.assert_matches_integers(b, None, [3 * words.SAMPLE_BLOCK + 1, 2, 70_001])
            self.assert_matches_integers(b, forced_output_state(40_000, 0, 1, 0),
                                         [words.SAMPLE_BLOCK + 1, words.SAMPLE_BLOCK])

    def test_stale_half_is_kept(self):
        # integers leaves uinteger as it was when it uses the waiting half
        got, ref = self.twins({**self.twins(None)[0].bit_generator.state,
                               "has_uint32": 1, "uinteger": 12345})
        with words._Draws(got) as draw:
            assert draw(5, 1).tolist() == ref.integers(0, 5, 1, dtype=np.int32).tolist()
        assert got.bit_generator.state == ref.bit_generator.state
        assert got.bit_generator.state["uinteger"] == 12345

    @pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.PCG64DXSM,
                                               np.random.Philox, np.random.SFC64])
    def test_other_bit_generators_raise(self, bit_generator):
        gen, twin = (np.random.Generator(bit_generator(0)) for _ in range(2))
        with pytest.raises(ValueError, match=bit_generator.__name__):
            sample_relator_matrix(2, 4, 3, gen)
        with pytest.raises(ValueError, match=bit_generator.__name__):
            sample_presentation(ModelParams(2, 4, 3), gen)
        # nothing was drawn
        assert gen.integers(0, 2**62, 4).tolist() == twin.integers(0, 2**62, 4).tolist()


class TestSampling:
    @pytest.mark.parametrize("m", [2, 3, 127])
    @pytest.mark.parametrize("ell", [1, 2, 24, 81])
    @pytest.mark.parametrize("num", [1, 1000])
    def test_matches_reference_sampler(self, m, ell, num):
        assert_matches_reference(m, ell, num, m * ell + num)

    @pytest.mark.parametrize("m", [2, 3, 127])
    @pytest.mark.parametrize("num_of", [
        lambda block, r: 1,
        lambda block, r: block // (3 * r),
        lambda block, r: block // r - 1,
        lambda block, r: block // r,
        lambda block, r: block // r + 1,
        lambda block, r: block,
        lambda block, r: block + 1,
    ], ids=["1", "block/3r", "block/r-1", "block/r", "block/r+1", "block", "block+1"])
    def test_matches_reference_at_block_boundaries(self, m, num_of):
        r = words._step_tables(m)[1]
        num = num_of(words.SAMPLE_BLOCK, r)
        # r columns leave one short group; r + 1 fill one group; 2r + 1 fill
        # two; 4r + 3 end mid-group, and mid-block where a block holds more
        # than one group
        for ell in (1, 2, r, r + 1, 2 * r + 1, 4 * r + 3):
            assert_matches_reference(m, ell, num, m * ell + num)

    def test_matches_reference_at_a_sweep_shape(self):
        # a04's m=2, ell=22 matrix at density 1/2: one generator call a column
        assert_matches_reference(2, 22, 3**11, 22)

    def test_matches_reference_at_an_m3_column_path_shape(self):
        # a04's m=3, ell=17 matrix at density 0.45: one generator call a column
        assert words.SAMPLE_BLOCK // 222393 < words._step_tables(3)[1]
        assert_matches_reference(3, 17, 222393, 17)

    @settings(deadline=None)
    @given(st.integers(2, 5), st.integers(1, 40), st.integers(1, 40), st.integers(1, 64),
           st.integers(0, 2**32))
    def test_matches_reference_across_small_blocks(self, m, ell, num, block, seed):
        with mock.patch.object(words, "SAMPLE_BLOCK", block):
            assert_matches_reference(m, ell, num, seed)

    def test_step_tables_are_read_only_and_bounded(self):
        assert [words._step_tables(m)[1] for m in (2, 3, 5, 127)] == [8, 4, 2, 1]
        # the sampler's uint16 keys index the 2m (2m-1)^r rows of every table
        for m in range(2, 128):
            code_letter, r, steps, last = words._step_tables(m)
            assert len(steps) == 2 * m * (2 * m - 1) ** r <= 2**16 and last.dtype == np.uint16
        for m in range(2, 30):
            for table in words._step_tables(m):
                assert not isinstance(table, np.ndarray) or not table.flags.writeable
        info = words._step_tables.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize

    def test_peak_memory_is_a_few_blocks_over_the_result(self):
        import tracemalloc

        sample_relator_matrix(2, 5833, 1024, RandomSource(0))
        tracemalloc.start()
        try:
            mat = sample_relator_matrix(2, 5833, 1024, RandomSource(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the result, one block of uint8 draws and its keys and letters; a
        # full-size code or key matrix would take over 20 blocks' bytes
        assert peak < mat.nbytes + 3 * 4 * words.SAMPLE_BLOCK

    def test_peak_memory_of_column_draws_is_a_few_bytes_a_row(self):
        import tracemalloc

        num = 3**11
        sample_relator_matrix(2, 22, num, RandomSource(0))
        tracemalloc.start()
        try:
            mat = sample_relator_matrix(2, 22, num, RandomSource(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one column of uint8 draws, the uint16 keys and codes and a group's
        # r letters; a full int64 code matrix would take 8 * 22 bytes a row
        assert peak < mat.nbytes + 32 * num

    def test_shape_and_reduced(self):
        p = ModelParams(2, 4, 3)
        pres = sample_presentation(p, RandomSource(0))
        assert len(pres.relators) == 3
        assert all(len(r) == 4 for r in pres.relators)
        pres.validate()

    def test_deterministic(self):
        p = ModelParams(3, 9, 50)
        a = sample_presentation(p, RandomSource(123))
        b = sample_presentation(p, RandomSource(123))
        assert a.relators == b.relators
        c = sample_presentation(p, RandomSource(124))
        assert a.relators != c.relators

    def test_rejects_empty_shapes(self):
        for m, ell, num in [(1, 4, 3), (2, 0, 3), (2, 4, 0)]:
            with pytest.raises(ValueError, match="^need m >= 2, ell >= 1, num >= 1$"):
                sample_relator_matrix(m, ell, num, RandomSource(0))

    def test_rejects_m_beyond_int8(self):
        with pytest.raises(ValueError):
            sample_relator_matrix(128, 4, 3, RandomSource(0))
        with pytest.raises(ValueError):
            sample_presentation(ModelParams(200, 6, 4), RandomSource(0))
        mat = sample_relator_matrix(127, 4, 2000, RandomSource(0))
        assert mat.min() == -127 and mat.max() == 127

    def test_peak_memory_is_a_few_columns_over_the_result(self):
        import tracemalloc

        sample_relator_matrix(2, 4, 8, RandomSource(0))
        tracemalloc.start()
        try:
            mat = sample_relator_matrix(2, 22, 20_000, RandomSource(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the result plus a few int64 columns; an int16 code matrix with
        # full-size conversion temporaries takes about 9x the result
        assert peak < 4 * mat.nbytes

    def test_budget(self):
        with pytest.raises(ResourceLimitError):
            sample_presentation(ModelParams(2, 100, 10**7), RandomSource(0))

    def test_length_one_marginal(self):
        # each of the 2m letters has probability 1/(2m)
        n = 200_000
        mat = sample_relator_matrix(2, 1, n, RandomSource(7))
        counts = {x: int((mat[:, 0] == x).sum()) for x in (1, 2, -1, -2)}
        p = 1 / 4
        se = (p * (1 - p) / n) ** 0.5
        for x, cnt in counts.items():
            assert abs(cnt / n - p) < 4 * se, (x, cnt)

    def test_all_words_reachable_and_reduced(self):
        mat = sample_relator_matrix(2, 3, 50_000, RandomSource(11))
        seen = {tuple(row) for row in mat.tolist()}
        assert len(seen) == 36  # 4 * 3 * 3 freely reduced words of length 3
        assert all(is_reduced(w) for w in seen)

    def test_length_two_uniform(self):
        # each of the 2m(2m-1) = 12 words has probability 1/12
        n = 240_000
        mat = sample_relator_matrix(2, 2, n, RandomSource(13))
        counts = np.zeros(16, dtype=np.int64)
        codes = np.where(mat > 0, mat - 1, 1 - mat)
        np.add.at(counts, codes[:, 0] * 4 + codes[:, 1], 1)
        live = counts[counts > 0]
        assert len(live) == 12
        p = 1 / 12
        se = (p * (1 - p) / n) ** 0.5
        assert all(abs(c / n - p) < 4 * se for c in live)

    def test_length_three_chi_square(self):
        # uniformity over all 36 outcomes, not rejected at alpha = 0.001
        from scipy.stats import chi2

        n = 1_000_000
        mat = sample_relator_matrix(2, 3, n, RandomSource(14))
        codes = np.where(mat > 0, mat - 1, 1 - mat)
        flat = (codes[:, 0] * 16 + codes[:, 1] * 4 + codes[:, 2]).astype(np.int64)
        counts = np.bincount(flat, minlength=64)
        live = counts[counts > 0]
        assert len(live) == 36
        expected = n / 36
        stat = float(((live - expected) ** 2 / expected).sum())
        assert stat < chi2.ppf(0.999, 35)


class TestMatrixBackedPresentation:
    def test_accessors_agree_with_relator_list(self):
        pres = words.sample_presentation(ModelParams(2, 7, 20), RandomSource(2).child(0))
        assert len(pres) == 20 and pres.max_length() == 7
        firsts = [pres.relator(i) for i in range(len(pres))]
        assert firsts == pres.relators
        assert pres.relators is not pres.relators

    def test_equality_and_repr_use_relators(self):
        pres = words.sample_presentation(ModelParams(2, 5, 6), RandomSource(1).child(0))
        listed = Presentation(2, list(pres.relators))
        assert pres == listed and repr(pres) == repr(listed)
        assert repr(listed).startswith("Presentation(m=2, relators=[(")

    def test_list_backed_accessors(self):
        pres = Presentation(2, [W("ab"), W("bAB")])
        assert len(pres) == 2 and pres.relator(1) == W("bAB") and pres.max_length() == 3
        assert Presentation(2, []).max_length() == 0

    def test_needs_exactly_one_source(self):
        with pytest.raises(ValueError):
            Presentation(2)
        with pytest.raises(ValueError):
            Presentation(2, [W("ab")], matrix=np.array([[1, 2]], dtype=np.int8))

    def test_ragged_words_are_zero_padded(self):
        pres = Presentation(2, [W("ab"), W("bAB"), ()])
        assert pres.matrix.tolist() == [[1, 2, 0], [2, -1, -2], [0, 0, 0]]
        assert pres.relators == [W("ab"), W("bAB"), ()]
        assert pres.relator(0) == W("ab") and pres.relator(2) == ()
        assert pres == Presentation(2, [W("ab"), W("bAB"), ()])
        assert pres != Presentation(2, [W("ab"), W("bA"), ()])
        assert pres != pres.relators

    @pytest.mark.parametrize("m,relators", [
        (2, [(), W("ab"), (), W("bAB"), ()]),
        (2, [(), ()]),
        (2, []),
        (127, [(127, -127, 5), (-127,), (), (1, 127, -1, -127)]),
        (200, [(127,), (-127, 126)]),
        (3, [(np.int64(1), np.int8(-2)), (np.int32(3), np.intp(-3), np.uint8(2))]),
        (2, [[1, 2], [-2], []]),
        (2, [np.array([1, 2, -1], dtype=np.int64), (2,)]),
    ])
    def test_matrix_matches_per_row_reference(self, m, relators):
        pres = Presentation(m, relators)
        assert pres.matrix.dtype == np.int8 and not pres.matrix.flags.writeable
        assert np.array_equal(pres.matrix, padded_reference(relators))
        assert Presentation(m, pres.relators) == pres

    @pytest.mark.parametrize("m,ell,num,seed", [(2, 9, 40, 0), (3, 30, 25, 1),
                                                (127, 6, 50, 2), (2, 80, 200, 3)])
    def test_sampled_ragged_shapes_match_reference(self, m, ell, num, seed):
        full = sample_presentation(ModelParams(m, ell, num), RandomSource(seed).child(0))
        cut = np.random.default_rng(seed).integers(0, ell + 1, size=num)
        relators = [r[:n] for r, n in zip(full.relators, cut.tolist())]
        pres = Presentation(m, relators)
        assert np.array_equal(pres.matrix, padded_reference(relators))
        assert pres.relators == relators
        assert Presentation(m, pres.relators) == pres

    @pytest.mark.parametrize("width", [255, 256, 257, 65536])
    def test_wide_ragged_rows_match_reference(self, width):
        # the padding mask compares in the narrowest unsigned type that holds
        # the width: uint8 up to 255, uint16 up to 65,535, then uint32
        lengths = [width, width - 1, 1, 0, width] + [n for n in (255, 256) if n < width]
        relators = [tuple(W("ab")[i % 2] for i in range(n)) for n in lengths]
        pres = Presentation(2, relators)
        assert pres.max_length() == width
        assert np.array_equal(pres.matrix, padded_reference(relators))

    @given(st.integers(min_value=1, max_value=127).flatmap(lambda m: st.tuples(
        st.just(m), st.lists(st.lists(st.integers(-m, m).filter(bool), max_size=12),
                             max_size=8))))
    def test_matrix_matches_per_row_reference_property(self, m_relators):
        m, relators = m_relators
        pres = Presentation(m, relators)
        assert np.array_equal(pres.matrix, padded_reference(relators))
        assert Presentation(m, pres.relators) == pres

    @pytest.mark.parametrize("relators,ok", [
        ([W("ab"), W("a"), (), W("bAB")], True),
        ([W("ab"), W("a"), W("abAa")], False),
        ([W("ab"), W("a"), (1, 2, -2)], False),
        ([W("a"), W("aa"), (-1, 1)], False),
    ])
    def test_validate_matches_word_checks(self, relators, ok):
        # ragged rows: the padding after a word is neither a letter nor an inverse
        pres = Presentation(2, relators)
        assert ok == all(is_reduced(r) for r in relators)
        if ok:
            pres.validate()
        else:
            with pytest.raises(ValueError, match=f"relator {len(relators) - 1} "):
                pres.validate()

    @pytest.mark.parametrize("relators", [[(1, 0, 2)], [(0,)], [(1, 128)], [(-128, 1)]])
    def test_rejects_letters_int8_padding_cannot_hold(self, relators):
        # a 0 would end its word early; int8 holds letters only up to +-127
        with pytest.raises(ValueError):
            Presentation(2, relators)

    @pytest.mark.parametrize("relators", [[(1.5, 2)], [(1.0,)], [(1, 2), "ab"],
                                          [(1, 2**70)], [(-2**70,)]])
    def test_rejects_letters_that_are_not_int8_integers(self, relators):
        with pytest.raises(ValueError, match="letters must be nonzero integers"):
            Presentation(2, relators)

    @pytest.mark.parametrize("m,relators", [(2, [W("ab"), W("a"), W("abc")]),
                                            (2, [(3,), (-3,)]), (1, [(1, 2)]),
                                            (0, [])])
    def test_rejects_letters_outside_m(self, m, relators):
        with pytest.raises(ValueError):
            Presentation(m, relators)
        with pytest.raises(ValueError):
            Presentation(m, matrix=Presentation(3, relators).matrix)

    def test_matrix_view_is_copied(self):
        base = np.array([[1, 1, 1, 2], [2, 2, 2, 1]], dtype=np.int8)
        pres = Presentation(2, matrix=base[:, :3])
        base[0, 0] = 2
        assert pres.relator(0) == (1, 1, 1) and base.flags.writeable
        owned = np.array([[1, 2]], dtype=np.int8)
        assert Presentation(2, matrix=owned).matrix is owned

    @pytest.mark.parametrize("rows", [[[1, 0, 2]], [[1, 2, 0], [2, 1, 0]], [[-128, 1]]])
    def test_rejects_malformed_matrix(self, rows):
        with pytest.raises(ValueError):
            Presentation(2, matrix=np.array(rows, dtype=np.int8))
        with pytest.raises(ValueError):
            Presentation(2, matrix=np.array(rows, dtype=np.int16))


class TestTextFormat:
    def test_roundtrip_simple(self):
        pres = Presentation(2, [W("abAB"), W("bb")])
        assert presentation_from_text(presentation_to_text(pres)).relators == pres.relators

    def test_format_shape(self):
        text = presentation_to_text(Presentation(2, [W("ab")]))
        assert text == "m=2\nab\n"

    def test_comments_and_blank_lines(self):
        pres = presentation_from_text("# header\nm=2\n\n# note\nab\nBA\n")
        assert pres.relators == [W("ab"), W("BA")]

    def test_rejects_trailing_whitespace(self):
        with pytest.raises(ValueError):
            presentation_from_text("m=2\nab \n")

    def test_rejects_unreduced(self):
        with pytest.raises(ValueError):
            presentation_from_text("m=2\naA\n")

    def test_rejects_letter_outside_m(self):
        with pytest.raises(ValueError):
            presentation_from_text("m=2\nabc\n")

    def test_rejects_empty_relator(self):
        with pytest.raises(ValueError):
            presentation_to_text(Presentation(2, [()]))

    def test_rejects_large_m(self):
        with pytest.raises(ValueError):
            presentation_to_text(Presentation(27, [(27,)]))

    @pytest.mark.parametrize("text, message", [
        ("n=2\nab\n", "line 1: expected 'm=<int>' header, got 'n=2'"),
        ("# note\nm=27\nab\n", "line 2: m must be in 1..26, got 27"),
        ("# note only\n\n", "missing 'm=<int>' header line"),
    ], ids=["other-header", "m-past-26", "no-header"])
    def test_rejects_bad_header(self, text, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            presentation_from_text(text)

    @given(st.integers(2, 5), st.lists(raw_words.map(free_reduce).filter(len), max_size=8))
    def test_roundtrip_property(self, m, relators):
        rel = [r for r in relators if all(abs(x) <= m for x in r)]
        pres = Presentation(m, rel)
        back = presentation_from_text(presentation_to_text(pres))
        assert back.m == m and back.relators == rel


class TestStrForms:
    def test_word_str_roundtrip(self):
        for s in ("", "ab", "aBcC"):
            assert word_to_str(word_from_str(s)) == s

    def test_word_to_str_matches_letter_to_char(self):
        letters = [x for i in range(1, 27) for x in (i, -i)]
        assert word_to_str(letters) == "".join(map(words.letter_to_char, letters))
        assert word_to_str(np.array(letters, dtype=np.int8)) == word_to_str(letters)
        assert word_to_str(tuple(np.array([1, -2], dtype=np.int8))) == "aB"

    @pytest.mark.parametrize("bad", [0, 27, -27])
    def test_word_to_str_keeps_letter_error(self, bad):
        with pytest.raises(ValueError) as expected:
            words.letter_to_char(bad)
        with pytest.raises(ValueError) as got:
            word_to_str((1, bad, 2))
        assert str(got.value) == str(expected.value)

    def test_word_from_str_respects_m(self):
        with pytest.raises(ValueError):
            word_from_str("abc", m=2)
