import collections
import functools
import itertools
import math
import operator
from fractions import Fraction

import numpy as np
import pytest

from halfdensity import pigeonhole as ph
from halfdensity.rng import RandomSource
from halfdensity.words import ResourceLimitError

F = Fraction


class TestConfig:
    def test_hypothesis_exact(self):
        assert ph.PigeonholeConfig.uniform(100, 2, 20).hypothesis_met
        assert not ph.PigeonholeConfig.uniform(100, 2, 19).hypothesis_met
        # boundary is decided exactly: 2 * 16^(1/2) = 8
        assert ph.PigeonholeConfig.uniform(16, 2, 8).hypothesis_met
        assert not ph.PigeonholeConfig.uniform(16, 2, 7).hypothesis_met

    def test_default_constant(self):
        assert ph.PigeonholeConfig.uniform(4, 2, 4).c == F(1, 16)
        assert ph.PigeonholeConfig.uniform(4, 3, 6).c == F(1, 32)

    def test_measures(self):
        assert sum(ph.uniform_measure(7)) == 1
        geo = ph.geometric_measure(5)
        assert sum(geo) == 1
        assert geo[0] == F(16, 31)  # proportional to 2^-i

    def test_measures_of_no_boxes_are_empty(self):
        assert ph.uniform_measure(0) == ph.geometric_measure(0) == ()

    def test_validation(self):
        with pytest.raises(ValueError):
            ph.PigeonholeConfig(0, 2, 1, ())
        with pytest.raises(ValueError):
            ph.PigeonholeConfig(2, 1, 1, ph.uniform_measure(2))
        with pytest.raises(ValueError):
            ph.PigeonholeConfig(2, 2, 1, (F(1, 2), F(1, 3)))
        with pytest.raises(ValueError, match="^z must be >= 1, got 0$"):
            ph.PigeonholeConfig(2, 2, 0, ph.uniform_measure(2))
        with pytest.raises(ValueError, match="^mu has length 3, expected n=2$"):
            ph.PigeonholeConfig(2, 2, 1, ph.uniform_measure(3))
        with pytest.raises(ValueError, match="^bound constant c must be positive$"):
            ph.PigeonholeConfig(2, 2, 1, ph.uniform_measure(2), F(0))

    @pytest.mark.parametrize("at", [0, -1])
    def test_sum_is_exact_far_below_float_resolution(self, at):
        mu = list(ph.geometric_measure(256))
        mu[at] += F(1, (2**256 - 1) ** 2)
        with pytest.raises(ValueError, match="^mu must sum to exactly 1$"):
            ph.PigeonholeConfig(256, 2, 1, tuple(mu))

    def test_negative_entry_balanced_by_a_larger_one(self):
        with pytest.raises(ValueError, match="^mu entries must be nonnegative$"):
            ph.PigeonholeConfig(3, 2, 1, (F(1, 2), F(-1, 3), F(5, 6)))

    def test_int_entries_mix_with_fractions(self):
        cfg = ph.PigeonholeConfig(5, 2, 1, (0, F(1, 2), 0, F(1, 3), F(1, 6)))
        assert cfg.mu[0] == 0
        ph.PigeonholeConfig(2, 2, 1, (0, 1))


class TestBound:
    def test_single_box(self):
        cfg = ph.PigeonholeConfig.uniform(1, 2, 2, F(1, 16))
        assert math.isclose(ph.coincidence_bound(cfg), 1 - math.exp(-1 / 8))

    def test_direct_evaluation(self):
        cfg = ph.PigeonholeConfig.uniform(100, 2, 40, F(1, 16))
        assert math.isclose(ph.coincidence_bound(cfg), 1 - math.exp(-0.25))

    def test_hypothesis_violation_names_inequality(self):
        cfg = ph.PigeonholeConfig.uniform(100, 2, 19)
        with pytest.raises(ph.HypothesisError, match="2\\*n"):
            ph.coincidence_bound(cfg)

    def test_constant_cap(self):
        # c above -(1/4)ln(1 - 2^-q) is rejected
        cfg = ph.PigeonholeConfig.uniform(4, 2, 8, F(1, 10))
        with pytest.raises(ph.HypothesisError, match="c"):
            ph.coincidence_bound(cfg)

    def test_default_constant_below_cap(self):
        for q in (2, 3, 4, 6):
            assert float(ph.default_bound_constant(q)) <= -0.25 * math.log1p(-(2.0**-q))


def brute_force_exact(cfg):
    """Sum over all n^(qz) outcomes: one color's n^z placements by hit set, then q colors."""
    hits = collections.Counter()
    for balls in itertools.product(range(cfg.n), repeat=cfg.z):
        hits[sum(1 << b for b in set(balls))] += math.prod(F(cfg.mu[b]) for b in balls)
    return sum((math.prod(w for _, w in picks)
                for picks in itertools.product(hits.items(), repeat=cfg.q)
                if functools.reduce(operator.and_, (mask for mask, _ in picks))), F(0))


def _small_measures(n):
    """Uniform, geometric, one box of zero mass, repeated masses, a cut guide bucket."""
    yield "uniform", ph.uniform_measure(n)
    if n > 1:
        yield "geometric", ph.geometric_measure(n)
        yield "zero_mass", (F(0),) + ph.uniform_measure(n - 1)
    if n > 2:
        weights = [i // 2 + 1 for i in range(n)]  # 1, 1, 2, 2, 3, ...
        yield "repeated", tuple(F(w, sum(weights)) for w in weights)
    if n == 3:
        yield "cut_inside_bucket", (F(1, 3), F(1, 4096), F(2, 3) - F(1, 4096))


#: Every config with n <= 6, q <= 4 and n^(qz) <= 2^18, under each small measure.
SMALL_CONFIGS = [pytest.param(ph.PigeonholeConfig(n, q, z, mu), id=f"n{n}-q{q}-z{z}-{name}")
                 for n in range(1, 7) for q in range(2, 5) for z in range(1, 10)
                 if n ** (q * z) <= 1 << 18 for name, mu in _small_measures(n)]


class TestExact:
    def test_two_boxes_two_colors(self):
        assert ph.coincidence_exact(ph.PigeonholeConfig.uniform(2, 2, 2)) == F(7, 8)

    def test_single_box_forces(self):
        assert ph.coincidence_exact(ph.PigeonholeConfig.uniform(1, 3, 1)) == 1

    def test_two_balls_collide(self):
        assert ph.coincidence_exact(ph.PigeonholeConfig.uniform(2, 2, 1)) == F(1, 2)

    def test_budget(self):
        # 2^17 subset types x 17 boxes x 3 * 56 * 17 bits is past the budget; a
        # uniform measure on 10 boxes is one class of 11 types
        with pytest.raises(ResourceLimitError):
            ph.coincidence_exact(ph.PigeonholeConfig.geometric(17, 3, 56))
        assert 0 < ph.coincidence_exact(ph.PigeonholeConfig.uniform(10, 3, 10)) < 1

    def test_budget_bounds_one_large_class(self):
        # n + 1 types, but n^2 additions: refused before any is made
        with pytest.raises(ResourceLimitError):
            ph.coincidence_exact(ph.PigeonholeConfig.uniform(8000, 2, 5))

    def test_budget_counts_large_powers(self):
        # three subset types, but its powers multiply integers of 10^7 bits and more,
        # which takes seconds: refused before any is made
        with pytest.raises(ResourceLimitError):
            ph.coincidence_exact(ph.PigeonholeConfig.uniform(2, 2, 10**7))

    @pytest.mark.parametrize("cfg", SMALL_CONFIGS)
    def test_matches_brute_force(self, cfg):
        assert ph.coincidence_exact(cfg) == brute_force_exact(cfg)

    @pytest.mark.parametrize("n,q,z", [(16, 2, 16), (64, 3, 33), (256, 3, 324)])
    def test_uniform_closed_form(self, n, q, z):
        # sum_j (-1)^j C(n,j) (N_j / n^z)^q, with N_j the placements of z balls
        # that hit all of j given boxes
        hits = [sum((-1) ** i * math.comb(j, i) * (n - i) ** z for i in range(j + 1))
                for j in range(n + 1)]
        miss = sum((-1) ** j * math.comb(n, j) * F(hits[j], n ** z) ** q for j in range(n + 1))
        assert ph.coincidence_exact(ph.PigeonholeConfig.uniform(n, q, z)) == 1 - miss

    @pytest.mark.parametrize("name", ["geometric", "zero_mass", "repeated"])
    def test_matches_sum_over_box_subsets(self, name):
        # each of the 2^8 subsets S on its own, and g(S) over the subsets T of S
        mu = dict(_small_measures(8))[name]
        cfg = ph.PigeonholeConfig(8, 3, 12, mu)

        def g(S):
            return sum((-1) ** r * (1 - sum(mu[b] for b in T)) ** cfg.z
                       for r in range(len(S) + 1) for T in itertools.combinations(S, r))

        miss = sum((-1) ** r * g(S) ** cfg.q
                   for r in range(9) for S in itertools.combinations(range(8), r))
        assert ph.coincidence_exact(cfg) == 1 - miss

    def test_monotone_in_z(self):
        vals = [ph.coincidence_exact(ph.PigeonholeConfig.uniform(2, 2, z))
                for z in (1, 2, 3, 4)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))
        vals3 = [ph.coincidence_exact(ph.PigeonholeConfig.uniform(3, 2, z))
                 for z in (1, 2, 3)]
        assert all(a <= b for a, b in zip(vals3, vals3[1:]))

    def test_skewed_measure(self):
        # heavier mass concentration makes coincidence more likely
        uni = ph.coincidence_exact(ph.PigeonholeConfig.uniform(4, 2, 2))
        geo = ph.coincidence_exact(ph.PigeonholeConfig.geometric(4, 2, 2))
        assert geo > uni


class TestSimulate:
    def test_agrees_with_exact(self):
        cfg = ph.PigeonholeConfig.uniform(2, 2, 2)
        res = ph.coincidence_simulate(cfg, 100_000, RandomSource(1))
        assert abs(res.estimate - 7 / 8) <= 3 * res.stderr

    def test_single_box_certain(self):
        cfg = ph.PigeonholeConfig.uniform(1, 2, 3)
        res = ph.coincidence_simulate(cfg, 1000, RandomSource(2))
        assert res.estimate == 1.0

    def test_deterministic_and_thread_invariant(self):
        cfg = ph.PigeonholeConfig.uniform(16, 2, 16)
        a = ph.coincidence_simulate(cfg, 30_000, RandomSource(3))
        b = ph.coincidence_simulate(cfg, 30_000, RandomSource(3))
        c = ph.coincidence_simulate(cfg, 30_000, RandomSource(3), threads=4)
        assert a == b == c

    @pytest.mark.parametrize("threads", [0, -5])
    def test_rejects_fewer_than_one_thread(self, threads):
        cfg = ph.PigeonholeConfig.uniform(2, 2, 2)
        with pytest.raises(ValueError, match=f"^threads must be >= 1, got {threads}$"):
            ph.coincidence_simulate(cfg, 10, RandomSource(1), threads=threads)

    def test_estimate_dominates_bound(self):
        cfg = ph.PigeonholeConfig.uniform(100, 2, 40)
        res = ph.coincidence_simulate(cfg, 50_000, RandomSource(4))
        assert res.estimate - 3 * res.stderr >= ph.coincidence_bound(cfg)

    def test_geometric_measure_dominates_bound(self):
        cfg = ph.PigeonholeConfig.geometric(64, 2, 16)
        res = ph.coincidence_simulate(cfg, 50_000, RandomSource(5))
        assert res.estimate - 3 * res.stderr >= ph.coincidence_bound(cfg)


def _reference_chunk(gen, cfg, count, cum):
    """The kernel as first written: one (count, q, z) draw and a binary search per ball."""
    u = gen.random(size=(count, cfg.q, cfg.z))
    draws = np.searchsorted(cum, u, side="right")
    hit = np.zeros((count, cfg.q, cfg.n), dtype=bool)
    hit[np.arange(count)[:, None, None], np.arange(cfg.q)[None, :, None], draws] = True
    return int(hit.all(axis=1).any(axis=1).sum())


def _reference_successes(cfg, trials, rng):
    cum = np.cumsum(np.array([float(p) for p in cfg.mu]))
    cum[-1] = 1.0
    counts = [min(ph.CHUNK_TRIALS, trials - s) for s in range(0, trials, ph.CHUNK_TRIALS)]
    return sum(_reference_chunk(rng.child(i).generator(), cfg, c, cum)
               for i, c in enumerate(counts))


def _criterion3_grid():
    cells = []
    for q in (2, 3):
        for n in (16, 64, 256):
            z0 = math.ceil(2 * n ** (1 - 1 / q))
            for z in (z0, 2 * z0, 4 * z0):
                cells += [ph.PigeonholeConfig.uniform(n, q, z),
                          ph.PigeonholeConfig.geometric(n, q, z)]
    return cells


#: Measures with one box, with boxes of zero mass, with a cumulative sum that
#: reaches 1.0 before the last box (geometric, n=256), and with many short
#: blocks per chunk, bounded by draws (z=200) or by hit flags (n=1000, z=5).
#: z = 21 is one ball past z0 = ceil(2 * 100^(1/2)) = 20, and geometric(16, 2, 100)
#: runs past z0 = 8 in five doublings, with 12 guide buckets that cum cuts.
EDGE_CONFIGS = [
    ph.PigeonholeConfig.uniform(1, 2, 3),
    ph.PigeonholeConfig.uniform(3, 3, 50),
    ph.PigeonholeConfig.uniform(7, 2, 20),
    ph.PigeonholeConfig.uniform(100, 2, 40),
    ph.PigeonholeConfig.uniform(100, 2, 21),
    ph.PigeonholeConfig.uniform(1000, 3, 200),
    ph.PigeonholeConfig.uniform(1000, 2, 5),
    ph.PigeonholeConfig(5, 2, 3, (0, F(1, 2), 0, F(1, 2), 0)),
    ph.PigeonholeConfig.geometric(256, 2, 40),
    ph.PigeonholeConfig.geometric(16, 2, 100),
]


class TestKernelMatchesBinarySearch:
    """The guide-table kernel gives the success counts of a binary search per ball."""

    def test_criterion3_grid(self):
        # 1237 is prime, so every cell whose chunk splits into blocks ends on
        # a ragged block
        for cfg in _criterion3_grid():
            for seed in (0, 1):
                got = ph.coincidence_simulate(cfg, 1237, RandomSource(seed)).successes
                want = _reference_successes(cfg, 1237, RandomSource(seed))
                assert got == want, (cfg.n, cfg.q, cfg.z, seed)

    @pytest.mark.parametrize("cfg", EDGE_CONFIGS, ids=lambda c: f"n{c.n}-q{c.q}-z{c.z}")
    def test_edge_measures_across_chunks(self, cfg):
        # two full chunks and a ragged one of 1001 trials (7 * 11 * 13)
        trials = 2 * ph.CHUNK_TRIALS + 1001
        got = ph.coincidence_simulate(cfg, trials, RandomSource(9))
        assert got.successes == _reference_successes(cfg, trials, RandomSource(9))

    def test_shared_generator_rejected(self):
        # one Generator cannot be split into per-chunk streams
        with pytest.raises(TypeError):
            ph.coincidence_simulate(EDGE_CONFIGS[0], 10, np.random.default_rng(9))

    def test_numpy_pcg64_double_is_raw_output_shifted_right_by_11(self):
        # gen.random and bit_generator.random_raw read the same 64-bit outputs,
        # and neither touches a buffered 32-bit half
        state = RandomSource(9).generator().bit_generator.state
        state.update(has_uint32=1, uinteger=0xDEADBEEF)
        a, b = (np.random.Generator(np.random.PCG64()) for _ in range(2))
        a.bit_generator.state = b.bit_generator.state = state
        u, x = a.random(5000), b.bit_generator.random_raw(5000)
        assert np.array_equal(u, (x >> 11) * 2.0**-53)
        assert np.array_equal(np.floor(u * ph.GUIDE_BUCKETS), x >> 52)
        assert a.bit_generator.state == b.bit_generator.state
        assert a.bit_generator.state["has_uint32"] == 1

    def test_geometric_cum_reaches_one_before_last_box(self):
        assert np.cumsum([float(p) for p in ph.geometric_measure(256)])[-2] == 1.0

    @pytest.mark.parametrize("mu", [
        ph.uniform_measure(1), ph.uniform_measure(3), ph.uniform_measure(7),
        ph.uniform_measure(100), ph.uniform_measure(1000), ph.geometric_measure(256),
        (0, F(1, 2), 0, F(1, 2), 0), (F(1, 3), F(1, 4096), F(2, 3) - F(1, 4096)),
    ], ids=["uniform1", "uniform3", "uniform7", "uniform100", "uniform1000",
            "geometric256", "zero_mass", "cut_inside_bucket"])
    def test_lookup_at_every_boundary(self, mu):
        # PCG64 outputs whose doubles k * 2^-53 are the draws gen.random can reach
        # at or just below every cum value and bucket edge, one more on each side,
        # with the 11 low bits that the double drops all 0 or all 1
        cum = np.cumsum(np.array([float(p) for p in mu]))
        cum[-1] = 1.0
        edges = np.arange(ph.GUIDE_BUCKETS + 1) / ph.GUIDE_BUCKETS
        k = np.floor(np.concatenate([cum, edges]) * 2.0**53).astype(np.int64)
        k = np.concatenate([k - 1, k, k + 1])
        k = np.tile(k[(k >= 0) & (k < 1 << 53)].astype(np.uint64), 2)
        x = k << 11 | np.repeat(np.uint64([0, 0x7FF]), len(k) // 2)
        want = np.searchsorted(cum, k * 2.0**-53, side="right")
        guide = ph._guide_table(cum)
        box = np.empty(x.shape, dtype=np.intp)
        ph._boxes(x, cum, guide, bool((guide < 0).any()), box)
        assert np.array_equal(box, want)
        assert box.max() < len(mu)


@pytest.mark.parametrize("cfg", [ph.PigeonholeConfig.uniform(256, 3, 324),
                                 ph.PigeonholeConfig.uniform(8000, 2, 5)],
                         ids=["many_balls", "many_boxes"])
def test_chunk_memory_is_bounded(cfg):
    import tracemalloc

    ph.coincidence_simulate(cfg, 16, RandomSource(0))
    tracemalloc.start()
    try:
        ph.coincidence_simulate(cfg, ph.CHUNK_TRIALS, RandomSource(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a whole-chunk draw and its box indices take 2 x 64 MB (many balls), and
    # the hit flags of a whole chunk take 131 MB (many boxes)
    assert peak < 16 * 2**20
