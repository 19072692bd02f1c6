"""The q-color coincidence experiment and its exponential lower bound.

z balls of each of q colors land independently in n boxes under a measure mu;
the event of interest is some box receiving at least one ball of every color.
Whenever z >= 2 n^(1-1/q), the probability is at least
1 - exp(-c z / n^(1-1/q)) for c <= -(1/4) ln(1 - 2^-q), in particular for the
default c = 2^-(q+2).  The bound holds for every mu.

coincidence_exact is the exact oracle, by inclusion-exclusion over the types
of box subsets within a work budget; coincidence_simulate is the Monte Carlo
estimator with deterministic chunked streams.  It finds each ball's box in a
guide table over the cumulative measure (Chen & Asau 1974), indexed by the top
12 bits of the raw PCG64 output behind numpy's double, and searches only the
rare draws in a bucket that a box boundary cuts.  A chunk runs in blocks of at
most BLOCK_DRAWS draws, and a block scatters the balls of columns up to
z0 = ceil(2 n^(1-1/q)), 2 z0, 4 z0, ..., z only for its trials with no
coincidence yet.  Every draw is still read, in the order of one (trials, q, z)
draw, and a coincidence once found stays found, so neither a success count
nor a generator state depends on the stages.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .rng import as_source
from .words import ResourceLimitError

#: Trials per simulation chunk; fixed so that results do not depend on threading.
CHUNK_TRIALS = 1 << 13
#: Buckets of the guide table over [0, 1): bucket j of the double (x >> 11) * 2^-53
#: of a PCG64 output x is x >> 52, and j / GUIDE_BUCKETS is an exact float.
GUIDE_BUCKETS = 1 << 12
#: Most uniform draws in one block of a chunk (and 8x as many box flags);
#: this bounds a chunk's working memory.
BLOCK_DRAWS = 1 << 17
#: Most work of the exact oracle, past which it raises ResourceLimitError: per subset
#: type, n additions of N = q z log2(D) bits in its transforms, and N (N / 2^11)^0.585
#: for its powers, as Karatsuba products (~N^log2 3) grow past CPython's 2^11-bit cutoff.
EXACT_BUDGET = 1 << 32


class HypothesisError(ValueError):
    """A stated precondition of the coincidence bound fails."""


def default_bound_constant(q: int) -> Fraction:
    """The headline constant 2^-(q+2)."""
    return Fraction(1, 2 ** (q + 2))


def uniform_measure(n: int) -> tuple[Fraction, ...]:
    return (Fraction(1, n),) * n if n else ()


def geometric_measure(n: int) -> tuple[Fraction, ...]:
    """mu_i proportional to 2^-i, normalized."""
    total = 2**n - 1
    return tuple(Fraction(2 ** (n - i), total) for i in range(1, n + 1))


@dataclass(frozen=True)
class PigeonholeConfig:
    """n boxes, q colors, z balls per color, measure mu, bound constant c."""

    n: int
    q: int
    z: int
    mu: tuple
    c: Fraction | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.q < 2:
            raise ValueError(f"q must be >= 2, got {self.q}")
        if self.z < 1:
            raise ValueError(f"z must be >= 1, got {self.z}")
        if len(self.mu) != self.n:
            raise ValueError(f"mu has length {len(self.mu)}, expected n={self.n}")
        if any(p.numerator < 0 for p in self.mu):
            raise ValueError("mu entries must be nonnegative")
        # in integers over the denominators' lcm d: no Fraction sum, with its gcd per entry
        d = math.lcm(*(p.denominator for p in self.mu))
        if sum(p.numerator * (d // p.denominator) for p in self.mu) != d:
            raise ValueError("mu must sum to exactly 1")
        if self.c is None:
            object.__setattr__(self, "c", default_bound_constant(self.q))
        if self.c <= 0:
            raise ValueError("bound constant c must be positive")

    @property
    def hypothesis_met(self) -> bool:
        """z >= 2 n^(1-1/q), decided exactly as z^q >= 2^q n^(q-1)."""
        return self.z**self.q >= (2**self.q) * self.n ** (self.q - 1)

    @classmethod
    def uniform(cls, n: int, q: int, z: int, c: Fraction | None = None) -> "PigeonholeConfig":
        return cls(n, q, z, uniform_measure(n), c)

    @classmethod
    def geometric(cls, n: int, q: int, z: int, c: Fraction | None = None) -> "PigeonholeConfig":
        return cls(n, q, z, geometric_measure(n), c)


def coincidence_bound(cfg: PigeonholeConfig) -> float:
    """The lower bound 1 - exp(-c z / n^(1-1/q)); requires the hypothesis."""
    scale = cfg.n ** (1.0 - 1.0 / cfg.q)
    if not cfg.hypothesis_met:
        raise HypothesisError(
            f"hypothesis z >= 2*n^(1-1/q) fails: z={cfg.z}, 2*n^(1-1/q)={2 * scale:.6g}"
        )
    cap = -0.25 * math.log1p(-(2.0**-cfg.q))
    if float(cfg.c) > cap * (1 + 1e-12):
        raise HypothesisError(
            f"hypothesis c <= -(1/4)ln(1-2^-q) fails: c={float(cfg.c):.6g}, cap={cap:.6g}"
        )
    return -math.expm1(-float(cfg.c) * cfg.z / scale)


def _binomial_transform(f: np.ndarray) -> np.ndarray:
    """f(t) <- sum over s <= t of prod_i C(t_i, s_i) f(s), in place along every axis."""
    for axis in range(f.ndim):
        g = np.moveaxis(f, axis, 0)
        for j in range(1, len(g)):
            g[j:] = g[j:] + g[j - 1:-1]  # Pascal's rule: row j of the triangle
    return f


def coincidence_exact(cfg: PigeonholeConfig) -> Fraction:
    """Exact coincidence probability by inclusion-exclusion over box subsets S.

    P(no box gets every color) = sum_S (-1)^|S| g(S)^q, where g(S), the chance
    that one color hits all of S, is sum_{T in S} (-1)^|T| (1 - mu(T))^z.  Both
    sums see S only through its type (how many boxes it takes from each class
    of equal mass), and D, the lcm of mu's denominators, keeps them integral.
    """
    D = math.lcm(*(Fraction(p).denominator for p in cfg.mu))
    classes = Counter(int(Fraction(p) * D) for p in cfg.mu)
    shape = tuple(c + 1 for c in classes.values())
    bits = cfg.q * cfg.z * D.bit_length()
    work = math.prod(shape) * bits * (cfg.n + (bits / 2**11) ** 0.585)
    if work > EXACT_BUDGET:
        raise ResourceLimitError(f"exact oracle needs {work:.3g} bit operations > {EXACT_BUDGET}")
    types = np.indices(shape, dtype=object)
    odd = types.sum(axis=0) % 2 == 1
    f = (D - sum(a * t for a, t in zip(classes, types))) ** cfg.z
    f[odd] *= -1
    g = _binomial_transform(f) ** cfg.q  # (D^z g(type))^q
    g[odd] *= -1
    miss = _binomial_transform(g).flat[-1]  # weighs each type by its C(c_i, t_i)
    return 1 - Fraction(miss, D ** (cfg.q * cfg.z))


class SimResult(NamedTuple):
    estimate: float
    stderr: float
    successes: int
    trials: int


def _guide_table(cum: np.ndarray) -> np.ndarray:
    """The box of every guide bucket [j/B, (j+1)/B) that no value of cum cuts, else -1.

    searchsorted(cum, u, side="right") takes one value over the whole bucket
    exactly when no value of cum lies strictly between j/B and (j+1)/B: the
    bucket method of Chen & Asau (1974), with B = GUIDE_BUCKETS.
    """
    edges = np.arange(GUIDE_BUCKETS + 1) / GUIDE_BUCKETS
    lo = np.searchsorted(cum, edges[:-1], side="right")
    hi = np.searchsorted(cum, edges[1:], side="left")
    return np.where(lo == hi, lo, -1)


def _boxes(x: np.ndarray, cum: np.ndarray, guide: np.ndarray, cuts: bool, box: np.ndarray) -> None:
    """Write searchsorted(cum, u, side="right") into the intp array box, u the doubles of x.

    numpy's double of a PCG64 output x is u = (x >> 11) * 2^-53, so u's guide bucket
    is x >> 52.  Only if cuts (guide has a cut bucket) are the draws in one searched.
    """
    np.right_shift(x, 52, out=box.view(np.uint64))
    # in place and unbuffered: take reads the bucket at j before it writes box[j]
    np.take(guide, box, out=box, mode="wrap")
    if cuts:
        cut = np.flatnonzero(box < 0)
        box.flat[cut] = np.searchsorted(cum, (x.flat[cut] >> 11) * 2.0**-53, side="right")


def _simulate_chunk(gen: np.random.Generator, cfg: PigeonholeConfig, count: int,
                    cum: np.ndarray, guide: np.ndarray) -> int:
    """Successes among count trials, drawn in blocks of whole trials and resolved in stages.

    A block holds at most BLOCK_DRAWS draws and 8 * BLOCK_DRAWS hit flags,
    unless one trial alone has more.  A stage scatters the balls of columns
    [a, b) of the trials still live, then drops each whose colors' flags share
    a box, ANDed a uint64 word at a time.
    """
    q, z, n = cfg.q, cfg.z, cfg.n
    width = (n + 7) // 8  # uint64 words of 8 hit flags in a row, one color of one trial
    block = max(1, BLOCK_DRAWS // (q * max(z, width)))
    rows = min(block, count) * q
    z0 = math.ceil(2 * n ** (1 - 1 / q))
    ends = [0] + [z0 << j for j in range(z.bit_length()) if z0 << j < z] + [z]
    cuts = bool((guide < 0).any())
    box = np.empty(rows * z, dtype=np.intp)
    offset = (np.arange(rows) * 8 * width).reshape(-1, q, 1)
    hit = np.empty(rows * 8 * width, dtype=bool)
    words, ids = hit.view(np.uint64).reshape(-1, q, width), np.arange(rows // q)
    successes = 0
    for start in range(0, count, block):
        trials = min(block, count - start)
        x = gen.bit_generator.random_raw(trials * q * z).reshape(trials, q, z)
        hit[:trials * q * 8 * width] = False
        live = slice(trials)
        for a, b in zip(ends, ends[1:]):
            xs = x[live, :, a:b]
            bb = box[:xs.size].reshape(xs.shape)
            _boxes(xs, cum, guide, cuts, bb)
            bb += offset[live]  # row of its trial's color, by index within the block
            hit[bb] = True
            live = ids[live][~np.bitwise_and.reduce(words[live], axis=1).any(axis=1)]
            if not live.size:
                break
        successes += trials - live.size
        del x, xs  # before the next block draws
    return successes


def coincidence_simulate(cfg: PigeonholeConfig, trials: int, rng,
                         threads: int = 1) -> SimResult:
    """Monte Carlo estimate of the coincidence probability.

    Trials are processed in fixed-size chunks, and each chunk draws from its
    own child stream of rng (a RandomSource or an int seed), so the result
    depends only on (seed, trials), never on threading.  A chunk runs in
    blocks of whole trials that read its stream in the order of one
    (trials, q, z) draw, and finds boxes in a guide table, so every ball
    lands where a binary search over cum puts it; threads must be >= 1.
    """
    for name, value in (("trials", trials), ("threads", threads)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    cum = np.cumsum(np.array([float(p) for p in cfg.mu]))
    cum[-1] = 1.0
    guide = _guide_table(cum)

    counts = [min(CHUNK_TRIALS, trials - s) for s in range(0, trials, CHUNK_TRIALS)]
    rng = as_source(rng)
    gens = [rng.child(i).generator() for i in range(len(counts))]

    args = (gens, [cfg] * len(counts), counts, [cum] * len(counts), [guide] * len(counts))
    if threads > 1 and len(counts) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            successes = sum(pool.map(_simulate_chunk, *args))
    else:
        successes = sum(map(_simulate_chunk, *args))

    est = successes / trials
    stderr = math.sqrt(est * (1.0 - est) / trials)
    return SimResult(est, stderr, successes, trials)
