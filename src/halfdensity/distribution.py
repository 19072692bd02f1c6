"""Exact laws for the letter at position n of a uniform freely reduced word.

With mfrak = 1/(2m-1) and s_n the n-th partial sum of the alternating
geometric series 1 - mfrak + mfrak^2 - ..., the letter n steps after a known
letter x0 is distributed as follows: for n even, Pr(x_n = x0) = mfrak*s_(n-1)
and every other letter has probability mfrak*s_n; for n odd the special
letter is x0^-1 instead.  Everything here is exact rational arithmetic;
letter_law_oracle recomputes the same law by transfer-matrix recursion and
must agree exactly.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction

import numpy as np

from . import words

#: Relation of the letter at position n to the conditioning letter x0.
RELATIONS = ("same", "inverse", "other")

def partial_sum(m: int, n: int) -> Fraction:
    """s_n = sum_(k=0)^(n-1) (-1/(2m-1))^k, with s_0 = 0."""
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    mf = Fraction(1, 2 * m - 1)
    return (1 - (-mf) ** n) / (1 + mf)


def letter_law(m: int, n: int, target: str) -> Fraction:
    """Pr(x_n has the given relation to x_0), for n >= 1.

    The returned value is per letter: "other" is the probability of one
    particular non-special letter, not the total over all of them.
    """
    if n < 1:
        raise ValueError("the law conditions on x_0; need n >= 1")
    if target not in RELATIONS:
        raise ValueError(f"unknown relation {target!r}; expected one of {RELATIONS}")
    mf = Fraction(1, 2 * m - 1)
    special = "same" if n % 2 == 0 else "inverse"
    if target == special:
        return mf * partial_sum(m, n - 1)
    return mf * partial_sum(m, n)


def letter_law_oracle(m: int, n: int) -> dict[str, Fraction]:
    """The same distribution by exact transfer-matrix recursion.

    State is the current letter; each step is uniform over the 2m-1 letters
    that do not cancel it.  Independent of letter_law's closed form.
    """
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    if n < 1:
        raise ValueError("need n >= 1")
    letters = [i for i in range(1, m + 1)] + [-i for i in range(1, m + 1)]
    start = letters[0]
    dist: dict[int, Fraction] = {start: Fraction(1)}
    step = Fraction(1, 2 * m - 1)
    for _ in range(n):
        nxt: dict[int, Fraction] = defaultdict(Fraction)
        for x, p in dist.items():
            for y in letters:
                if y != -x:
                    nxt[y] += p * step
        dist = dict(nxt)
    same = dist.get(start, Fraction(0))
    inv = dist.get(-start, Fraction(0))
    others = [dist.get(y, Fraction(0)) for y in letters if y not in (start, -start)]
    if others and any(o != others[0] for o in others):
        raise AssertionError("transfer matrix broke letter symmetry")
    other = others[0] if others else Fraction(0)
    return {"same": same, "inverse": inv, "other": other}


def decay_bounds(m: int, n: int) -> tuple[Fraction, Fraction]:
    """Closed interval [lower, upper] containing Pr(x_n = x | x_0 = y) for all
    x, y: the laws of x_0 and x_0^-1, sorted (every other letter shares one)."""
    return tuple(sorted(letter_law(m, n, rel) for rel in ("same", "inverse")))


# ---------------------------------------------------------------------------
# sampling support for the statistical checks and the verify-dist command


def sample_relation_counts(m: int, n: int, samples: int, rng) -> dict[str, int]:
    """Counts of the relation of letter n to letter 0 over sampled words."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    mat = words.sample_relator_matrix(m, n + 1, samples, rng)
    first = mat[:, 0].astype(np.int16)
    nth = mat[:, n].astype(np.int16)
    same = int(np.count_nonzero(nth == first))
    inv = int(np.count_nonzero(nth == -first))
    return {"same": same, "inverse": inv, "other": samples - same - inv, "total": samples}


def relation_totals(m: int, n: int) -> dict[str, Fraction]:
    """Exact total probability per relation class (other pools 2m-2 letters)."""
    return {
        "same": letter_law(m, n, "same"),
        "inverse": letter_law(m, n, "inverse"),
        "other": (2 * m - 2) * letter_law(m, n, "other"),
    }
