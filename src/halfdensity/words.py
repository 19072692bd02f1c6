"""Free-group words over m generators, and the presentation samplers.

A letter is a nonzero signed integer: +i is the i-th generator and -i its
inverse (1 <= i <= m).  A word is a tuple of letters in freely reduced form,
i.e. with no adjacent pair x, -x.  All public slicing is one-based and
inclusive at both ends.

Text form: generator i prints as the i-th lowercase ASCII letter, its
inverse as the corresponding uppercase letter ("aBa" = a b^-1 a).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .rng import as_generator

Letter = int
Word = tuple

#: Default budget for sample_presentation, in total letters (num * ell).
DEFAULT_MAX_LETTERS = 1 << 27


class ResourceLimitError(RuntimeError):
    """A requested computation exceeds its configured resource budget."""


# ---------------------------------------------------------------------------
# letters


def inverse(x: Letter) -> Letter:
    if x == 0:
        raise ValueError("0 is not a letter")
    return -x


def letter_to_char(x: Letter) -> str:
    i = abs(x)
    if not 1 <= i <= 26:
        raise ValueError(f"text form supports generator indices 1..26, got {x}")
    c = chr(ord("a") + i - 1)
    return c.upper() if x < 0 else c


def char_to_letter(c: str) -> Letter:
    if len(c) == 1 and "a" <= c <= "z":
        return ord(c) - ord("a") + 1
    if len(c) == 1 and "A" <= c <= "Z":
        return -(ord(c) - ord("A") + 1)
    raise ValueError(f"invalid letter character: {c!r}")


def word_to_str(w: Sequence[Letter]) -> str:
    return "".join(letter_to_char(x) for x in w)


def word_from_str(s: str, m: int | None = None) -> Word:
    w = tuple(char_to_letter(c) for c in s)
    if m is not None:
        bad = [x for x in w if abs(x) > m]
        if bad:
            raise ValueError(f"letter {letter_to_char(bad[0])!r} outside m={m} generators")
    return w


# ---------------------------------------------------------------------------
# word operations


def is_reduced(seq: Sequence[Letter]) -> bool:
    if any(x == 0 for x in seq):
        return False
    return all(seq[i] != -seq[i + 1] for i in range(len(seq) - 1))


def free_reduce(raw: Iterable[Letter]) -> Word:
    """Freely reduce a raw letter sequence (unique normal form, idempotent)."""
    out: list[Letter] = []
    for x in raw:
        if x == 0:
            raise ValueError("0 is not a letter")
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def concat_reduce(u: Sequence[Letter], v: Sequence[Letter]) -> Word:
    """Freely reduced form of uv, for u, v already reduced."""
    i, j = len(u), 0
    while i > 0 and j < len(v) and u[i - 1] == -v[j]:
        i -= 1
        j += 1
    return tuple(u[:i]) + tuple(v[j:])


def invert(u: Sequence[Letter]) -> Word:
    return tuple(-x for x in reversed(u))


def subword(u: Sequence[Letter], i: int, j: int) -> Word:
    """Letters i..j of u, one-based and inclusive; requires 1 <= i <= j <= |u|."""
    if not 1 <= i <= j <= len(u):
        raise IndexError(f"subword indices ({i}, {j}) out of range for length {len(u)}")
    return tuple(u[i - 1 : j])


# ---------------------------------------------------------------------------
# model parameters


def _materialize_num(m: int, ell: int, density: float) -> int:
    """Nearest-integer relator count for (2m-1)^(density*ell).

    Exponents within 1e-9 of an integer are evaluated as exact integer
    powers so that e.g. density 0.55 at ell=20 yields exactly 3^11.
    """
    e = float(density) * ell
    n0 = round(e)
    if abs(e - n0) < 1e-9:
        if n0 < 0:
            return 1
        return (2 * m - 1) ** n0
    return max(1, round((2 * m - 1) ** e))


@dataclass(frozen=True)
class ModelParams:
    """One presentation-sampling regime: m generators, num relators of length ell."""

    m: int
    ell: int
    num: int

    def __post_init__(self):
        if self.m < 2:
            raise ValueError(f"m must be >= 2, got {self.m}")
        if self.ell < 1:
            raise ValueError(f"ell must be >= 1, got {self.ell}")
        if self.num < 1:
            raise ValueError(f"num must be >= 1, got {self.num}")

    @property
    def density(self) -> float:
        """log_(2m-1)(num) / ell; exact when num is a power of 2m-1."""
        base = 2 * self.m - 1
        j = round(math.log(self.num) / math.log(base)) if self.num > 1 else 0
        if j >= 0 and base**j == self.num:
            return j / self.ell
        return math.log(self.num) / (self.ell * math.log(base))

    @property
    def f(self) -> float:
        """Distance below density one-half: 1/2 - density."""
        return 0.5 - self.density

    @classmethod
    def from_density(cls, m: int, ell: int, density: float) -> "ModelParams":
        return cls(m, ell, _materialize_num(m, ell, density))

    @classmethod
    def from_f(cls, m: int, ell: int, f: float) -> "ModelParams":
        return cls.from_density(m, ell, 0.5 - f)


# ---------------------------------------------------------------------------
# presentations


class Presentation:
    """m generators plus a relator multiset (duplicates allowed).

    A sampled presentation starts out as its int8 matrix alone.  The first
    read of relators builds the list of tuples once; from then on that list
    is the source of truth and the matrix is only a cache of it.  len(),
    relator(i), max_length() and as_matrix() never build the list.
    """

    def __init__(self, m: int, relators: list | None = None, *,
                 matrix: np.ndarray | None = None):
        if (relators is None) == (matrix is None):
            raise ValueError("give exactly one of relators and matrix")
        self.m = m
        self._relators = relators
        # (relator row objects, int8 matrix) as of caching.  Words are
        # immutable tuples, so the matrix is reused only while relators holds
        # exactly those row objects; any replaced, added or removed row
        # rebuilds it.  While _relators is None the matrix is the only copy.
        self._matrix_cache = None if matrix is None else ((), matrix)

    @property
    def relators(self) -> list:
        if self._relators is None:
            mat = self._matrix_cache[1]
            self._relators = [tuple(row) for row in mat.tolist()]
            self._matrix_cache = (tuple(self._relators), mat)
        return self._relators

    def __len__(self) -> int:
        if self._relators is None:
            return self._matrix_cache[1].shape[0]
        return len(self._relators)

    def relator(self, i: int) -> Word:
        """Relator i as a word tuple."""
        if self._relators is None:
            return tuple(self._matrix_cache[1][i].tolist())
        return self._relators[i]

    def max_length(self) -> int:
        """Length of the longest relator, 0 when there are none."""
        if self._relators is None:
            return self._matrix_cache[1].shape[1]
        return max(map(len, self._relators), default=0)

    def __eq__(self, other):
        if not isinstance(other, Presentation):
            return NotImplemented
        return (self.m, self.relators) == (other.m, other.relators)

    def __repr__(self) -> str:
        return f"Presentation(m={self.m!r}, relators={self.relators!r})"

    def validate(self) -> None:
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        for idx, r in enumerate(self.relators):
            for x in r:
                if x == 0 or abs(x) > self.m:
                    raise ValueError(f"relator {idx} has letter {x} outside m={self.m}")
            if not is_reduced(r):
                raise ValueError(f"relator {idx} is not freely reduced")

    def as_matrix(self) -> np.ndarray | None:
        """int8 matrix of relators when all lengths are equal, else None."""
        if self._relators is None:
            return self._matrix_cache[1]
        if not self._relators:
            return None
        if self._matrix_cache is not None:
            rows, mat = self._matrix_cache
            if len(rows) == len(self._relators) and all(map(operator.is_, rows, self._relators)):
                return mat
        n = len(self._relators)
        ell = len(self._relators[0])
        if any(len(r) != ell for r in self._relators):
            return None
        mat = np.array(self._relators, dtype=np.int8).reshape(n, ell)
        self._matrix_cache = (tuple(self._relators), mat)
        return mat


# ---------------------------------------------------------------------------
# text serialization
#
# Line 1 is "m=<int>"; each subsequent non-empty line is one relator in the
# letter encoding above.  Lines starting with "#" are comments.  The format
# is bit-exact: fixed letter order, LF endings, no trailing whitespace.


def presentation_to_text(pres: Presentation) -> str:
    if pres.m > 26:
        raise ValueError("text format supports at most 26 generators")
    lines = [f"m={pres.m}"]
    for r in pres.relators:
        if len(r) == 0:
            raise ValueError("text format cannot represent an empty relator")
        lines.append(word_to_str(r))
    return "\n".join(lines) + "\n"


def presentation_from_text(text: str) -> Presentation:
    lines = text.split("\n")
    m: int | None = None
    relators: list[Word] = []
    for lineno, line in enumerate(lines, start=1):
        if line == "" or line.startswith("#"):
            continue
        if m is None:
            if not line.startswith("m="):
                raise ValueError(f"line {lineno}: expected 'm=<int>' header, got {line!r}")
            m = int(line[2:])
            if not 1 <= m <= 26:
                raise ValueError(f"line {lineno}: m must be in 1..26, got {m}")
            continue
        if not line.isalpha() or not line.isascii():
            raise ValueError(f"line {lineno}: invalid relator line {line!r}")
        relators.append(word_from_str(line, m))
    if m is None:
        raise ValueError("missing 'm=<int>' header line")
    pres = Presentation(m, relators)
    pres.validate()
    return pres


# ---------------------------------------------------------------------------
# samplers
#
# Letters are drawn in a fixed code order (a, b, ..., then their inverses) so
# that outputs are reproducible from the seed alone: the first letter is
# uniform over all 2m codes, each later letter uniform over the 2m-1 codes
# excluding the inverse of its predecessor.


def _codes_to_letters(codes: np.ndarray, m: int) -> np.ndarray:
    return np.where(codes < m, codes + 1, m - codes - 1).astype(np.int8)


def sample_relator_matrix(m: int, ell: int, num: int, rng) -> np.ndarray:
    """num x ell int8 matrix of independent uniform freely reduced words."""
    if m < 2 or ell < 1 or num < 1:
        raise ValueError("need m >= 2, ell >= 1, num >= 1")
    gen = as_generator(rng)
    two_m = 2 * m
    codes = np.empty((num, ell), dtype=np.int16)
    codes[:, 0] = gen.integers(0, two_m, size=num)
    for j in range(1, ell):
        forbidden = (codes[:, j - 1] + m) % two_m
        t = gen.integers(0, two_m - 1, size=num)
        codes[:, j] = t + (t >= forbidden)
    return _codes_to_letters(codes, m)


def sample_word(m: int, ell: int, rng) -> Word:
    """One uniform freely reduced word of length ell; deterministic per seed."""
    row = sample_relator_matrix(m, ell, 1, rng)[0]
    return tuple(int(x) for x in row)


def sample_presentation(
    params: ModelParams, rng, max_letters: int = DEFAULT_MAX_LETTERS
) -> Presentation:
    """num independent draws of sample_word, as a matrix-backed Presentation.

    Raises ResourceLimitError when num * ell exceeds max_letters.
    """
    total = params.num * params.ell
    if total > max_letters:
        raise ResourceLimitError(
            f"presentation needs {total} letters (num={params.num}, ell={params.ell}), "
            f"budget is {max_letters}"
        )
    return Presentation(params.m, matrix=sample_relator_matrix(params.m, params.ell,
                                                               params.num, rng))
