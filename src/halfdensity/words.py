"""Free-group words over m generators, and the presentation samplers.

A letter is a nonzero signed integer: +i is the i-th generator and -i its
inverse (1 <= i <= m).  A word is a tuple of letters in freely reduced form,
i.e. with no adjacent pair x, -x.

Text form: generator i prints as the i-th lowercase ASCII letter, its
inverse as the corresponding uppercase letter ("aBa" = a b^-1 a).
"""

from __future__ import annotations

import functools
import math
import operator
import struct
from dataclasses import dataclass
from itertools import islice
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


_LETTER_CHARS = {x: letter_to_char(x) for i in range(1, 27) for x in (i, -i)}


def word_to_str(w: Sequence[Letter]) -> str:
    try:
        return "".join(map(_LETTER_CHARS.__getitem__, w))
    except KeyError:  # letter_to_char names the letter that has no character
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
    return 0 not in seq and all(map(operator.ne, seq, map(operator.neg, islice(seq, 1, None))))


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


# ---------------------------------------------------------------------------
# model parameters


def _materialize_num(m: int, ell: int, density: float) -> int:
    """Nearest-integer relator count for (2m-1)^(density*ell).

    Exponents within 1e-9 of an integer are evaluated as exact integer
    powers so that e.g. density 0.55 at ell=20 yields exactly 3^11.
    """
    if max(m, ell) >= 2**1000:
        raise ValueError(f"m and ell must be below 2^1000, got m={m}, ell={ell}")
    e = float(density) * ell
    if not math.isfinite(e) or e * math.log2(2 * m - 1) >= 1024:
        raise ValueError(f"relator count {2 * m - 1}^{e:g} must be finite and below 2^1024")
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
    """m generators plus a relator multiset (duplicates allowed); immutable.

    The relators live in one read-only zero-padded int8 matrix: row i holds
    relator i followed by zeros, and the width is the longest relator.
    Letters are never 0, so a row's length is the position of its first 0.
    Presentation(m, relators) packs the words once; Presentation(m,
    matrix=...) makes an array that owns its data read-only and keeps it, and
    copies a view, so that writes through its base cannot reach it.
    Both raise ValueError unless every letter is a nonzero integer in +-m.
    """

    def __init__(self, m: int, relators: Sequence | None = None, *,
                 matrix: np.ndarray | None = None):
        if (relators is None) == (matrix is None):
            raise ValueError("give exactly one of relators and matrix")
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        # int8 holds letters only up to +-127
        bound = min(m, 127)
        matrix = (_pack(relators, bound) if matrix is None else
                  _check_padded(matrix if matrix.base is None else matrix.copy(), bound))
        matrix.flags.writeable = False
        self._m = m
        self._matrix = matrix

    @property
    def m(self) -> int:
        return self._m

    @property
    def matrix(self) -> np.ndarray:
        """The read-only zero-padded int8 relator matrix."""
        return self._matrix

    @property
    def relators(self) -> list:
        """A new list of the relator tuples on each read."""
        return unpad(self._matrix)

    def __len__(self) -> int:
        return self._matrix.shape[0]

    def relator(self, i: int) -> Word:
        """Relator i as a word tuple."""
        row = self._matrix[i]
        return tuple(row[: np.count_nonzero(row)].tolist())

    def max_length(self) -> int:
        """Length of the longest relator, 0 when there are none."""
        return self._matrix.shape[1]

    def __eq__(self, other):
        if not isinstance(other, Presentation):
            return NotImplemented
        return self.m == other.m and np.array_equal(self._matrix, other._matrix)

    def __repr__(self) -> str:
        return f"Presentation(m={self.m!r}, relators={self.relators!r})"

    def validate(self) -> None:
        """Raise ValueError naming the first relator that is not freely reduced."""
        mat = self._matrix
        # x followed by -x; padding zeros are no letter's inverse
        cancels = ((mat[:, 1:] == -mat[:, :-1]) & (mat[:, 1:] != 0)).any(axis=1)
        bad = np.flatnonzero(cancels)
        if bad.size:
            raise ValueError(f"relator {int(bad[0])} is not freely reduced")


def unpad(rows: np.ndarray) -> list:
    """The words held by the rows of a zero-padded matrix, as tuples."""
    lengths = np.count_nonzero(rows, axis=1).tolist()
    return [tuple(row[:n]) for row, n in zip(rows.tolist(), lengths)]


# one entry per word length packed: n distinct lengths need n^2 / 2 letters
@functools.lru_cache(maxsize=None)
def _int8_packer(n: int):
    """struct's packer of n int8 letters; it raises struct.error outside -128..127."""
    return struct.Struct(f"{n}b").pack


def _pack(relators: Sequence, bound: int) -> np.ndarray:
    """The zero-padded int8 matrix of a list of words with letters in +-bound."""
    message = f"letters must be nonzero integers with |x| <= {bound}"
    lengths = np.fromiter(map(len, relators), dtype=np.intp, count=len(relators))
    try:
        data = b"".join([_int8_packer(len(w))(*w) for w in relators])
    except struct.error as exc:  # a letter that is not an integer or not an int8
        raise ValueError(message) from exc
    letters = np.frombuffer(data, dtype=np.int8)
    # a 0 would end its word early under zero padding; np.abs(-128) is -128 in int8
    if not letters.all() or letters.min(initial=0) < -bound or letters.max(initial=0) > bound:
        raise ValueError(message)
    return _padded(letters, lengths, int(lengths.max(initial=0)))


def _padded(letters: np.ndarray, lengths: np.ndarray, width: int) -> np.ndarray:
    """The zero-padded int8 matrix of width columns whose row i holds the next lengths[i]
    letters; its mask compares in the narrowest unsigned type holding width."""
    dtype = np.min_scalar_type(width)
    matrix = np.zeros((len(lengths), width), dtype=np.int8)
    matrix[np.arange(width, dtype=dtype) < lengths.astype(dtype)[:, None]] = letters
    return matrix


def _check_padded(matrix: np.ndarray, bound: int) -> np.ndarray:
    """matrix, if it is a zero-padded int8 matrix of its own width with letters
    in +-bound; else raise."""
    if (matrix.dtype != np.int8 or matrix.ndim != 2 or matrix.min(initial=0) < -bound
            or matrix.max(initial=0) > bound):
        raise ValueError(f"need a 2-d int8 matrix of letters with |x| <= {bound}")
    if matrix.shape[1] and not matrix[:, -1].any():
        raise ValueError("the last matrix column must hold a letter")
    if not matrix.all():
        letter = matrix != 0
        if (letter[:, 1:] > letter[:, :-1]).any():
            raise ValueError("matrix rows must be letters followed by zeros")
    return matrix


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


#: Draws per generator call of sample_relator_matrix (a block of columns).
SAMPLE_BLOCK = 1 << 16
#: Rows of an r-step table are at most this, or 2m(2m-1) when r = 1.
STEP_TABLE_ROWS = 1 << 15


@functools.lru_cache(maxsize=8)
def _step_tables(m: int) -> tuple:
    """Read-only (code_letter, r, steps, last) for m generators.

    code_letter maps a code to its letter.  A row at code c that draws d in
    0..2m-2 moves to the d-th code but c's inverse.  r is the largest power of
    two with 2m (2m-1)^r rows at most STEP_TABLE_ROWS, or 1 (8 at m = 2, 4 at
    m = 3, 2 at m = 5 and 7), so that a group's r letters are an item of 1, 2,
    4 or 8 bytes, which numpy copies whole; row c (2m-1)^r + sum d_i
    (2m-1)^(r-1-i) of the contiguous (rows, r) int8 steps holds the r letters
    that draws d_0..d_r-1 give after code c, and the uint16 last holds the code
    they end on, times (2m-1)^r, so that adding the next r draws' key gives
    the next row.  Rows are at most 2^15 when r >= 2 and 254 * 253 at m = 127,
    so every row index fits last's uint16, the dtype the sampler's keys take.
    """
    two_m, b = 2 * m, 2 * m - 1
    gens = np.arange(1, m + 1, dtype=np.int8)
    code_letter = np.concatenate([gens, -gens])
    draws = np.arange(b)
    inverse = (np.arange(two_m)[:, None] + m) % two_m
    next_code = (draws + (draws >= inverse)).astype(np.uint16)
    r = 1
    while two_m * b ** (2 * r) <= STEP_TABLE_ROWS:
        r *= 2
    # axis 0 is the start code and axis 1 + i the draw d_i; codes broadcasts
    # over the draws not yet taken
    steps = np.empty((two_m,) + (b,) * r + (r,), dtype=np.int8)
    codes = np.arange(two_m).reshape((two_m,) + (1,) * r)
    for i in range(r):
        codes = next_code[codes, draws.reshape((b,) + (1,) * (r - 1 - i))]
        steps[..., i] = code_letter[codes]
    steps, last = steps.reshape(-1, r), (codes * b**r).ravel()
    for table in (code_letter, steps, last):
        table.flags.writeable = False
    return code_letter, r, steps, last


class _Draws:
    """Bounded uint8 draws read straight from a PCG64 generator's raw output.

    Generator.integers(0, b, dtype=np.int32) reads 32-bit halves of the 64-bit
    PCG64 outputs, low half first, and a high half it has not used waits in the
    bit generator's state (has_uint32, uinteger) for the next call.  A half u
    gives u * b >> 32, and Lemire's rule skips it while u * b mod 2^32 < 2^32
    mod b.  A _Draws reads that state on entry, gives the same values over its
    calls (at most SAMPLE_BLOCK draws per random_raw call) and writes the
    waiting half back on exit: values and state are those of the same
    integers calls.  Other bit generators raise ValueError: their halves differ.
    """

    def __init__(self, gen: np.random.Generator):
        self._bit_gen = gen.bit_generator
        if not isinstance(self._bit_gen, np.random.PCG64):
            raise ValueError(f"the sampler reads PCG64 output, not "
                             f"{type(self._bit_gen).__name__}")

    def __enter__(self) -> "_Draws":
        state = self._bit_gen.state
        # uinteger is the high half of the last output read, used or not
        self._high = state["uinteger"]
        self._waiting = self._high if state["has_uint32"] else None
        return self

    def __exit__(self, *exc) -> None:
        state = self._bit_gen.state
        state["has_uint32"], state["uinteger"] = int(self._waiting is not None), self._high
        self._bit_gen.state = state

    def __call__(self, b: int, n: int) -> np.ndarray:
        """A new array of n uint8 draws uniform in 0..b-1, for 2 <= b <= 256.

        For b <= 6 a draw is the number of thresholds ceil(i 2^32 / b), 0 < i
        < b, that its half u reaches, since u * b >> 32 >= i exactly when u
        does: b - 1 compares cost less than a float multiply there.
        """
        skip = (1 << 32) % b
        out, done = np.empty(n, dtype=np.uint8), 0
        while done < n:
            if self._waiting is not None:
                u, self._waiting = self._waiting * b, None
                if u & 0xFFFFFFFF >= skip:
                    out[done] = u >> 32
                    done += 1
                continue
            k = min(n - done, SAMPLE_BLOCK)
            # '<u4' halves of '<u8' outputs are low half first on any host
            halves = self._bit_gen.random_raw((k + 1) // 2).astype("<u8", copy=False).view("<u4")
            self._high = int(halves[-1])
            if halves.size > k:
                self._waiting = self._high
            halves = halves[:k]
            # u * b mod 2^32 < skip; skip 1 needs b odd, and then it holds only at u = 0
            products = halves * b if skip > 1 else halves
            keep = products >= skip if skip and products.min() < skip else None
            del products
            drawn = out[done:done + k]
            if b <= 6:
                first, *rest = (((i << 32) + b - 1) // b for i in range(1, b))
                np.greater_equal(halves, first, out=drawn.view(bool))
                for threshold in rest:
                    drawn += (halves >= threshold).view(np.uint8)
            else:
                # u * b < 2^40 and b / 2^32 are exact doubles, so the cast is u * b >> 32
                np.multiply(halves, b * 2.0**-32, out=drawn, casting="unsafe")
            if keep is not None:
                kept = drawn[keep]
                out[done:done + kept.size] = kept
                k = kept.size
            done += k
        return out


def sample_relator_matrix(m: int, ell: int, num: int, rng) -> np.ndarray:
    """num x ell int8 matrix of independent uniform freely reduced words (m <= 127).

    Column 0 is one draw in 0..2m-1 per row, a code; every later column is one
    draw in 0..2m-2 per row, both uint8.  Each group of r later columns becomes
    one uint16 key per row, the draws as base-(2m-1) digits (a short last
    group padded with zero digits); key plus the code, pre-multiplied by
    (2m-1)^r, picks the row of _step_tables' steps that holds the group's r
    letters and of last that holds the next code, so a code advances r columns
    per lookup.  When a block of SAMPLE_BLOCK draws holds r columns and more
    than one, the later columns are drawn a block at a time: one uint8 (cols,
    num) array per draw call, cols a multiple of r (the row's last block may
    be shorter), each freed before the next, and one gather writes the block's
    letters.  Otherwise each column is one draw call, folded into the key as it
    is drawn, and a group's r letters are stored as one r-byte item per
    row.  The draws are _Draws calls: a (cols, num) call yields the values, and
    leaves the generator state, of cols gen.integers calls of size num, so
    matrix and stream equal a column-at-a-time sampler's.  The generator must
    be over PCG64, else ValueError.
    """
    if m < 2 or ell < 1 or num < 1:
        raise ValueError("need m >= 2, ell >= 1, num >= 1")
    if m > 127:
        raise ValueError(f"int8 letters need m <= 127, got {m}")
    two_m, b = 2 * m, 2 * m - 1
    code_letter, r, steps, last = _step_tables(m)
    letters = np.empty((num, ell), dtype=np.int8)
    with _Draws(as_generator(rng)) as draw:
        codes = draw(two_m, num)
        letters[:, 0] = code_letter[codes]
        codes = np.multiply(codes, b**r, dtype=last.dtype)
        width = SAMPLE_BLOCK // num // r * r
        if width <= 1:
            items = steps.view(f"V{r}").reshape(-1)
            for j in range(1, ell, r):
                cols = min(r, ell - j)
                key = draw(b, num).astype(last.dtype)
                for _ in range(cols - 1):
                    key *= b
                    key += draw(b, num)
                if cols < r:
                    # the row's last group; the code it ends on is unused
                    key *= b ** (r - cols)
                    key += codes
                    letters[:, j:] = steps.take(key, axis=0)[:, :cols]
                    break
                key += codes
                last.take(key, out=codes)
                letters[:, j:j + r].view(f"V{r}")[:, 0] = items.take(key)
            return letters
        powers = b ** np.arange(r - 1, -1, -1, dtype=last.dtype)
        for j in range(1, ell, width):
            cols = min(width, ell - j)
            full, rest = divmod(cols, r)
            block = draw(b, cols * num).reshape(cols, num)
            keys = np.empty((full + (rest > 0), num), dtype=last.dtype)
            np.einsum("i,gin->gn", powers, block[:full * r].reshape(full, r, num),
                      out=keys[:full])
            if rest:
                # only the row's last block is short; its short group reads as
                # padded with zero draws, and the code that group ends on is unused
                np.einsum("i,in->n", powers[:rest], block[full * r:], out=keys[full])
            del block
            for key in keys:
                key += codes
                last.take(key, out=codes)
            letters[:, j:j + cols] = steps.take(keys.T, axis=0).reshape(num, -1)[:, :cols]
    return letters


def sample_presentation(
    params: ModelParams, rng, max_letters: int = DEFAULT_MAX_LETTERS
) -> Presentation:
    """num independent uniform freely reduced words of length ell, as a
    matrix-backed Presentation.

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
