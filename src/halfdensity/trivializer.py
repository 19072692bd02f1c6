"""Certificate-producing triviality pipeline for relator presentations.

The pipeline looks for evidence that every generator and inverse of a
presented group coincide, which pins the group to order one or two:

1. collision stage: find two relators whose tails agree from position k+1
   while their k-th letters differ; the prefix quotient w (length exactly 2k)
   is then trivial in the group.
2./3. reduction stage: inside fixed blocks of each relator, excise segments
   d w d^-1 whose flanking letters s, t do not cancel; this shortens the
   relator without changing its image in the group.
4. conclusion stage: two (shortened) relators that agree from their second
   letter on force their first letters to be equal in the group.

Every asserted equality is emitted as a Certificate: an ordered derivation
whose steps are replayed verbatim by check_certificate using word operations
only.  The pipeline answers "trivial" or "unknown"; it never claims
nontriviality.  abelianization_guard is the independent soundness oracle:
the abelianization is Z^m modulo the lattice of exponent-sum rows, and when
that lattice has index above two (or infinite index) the group has order
above two, so a "trivial" verdict would be a contradiction and raises
immediately.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass
from typing import Callable, ClassVar, Optional, Union, get_args

import numpy as np

from .words import (
    Presentation,
    Word,
    _padded,
    char_to_letter,
    concat_reduce,
    invert,
    is_reduced,
    letter_to_char,
    sample_relator_matrix,
    unpad,
    word_from_str,
    word_to_str,
)
from .rng import as_source

RESERVED_PREFIX = 2
#: Candidate columns of the occurrence mask that _first_patterns builds at once.
SCAN_CHUNK = 256
#: Letters per block of rows the abelianization guard bins at once.
EXPONENT_BLOCK_LETTERS = 1 << 18

POSSIBLY_TRIVIAL = "possibly-trivial"
CERTAINLY_NONTRIVIAL = "certainly-nontrivial"

OUTCOME_TRIVIAL = "trivial"
OUTCOME_UNKNOWN = "unknown"


class CertificateError(ValueError):
    """A certificate is structurally malformed (distinct from replay mismatch)."""


class SoundnessError(RuntimeError):
    """The pipeline derived 'trivial' for a group that is provably not."""


# ---------------------------------------------------------------------------
# configuration


def choose_k(ell: int, m: int = 2) -> int:
    """Default head length: max(1, round((1/2) log ell - log log ell)), logs base 2m-1."""
    if ell < 2:
        raise ValueError(f"ell must be >= 2, got {ell}")
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    base = 2 * m - 1
    x = math.log(ell, base)
    return max(1, round(0.5 * x - math.log(x, base)))


@dataclass(frozen=True)
class TrivializerConfig:
    """Head length k plus the derived block geometry for relator length ell."""

    m: int
    ell: int
    k: int
    max_rounds: int = 1

    def __post_init__(self):
        if self.m < 2:
            raise ValueError(f"m must be >= 2, got {self.m}")
        if not 1 <= self.k <= self.ell:
            raise ValueError(f"need 1 <= k <= ell, got k={self.k}, ell={self.ell}")
        if self.max_rounds < 1:
            raise ValueError(f"max_rounds must be >= 1, got {self.max_rounds}")

    @property
    def block_size(self) -> int:
        return (2 * self.k + 2) * (2 * self.m - 1) ** (2 * self.k)

    def block_count_for(self, length: int) -> int:
        """Full blocks available in a relator of the given length."""
        return max(0, (length - 2) // self.block_size)

    @classmethod
    def for_params(cls, m: int, ell: int, k: int | None = None,
                   max_rounds: int = 1) -> "TrivializerConfig":
        if k is None:
            k = min(choose_k(ell, m), ell)
        return cls(m=m, ell=ell, k=k, max_rounds=max_rounds)


# ---------------------------------------------------------------------------
# certificates
#
# A certificate is a list of steps; each step appends one derived word (or,
# for the final conclusion, an equality).  Steps reference earlier steps by
# list index.  Replaying uses only word operations plus membership of cited
# relators in the presentation.
#
# Each step field declares its codec once; serialization, parsing, the
# derivation log and reference walking are all driven by those declarations.


@dataclass(frozen=True, eq=False)
class _Codec:
    """How one kind of step field is written to JSON (and to the log) and read back."""

    dump: Callable
    load: Callable


def _load_int(value) -> int:
    """A JSON integer as is; floats, strings and booleans are malformed."""
    if type(value) is not int:
        raise CertificateError(f"expected an integer, got {value!r}")
    return value


def _load_word(value) -> Word:
    if not isinstance(value, str):  # word_from_str would read any iterable of letters
        raise CertificateError(f"expected a word string, got {value!r}")
    return word_from_str(value)


_INT = _Codec(int, _load_int)
_REF = _Codec(int, _load_int)  # an index of an earlier step
_WORD = _Codec(word_to_str, _load_word)
_LETTER = _Codec(letter_to_char, char_to_letter)


def _field(codec: _Codec):
    return dataclasses.field(metadata={"codec": codec})


@dataclass(frozen=True)
class RelatorStep:
    kind: ClassVar[str] = "relator"
    text: ClassVar[str] = "relator #{index} is trivial: {word}"

    index: int = _field(_INT)
    word: Word = _field(_WORD)


@dataclass(frozen=True)
class CollisionStep:
    kind: ClassVar[str] = "collision"
    text: ClassVar[str] = ("tails of [{r1}] and [{r2}] agree from position {step.tail_from}; "
                           "prefix quotient w = {w} is trivial")

    r1: int = _field(_REF)
    r2: int = _field(_REF)
    k: int = _field(_INT)
    w: Word = _field(_WORD)

    @property
    def tail_from(self) -> int:
        """One-based position from which the two tails agree."""
        return self.k + 1


@dataclass(frozen=True)
class ReductionStep:
    kind: ClassVar[str] = "reduction"
    text: ClassVar[str] = ("excise d*w*d^-1 from [{host}] at {start}..{end} "
                           "(d = {conjugator}, w from [{w_ref}], flanks "
                           "{s_letter},{t_letter}): {result}")

    host: int = _field(_REF)
    w_ref: int = _field(_REF)
    start: int = _field(_INT)
    end: int = _field(_INT)
    conjugator: Word = _field(_WORD)
    s_letter: int = _field(_LETTER)
    t_letter: int = _field(_LETTER)
    result: Word = _field(_WORD)


@dataclass(frozen=True)
class ConclusionStep:
    kind: ClassVar[str] = "conclusion"
    text: ClassVar[str] = "[{r1}] and [{r2}] agree from position 2, so {x} = {y} in G"

    r1: int = _field(_REF)
    r2: int = _field(_REF)
    x: int = _field(_LETTER)
    y: int = _field(_LETTER)


Step = Union[RelatorStep, CollisionStep, ReductionStep, ConclusionStep]

#: (name, codec) of every field, per step type, in declaration order.
_STEP_FIELDS = {
    cls: tuple((f.name, f.metadata["codec"]) for f in dataclasses.fields(cls))
    for cls in get_args(Step)
}
_STEP_REFS = {cls: tuple(n for n, c in fs if c is _REF) for cls, fs in _STEP_FIELDS.items()}
_STEP_KINDS = {cls.kind: cls for cls in _STEP_FIELDS}


@dataclass
class Certificate:
    """A replayable derivation of the equality x = y in the presented group."""

    x: int
    y: int
    steps: list

    def to_json_dict(self) -> dict:
        out = []
        for s in self.steps:
            entry = {"kind": s.kind}
            entry.update((n, c.dump(getattr(s, n))) for n, c in _STEP_FIELDS[type(s)])
            out.append(entry)
        return {"x": letter_to_char(self.x), "y": letter_to_char(self.y), "steps": out}

    @classmethod
    def from_json_dict(cls, d: dict) -> "Certificate":
        try:
            steps: list[Step] = []
            for s in d["steps"]:
                step_cls = _STEP_KINDS.get(s.get("kind"))
                if step_cls is None:
                    raise CertificateError(f"unknown step kind {s.get('kind')!r}")
                steps.append(step_cls(*(c.load(s[n]) for n, c in _STEP_FIELDS[step_cls])))
            return cls(char_to_letter(d["x"]), char_to_letter(d["y"]), steps)
        except CertificateError:
            raise
        except (AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
            raise CertificateError(f"malformed certificate payload: {exc}") from exc

    def describe(self) -> str:
        """Human-readable derivation log."""
        lines = [f"claim: {letter_to_char(self.x)} = {letter_to_char(self.y)} in G"]
        for i, s in enumerate(self.steps):
            shown = {n: str(c.dump(getattr(s, n))) or "(empty)" for n, c in _STEP_FIELDS[type(s)]}
            lines.append(f"[{i}] " + s.text.format(step=s, **shown))
        return "\n".join(lines)


def _check_ref(ref, upto: int) -> int:
    if not isinstance(ref, int) or not 0 <= ref < upto:
        raise CertificateError(f"step reference {ref!r} invalid before step {upto}")
    return ref


def check_certificate(R: Presentation, cert: Certificate) -> bool:
    """Replay a certificate; True iff every claimed word reproduces exactly.

    Structural problems (bad references, unknown step kinds, citing a word
    that is not a relator of R) raise CertificateError; value-level replay
    mismatches return False.
    """
    if not cert.steps:
        raise CertificateError("certificate has no steps")
    derived: list[Optional[Word]] = []
    concluded: Optional[tuple[int, int]] = None
    for pos, s in enumerate(cert.steps):
        ref_names = _STEP_REFS.get(type(s))
        if ref_names is None:
            raise CertificateError(f"unknown step type {type(s).__name__}")
        cited = [derived[_check_ref(getattr(s, n), pos)] for n in ref_names]
        if any(u is None for u in cited):
            raise CertificateError(f"step {pos} references a non-word step")
        if isinstance(s, RelatorStep):
            if not 0 <= s.index < len(R):
                raise CertificateError(f"relator index {s.index} outside presentation")
            if tuple(R.relator(s.index)) != tuple(s.word):
                raise CertificateError(
                    f"step {pos} cites relator {s.index} with a word not in R"
                )
            derived.append(tuple(s.word))
        elif isinstance(s, CollisionStep):
            u, v = cited
            k = s.k
            if not (1 <= k <= len(u) and k <= len(v)):
                return False
            if u[k:] != v[k:]:
                return False
            if u[0] == v[0] or u[k - 1] == v[k - 1]:
                return False
            w = concat_reduce(invert(u[:k]), v[:k])
            if len(w) != 2 * k or w != tuple(s.w):
                return False
            derived.append(w)
        elif isinstance(s, ReductionStep):
            host, w = cited
            start, end = s.start, s.end
            if not (2 <= start <= end <= len(host) - 1):
                return False
            d = tuple(s.conjugator)
            if host[start - 1 : end] != d + tuple(w) + invert(d):
                return False
            if host[start - 2] != s.s_letter or host[end] != s.t_letter:
                return False
            if s.s_letter == -s.t_letter:
                return False
            result = host[: start - 1] + host[end:]
            if not is_reduced(result) or result != tuple(s.result):
                return False
            derived.append(result)
        else:
            u, v = cited
            if len(u) < 1 or len(v) < 1:
                return False
            if u[0] != s.x or v[0] != s.y or s.x == s.y:
                return False
            if u[1:] != v[1:]:
                return False
            derived.append(None)
            concluded = (s.x, s.y)
    if concluded is None:
        raise CertificateError("certificate never reaches a conclusion step")
    if concluded != (cert.x, cert.y):
        return False
    return True


# ---------------------------------------------------------------------------
# collision search


def _tail_keys(mat: np.ndarray, start: int) -> np.ndarray:
    """One uint64 key per row of mat for its letters from column start on: the
    8-letter words over them, read in place (from a C-order copy of a matrix
    in another order) at start, start + 8, ... and a last one ending at the
    row end, as the digits of a polynomial with an odd base, mod 2**64.  Rows
    with equal tails get equal keys.
    """
    mat = np.ascontiguousarray(mat)
    if mat.shape[1] < 8:
        mat = np.pad(mat, ((0, 0), (0, 8 - mat.shape[1])))
    n, width = mat.shape
    words = (np.ndarray((n,), "<u8", buffer=mat, offset=o, strides=(width,))
             for o in [*range(start, width - 8, 8), width - 8])
    # a first word that is also the last may begin before start: mask those bytes off
    keys = next(words) & ~np.uint64((1 << 8 * max(start + 8 - width, 0)) - 1)
    for word in words:
        keys *= np.uint64(0x9E3779B97F4A7C15)  # the odd base
        keys += word
    return keys


def _group_tails(mat: np.ndarray, start: int) -> list:
    """Groups of two or more rows of words that agree from position start+1 on.

    mat is a zero-padded relator matrix and start >= 1; rows shorter than
    start letters take no part.  Each group is an ascending row list; groups
    are ordered by their first row.  Each row's tail key keeps its high bits
    above the row index, and one sort brings equal keys together; the rows
    whose key repeats, less those with no letter at position start (whose
    tails are all zero), are sorted by tail, and runs of equal adjacent tails
    are the groups (zero-padded tails are equal only when the words' tails
    are).  A key collision costs time, never a group.
    """
    if start > mat.shape[1]:
        return []
    n = len(mat)
    index = np.uint64((1 << n.bit_length()) - 1)  # the bits of a row index
    packed = _tail_keys(mat, start)
    packed &= ~index
    packed |= np.arange(n, dtype=np.uint64)
    packed.sort()
    same = (packed[1:] ^ packed[:-1]) <= index
    repeats = np.zeros(n, dtype=bool)
    repeats[1:] = same
    repeats[:-1] |= same
    rows = (packed[repeats] & index).astype(np.intp)
    rows = rows[mat[rows, start - 1] != 0]
    tails = mat[rows, start:]
    # the rows are the last tiebreak, so each run lists its rows in ascending order
    order = np.lexsort([rows, *tails.T[::-1]])
    ordered = tails[order]
    new_run = np.ones(len(rows) + 1, dtype=bool)
    new_run[1:-1] = (ordered[1:] != ordered[:-1]).any(axis=1)
    bounds = np.flatnonzero(new_run)
    starts, ends = bounds[:-1], bounds[1:]
    big = ends - starts >= 2
    starts, ends = starts[big], ends[big]
    members = rows[order]
    by_first = np.argsort(members[starts])
    return [members[a:b].tolist() for a, b in zip(starts[by_first].tolist(),
                                                  ends[by_first].tolist())]


# ---------------------------------------------------------------------------
# w-reduction
#
# A reduction record is the tuple (start, end, conjugator, s_letter,
# t_letter, result) of ReductionStep's fields after host and w_ref: the
# segment d w d^-1 at one-based positions start..end of the host as it then
# stands is excised between the non-cancelling flanks s and t, leaving result.
# A pattern, flanks included, stays inside its block, so the blocks that the
# rows hold are scanned at once as rows of their own (block rows); the hits
# are the 0-based flank columns of the patterns found, mapped back to the rows.


def _first_patterns(mat: np.ndarray, w: Word):
    """The leftmost valid pattern s d w d^-1 t in each row of mat.

    Every row has letters in all columns; w is freely reduced of length >= 2.
    Occurrences of w start at columns 1..width-|w|-1, so both flanks have
    room.  The conjugator d is grown outward while the letters around it cancel
    and the row allows; the occurrence is valid when the flanks it stops at do
    not cancel.  Returns (rows, si, ti): the ascending rows holding a valid
    pattern and the columns of its flanks.

    The candidate columns are scanned SCAN_CHUNK at a time, left to right, for
    the rows with no valid pattern yet.  In a chunk each such row's first
    occurrence is checked, and a row whose occurrence is invalid is checked
    again at its next one, with that occurrence cleared.
    """
    W, width = len(w), mat.shape[1]
    ncand = width - W - 1  # occurrences start at columns 1..ncand
    flanks = np.full((2, len(mat)), -1, dtype=np.intp)
    live = np.arange(len(mat))  # the rows with no valid pattern yet
    for c0 in range(0, ncand, SCAN_CHUNK):
        if not live.size:
            break
        n = min(SCAN_CHUNK, ncand - c0)
        letters = mat[live, c0 + 1 : c0 + n + W]  # candidate columns c0+1..c0+n, and w's rest
        occ = letters[:, :n] == w[0]
        for j in range(1, W):
            occ &= letters[:, j : j + n] == w[j]
        first = occ.argmax(axis=1)
        todo = np.flatnonzero(occ[np.arange(len(live)), first])
        while todo.size:
            rows, si = live[todo], c0 + first[todo]  # the column left of each occurrence
            ti = si + W + 1
            grow = np.arange(len(rows))
            while grow.size:
                s, t = si[grow], ti[grow]
                grow = grow[(s > 0) & (t < width - 1)
                            & (mat[rows[grow], s] == -mat[rows[grow], t])]
                si[grow] -= 1
                ti[grow] += 1
            valid = mat[rows, si] != -mat[rows, ti]
            flanks[:, rows[valid]] = si[valid], ti[valid]
            todo = todo[~valid]
            occ[todo, first[todo]] = False
            first[todo] = occ[todo].argmax(axis=1)
            todo = todo[occ[todo, first[todo]]]
        live = live[flanks[0, live] < 0]
    rows = np.flatnonzero(flanks[0] >= 0)
    return rows, flanks[0, rows], flanks[1, rows]


def _hits(mat: np.ndarray, w: Word, cfg: TrivializerConfig):
    """The hits of one reduction pass over mat: one scan of the blocks its rows hold in full.

    Returns (rows, si, ti) sorted by row, then column: each hit's flank columns in mat.
    """
    size, count = cfg.block_size, cfg.block_count_for(mat.shape[1])
    blocks = mat[:, RESERVED_PREFIX : RESERVED_PREFIX + count * size].reshape(-1, size)
    held = np.flatnonzero(blocks[:, -1])  # block row i is block i % count of row i // count
    at, si, ti = _first_patterns(blocks[held], w)
    rows, j = np.divmod(held[at], count)
    offset = RESERVED_PREFIX + j * size
    return rows, si + offset, ti + offset


def _records(u: Word, si: list, ti: list, W: int) -> list:
    """The records of one row's hits, applied in order to the word u they were found on."""
    records = []
    removed = 0  # letters the row's earlier blocks lost
    for a, b in zip(si, ti):
        a, b = a - removed, b - removed
        n = (b - a - 1 - W) // 2  # the conjugator's length
        records.append((a + 2, b, u[a + 1 : a + 1 + n], u[a], u[b], u[: a + 1] + u[b:]))
        u = records[-1][-1]
        removed += b - a - 1
    return records


def _excise_rows(mat: np.ndarray, at: np.ndarray, si: np.ndarray, ti: np.ndarray):
    """Rows of mat less the letters between the flanks of each hit h, in row at[h]."""
    span = ti - si - 1  # the letters of each hit's d w d^-1
    # the flat indices of those letters: each hit's span from the letter after its s
    flat = (np.repeat(at * mat.shape[1] + si + 1 - (np.cumsum(span) - span), span)
            + np.arange(span.sum()))
    lengths = mat.shape[1] - np.bincount(at, weights=span, minlength=len(mat))
    return _padded(np.delete(mat, flat), lengths, mat.shape[1])  # in row order


def reduce_relator(r: Word, w: Word, cfg: TrivializerConfig):
    """At most one w-reduction in each full block of r, first two letters reserved.

    Blocks are consecutive block_size spans of r from position 3 on; letters
    beyond the last full block are left alone.  Returns (reduced word,
    reduction records), in the order the excisions are applied; the list is
    empty when nothing was excised.
    """
    r, w = tuple(r), tuple(w)
    if len(w) < 2 or not is_reduced(w):
        raise ValueError("w must be freely reduced of length >= 2")
    _, si, ti = _hits(np.array([r], dtype=np.int8), w, cfg)
    records = _records(r, si.tolist(), ti.tolist(), len(w))
    return (records[-1][-1] if records else r), records


# ---------------------------------------------------------------------------
# abelianization guard


def _exponent_matrix(mat: np.ndarray, m: int) -> np.ndarray:
    """Exponent sums of a zero-padded letter matrix: one bincount, an intp bin per letter."""
    n, width = mat.shape
    bins_per_row = 2 * m + 1
    # letter x of relator i counts in bin m + x of its row of 2m+1 bins; the
    # zero padding lands in bin m, which no exponent reads
    bins = np.repeat(np.arange(n) * bins_per_row + m, width)
    bins += mat.ravel()
    counts = np.bincount(bins, minlength=bins_per_row * n).reshape(n, bins_per_row)
    return counts[:, m + 1:] - counts[:, m - 1::-1]


def _add_rows(basis: list, rows) -> int:
    """Merge integer rows into basis, the m-slot echelon basis of the lattice L they span.

    basis[c] is None or the row of L whose first nonzero entry is in column c.
    A row is cleared column by column by Euclid row steps against the pivot
    row there, or fills the empty slot of its first nonzero column.  Returns
    the index [Z^m : L], the product of the pivots, or 0 while L has rank below m.
    """
    for row in rows:
        for c, b in enumerate(basis):
            if not row[c]:
                continue
            if b is None:
                basis[c] = row
                break
            while row[c]:
                q = row[c] // b[c]
                row = [x - q * y for x, y in zip(row, b)]
                if row[c]:
                    b, row = row, b
            basis[c] = b
    return 0 if None in basis else math.prod(abs(b[c]) for c, b in enumerate(basis))


def abelianization_guard(R: Presentation) -> str:
    """Independent soundness oracle from exponent sums.

    The abelianization is Z^m / L, L the lattice of the exponent-sum rows; a
    trivial group has order at most two, so an index [Z^m : L] above two (or
    infinite) rules it out.  Rows are read in blocks that double from 4m, up
    to about EXPONENT_BLOCK_LETTERS letters (or one row), until the index is
    1 or 2.  Once the index is a finite D, L contains D Z^m, so later rows
    count only as their distinct residues mod D.
    """
    basis, index = [None] * R.m, 0
    cap = max(1, EXPONENT_BLOCK_LETTERS // max(1, R.matrix.shape[1]))
    start, size = 0, min(4 * R.m, cap)
    while start < len(R) and index not in (1, 2):
        E = _exponent_matrix(R.matrix[start:start + size], R.m)
        if index:
            E %= index
        index = _add_rows(basis, set(map(tuple, E.tolist())))
        start, size = start + size, min(2 * size, cap)
    return POSSIBLY_TRIVIAL if index in (1, 2) else CERTAINLY_NONTRIVIAL


# ---------------------------------------------------------------------------
# verdict assembly


@dataclass
class TrivializeStats:
    rounds: int = 0
    collisions_found: int = 0
    reductions_applied: int = 0
    letters_removed: int = 0
    equality_edges: int = 0

    def to_json_dict(self) -> dict:
        return dict(vars(self))


@dataclass
class Verdict:
    outcome: str
    certificates: list
    stats: TrivializeStats
    config: TrivializerConfig

    def to_json_dict(self) -> dict:
        return {
            "outcome": self.outcome,
            "parameters": {**vars(self.config),
                           "block_size": self.config.block_size,
                           "block_count": self.config.block_count_for(self.config.ell)},
            "certificates": [c.to_json_dict() for c in self.certificates],
            "statistics": self.stats.to_json_dict(),
        }


class _DeferredRound:
    """One round's reduction-stage steps, kept as its hits until a certificate cites one.

    The changed rows take derivation slots from start on, in ascending order:
    a RelatorStep first when the row has no step yet (prior -1), then one
    ReductionStep per hit of the row, the first of which cites the row's
    prior step and each later one the step before it.  Row p's hits are
    bounds[p]:bounds[p+1] and its slots end before ends[p]; hit h is in row at[h].
    The hits come sorted by row; cur_ref[i] is 1 + relator i's current step, or 0.
    """

    def __init__(self, start, mat, rows, si, ti, cur_ref: np.ndarray, w_ref: int, w_len: int):
        new_run = np.ones(len(rows) + 1, dtype=bool)
        np.not_equal(rows[1:], rows[:-1], out=new_run[1:-1])
        self.bounds = np.flatnonzero(new_run)
        self.rows, self.at = rows[self.bounds[:-1]], np.cumsum(new_run[:-1]) - 1
        self.prior = cur_ref[self.rows] - 1
        self.ends = start + np.cumsum(np.diff(self.bounds) + (self.prior < 0))
        self.words = mat[self.rows]  # the changed rows as the round found them
        self.si, self.ti, self.w_ref, self.w_len = si, ti, w_ref, w_len

    def fill(self, deriv: list, t: int) -> None:
        """Write every step of the row holding slot t into deriv, from one replay of its hits."""
        p = int(np.searchsorted(self.ends, t, side="right"))
        (a, b), end, prior = self.bounds[p:p + 2].tolist(), int(self.ends[p]), int(self.prior[p])
        first, u = end - (b - a), unpad(self.words[p:p + 1])[0]  # first: the first reduction's slot
        if prior < 0:
            deriv[first - 1] = RelatorStep(int(self.rows[p]), u)
            prior = first - 1
        records = _records(u, self.si[a:b].tolist(), self.ti[a:b].tolist(), self.w_len)
        deriv[first:end] = [ReductionStep(ref, self.w_ref, *rec)
                            for ref, rec in zip([prior, *range(first, end - 1)], records)]


def _certificate_steps(deriv: list, last: int) -> list:
    """Ancestor closure of one step, re-indexed into a standalone list; builds deferred steps."""
    needed = set()
    stack = [last]
    while stack:
        t = stack.pop()
        if t in needed:
            continue
        needed.add(t)
        if isinstance(deriv[t], _DeferredRound):
            deriv[t].fill(deriv, t)
        s = deriv[t]
        stack.extend(getattr(s, n) for n in _STEP_REFS[type(s)])
    order = sorted(needed)
    remap = {old: new for new, old in enumerate(order)}
    out: list[Step] = []
    for t in order:
        s = deriv[t]
        out.append(dataclasses.replace(s, **{n: remap[getattr(s, n)]
                                             for n in _STEP_REFS[type(s)]}))
    return out


def _best_collision(mat: np.ndarray, groups: list, k: int, used_ws: set):
    """Lexicographically smallest valid collision pair over the equal-tail groups.

    groups is _group_tails(mat, k).  A pair of rows is valid when their tails
    from position k+1 agree while their first and k-th letters differ.
    Returns ((i1, i2, w) or None, number of valid pairs seen).
    """
    best = None
    count = 0
    for idxs in groups:
        heads = mat[idxs, :k].tolist()
        for (i1, u), (i2, v) in itertools.combinations(zip(idxs, heads), 2):
            if u[0] == v[0] or u[k - 1] == v[k - 1]:
                continue
            count += 1
            if best is not None and (i1, i2) >= best[:2]:
                continue
            w = invert(u) + tuple(v)  # nothing cancels where they meet, as u[0] != v[0]
            if w in used_ws:
                continue
            best = (i1, i2, w)
    return best, count


def trivialize(R: Presentation, cfg: TrivializerConfig | None = None) -> Verdict:
    """Run the full pipeline and assemble a certified verdict.

    Deterministic: ties in the collision search break by smallest
    (r1 index, r2 index); equality edges are certified in first-found order,
    one per unordered symbol pair up to inverting both sides.  Outcome is
    "trivial" only when the certified equalities, closed under that symmetry,
    connect all 2m symbols.
    """
    m = R.m
    if cfg is None:
        cfg = TrivializerConfig.for_params(m, max(R.max_length(), 2))
    elif cfg.m != m:
        raise ValueError(f"config is for m={cfg.m}, the presentation has m={m}")
    # the current words, zero-padded; a round that reduces a word works on a copy
    cur = R.matrix

    # a reduction-stage slot holds its round until a certificate needs the step
    deriv: list[Union[Step, _DeferredRound]] = []
    # cur's tail groups by start position; a round that excises letters empties it
    groups = {cfg.k: _group_tails(cur, cfg.k)}
    # 1 + the step holding each relator's current word, 0 while it has none;
    # made after the first grouping, whose peak memory it would raise
    cur_ref = np.zeros(len(R), dtype=np.intp)

    def ref_of(i: int) -> int:
        if not cur_ref[i]:
            deriv.append(RelatorStep(i, R.relator(i)))
            cur_ref[i] = len(deriv)
        return int(cur_ref[i]) - 1

    # each symbol's class label; a union relabels every member of one class
    label = {x: x for x in range(-m, m + 1) if x}
    certs: dict[tuple, Certificate] = {}
    stats = TrivializeStats()
    used_ws: set[Word] = set()

    def groups_at(start: int) -> list:
        if start not in groups:
            groups[start] = _group_tails(cur, start)
        return groups[start]

    for _ in range(cfg.max_rounds):
        stats.rounds += 1

        # collision stage
        col, count = _best_collision(cur, groups_at(cfg.k), cfg.k, used_ws)
        stats.collisions_found += count
        rows = ()  # the rows this round reduces; only a round that reduced has a next
        if col is not None:
            i1, i2, w = col
            used_ws.add(w)
            deriv.append(CollisionStep(ref_of(i1), ref_of(i2), cfg.k, w))
            # reduction stage; w is freely reduced, of length 2k
            rows, si, ti = _hits(cur, w, cfg)
            if len(rows):
                rd = _DeferredRound(len(deriv), cur, rows, si, ti, cur_ref, len(deriv) - 1, len(w))
                deriv.extend([rd] * (int(rd.ends[-1]) - len(deriv)))
                cur_ref[rd.rows] = rd.ends
                cur = cur.copy()
                cur[rd.rows] = _excise_rows(rd.words, rd.at, si, ti)
                groups.clear()
            stats.letters_removed += int((ti - si - 1).sum())
            stats.reductions_applied += len(rows)

        # conclusion stage
        for idxs in groups_at(1):
            seen: dict[int, int] = {}
            for i, x in zip(idxs, cur[idxs, 0].tolist()):
                if x not in seen:
                    for y, j in seen.items():
                        # the pair {y, x} up to inverting both sides
                        key = min((y, x), (x, y), (-y, -x), (-x, -y))
                        if key in certs:
                            continue
                        deriv.append(ConclusionStep(ref_of(j), ref_of(i), y, x))
                        certs[key] = Certificate(y, x, _certificate_steps(deriv, len(deriv) - 1))
                        for a, b in ((x, y), (-x, -y)):
                            old, new = label[b], label[a]
                            label = {s: new if t == old else t for s, t in label.items()}
                    seen[x] = i

        if len(set(label.values())) == 1 or not len(rows):
            break

    stats.equality_edges = len(certs)
    outcome = OUTCOME_TRIVIAL if len(set(label.values())) == 1 else OUTCOME_UNKNOWN
    if outcome == OUTCOME_TRIVIAL and abelianization_guard(R) == CERTAINLY_NONTRIVIAL:
        raise SoundnessError(
            "pipeline derived 'trivial' but the abelianization has order above two; "
            "this indicates a defect in the derivation machinery"
        )
    return Verdict(outcome, list(certs.values()), stats, cfg)


# ---------------------------------------------------------------------------
# empirical per-block reduction rate


def planted_reduction_rate(k: int, m: int, blocks: int, rng) -> tuple:
    """Fraction of random blocks admitting a w-reduction, for w = (ab)^k.

    Each trial samples a uniform reduced word of length block_size + 1 from rng,
    an int seed or a RandomSource, in chunks of 2048 words, and looks for the
    pattern, flanks included, in its columns 1..block_size; column 0 is drawn and
    never read, kept only so seeded rates do not move.  Returns (rate, stderr).
    Per-block this rate exceeds 1/4 once k is large enough for the wrong-form
    occurrences (the block starting or ending with d w d^-1) to be negligible.
    """
    if blocks < 1:
        raise ValueError(f"blocks must be at least 1, got {blocks}")
    size = TrivializerConfig(m=m, ell=k, k=k).block_size
    w, rng = (1, 2) * k, as_source(rng)
    hits = 0
    for chunk_index, done in enumerate(range(0, blocks, 2048)):
        mat = sample_relator_matrix(m, size + 1, min(2048, blocks - done), rng.child(chunk_index))
        hits += len(_first_patterns(mat[:, 1:], w)[0])  # the blocks, as block rows
    rate = hits / blocks
    stderr = math.sqrt(rate * (1.0 - rate) / blocks)
    return rate, stderr
