"""Counting and bound machinery for planar diagrams over a relator set.

tutte_count gives the closed-form number of rooted embedded planar graphs
with n edges; enumerate_rooted_maps recounts it independently from rotation
systems (permutation pairs on darts, filtered by connectivity and the Euler
relation), which is the oracle for the closed form.

log_diagram_bound evaluates, in log space, the product bound
(2 ell)^F * F^F * ell^(5F) * 3^(25F) on the number of abstract diagrams with
at most F faces of boundary length ell.  fulfillability_bound gives the
exponent of the probability that a random relator family fills an abstract
diagram, and local_global evaluates the window predicates that upgrade a
quadratic isoperimetric inequality to a linear one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations
from typing import NamedTuple, Optional

from .words import ModelParams, ResourceLimitError

#: Scale parameter floor demanded by the window lemma.
CONFORMING_K_MIN = 10**10

#: Largest edge count the census enumerates; it walks all (2n)! permutations.
CENSUS_MAX_EDGES = 4


# ---------------------------------------------------------------------------
# rooted planar map census


def tutte_count(n: int) -> int:
    """Rooted embedded planar graphs with exactly n edges: 2 (2n)! 3^n / (n! (n+2)!)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    num = 2 * math.factorial(2 * n) * 3**n
    den = math.factorial(n) * math.factorial(n + 2)
    if num % den:
        raise AssertionError(f"closed form not integral at n={n}")
    return num // den


def _cycle_lengths(perm: tuple) -> list:
    """Lengths of the cycles of perm, in the order of their smallest elements."""
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        ln = 0
        j = start
        while not seen[j]:
            seen[j] = True
            ln += 1
            j = perm[j]
        if ln:
            lengths.append(ln)
    return lengths


def _is_transitive(sigma: tuple, n_darts: int) -> bool:
    # alpha is the fixed pairing dart i <-> i^1
    seen = [False] * n_darts
    stack = [0]
    seen[0] = True
    count = 1
    while stack:
        d = stack.pop()
        for nxt in (sigma[d], d ^ 1):
            if not seen[nxt]:
                seen[nxt] = True
                count += 1
                stack.append(nxt)
    return count == n_darts


class MapRecord(NamedTuple):
    vertices: int
    edges: int
    faces_sphere: int
    valences: tuple


def rooted_map_census(n: int) -> list:
    """All planar rotation systems on 2n darts with the pairing (01)(23)...

    Each record appears once per labeled rotation system; the rooted-map
    count follows by the orbit arithmetic in enumerate_rooted_maps.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > CENSUS_MAX_EDGES:
        raise ResourceLimitError(f"census over (2n)! permutations needs n <= {CENSUS_MAX_EDGES}")
    n_darts = 2 * n
    out = []
    for sigma in permutations(range(n_darts)):
        if not _is_transitive(sigma, n_darts):
            continue
        valences = _cycle_lengths(sigma)
        f = len(_cycle_lengths(tuple(sigma[d ^ 1] for d in range(n_darts))))
        if len(valences) - n + f != 2:
            continue
        out.append(MapRecord(len(valences), n, f, tuple(sorted(valences))))
    return out


def enumerate_rooted_maps(n: int) -> int:
    """Exhaustive rooted planar map count from the rotation-system census.

    With the dart pairing fixed, each unrooted map of automorphism group size
    a contributes (2n)!/a labeled rotation systems across all pairings and
    2n/a rootings, so the rooted count is
    census_size * #pairings / (2n-1)!.
    """
    census_size = len(rooted_map_census(n))
    n_darts = 2 * n
    pairings = math.factorial(n_darts) // (math.factorial(n) * 2**n)
    total = census_size * pairings
    den = math.factorial(n_darts - 1)
    if total % den:
        raise AssertionError(f"orbit arithmetic not integral at n={n}")
    return total // den


# ---------------------------------------------------------------------------
# diagram statistics and bounds


@dataclass(frozen=True)
class DiagramStats:
    """Face count, boundary length, and relator length of an abstract diagram."""

    faces: int
    boundary_length: int
    ell: int

    def __post_init__(self):
        if not 1 <= self.faces < 2**1000:
            raise ValueError(f"faces must be >= 1 and below 2^1000, got {self.faces}")
        if self.boundary_length < 0:
            raise ValueError(f"boundary length must be >= 0, got {self.boundary_length}")
        if not 1 <= self.ell < 2**1000:
            raise ValueError(f"ell must be >= 1 and below 2^1000, got {self.ell}")
        # Boundary cannot exceed the total face perimeter.  (It can exceed the
        # number of distinct boundary edges, because of filaments.)
        if self.boundary_length > self.ell * self.faces:
            raise ValueError(
                f"boundary {self.boundary_length} exceeds total perimeter "
                f"{self.ell * self.faces}"
            )


class DiagramBound(NamedTuple):
    log_bound: float
    asymptotic: float


def log_diagram_bound(F: int, ell: int, m: int = 2) -> DiagramBound:
    """log base 2m-1 of (2 ell)^F F^F ell^(5F) 3^(25F), plus the headline
    asymptotic 6 F log(ell) + 2 F log(F)."""
    if not (1 <= F < 2**1000 and 1 <= ell < 2**1000):
        raise ValueError("need F and ell >= 1 and below 2^1000")
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    ln_base = math.log(2 * m - 1)
    log_bound = (
        F * math.log(2 * ell) + F * math.log(F) + 5 * F * math.log(ell)
        + 25 * F * math.log(3)
    ) / ln_base
    asym = (6 * F * math.log(ell) + 2 * F * math.log(F)) / ln_base
    return DiagramBound(log_bound, asym)


def fulfillability_bound(stats: DiagramStats, params: ModelParams) -> float:
    """Exponent e with Pr(diagram fulfillable) <= (2m-1)^e:
    e = (1/2)(|bd D|/|D| - ell (1 - 2 density)).

    At density 1/2 the exponent is |bd D|/(2|D|) >= 0 and the bound is vacuous.
    """
    return 0.5 * (stats.boundary_length / stats.faces
                  - stats.ell * (1.0 - 2.0 * params.density))


@dataclass(frozen=True)
class WindowParams:
    """Scale parameter K and relator length for the local-global window."""

    K: int
    ell: int

    def __post_init__(self):
        if self.K < 1:
            raise ValueError(f"K must be >= 1, got {self.K}")
        if self.ell < 1:
            raise ValueError(f"ell must be >= 1, got {self.ell}")

    @property
    def conforming(self) -> bool:
        """True when K meets the lemma's K >= 10^10 hypothesis; smaller K is
        allowed for desk-scale exploration but flagged non-conforming."""
        return self.K >= CONFORMING_K_MIN


class IsoperimetricConclusion(NamedTuple):
    boundary_length: int
    required: float
    holds: bool


class LocalGlobalResult(NamedTuple):
    in_window: bool
    satisfies_quadratic: bool
    conforming: bool
    conclusion: Optional[IsoperimetricConclusion]


def local_global(stats: DiagramStats, win: WindowParams) -> LocalGlobalResult:
    """Evaluate the window predicate K^2/4 <= |D| <= 480 K^2, the quadratic
    inequality |bd D|^2 >= 2*10^4 ell^2 |D|, and (for |D| >= K^2) the linear
    conclusion |bd D| >= ell |D| / (10^4 K).

    All comparisons are exact integer arithmetic; boundaries are inclusive.
    """
    D = stats.faces
    B = stats.boundary_length
    K2 = win.K * win.K
    in_window = (4 * D >= K2) and (D <= 480 * K2)
    satisfies_j = B * B >= 2 * 10**4 * stats.ell * stats.ell * D
    conclusion = None
    if D >= K2:
        required = stats.ell * D / (10**4 * win.K)
        conclusion = IsoperimetricConclusion(B, required, B >= required)
    return LocalGlobalResult(in_window, satisfies_j, win.conforming, conclusion)
