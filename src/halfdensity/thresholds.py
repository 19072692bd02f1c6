"""Growth-rate conditions and the phase classifier for the f(ell) family.

Rate functions are GrowthExprs, linear combinations of terms

    c * ell^a * log(ell)^b * loglog(ell)^g

with logs base 2m-1 (m a parameter, default 2).  Divergence questions for
this family are decided symbolically by lexicographic comparison of the
exponent triples (a, b, g).  Where spade's (2m-1)^(2k) or asterisk's
window scale K is not a monomial, that verdict is indeterminate and a
numeric-trace heuristic labels it.

Three conditions are evaluated:

* star:      k - 2 ell f -> infinity        (exists a short trivial word)
* spade:     (ell-2) / ((2k+2)(2m-1)^(2k)) -> infinity   (block count grows)
* asterisk:  3000 K^2 log(K ell) + 10^4 ell/K - ell f -> -infinity
             (diagram count loses to fulfillability decay)

classify_rate encodes the headline decision table: hyperbolic when f
dominates 10^5 log^(1/3)/ell^(1/3), trivial when f is eventually below
log(ell)/(4 ell) - loglog(ell)/ell, unknown in between.  classify_phase
applies it to f = c0 * log^beta(ell) / ell^alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

VERDICT_DIVERGES = "diverges"
VERDICT_BOUNDED = "bounded"
VERDICT_TO_MINUS_INF = "converges-to-minus-infinity"
VERDICT_TO_ZERO = "converges-to-zero"
VERDICT_INDETERMINATE = "indeterminate"

OUTCOME_TRIVIAL = "trivial"
OUTCOME_HYPERBOLIC = "hyperbolic"
OUTCOME_UNKNOWN = "unknown"
OUTCOME_NOT_SMALL = "not-o1"

_ZERO_KEY = (Fraction(0), Fraction(0), Fraction(0))
_LOG_KEY = (Fraction(0), Fraction(1), Fraction(0))
_LOGLOG_KEY = (Fraction(0), Fraction(0), Fraction(1))


def _fr(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class GrowthExpr:
    """Sum of terms coeff * ell^a * log^b * loglog^g, keyed by (a, b, g)."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        """terms: a dict or (key, coeff) pairs; coefficients of equal keys are
        summed, and zero sums dropped."""
        summed: dict = {}
        for key, coeff in terms.items() if isinstance(terms, dict) else terms or ():
            key = tuple(_fr(v) for v in key)
            summed[key] = summed.get(key, 0) + coeff
        self.terms = {k: c for k, c in summed.items() if c != 0}

    @classmethod
    def constant(cls, c) -> "GrowthExpr":
        return cls({_ZERO_KEY: c})

    @classmethod
    def monomial(cls, a, b, g, coeff) -> "GrowthExpr":
        return cls({(a, b, g): coeff})

    def __eq__(self, other) -> bool:
        return isinstance(other, GrowthExpr) and self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "GrowthExpr(0)"
        parts = []
        for (a, b, g), c in sorted(self.terms.items(), reverse=True):
            factors = [str(c)]
            if a:
                factors.append(f"ell^{a}")
            if b:
                factors.append(f"log^{b}")
            if g:
                factors.append(f"loglog^{g}")
            parts.append("*".join(factors))
        return "GrowthExpr(" + " + ".join(parts) + ")"

    def __add__(self, other: "GrowthExpr") -> "GrowthExpr":
        return GrowthExpr([*self.terms.items(), *other.terms.items()])

    def __sub__(self, other: "GrowthExpr") -> "GrowthExpr":
        return self + other.scale(-1)

    def scale(self, c) -> "GrowthExpr":
        return GrowthExpr.constant(c) * self

    def __mul__(self, other: "GrowthExpr") -> "GrowthExpr":
        return GrowthExpr(((a1 + a2, b1 + b2, g1 + g2), c1 * c2)
                          for (a1, b1, g1), c1 in self.terms.items()
                          for (a2, b2, g2), c2 in other.terms.items())

    def shift_ell(self, power) -> "GrowthExpr":
        """Multiply by ell^power."""
        return self * GrowthExpr.monomial(power, 0, 0, 1)

    def leading_term(self):
        if not self.terms:
            return None
        key = max(self.terms)
        return key, self.terms[key]

    def limit_verdict(self) -> str:
        """diverges / bounded / converges-to-minus-infinity as ell grows."""
        lt = self.leading_term()
        if lt is None:
            return VERDICT_BOUNDED
        key, coeff = lt
        if key > _ZERO_KEY:
            return VERDICT_DIVERGES if coeff > 0 else VERDICT_TO_MINUS_INF
        return VERDICT_BOUNDED

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def evaluate(self, ell: int, m: int = 2) -> float:
        base = 2 * m - 1
        if not 2 <= ell < 2**1000:
            raise ValueError(f"evaluation needs ell >= 2 and below 2^1000, got {ell}")
        L = math.log(ell, base)
        LL = math.log(L, base) if L > 0 else float("-inf")
        total = 0.0
        for (a, b, g), c in self.terms.items():
            t = float(c) * ell ** float(a)
            if b:
                t *= L ** float(b)
            if g:
                if LL < 0 and g != int(g):
                    raise ValueError(f"loglog^{g} undefined below ell = {base}")
                t *= LL ** float(g)
            total += t
        return total


def family(alpha, beta, coeff=1) -> GrowthExpr:
    """f(ell) = coeff * log^beta(ell) / ell^alpha."""
    return GrowthExpr.monomial(-_fr(alpha), beta, 0, coeff)


def trivial_threshold_f() -> GrowthExpr:
    """The trivial-side threshold log(ell)/(4 ell) - loglog(ell)/ell."""
    return GrowthExpr({(-1, 1, 0): Fraction(1, 4), (-1, 0, 1): Fraction(-1)})


def hyperbolic_threshold_f() -> GrowthExpr:
    """The hyperbolic-side threshold 10^5 log^(1/3)(ell)/ell^(1/3)."""
    return family(Fraction(1, 3), Fraction(1, 3), 10**5)


def threshold_head_k() -> GrowthExpr:
    """Head length k(ell) = (1/2) log(ell) - loglog(ell)."""
    return GrowthExpr({_LOG_KEY: Fraction(1, 2), _LOGLOG_KEY: Fraction(-1)})


def hyperbolic_window_K(cprime=1) -> GrowthExpr:
    """Window scale K(ell) = c' ell^(1/3) / log^(1/3)(ell).

    This is the choice used for the hyperbolicity threshold.  The effective
    hyperbolicity constant uses delta_hyperbolic_window_K instead; the two disagree
    in the log exponent and are kept separate deliberately.
    """
    return family(Fraction(-1, 3), Fraction(-1, 3), cprime)


def delta_hyperbolic_window_K() -> GrowthExpr:
    """Window scale K(ell) = ell^(1/3) / log^(2/3)(ell), used for the
    delta = c ell^(5/3) hyperbolicity constant."""
    return family(Fraction(-1, 3), Fraction(-2, 3), 1)


# ---------------------------------------------------------------------------
# condition reports


@dataclass
class ConditionReport:
    condition: str
    verdict: str
    symbolic: Optional[GrowthExpr]
    trace: list
    #: heuristic_verdict(trace) when the verdict is indeterminate, else None
    heuristic: Optional[str] = field(init=False)

    def __post_init__(self):
        self.heuristic = (heuristic_verdict(self.trace)
                          if self.verdict == VERDICT_INDETERMINATE else None)


def heuristic_verdict(trace: list) -> str:
    """Monotone-window heuristic over the last three decades of a trace.

    Only a labeling aid where a condition has no closed form; never authoritative.
    """
    if len(trace) < 2:
        return VERDICT_INDETERMINATE
    max_ell = trace[-1][0]
    window = [v for ell, v in trace if ell * 1000 >= max_ell]
    if len(window) < 3:
        window = [v for _, v in trace][-3:]
    diffs = [b - a for a, b in zip(window, window[1:])]
    span = window[-1] - window[0]
    mean = sum(abs(v) for v in window) / len(window)
    peak = max(abs(v) for _, v in trace)
    if all(d > 0 for d in diffs) and span > 0.05 and window[-1] > 0:
        return VERDICT_DIVERGES
    if all(d < 0 for d in diffs) and span < -0.05 and window[-1] < 0:
        return VERDICT_TO_MINUS_INF
    if all(d < 0 for d in diffs) and window[-1] > 0 and window[-1] < 0.5 * window[0]:
        return VERDICT_TO_ZERO
    if peak > 0 and abs(window[-1]) <= peak * 1e-6:
        return VERDICT_TO_ZERO
    if abs(span) <= 0.05 * max(1.0, mean):
        return VERDICT_BOUNDED
    return VERDICT_INDETERMINATE


def star_condition(k_fn: GrowthExpr, f: GrowthExpr, ell_grid: list,
                   m: int = 2) -> ConditionReport:
    """Does k(ell) - 2 ell f(ell) diverge?"""
    symbolic = k_fn - f.shift_ell(1).scale(2)
    trace = [(ell, k_fn.evaluate(ell, m) - 2 * ell * f.evaluate(ell, m)) for ell in ell_grid]
    return ConditionReport("star", symbolic.limit_verdict(), symbolic, trace)


_EXPONENT_KEYS = {_ZERO_KEY, _LOG_KEY, _LOGLOG_KEY}


def _exp_base(expr: GrowthExpr, m: int):
    """(2m-1)^expr as a monomial, when expr uses only const/log/loglog terms.

    (2m-1)^(c log ell) = ell^c and (2m-1)^(c loglog ell) = log^c(ell), so the
    result is coeff * ell^a * log^b.  Returns None when not representable.
    """
    a = expr.terms.get(_LOG_KEY, Fraction(0))
    b = expr.terms.get(_LOGLOG_KEY, Fraction(0))
    c0 = expr.terms.get(_ZERO_KEY, Fraction(0))
    if set(expr.terms) - _EXPONENT_KEYS:
        return None
    base = 2 * m - 1
    coeff = base ** c0 if (isinstance(c0, Fraction) and c0.denominator == 1) \
        else float(base) ** float(c0)
    return GrowthExpr.monomial(a, b, 0, coeff)


def spade_condition(k_fn: GrowthExpr, ell_grid: list, m: int = 2) -> ConditionReport:
    """Does the block count b = (ell-2)/((2k+2)(2m-1)^(2k)) diverge?"""
    base = 2 * m - 1
    symbolic = None
    verdict = VERDICT_INDETERMINATE
    trace = []
    ln_base = math.log(base)
    for ell in ell_grid:
        k_val = k_fn.evaluate(ell, m)
        if k_val <= -1:
            raise ValueError(f"k({ell}) = {k_val} must be above -1")
        log_b = math.log(max(ell - 2, 1)) - math.log(2 * k_val + 2) - 2 * k_val * ln_base
        trace.append((ell, math.exp(log_b) if log_b < 700 else float("inf")))
    two_k = k_fn.scale(2)
    expo = _exp_base(two_k, m)
    if expo is not None:
        # the numerator ell - 2 leads with ell^1
        dk, dc = ((two_k + GrowthExpr.constant(2)) * expo).leading_term()
        ratio_key = (1 - dk[0], -dk[1], -dk[2])
        symbolic = GrowthExpr.monomial(*ratio_key, 1.0 / float(dc))
        verdict = VERDICT_TO_ZERO if ratio_key < _ZERO_KEY else symbolic.limit_verdict()
    elif any(key[0] > 0 and c > 0 for key, c in two_k.terms.items()):
        # exponent has a positive power of ell: denominator outgrows
        # every polynomial, so the block count collapses to zero
        verdict = VERDICT_TO_ZERO
    return ConditionReport("spade", verdict, symbolic, trace)


def asterisk_condition(K_fn: GrowthExpr, f: GrowthExpr, ell_grid: list,
                       m: int = 2) -> ConditionReport:
    """Does 3000 K^2 log(K ell) + 10^4 ell/K - ell f go to minus infinity?"""
    base = 2 * m - 1
    symbolic = None
    verdict = VERDICT_INDETERMINATE
    if K_fn.is_monomial():
        ((aK, bK, gK), cK), = K_fn.terms.items()
        if cK > 0 and gK == 0:
            log_c = 0 if cK == 1 else math.log(float(cK), base)
            log_Kl = GrowthExpr({_ZERO_KEY: log_c, _LOG_KEY: aK + 1, _LOGLOG_KEY: bK})
            K2 = GrowthExpr.monomial(2 * aK, 2 * bK, 0, cK * cK)
            t1 = (K2 * log_Kl).scale(3000)
            inv_c = 1 / cK if isinstance(cK, Fraction) else 1.0 / cK
            t2 = GrowthExpr.monomial(1 - aK, -bK, 0, inv_c).scale(10**4)
            t3 = f.shift_ell(1)
            symbolic = t1 + t2 - t3
            verdict = symbolic.limit_verdict()

    trace = []
    for ell in ell_grid:
        K_val = K_fn.evaluate(ell, m)
        if K_val <= 0:
            raise ValueError(f"K({ell}) = {K_val} must be positive")
        val = (3000 * K_val**2 * math.log(K_val * ell, base)
               + 10**4 * ell / K_val - ell * f.evaluate(ell, m))
        trace.append((ell, val))
    return ConditionReport("asterisk", verdict, symbolic, trace)


# ---------------------------------------------------------------------------
# phase classification


@dataclass(frozen=True)
class PhaseVerdict:
    outcome: str
    clause: str


def classify_rate(f: GrowthExpr) -> PhaseVerdict:
    """Eventual-dominance comparison of f against the two threshold functions.

    f = 0 is trivial by the classical density-one-half statement, and f must
    otherwise vanish.  Hyperbolic when f - f_hyp has positive leading
    coefficient (or the expressions coincide), trivial dually against f_triv;
    otherwise unknown.  Leading-term comparison is exact rational arithmetic,
    so the corner (alpha, beta) = (1/3, 1/3) is decided by coeff >= 10^5, and
    f_(1,1) is trivial only when its coefficient stays below 1/4 (the loglog
    correction blocks coefficient 1/4 itself and above).
    """
    if not f.terms:
        return PhaseVerdict(OUTCOME_TRIVIAL, "f = 0: classical model at density one-half")
    if f.leading_term()[0] >= _ZERO_KEY:
        raise ValueError(f"{f!r} is not o(1)")
    for outcome, diff, side in (
            (OUTCOME_HYPERBOLIC, f - hyperbolic_threshold_f(), ">= 10^5 log^(1/3)/ell^(1/3)"),
            (OUTCOME_TRIVIAL, trivial_threshold_f() - f, "<= log/(4 ell) - loglog/ell")):
        if not diff.terms:
            return PhaseVerdict(outcome, f"f equals the {outcome} threshold")
        key, lead = diff.leading_term()
        if lead > 0:
            return PhaseVerdict(
                outcome,
                f"f eventually {side}: leading term ell^{key[0]} "
                f"log^{key[1]} loglog^{key[2]} has coefficient {lead} > 0",
            )
    return PhaseVerdict(OUTCOME_UNKNOWN, "between the two thresholds")


def classify_phase(alpha, beta, coeff) -> PhaseVerdict:
    """Classify f = coeff * log^beta(ell) / ell^alpha.

    Requires f to vanish: alpha > 0, or alpha = 0 with beta < 0 (coeff 0
    means f = 0 and is trivial).
    """
    if coeff < 0:
        raise ValueError("coefficient must be nonnegative")
    return classify_rate(family(alpha, beta, Fraction(coeff)))


@dataclass(frozen=True)
class PhaseMapCell:
    alpha: Fraction
    beta: Fraction
    outcome: str
    clause: str


def phase_map(alphas, betas, coeff=1.0) -> list:
    """Classify every (alpha, beta) grid cell; non-vanishing cells are
    labeled not-o1 rather than raising.  coeff must be finite and >= 0."""
    if not (math.isfinite(coeff) and coeff >= 0):
        raise ValueError(f"coefficient must be finite and nonnegative, got {coeff}")
    rows = []
    for a in alphas:
        for b in betas:
            a_f, b_f = _fr(a), _fr(b)
            try:
                v = classify_phase(a_f, b_f, coeff)
                rows.append(PhaseMapCell(a_f, b_f, v.outcome, v.clause))
            except ValueError:
                rows.append(PhaseMapCell(a_f, b_f, OUTCOME_NOT_SMALL, "f not o(1)"))
    return rows


def grid_range(start, stop, step) -> list:
    """Inclusive rational grid start, start+step, ..., up to stop."""
    a, b, s = _fr(start), _fr(stop), _fr(step)
    if s <= 0:
        raise ValueError("step must be positive")
    out = []
    v = a
    while v <= b:
        out.append(v)
        v += s
    return out


# ---------------------------------------------------------------------------
# hyperbolicity constant


def delta_constant(kappa: float, N: int) -> float:
    """Thin-triangle constant delta = 120 kappa^2 N^3; requires kappa > 1/N."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if not kappa * N > 1:
        raise ValueError(f"need kappa > 1/N, got kappa={kappa}, N={N}")
    return 120.0 * kappa * kappa * N**3


def delta_for_ell(ell: int) -> float:
    """delta with kappa = ell^(-2/3) and N = ell, proportional to ell^(5/3)."""
    return delta_constant(float(ell) ** (-2.0 / 3.0), ell)
