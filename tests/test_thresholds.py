import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from halfdensity import thresholds as th
from halfdensity.rng import RandomSource

F = Fraction

GRID = [2**j for j in range(10, 41, 3)]


class TestGrowthExpr:
    def test_arithmetic(self):
        a = th.GrowthExpr.monomial(1, 0, 0, 2)
        b = th.GrowthExpr.monomial(1, 0, 0, -2)
        assert not (a + b).terms
        c = th.GrowthExpr.monomial(F(1, 2), 1, 0, 3)
        assert (a * c).terms == {(F(3, 2), F(1), F(0)): 6}

    def test_leading_term_order(self):
        e = th.GrowthExpr({(F(0), F(1), F(0)): 1, (F(0), F(0), F(1)): 50})
        key, coeff = e.leading_term()
        assert key == (0, 1, 0) and coeff == 1  # log beats any loglog power

    def test_evaluate(self):
        e = th.GrowthExpr.monomial(1, 1, 0, 2)  # 2 * ell * log3(ell)
        assert e.evaluate(9, m=2) == pytest.approx(2 * 9 * 2.0)

    def test_evaluate_domain(self):
        with pytest.raises(ValueError, match="^evaluation needs ell >= 2"):
            th.GrowthExpr().evaluate(1)
        # log3(2) < 1, so loglog(2) < 0 has no square root
        with pytest.raises(ValueError, match="^loglog\\^1/2 undefined below ell = 3$"):
            th.GrowthExpr.monomial(0, 0, F(1, 2), 1).evaluate(2)

    def test_evaluate_rejects_ell_past_two_to_the_1000(self):
        # each condition reads ell as a float: 2 ell f overflows from 2^1023
        assert th.GrowthExpr().evaluate(2**1000 - 1) == 0.0
        with pytest.raises(ValueError, match="below 2\\^1000"):
            th.GrowthExpr().evaluate(2**1000)

    def test_zero_repr(self):
        assert repr(th.GrowthExpr()) == "GrowthExpr(0)"

    def test_limit_verdicts(self):
        assert th.GrowthExpr.monomial(0, 0, 1, 1).limit_verdict() == th.VERDICT_DIVERGES
        assert th.GrowthExpr.monomial(0, -1, 0, 9).limit_verdict() == th.VERDICT_BOUNDED
        assert th.GrowthExpr.constant(5).limit_verdict() == th.VERDICT_BOUNDED
        assert th.GrowthExpr.monomial(1, 0, 0, -1).limit_verdict() == th.VERDICT_TO_MINUS_INF


class TestStarCondition:
    def test_matched_pair_is_exactly_loglog(self):
        rep = th.star_condition(th.threshold_head_k(), th.trivial_threshold_f(), GRID)
        assert rep.verdict == th.VERDICT_DIVERGES
        assert rep.symbolic == th.GrowthExpr({(F(0), F(0), F(1)): F(1)})

    def test_constant_k_zero_f_bounded(self):
        rep = th.star_condition(th.GrowthExpr.constant(3), th.GrowthExpr(), GRID)
        assert rep.verdict == th.VERDICT_BOUNDED
        assert all(v == 3 for _, v in rep.trace)

    def test_half_log_minus_fast_f(self):
        k = th.family(0, 1, 0.5)            # (1/2) log ell
        f = th.family(1, 1, 1)              # log ell / ell
        rep = th.star_condition(k, f, GRID)
        assert rep.verdict == th.VERDICT_TO_MINUS_INF
        assert rep.symbolic == th.GrowthExpr.monomial(0, 1, 0, -1.5)

    def test_trace_matches_evaluation(self):
        rep = th.star_condition(th.threshold_head_k(), th.trivial_threshold_f(), [3**4])
        # k - 2 ell f at ell = 81 equals loglog(81) = log3(4)
        assert rep.trace[0][1] == pytest.approx(math.log(4, 3))


class TestSpadeCondition:
    def test_threshold_head_k_diverges_like_log(self):
        rep = th.spade_condition(th.threshold_head_k(), GRID)
        assert rep.verdict == th.VERDICT_DIVERGES
        key, coeff = rep.symbolic.leading_term()
        assert key == (0, 1, 0) and coeff == 1  # b grows like log ell

    def test_linear_k_collapses(self):
        rep = th.spade_condition(th.family(-1, 0, F(1, 4)), GRID)
        assert rep.verdict == th.VERDICT_TO_ZERO

    def test_constant_k_diverges_linearly(self):
        rep = th.spade_condition(th.GrowthExpr.constant(1), GRID)
        assert rep.verdict == th.VERDICT_DIVERGES
        key, _ = rep.symbolic.leading_term()
        assert key == (1, 0, 0)

    def test_half_log_minus_half_loglog_is_bounded(self):
        k = th.GrowthExpr({(F(0), F(1), F(0)): F(1, 2), (F(0), F(0), F(1)): F(-1, 2)})
        rep = th.spade_condition(k, GRID)
        assert rep.verdict == th.VERDICT_BOUNDED
        assert rep.symbolic == th.GrowthExpr.constant(1.0)
        assert rep.heuristic is None

    def test_log_k_converges_to_zero(self):
        rep = th.spade_condition(th.family(0, 1, 1), GRID)
        assert rep.verdict == th.VERDICT_TO_ZERO
        assert rep.symbolic == th.GrowthExpr.monomial(-1, -1, 0, 0.5)

    def test_log_squared_k_is_indeterminate(self):
        rep = th.spade_condition(th.family(0, 2, 1), GRID)
        assert rep.verdict == th.VERDICT_INDETERMINATE and rep.symbolic is None
        assert rep.heuristic == th.VERDICT_TO_ZERO

    def test_trace_positive_and_increasing_for_matched_k(self):
        rep = th.spade_condition(th.threshold_head_k(), GRID)
        vals = [v for _, v in rep.trace]
        assert all(v > 0 for v in vals)
        assert all(a < b for a, b in zip(vals[3:], vals[4:]))


class TestAsteriskCondition:
    def test_matched_pair_diverges_down(self):
        rep = th.asterisk_condition(th.hyperbolic_window_K(1),
                                    th.family(F(1, 3), F(1, 3), 10**5), GRID)
        assert rep.verdict == th.VERDICT_TO_MINUS_INF
        key, coeff = rep.symbolic.leading_term()
        assert key == (F(2, 3), F(1, 3), 0)
        assert coeff == 4000 + 10**4 - 10**5

    def test_constant_inequality_condition(self):
        # The ell^(2/3) log^(1/3) terms give minus infinity for c > 4000 c'^2 +
        # 10^4/c'.  On that line they cancel and -1000 c'^2 ell^(2/3)
        # log^(-2/3) loglog leads, so the line itself converges down too.
        for cprime, c, verdict in ((1, 10**5, th.VERDICT_TO_MINUS_INF),
                                   (1, 13999, th.VERDICT_DIVERGES),
                                   (1, 14000, th.VERDICT_TO_MINUS_INF),
                                   (2, 30000, th.VERDICT_TO_MINUS_INF),
                                   (2, 20999, th.VERDICT_DIVERGES),
                                   (2, 21000, th.VERDICT_TO_MINUS_INF)):
            rep = th.asterisk_condition(th.hyperbolic_window_K(cprime),
                                        th.family(F(1, 3), F(1, 3), c), GRID)
            assert rep.verdict == verdict, (cprime, c)

    def test_non_monomial_K_falls_back_to_heuristic(self):
        # the CLI reaches this with --K-expr threshold-k
        rep = th.asterisk_condition(th.threshold_head_k(), th.GrowthExpr(), GRID)
        assert rep.verdict == th.VERDICT_INDETERMINATE and rep.symbolic is None
        assert rep.heuristic == th.heuristic_verdict(rep.trace)

    def test_rejects_K_not_positive(self):
        with pytest.raises(ValueError, match="^K\\(16\\) = -1.0 must be positive$"):
            th.asterisk_condition(th.GrowthExpr.constant(-1), th.GrowthExpr(), [16])

    def test_zero_f_diverges_up(self):
        rep = th.asterisk_condition(th.hyperbolic_window_K(1), th.GrowthExpr(), GRID)
        assert rep.verdict == th.VERDICT_DIVERGES

    def test_three_term_breakdown(self):
        # at ell^(2/3) log^(1/3): 3000 K^2 log(K ell) with log(K ell) = (4/3) log
        # - (1/3) loglog, the window loss 10^4 ell/K, and the decay ell f
        rep = th.asterisk_condition(th.hyperbolic_window_K(1),
                                    th.family(F(1, 3), F(1, 3), 10**5), GRID)
        assert rep.heuristic is None
        assert rep.symbolic.terms[(F(2, 3), F(1, 3), 0)] == 3000 * F(4, 3) + 10**4 - 10**5


class TestHeuristicVerdict:
    @pytest.mark.parametrize("trace, verdict", [
        ([(2, 1.0)], th.VERDICT_INDETERMINATE),  # too short to read
        # only ell = 10^4 lies within three decades of the last ell, so the window
        # is the last three values, here both, and their rise reads as divergence
        ([(2, 1.0), (10**4, 2.0)], th.VERDICT_DIVERGES),
        ([(2, 1.0), (3, 2.0), (4, 0.0)], th.VERDICT_TO_ZERO),  # last value negligible
        ([(2, 0.0), (3, 10.0), (4, 1.0)], th.VERDICT_INDETERMINATE),  # not monotone or flat
    ], ids=["one-point", "short-window", "negligible-last", "no-rule"])
    def test_window_rules(self, trace, verdict):
        assert th.heuristic_verdict(trace) == verdict


class TestClassifyPhase:
    def test_threshold_corner(self):
        assert th.classify_phase(F(1, 3), F(1, 3), 10**5).outcome == "hyperbolic"
        assert th.classify_phase(F(1, 3), F(1, 3), 10**5 - 1).outcome == "unknown"

    def test_named_functions(self):
        assert th.classify_rate(th.hyperbolic_threshold_f()).outcome == "hyperbolic"
        assert th.classify_rate(th.trivial_threshold_f()).outcome == "trivial"

    def test_trivial_side(self):
        assert th.classify_phase(1, F(1, 2), 1).outcome == "trivial"
        assert th.classify_phase(2, 10, 1).outcome == "trivial"
        assert th.classify_phase(1, 1, 1).outcome == "unknown"

    def test_gap_is_unknown(self):
        assert th.classify_phase(F(1, 2), 0, 1).outcome == "unknown"
        assert th.classify_phase(F(2, 3), 5, 1).outcome == "unknown"

    def test_zero_coefficient_is_classical_trivial(self):
        assert th.classify_phase(F(1, 3), F(1, 3), 0).outcome == "trivial"

    def test_negative_coefficient_errors(self):
        with pytest.raises(ValueError, match="^coefficient must be nonnegative$"):
            th.classify_phase(1, 0, -1)

    def test_not_o1_errors(self):
        with pytest.raises(ValueError):
            th.classify_phase(0, 0, 1)
        with pytest.raises(ValueError):
            th.classify_phase(0, 2, 1)
        with pytest.raises(ValueError):
            th.classify_phase(F(-1, 2), 0, 1)

    @given(
        st.fractions(min_value=0, max_value=2),
        st.fractions(min_value=-3, max_value=3),
        st.fractions(min_value=0, max_value=2),
        st.fractions(min_value=-3, max_value=3),
    )
    def test_monotone(self, a1, b1, a2, b2):
        def outcome(a, b):
            try:
                return th.classify_phase(a, b, 1).outcome
            except ValueError:
                return None

        o1, o2 = outcome(a1, b1), outcome(a2, b2)
        if o1 is None or o2 is None:
            return
        dominates = a2 > a1 or (a2 == a1 and b2 < b1)  # f2 vanishes faster
        if dominates:
            if o1 == "trivial":
                assert o2 == "trivial"
            if o2 == "hyperbolic":
                assert o1 == "hyperbolic"


class TestPhaseMap:
    def test_three_regions_with_correct_boundaries(self):
        alphas = th.grid_range(F(1, 20), F(3, 2), F(1, 20))
        betas = th.grid_range(-1, 2, F(1, 4))
        cells = th.phase_map(alphas, betas, 1.0)
        outcomes = {c.outcome for c in cells}
        assert {"hyperbolic", "trivial", "unknown"} <= outcomes
        for c in cells:
            if c.alpha < F(1, 3):
                assert c.outcome == "hyperbolic"
            elif c.alpha > 1:
                assert c.outcome == "trivial"
            elif F(1, 3) < c.alpha <= 1:
                expected = "trivial" if (c.alpha == 1 and c.beta < 1) else "unknown"
                assert c.outcome == expected, (c.alpha, c.beta)

    def test_non_vanishing_cells_flagged(self):
        cells = th.phase_map([F(0)], [F(0), F(1)], 1.0)
        assert all(c.outcome == "not-o1" for c in cells)

    def test_grid_range(self):
        assert th.grid_range(0, 1, F(1, 2)) == [0, F(1, 2), 1]
        with pytest.raises(ValueError):
            th.grid_range(0, 1, 0)


class TestHeuristicAgreement:
    # symbolic verdicts must agree with the numeric-trace heuristic on a
    # grid of named cases; disagreement is a failure
    CASES = [
        ("star matched pair", lambda: th.star_condition(
            th.threshold_head_k(), th.trivial_threshold_f(), GRID), th.VERDICT_DIVERGES),
        ("star const", lambda: th.star_condition(
            th.GrowthExpr.constant(3), th.GrowthExpr(), GRID), th.VERDICT_BOUNDED),
        ("star down", lambda: th.star_condition(
            th.family(0, 1, 0.5), th.family(1, 1, 1), GRID), th.VERDICT_TO_MINUS_INF),
        ("spade matched k", lambda: th.spade_condition(
            th.threshold_head_k(), GRID), th.VERDICT_DIVERGES),
        ("spade linear k", lambda: th.spade_condition(
            th.family(-1, 0, F(1, 4)), GRID), th.VERDICT_TO_ZERO),
        ("asterisk matched pair", lambda: th.asterisk_condition(
            th.hyperbolic_window_K(1), th.family(F(1, 3), F(1, 3), 10**5), GRID),
         th.VERDICT_TO_MINUS_INF),
        ("asterisk zero f", lambda: th.asterisk_condition(
            th.hyperbolic_window_K(1), th.GrowthExpr(), GRID), th.VERDICT_DIVERGES),
    ]

    @pytest.mark.parametrize("name,builder,expected", CASES)
    def test_agreement(self, name, builder, expected):
        rep = builder()
        assert rep.verdict == expected
        assert th.heuristic_verdict(rep.trace) == expected


class TestNamedTraceMonotone:
    # the named threshold-pair traces move monotonically in the expected
    # direction across ell = 2^10 .. 2^40
    FULL_GRID = [2**j for j in range(10, 41)]

    def test_star_increases(self):
        rep = th.star_condition(th.threshold_head_k(), th.trivial_threshold_f(), self.FULL_GRID)
        vals = [v for _, v in rep.trace]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_spade_increases(self):
        rep = th.spade_condition(th.threshold_head_k(), self.FULL_GRID)
        vals = [v for _, v in rep.trace]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_asterisk_decreases(self):
        rep = th.asterisk_condition(th.hyperbolic_window_K(1),
                                    th.family(F(1, 3), F(1, 3), 10**5), self.FULL_GRID)
        vals = [v for _, v in rep.trace]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0


class TestDeltaConstant:
    def test_boundary_precondition(self):
        with pytest.raises(ValueError):
            th.delta_constant(1.0, 1)  # kappa > 1/N fails at equality

    def test_value(self):
        assert th.delta_constant(1.0, 2) == 960.0

    def test_no_blocks_errors(self):
        with pytest.raises(ValueError, match="^N must be >= 1, got 0$"):
            th.delta_constant(2.0, 0)

    def test_delta_for_ell_scaling(self):
        base = th.delta_for_ell(1000) / 1000 ** (5 / 3)
        for ell in (10**4, 10**6, 10**9):
            assert th.delta_for_ell(ell) / ell ** (5 / 3) == pytest.approx(base, rel=1e-12)

    def test_delta_for_ell_precondition(self):
        with pytest.raises(ValueError):
            th.delta_for_ell(1)


class TestTwoWindowChoices:
    def test_deliberate_mismatch(self):
        a = th.hyperbolic_window_K(1)
        b = th.delta_hyperbolic_window_K()
        assert a.leading_term()[0][1] != b.leading_term()[0][1]
        assert a != b
