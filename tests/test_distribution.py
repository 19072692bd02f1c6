from fractions import Fraction

import pytest

from halfdensity import distribution as dist
from halfdensity.rng import RandomSource

F = Fraction


class TestPartialSum:
    def test_base_cases(self):
        assert dist.partial_sum(2, 0) == 0
        assert dist.partial_sum(2, 1) == 1
        assert dist.partial_sum(2, 2) == F(2, 3)

    def test_limit(self):
        # s_n -> 1/(1 + mfrak) = (2m-1)/2m
        m = 2
        limit = F(2 * m - 1, 2 * m)
        assert abs(dist.partial_sum(m, 60) - limit) < F(1, 10**25)

    def test_validation(self):
        with pytest.raises(ValueError):
            dist.partial_sum(1, 2)
        with pytest.raises(ValueError):
            dist.partial_sum(2, -1)


class TestLetterLaw:
    def test_position_one_inverse_forbidden(self):
        assert dist.letter_law(2, 1, "inverse") == 0

    def test_position_two_same(self):
        assert dist.letter_law(2, 2, "same") == F(1, 3)

    def test_position_two_other(self):
        assert dist.letter_law(2, 2, "other") == F(2, 9)

    def test_n_zero_errors(self):
        with pytest.raises(ValueError):
            dist.letter_law(2, 0, "same")

    def test_oracle_validation(self):
        with pytest.raises(ValueError, match="^m must be >= 2, got 1$"):
            dist.letter_law_oracle(1, 3)
        with pytest.raises(ValueError, match="^need n >= 1$"):
            dist.letter_law_oracle(2, 0)

    def test_unknown_relation(self):
        with pytest.raises(ValueError):
            dist.letter_law(2, 2, "sideways")

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    @pytest.mark.parametrize("n", range(1, 12))
    def test_probabilities_sum_to_one(self, m, n):
        special = dist.letter_law(m, n, "same" if n % 2 == 0 else "inverse")
        regular = dist.letter_law(m, n, "other")
        assert special + (2 * m - 1) * regular == 1


class TestOracleAgreement:
    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_exact_match(self, m, n):
        oracle = dist.letter_law_oracle(m, n)
        assert oracle["same"] == dist.letter_law(m, n, "same")
        assert oracle["inverse"] == dist.letter_law(m, n, "inverse")
        assert oracle["other"] == dist.letter_law(m, n, "other")

    def test_oracle_enumeration_value(self):
        oracle = dist.letter_law_oracle(2, 2)
        assert oracle == {"same": F(1, 3), "inverse": F(2, 9), "other": F(2, 9)}

    def test_oracle_position_one(self):
        oracle = dist.letter_law_oracle(2, 1)
        assert oracle["inverse"] == 0
        assert oracle["same"] == oracle["other"] == F(1, 3)


class TestDecayBounds:
    def test_position_two(self):
        assert dist.decay_bounds(2, 2) == (F(2, 9), F(1, 3))

    def test_position_one(self):
        assert dist.decay_bounds(2, 1) == (0, F(1, 3))

    def test_two_step_displayed_constant(self):
        # lower endpoint at n=2 equals (2m-2)/(2m-1)^2 for every m
        for m in (2, 3, 4, 5):
            lo, hi = dist.decay_bounds(m, 2)
            assert lo == F(2 * m - 2, (2 * m - 1) ** 2)
            assert hi == F(1, 2 * m - 1)

    def test_limit_is_uniform(self):
        lo, hi = dist.decay_bounds(2, 80)
        assert abs(lo - F(1, 4)) < F(1, 10**30)
        assert abs(hi - F(1, 4)) < F(1, 10**30)

    @pytest.mark.parametrize("m", [2, 3, 4])
    @pytest.mark.parametrize("n", range(1, 10))
    def test_brackets_every_law_value(self, m, n):
        lo, hi = dist.decay_bounds(m, n)
        for rel in ("same", "inverse", "other"):
            assert lo <= dist.letter_law(m, n, rel) <= hi


class TestSampledFrequencies:
    def test_relation_counts_match_law(self):
        m, n, samples = 2, 3, 200_000
        counts = dist.sample_relation_counts(m, n, samples, RandomSource(42))
        totals = dist.relation_totals(m, n)
        assert sum(totals.values()) == 1
        for rel in ("same", "inverse", "other"):
            p = float(totals[rel])
            se = (p * (1 - p) / samples) ** 0.5
            assert abs(counts[rel] / samples - p) < 5 * se, rel

    @pytest.mark.parametrize("samples", [0, -1])
    def test_rejects_fewer_than_one_sample(self, samples):
        with pytest.raises(ValueError, match="samples must be >= 1"):
            dist.sample_relation_counts(2, 3, samples, RandomSource(0))
