import math
from fractions import Fraction

import pytest

from halfdensity import diagrams as dg
from halfdensity.words import ModelParams, ResourceLimitError

F = Fraction


class TestTutteCount:
    def test_small_values(self):
        assert dg.tutte_count(1) == 2
        assert dg.tutte_count(2) == 9
        assert dg.tutte_count(3) == 54
        assert dg.tutte_count(4) == 378

    def test_integral_up_to_fifty(self):
        # closed form must divide exactly for every n
        for n in range(1, 51):
            num = 2 * math.factorial(2 * n) * 3**n
            den = math.factorial(n) * math.factorial(n + 2)
            assert num % den == 0
            assert dg.tutte_count(n) == num // den

    def test_validation(self):
        with pytest.raises(ValueError):
            dg.tutte_count(0)
        with pytest.raises(ValueError, match="^n must be >= 1, got 0$"):
            dg.rooted_map_census(0)


class TestRootedMapCensus:
    @pytest.mark.parametrize("n,expected", [(1, 2), (2, 9), (3, 54)])
    def test_oracle_matches_closed_form(self, n, expected):
        assert dg.enumerate_rooted_maps(n) == expected
        assert dg.tutte_count(n) == expected

    def test_budget(self):
        with pytest.raises(ResourceLimitError):
            dg.enumerate_rooted_maps(6)

    def test_census_records_consistent(self):
        for rec in dg.rooted_map_census(2):
            assert rec.edges == 2
            assert rec.vertices - rec.edges + rec.faces_sphere == 2
            assert sum(rec.valences) == 4  # darts

    def test_edge_bound_on_skeleton_like_maps(self):
        # diagram skeletons: no valence-2 vertices (contours are maximal),
        # valence-1 tips are inward spurs, at most one per internal face
        for n in (1, 2, 3):
            for rec in dg.rooted_map_census(n):
                internal_faces = rec.faces_sphere - 1
                if internal_faces < 1:
                    continue
                if any(v == 2 for v in rec.valences):
                    continue
                spurs = sum(1 for v in rec.valences if v == 1)
                if spurs > internal_faces:
                    continue
                assert rec.edges <= 5 * internal_faces


class TestLogDiagramBound:
    def test_single_face_single_letter(self):
        b = dg.log_diagram_bound(1, 1, m=2)
        expected = math.log(2 * 1 * 1 * 3**25) / math.log(3)
        assert math.isclose(b.log_bound, expected)

    def test_asymptotic_headline(self):
        b = dg.log_diagram_bound(7, 100, m=2)
        expected = (6 * 7 * math.log(100) + 2 * 7 * math.log(7)) / math.log(3)
        assert math.isclose(b.asymptotic, expected)

    def test_monotone_in_faces_and_length(self):
        vals = [dg.log_diagram_bound(F_, 10).log_bound for F_ in (1, 2, 5, 20)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        vals = [dg.log_diagram_bound(4, L).log_bound for L in (1, 2, 10, 100)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_window_overcount_form(self):
        # the window bound is the same formula evaluated at F = 480 K^2
        K = 7
        direct = dg.log_diagram_bound(480 * K * K, 13)
        again = dg.log_diagram_bound(480 * K * K, 13)
        assert direct == again

    def test_dominates_decorated_census_count(self):
        # exhaustive decorated count of rooted maps whose internal faces all
        # have boundary length ell, for F <= 2, ell <= 3
        for F_max in (1, 2):
            for ell in (1, 2, 3):
                total = 0
                for n in range(1, F_max * ell // 2 + 1):
                    for rec in dg.rooted_map_census(n):
                        internal = rec.faces_sphere - 1
                        if not 1 <= internal <= F_max:
                            continue
                        total += (2 * ell) ** internal * internal**internal
                if total:
                    bound = dg.log_diagram_bound(F_max, ell).log_bound
                    assert bound >= math.log(total) / math.log(3)


class TestDiagramStats:
    def test_boundary_cannot_exceed_perimeter(self):
        dg.DiagramStats(2, 20, 10)
        with pytest.raises(ValueError):
            dg.DiagramStats(2, 21, 10)

    def test_validation(self):
        with pytest.raises(ValueError):
            dg.DiagramStats(0, 0, 10)
        with pytest.raises(ValueError):
            dg.DiagramStats(1, -1, 10)
        with pytest.raises(ValueError, match="^ell must be >= 1"):
            dg.DiagramStats(1, 0, 0)
        with pytest.raises(ValueError, match="^need F"):
            dg.log_diagram_bound(0, 5)
        with pytest.raises(ValueError, match="^K must be >= 1, got 0$"):
            dg.WindowParams(0, 5)
        with pytest.raises(ValueError, match="^ell must be >= 1, got 0$"):
            dg.WindowParams(5, 0)

    @pytest.mark.parametrize("make", [
        lambda: dg.DiagramStats(2**1000, 0, 10),
        lambda: dg.DiagramStats(2, 2, 2**1000),
        lambda: dg.log_diagram_bound(2**1000, 5),
        lambda: dg.log_diagram_bound(2, 2**1000),
    ], ids=["stats-faces", "stats-ell", "bound-faces", "bound-ell"])
    def test_counts_past_two_to_the_1000_rejected(self, make):
        # the bound and the fulfillability exponent would overflow a float
        with pytest.raises(ValueError, match="below 2\\^1000"):
            make()


class TestFulfillabilityBound:
    def test_density_half_vacuous(self):
        params = ModelParams.from_density(2, 10, 0.5)
        for faces, boundary in ((1, 0), (2, 7), (5, 50)):
            e = dg.fulfillability_bound(dg.DiagramStats(faces, boundary, 10), params)
            assert e == pytest.approx(boundary / (2 * faces))
            assert e >= 0

    def test_hand_computed(self):
        params = ModelParams.from_density(2, 10, 0.4)
        e = dg.fulfillability_bound(dg.DiagramStats(1, 0, 10), params)
        assert e == pytest.approx(-1.0, abs=1e-9)

    def test_nontrivial_exactly_when_boundary_small(self):
        params = ModelParams.from_density(2, 20, 0.4)
        crit = 20 * (1 - 2 * params.density)  # boundary/faces threshold
        below = dg.fulfillability_bound(dg.DiagramStats(10, int(10 * crit) - 1, 20), params)
        above = dg.fulfillability_bound(dg.DiagramStats(10, int(10 * crit) + 1, 20), params)
        assert below < 0 < above

    def test_window_regime_bound(self):
        # in-window diagrams violating the quadratic inequality have
        # exponent at most 10^4 ell/K - ell f
        K, ell = 100, 10
        params = ModelParams.from_density(2, ell, 0.45)
        win = dg.WindowParams(K, ell)
        f = params.f
        for faces in (K * K // 4, K * K, 480 * K * K):
            bmax = int(math.isqrt(2 * 10**4 * ell * ell * faces)) - 1
            bmax = min(bmax, ell * faces)
            stats = dg.DiagramStats(faces, bmax, ell)
            res = dg.local_global(stats, win)
            assert res.in_window and not res.satisfies_quadratic
            e = dg.fulfillability_bound(stats, params)
            assert e <= 10**4 * ell / K - ell * f + 1e-9


class TestLocalGlobal:
    def test_window_boundary_inclusive(self):
        K = 2 * 10**5
        win = dg.WindowParams(K, 10)
        at_quarter = dg.DiagramStats(K * K // 4, 0, 10)
        assert dg.local_global(at_quarter, win).in_window
        below = dg.DiagramStats(K * K // 4 - 1, 0, 10)
        assert not dg.local_global(below, win).in_window
        at_top = dg.DiagramStats(480 * K * K, 0, 10)
        assert dg.local_global(at_top, win).in_window
        past_top = dg.DiagramStats(480 * K * K + 1, 0, 10)
        assert not dg.local_global(past_top, win).in_window

    def test_quadratic_boundary_inclusive(self):
        # faces = 2*10^4 makes the boundary threshold hit the perimeter cap
        # exactly: B^2 = 2*10^4 ell^2 faces = (2*10^4 ell)^2
        ell, faces = 10, 2 * 10**4
        b = int(math.isqrt(2 * 10**4 * ell * ell * faces))
        assert b * b == 2 * 10**4 * ell * ell * faces
        win = dg.WindowParams(10, ell)
        assert dg.local_global(dg.DiagramStats(faces, b, ell), win).satisfies_quadratic
        assert not dg.local_global(dg.DiagramStats(faces, b - 1, ell), win).satisfies_quadratic

    def test_conclusion_only_at_scale(self):
        win = dg.WindowParams(10, 5)
        small = dg.local_global(dg.DiagramStats(99, 0, 5), win)
        assert small.conclusion is None
        big = dg.local_global(dg.DiagramStats(100, 400, 5), win)
        assert big.conclusion is not None
        assert big.conclusion.required == pytest.approx(5 * 100 / (10**4 * 10))
        assert big.conclusion.holds

    def test_conforming_flag(self):
        assert dg.WindowParams(10**10, 5).conforming
        assert not dg.WindowParams(10**10 - 1, 5).conforming
        res = dg.local_global(dg.DiagramStats(1, 0, 5), dg.WindowParams(7, 5))
        assert not res.conforming
