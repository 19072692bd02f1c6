"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
and enforcing its runtime budget.

Statistical checks run at fixed seeds, so every run of this suite sees the
same draws; tolerances (4 sigma, 3 stderr) are the stated ones.
"""

import json
import math
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from halfdensity import cli, diagrams, distribution, pigeonhole, thresholds, trivializer, words
from halfdensity.rng import RandomSource

F = Fraction

CALIBRATION = Path(__file__).resolve().parent.parent / "calibration" / "efficacy.json"


@contextmanager
def criterion(number, description, limit_s):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d}: FAIL  {description}", flush=True)
        raise
    elapsed = time.monotonic() - t0
    print(f"ACCEPTANCE {number:2d}: PASS  ({elapsed:6.1f}s / {limit_s}s)  {description}",
          flush=True)
    assert elapsed < limit_s, f"criterion {number} exceeded its {limit_s}s budget"


def test_a01_distribution_exactness():
    with criterion(1, "letter law equals transfer-matrix oracle exactly", 5):
        for m in (2, 3, 4, 5):
            for n in range(1, 25):
                oracle = distribution.letter_law_oracle(m, n)
                for rel in ("same", "inverse", "other"):
                    assert oracle[rel] == distribution.letter_law(m, n, rel)
                special = distribution.letter_law(m, n, "same" if n % 2 == 0 else "inverse")
                other = distribution.letter_law(m, n, "other")
                assert special + (2 * m - 1) * other == 1
                lo, hi = distribution.decay_bounds(m, n)
                for rel in ("same", "inverse", "other"):
                    assert lo <= oracle[rel] <= hi


def test_a02_distribution_statistics():
    with criterion(2, "sampled conditional letter frequencies within 4 sigma", 60):
        m, samples = 2, 1_000_000
        mat = words.sample_relator_matrix(m, 7, samples, RandomSource(20260809).child(0))
        codes = np.where(mat > 0, mat - 1, 1 - mat).astype(np.int64)  # a,b,A,B -> 0..3
        letters = [1, 2, -1, -2]
        first = codes[:, 0]
        group_sizes = np.bincount(first, minlength=4)
        for n in range(2, 7):
            joint = np.bincount(first * 4 + codes[:, n], minlength=16).reshape(4, 4)
            for gi, g in enumerate(letters):
                N_g = int(group_sizes[gi])
                for yi, y in enumerate(letters):
                    if y == g:
                        rel = "same"
                    elif y == -g:
                        rel = "inverse"
                    else:
                        rel = "other"
                    p = float(distribution.letter_law(m, n, rel))
                    emp = joint[gi, yi] / N_g
                    se = math.sqrt(p * (1 - p) / N_g)
                    assert abs(emp - p) < 4 * se, (n, g, y, emp, p)


def test_a03_pigeonhole_oracle_and_domination():
    with criterion(3, "coincidence oracle, simulation, and bound domination", 120):
        cfg = pigeonhole.PigeonholeConfig.uniform(2, 2, 2)
        assert pigeonhole.coincidence_exact(cfg) == F(7, 8)
        res = pigeonhole.coincidence_simulate(cfg, 100_000, RandomSource(101).child(0))
        assert abs(res.estimate - 7 / 8) <= 3 * res.stderr

        seed = 0
        for q in (2, 3):
            for n in (16, 64, 256):
                z0 = math.ceil(2 * n ** (1 - 1 / q))
                for z in (z0, 2 * z0, 4 * z0):
                    for maker in (pigeonhole.PigeonholeConfig.uniform,
                                  pigeonhole.PigeonholeConfig.geometric):
                        cfg = maker(n, q, z)
                        assert cfg.hypothesis_met
                        bound = pigeonhole.coincidence_bound(cfg)
                        seed += 1
                        sim = pigeonhole.coincidence_simulate(
                            cfg, 100_000, RandomSource(7000 + seed).child(0)
                        )
                        assert sim.estimate - 3 * sim.stderr >= bound, (q, n, z, maker)
                        if maker.__name__ == "geometric" and n > 16:
                            continue  # 2^n subset types: past the oracle's budget
                        exact = pigeonhole.coincidence_exact(cfg)
                        cell = (cfg.n, q, z, maker.__name__)
                        assert bound <= exact, cell
                        if sim.stderr > 0:
                            assert abs(sim.estimate - exact) <= 3 * sim.stderr, cell
                        if float(exact) == 1.0:
                            print(f"criterion 3: exact is 1.0 in double precision at "
                                  f"n={n} q={q} z={z} {maker.__name__} "
                                  f"(1 - exact = {float(1 - exact):.3g})")


def _soundness_grid(max_letters=4_000_000):
    combos = []
    for m in (2, 3):
        for ell in range(8, 25):
            for density in (0.45, 0.5, 0.55):
                params = words.ModelParams.from_density(m, ell, density)
                if params.num * ell <= max_letters:
                    combos.append(params)
    return combos


def test_a04_trivializer_soundness():
    with criterion(4, "1000 seeded runs: certificates replay, guard never contradicted", 600):
        combos = _soundness_grid()
        assert {p.m for p in combos} == {2, 3}
        assert {p.ell for p in combos} >= set(range(8, 25))
        assert {round(p.density, 2) for p in combos} >= {0.45, 0.5, 0.55}
        runs = 0
        rep = 0
        while runs < 1000:
            for params in combos:
                if runs >= 1000:
                    break
                seed = rep * 10007 + runs
                pres = words.sample_presentation(params, RandomSource(seed).child(0))
                verdict = trivializer.trivialize(pres)
                for cert in verdict.certificates:
                    assert trivializer.check_certificate(pres, cert)
                if verdict.outcome == trivializer.OUTCOME_TRIVIAL:
                    assert trivializer.abelianization_guard(pres) \
                        == trivializer.POSSIBLY_TRIVIAL
                runs += 1
            rep += 1
        assert runs == 1000


def test_a05_trivializer_efficacy_trend():
    with criterion(5, "success rates equal the pilot's, nondecreasing in ell, above its floor",
                   600):
        pilot = json.loads(CALIBRATION.read_text())
        m = pilot["params"]["m"]
        density = pilot["params"]["density"]
        seeds = pilot["params"]["seeds"]
        rates = {}
        for ell in pilot["params"]["ells"]:
            params = words.ModelParams.from_density(m, ell, density)
            wins = 0
            for seed in seeds:
                pres = words.sample_presentation(params, RandomSource(seed).child(0))
                if trivializer.trivialize(pres).outcome == trivializer.OUTCOME_TRIVIAL:
                    wins += 1
            rates[ell] = wins / len(seeds)
        ells = sorted(rates)
        assert all(rates[a] <= rates[b] for a, b in zip(ells, ells[1:])), rates
        assert rates[max(ells)] >= pilot["floor_ell20"] > 0.5, rates
        # the committed pilot must be the one these seeds reproduce
        assert {str(ell): rate for ell, rate in rates.items()} == pilot["rates"], rates


def test_a06_w_reduction_rate():
    with criterion(6, "planted w-reduction rate exceeds 1/4 within 3 stderr", 60):
        for k in (2, 3):
            rate, se = trivializer.planted_reduction_rate(k, 2, 100_000,
                                                          RandomSource(900 + k))
            assert rate > 0.25 - 3 * se, (k, rate, se)


def test_a07_tutte_oracle():
    with criterion(7, "rooted-map census equals closed form; integrality to n=50", 30):
        for n, expected in ((1, 2), (2, 9), (3, 54)):
            assert diagrams.tutte_count(n) == expected
            assert diagrams.enumerate_rooted_maps(n) == expected
        for n in range(1, 51):
            num = 2 * math.factorial(2 * n) * 3**n
            den = math.factorial(n) * math.factorial(n + 2)
            assert num % den == 0


def test_a08_bound_arithmetic():
    with criterion(8, "fulfillability exponents and window truth table exact", 1):
        fixtures = [
            # (faces, boundary, ell, density, expected exponent); densities
            # chosen with density*ell integral so num materializes exactly
            (1, 0, 10, 0.4, -1.0),
            (2, 4, 8, 0.5, 1.0),
            (3, 12, 20, 0.45, 1.0),
            (5, 0, 100, 0.25, -25.0),
            (7, 7, 8, 0.5, 0.5),
            (2, 30, 30, 0.5, 7.5),
            (4, 10, 20, 0.3, -2.75),
            (10, 60, 15, 0.4, 1.5),
            (3, 3, 50, 0.48, -0.5),
            (1, 5, 9, F(4, 9), 2.0),
        ]
        for faces, boundary, ell, density, expected in fixtures:
            params = words.ModelParams.from_density(2, ell, density)
            stats = diagrams.DiagramStats(faces, boundary, ell)
            got = diagrams.fulfillability_bound(stats, params)
            assert got == pytest.approx(expected, abs=2e-9), (faces, boundary, ell)

        K, ell = 2 * 10**5, 10
        win = diagrams.WindowParams(K, ell)
        assert diagrams.local_global(diagrams.DiagramStats(K * K // 4, 0, ell), win).in_window
        assert not diagrams.local_global(
            diagrams.DiagramStats(K * K // 4 - 1, 0, ell), win).in_window
        faces = 2 * 10**4
        b = 2 * 10**4 * ell
        assert b * b == 2 * 10**4 * ell * ell * faces
        small_win = diagrams.WindowParams(10, ell)
        assert diagrams.local_global(
            diagrams.DiagramStats(faces, b, ell), small_win).satisfies_quadratic
        assert not diagrams.local_global(
            diagrams.DiagramStats(faces, b - 1, ell), small_win).satisfies_quadratic


def test_a09_threshold_reproduction():
    with criterion(9, "conditions, classification table, and phase map structure", 30):
        grid = [2**j for j in range(10, 41, 3)]
        star = thresholds.star_condition(thresholds.threshold_head_k(),
                                         thresholds.trivial_threshold_f(), grid)
        assert star.symbolic == thresholds.GrowthExpr({(F(0), F(0), F(1)): F(1)})
        assert star.verdict == thresholds.VERDICT_DIVERGES

        ok = thresholds.asterisk_condition(
            thresholds.hyperbolic_window_K(1), thresholds.family(F(1, 3), F(1, 3), 10**5), grid)
        assert ok.verdict == thresholds.VERDICT_TO_MINUS_INF
        rejected = thresholds.asterisk_condition(
            thresholds.hyperbolic_window_K(1), thresholds.GrowthExpr(), grid)
        assert rejected.verdict == thresholds.VERDICT_DIVERGES

        assert thresholds.classify_rate(thresholds.hyperbolic_threshold_f()).outcome \
            == "hyperbolic"
        assert thresholds.classify_rate(thresholds.trivial_threshold_f()).outcome \
            == "trivial"

        rng = RandomSource(424242).generator()
        third = F(1, 3)

        def draw_pair():
            return (F(int(rng.integers(0, 49)), 24), F(int(rng.integers(-72, 73)), 24))

        def outcome(a, b):
            try:
                return thresholds.classify_phase(a, b, 1).outcome
            except ValueError:
                return None

        for _ in range(10_000):
            a1, b1 = draw_pair()
            a2, b2 = draw_pair()
            o1, o2 = outcome(a1, b1), outcome(a2, b2)
            if o1 is None or o2 is None:
                continue
            if a2 > a1 or (a2 == a1 and b2 < b1):
                if o1 == "trivial":
                    assert o2 == "trivial", ((a1, b1), (a2, b2))
                if o2 == "hyperbolic":
                    assert o1 == "hyperbolic", ((a1, b1), (a2, b2))

        alphas = thresholds.grid_range(F(1, 20), F(3, 2), F(1, 20))
        betas = thresholds.grid_range(-1, 2, F(1, 4))
        cells = thresholds.phase_map(alphas, betas, 1.0)
        regions = {"hyperbolic": 0, "trivial": 0, "unknown": 0}
        for c in cells:
            regions[c.outcome] += 1
            if c.alpha < third:
                assert c.outcome == "hyperbolic"
            elif c.alpha > 1:
                assert c.outcome == "trivial"
            elif third < c.alpha <= 1:
                expected = "trivial" if (c.alpha == 1 and c.beta < 1) else "unknown"
                assert c.outcome == expected
        assert all(v > 0 for v in regions.values()), regions


def test_a10_delta_constant():
    with criterion(10, "hyperbolicity constant scaling ell^(5/3)", 1):
        assert thresholds.delta_constant(1.0, 2) == 960.0
        base = thresholds.delta_for_ell(10**3) / (10**3) ** (5 / 3)
        for exp in range(3, 10):
            ell = 10**exp
            ratio = thresholds.delta_for_ell(ell) / ell ** (5 / 3)
            assert abs(ratio - base) <= 1e-12 * abs(base), ell


def test_a11_reproducibility(tmp_path, capsys):
    with criterion(11, "randomized subcommands byte-identical under rerun and threads", 300):
        cases = {
            "sample": ["sample", "--m", "2", "--ell", "10", "--density", "0.5",
                       "--seed", "31"],
            "trivialize": ["trivialize", "--m", "2", "--ell", "14", "--density", "0.55",
                           "--seed", "32"],
            "verify-dist": ["verify-dist", "--m", "2", "--n", "4",
                            "--samples", "100000", "--seed", "33"],
            "pigeonhole": ["pigeonhole", "--n", "16", "--q", "2", "--z", "16",
                           "--trials", "50000", "--seed", "34"],
        }
        for name, argv in cases.items():
            first = tmp_path / f"{name}.a"
            second = tmp_path / f"{name}.b"
            redone = tmp_path / f"{name}.c"
            assert cli.run(argv + ["--out", str(first)]) == 0
            assert cli.run(argv + ["--out", str(second)]) == 0
            assert first.read_bytes() == second.read_bytes(), name
            assert cli.run(["rerun", "--manifest", str(first) + ".manifest.json",
                            "--out", str(redone)]) == 0
            assert first.read_bytes() == redone.read_bytes(), name

        pg1 = tmp_path / "pg1.json"
        pg4 = tmp_path / "pg4.json"
        basepg = ["pigeonhole", "--n", "64", "--q", "2", "--z", "32",
                  "--trials", "60000", "--seed", "36"]
        assert cli.run(basepg + ["--threads", "1", "--out", str(pg1)]) == 0
        assert cli.run(basepg + ["--threads", "4", "--out", str(pg4)]) == 0
        assert pg1.read_bytes() == pg4.read_bytes()
