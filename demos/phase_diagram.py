#!/usr/bin/env python3
"""The phase picture for f(ell) = c0 log^beta(ell) / ell^alpha.

Vanishing slower than log^(1/3)/ell^(1/3) keeps the group hyperbolic;
vanishing as fast as log/(4 ell) - loglog/ell makes it trivial; in between
nothing is known.  The three growth conditions backing the two sides are
evaluated symbolically and traced numerically.
"""

from fractions import Fraction as F

from halfdensity import thresholds as th

GRID = [2**j for j in range(10, 41, 3)]

print("the three conditions on the matched threshold functions:")
star = th.star_condition(th.threshold_head_k(), th.trivial_threshold_f(), GRID)
print(f"  head-length margin k - 2 ell f: {star.verdict}; "
      f"symbolically {star.symbolic!r}")
spade = th.spade_condition(th.threshold_head_k(), GRID)
key, coeff = spade.symbolic.leading_term()
print(f"  block count: {spade.verdict}; leading growth ell^{key[0]} log^{key[1]}")
ast = th.asterisk_condition(th.hyperbolic_window_K(1), th.family(F(1, 3), F(1, 3), 10**5), GRID)
print(f"  diagram count vs decay: {ast.verdict}; leading coefficient "
      f"{ast.symbolic.leading_term()[1]}")

print("\nclassification of sample rate functions:")
for a, b, c in ((F(1, 4), 0, 1), (F(1, 3), F(1, 3), 10**5), (F(1, 3), F(1, 3), 10),
                (F(1, 2), 0, 1), (1, F(1, 2), 1), (F(3, 2), -1, 1)):
    v = th.classify_phase(a, b, c)
    print(f"  alpha={str(a):>4} beta={str(b):>4} c0={c:<7g} -> {v.outcome}")

print("\ncoarse phase map (rows alpha, columns beta; H/T/?/. for not-o1):")
alphas = th.grid_range(0, F(3, 2), F(1, 8))
betas = th.grid_range(-1, 2, F(1, 4))
cells = th.phase_map(alphas, betas, 1.0)
marks = {"hyperbolic": "H", "trivial": "T", "unknown": "?", "not-o1": "."}
by_alpha = {}
for c in cells:
    by_alpha.setdefault(c.alpha, []).append(marks[c.outcome])
print("        beta " + " ".join(f"{float(b):+.2f}"[:5] for b in betas))
for a in alphas:
    print(f"  alpha {float(a):4.2f}  " + "     ".join(by_alpha[a]))

print("\neffective hyperbolicity constant: delta = 120 kappa^2 N^3 with "
      "kappa = ell^(-2/3), N = ell")
for ell in (10**3, 10**6, 10**9):
    delta = th.delta_for_ell(ell)
    print(f"  ell = 10^{len(str(ell)) - 1}: delta = {delta:.3e} "
          f"= {delta / ell ** (5 / 3):.0f} * ell^(5/3)")
