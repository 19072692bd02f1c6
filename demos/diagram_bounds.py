#!/usr/bin/env python3
"""Counting planar diagrams and bounding their fulfillability.

The number of rooted embedded planar graphs with n edges has the closed form
2 (2n)! 3^n / (n! (n+2)!); an exhaustive rotation-system census reproduces
it.  On top of that count sit the two bounds driving the hyperbolic range:
the abstract-diagram count (2 ell)^F F^F ell^(5F) 3^(25F) and the
fulfillability exponent (1/2)(|bd D|/|D| - ell(1 - 2 density)).
"""

from halfdensity import diagrams, words

print("rooted planar maps: closed form vs exhaustive census")
print(f"{'edges':>6} {'closed form':>12} {'census':>7}")
for n in (1, 2, 3):
    print(f"{n:>6} {diagrams.tutte_count(n):>12} {diagrams.enumerate_rooted_maps(n):>7}")
print(f"{'...':>6} {'closed form stays integral through n = 50':>45}")
for n in (10, 25, 50):
    print(f"{n:>6} {diagrams.tutte_count(n):>12}")

print("\nabstract-diagram count bound, log base 3 (m = 2):")
for F in (1, 10, 100):
    b = diagrams.log_diagram_bound(F, 50)
    print(f"  F={F:>4}, ell=50: log bound {b.log_bound:>9.1f} "
          f"(headline 6F log ell + 2F log F = {b.asymptotic:.1f})")

print("\nfulfillability exponent flips sign exactly below density one-half:")
for density in (0.5, 0.45, 0.4):
    params = words.ModelParams.from_density(2, 20, density)
    for boundary in (0, 40, 80):
        stats = diagrams.DiagramStats(4, boundary, 20)
        e = diagrams.fulfillability_bound(stats, params)
        print(f"  density={density:.2f} |bd D|={boundary:>3} |D|=4: exponent {e:+.2f}")

print("\nwindow check upgrading quadratic to linear isoperimetry "
      "(desk-scale K, flagged non-conforming):")
win = diagrams.WindowParams(K=100, ell=20)
for faces in (2499, 2500, 10_000, 4_800_000, 4_800_001):
    stats = diagrams.DiagramStats(faces, min(140 * faces, 20 * faces), 20)
    res = diagrams.local_global(stats, win)
    concl = (f"linear bound holds: {res.conclusion.holds}" if res.conclusion else "-")
    print(f"  |D|={faces:>8}: in window {str(res.in_window):>5}, "
          f"quadratic {str(res.satisfies_quadratic):>5}, {concl} "
          f"(conforming={res.conforming})")
