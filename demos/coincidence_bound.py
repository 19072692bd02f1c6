#!/usr/bin/env python3
"""The colored coincidence bound in action.

Throw z balls of each of q colors into n boxes and watch for a box holding
every color.  Once z >= 2 n^(1-1/q), the probability is bounded below by
1 - exp(-c z / n^(1-1/q)) with c = 2^-(q+2), whatever the box measure is.
The simulation shows how much room the bound leaves, and that a skewed
measure only helps.
"""

import math

from halfdensity import pigeonhole as ph
from halfdensity.rng import RandomSource

TRIALS = 50_000

print("tiny exact case: n=2 boxes, q=2 colors, z=2 balls each")
cfg = ph.PigeonholeConfig.uniform(2, 2, 2)
exact = ph.coincidence_exact(cfg)
sim = ph.coincidence_simulate(cfg, TRIALS, RandomSource(1))
print(f"  exact {exact} = {float(exact):.4f}, simulated {sim.estimate:.4f} "
      f"(stderr {sim.stderr:.4f})\n")

print("a large exact case: n=64 boxes, q=2 colors, z=16 balls each")
cfg = ph.PigeonholeConfig.uniform(64, 2, 16)
exact = ph.coincidence_exact(cfg)
sim = ph.coincidence_simulate(cfg, TRIALS, RandomSource(1))
print(f"  exact {float(exact):.6f}, simulated {sim.estimate:.6f} "
      f"(stderr {sim.stderr:.6f}), bound {ph.coincidence_bound(cfg):.4f}\n")

print(f"{'n':>4} {'q':>2} {'z':>4} {'measure':>9} {'bound':>7} {'simulated':>9}")
for q in (2, 3):
    for n in (16, 64):
        z0 = math.ceil(2 * n ** (1 - 1 / q))
        for z in (z0, 2 * z0):
            for name, maker in (("uniform", ph.PigeonholeConfig.uniform),
                                ("geometric", ph.PigeonholeConfig.geometric)):
                cfg = maker(n, q, z)
                bound = ph.coincidence_bound(cfg)
                sim = ph.coincidence_simulate(cfg, TRIALS, RandomSource(n * z + q))
                gap = "  <-- measure-independent" if name == "geometric" and z == z0 else ""
                print(f"{n:>4} {q:>2} {z:>4} {name:>9} {bound:>7.4f} "
                      f"{sim.estimate:>9.4f}{gap}")

print("\nbelow the hypothesis the bound refuses to apply:")
try:
    ph.coincidence_bound(ph.PigeonholeConfig.uniform(100, 2, 19))
except ph.HypothesisError as exc:
    print(f"  HypothesisError: {exc}")
