#!/usr/bin/env python3
"""Pilot measurement of the triviality success rate by relator length.

Runs the pipeline at m=2, density 0.55 over a fixed seed list for each
length in the trend, records per-length success rates, and freezes a floor
(the ell=20 rate minus a two-seed slack) for the acceptance suite.  The
output JSON carries the same digest scheme as CLI manifests, so this file
is a reproducible run record.

Usage: python3 calibration/run_pilot.py [--out calibration/efficacy.json]
"""

import argparse
import time
from pathlib import Path

from halfdensity import __version__, trivializer, words
from halfdensity.manifest import json_text, manifest_digest, now_utc
from halfdensity.rng import RandomSource

M = 2
DENSITY = 0.55
ELLS = [12, 16, 20]
SEEDS = list(range(50))


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default=str(Path(__file__).parent / "efficacy.json"))
    args = ap.parse_args()

    t0 = time.monotonic()
    rates = {}
    for ell in ELLS:
        params = words.ModelParams.from_density(M, ell, DENSITY)
        wins = 0
        for seed in SEEDS:
            pres = words.sample_presentation(params, RandomSource(seed).child(0))
            verdict = trivializer.trivialize(pres)
            for cert in verdict.certificates:
                assert trivializer.check_certificate(pres, cert)
            if verdict.outcome == trivializer.OUTCOME_TRIVIAL:
                wins += 1
        rates[ell] = wins / len(SEEDS)
        print(f"ell={ell} num={params.num}: success rate {rates[ell]:.2f}")

    recorded = {"m": M, "density": DENSITY, "ells": ELLS, "seeds": SEEDS}
    floor = rates[max(ELLS)] - 2 / len(SEEDS)
    payload = {
        "format_version": 1,
        "manifest_digest": manifest_digest("efficacy-pilot", recorded, None),
        "params": recorded,
        "rates": {str(ell): rates[ell] for ell in ELLS},
        "floor_ell20": floor,
        "tool_version": __version__,
        "created_utc": now_utc(),
        "wall_clock_s": round(time.monotonic() - t0, 3),
    }
    Path(args.out).write_text(json_text(payload), encoding="utf-8")
    print(f"wrote {args.out}: rates={rates} floor={floor}")


if __name__ == "__main__":
    main()
