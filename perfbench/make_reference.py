"""Record reference.json: the fingerprint of each item at the default seed.

    python3 perfbench/make_reference.py

A fingerprint is the verdict digest (sweep, planted) or the success count
(montecarlo).  Items past the recorded passes get only the intrinsic checks.
Re-record only when a change is meant to alter the program's seeded outputs.
"""

import json

import run

PASSES = {"sweep": 4, "planted": 1, "montecarlo": 12}


def main() -> None:
    run.load_workloads()
    import workloads

    reference = {}
    for name, passes in PASSES.items():
        wl = workloads.WORKLOADS[name](run.DEFAULT_SEED)
        tracer = workloads.Tracer(False)
        results = [wl.run(i, tracer) for i in range(passes * wl.pass_size)]
        bad = [i for i, r in enumerate(results) if not r.ok]
        if bad:
            raise SystemExit(f"{name}: items {bad} fail the intrinsic checks")
        reference[name] = [r.fingerprint for r in results]
        print(f"{name}: {len(results)} items")
    run.REFERENCE.write_text(json.dumps(reference, indent=0) + "\n")


if __name__ == "__main__":
    main()
