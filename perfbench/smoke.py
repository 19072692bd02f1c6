"""Smoke test of the benchmark and of its correctness gate.

    python3 perfbench/smoke.py

Runs every workload for a few items at the default seed, untraced and traced,
and checks that each metric BENCHMARK.json names is printed with its unit and
that no item fails.  Then it checks that the gate is not vacuous: a tampered
certificate, a SoundnessError and a tampered reference fingerprint each make
items fail.  Exits non-zero on the first check that does not hold.
"""

import contextlib
import io
import json

import run

ITEMS = {"sweep": 12, "planted": 3, "montecarlo": 12}


def check(cond: bool, message: str) -> None:
    if not cond:
        raise SystemExit(f"smoke: FAIL: {message}")


def metrics_printed(workload: str, trace: int, expected: list) -> None:
    out = io.StringIO()
    argv = ["--workload", workload, "--seed", str(run.DEFAULT_SEED),
            "--seconds", "1", "--trace", str(trace)]
    with contextlib.redirect_stdout(out):
        code = run.main(argv, max_items=ITEMS[workload])
    lines = out.getvalue().splitlines()
    check(code == 0, f"{workload} trace={trace} exited with {code}")
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{workload}: result keys {sorted(result)}")
    check(result["attempted"] == ITEMS[workload] and result["failed"] == 0,
          f"{workload} trace={trace}: {result['failed']} of {result['attempted']} items failed")
    check("failed_fraction 0.0 ratio" in lines, f"{workload}: failed_fraction line")
    check(set(result["metrics"]) == {m["name"] for m in expected},
          f"{workload} trace={trace}: metric names {sorted(result['metrics'])}")
    for m in expected:
        got = result["metrics"][m["name"]]
        check(got["unit"] == m["unit"], f"{workload}: {m['name']} unit {got['unit']}")
        check(f"{m['name']} {got['value']} {m['unit']}" in lines,
              f"{workload}: no printed line for {m['name']}")


def failures(workload: str, seed: int, reference=None) -> int:
    with contextlib.redirect_stderr(io.StringIO()):
        result = run.run(workload, seed, 1, False, max_items=ITEMS[workload],
                         reference=reference)
    return result["failed"]


def main() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for workload in ITEMS:
        metrics_printed(workload, 0, spec["end_to_end"])
        metrics_printed(workload, 1, spec["per_layer"])
        print(f"smoke: {workload}: metrics printed, no failed item")

    from halfdensity import trivializer

    original = trivializer.trivialize

    def swapped_claim(R, cfg=None):
        verdict = original(R, cfg)
        verdict.certificates = [trivializer.Certificate(c.y, c.x, c.steps)
                                for c in verdict.certificates]
        return verdict

    def unsound(R, cfg=None):
        raise trivializer.SoundnessError("injected by the smoke test")

    # A seed without reference, so only the intrinsic checks can catch these.
    check(failures("sweep", run.DEFAULT_SEED + 1) == 0, "untampered sweep items failed")
    for name, fake in (("tampered certificate", swapped_claim), ("SoundnessError", unsound)):
        trivializer.trivialize = fake
        try:
            check(failures("sweep", run.DEFAULT_SEED + 1) > 0, f"{name} passed the gate")
        finally:
            trivializer.trivialize = original
        print(f"smoke: {name} fails the gate")

    for workload in ITEMS:
        reference = run.load_reference(workload, run.DEFAULT_SEED)
        first = reference[0]
        reference[0] = first + 1 if isinstance(first, int) else "0" * len(first)
        check(failures(workload, run.DEFAULT_SEED, reference) > 0,
              f"{workload}: tampered reference passed the gate")
        print(f"smoke: {workload}: tampered reference fails the gate")
    print("smoke: PASS")


if __name__ == "__main__":
    main()
