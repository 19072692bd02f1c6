#!/usr/bin/env python3
"""Run hand-written mutants of halfdensity against the tests meant to catch them.

Each mutant replaces one piece of source text, which must occur exactly once,
in a temporary copy of src/ and tests/, then runs its test files there without
their hypothesis searches (-m "not hypothesis"), so that only fixed cases can
kill it.  The mutant is killed when those tests fail or run past TIMEOUT_S (a
mutant can loop forever), and survives when they pass.  This is not part of
Tier-1, since each mutant costs a run of its test files; CI runs it as a step
of its own.

    python tools/mutants.py            # every mutant
    python tools/mutants.py NAME ...   # the named ones

Before anything runs, every chosen mutant's text to replace must occur exactly
once (else exit 2, naming each that does not), and the unmutated copy must pass
the chosen mutants' test files (else exit 2).  Prints one line per mutant,
"killed (timeout)" for one stopped at the timeout, and a killed/survived count;
exits 1 if any mutant survived.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
#: Seconds one run of a mutant's test files may take; unmutated, all of them run in
#: about 12 s on a 2-core host.
TIMEOUT_S = 300


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = [
    # the checker accepts a collision of two relators whose tails differ
    Mutant("collision-tail-check", "src/halfdensity/trivializer.py",
           "            if u[k:] != v[k:]:\n                return False\n", "",
           ("tests/test_trivializer.py",)),
    # trivialize stops checking its trivial verdicts against the guard
    Mutant("trivialize-guard-call", "src/halfdensity/trivializer.py",
           "and abelianization_guard(R) == CERTAINLY_NONTRIVIAL:", "and False:",
           ("tests/test_trivializer.py", "tests/test_cli.py")),
    # the checker accepts a reduction step whose flanks s and t cancel
    Mutant("reduction-cancelling-flanks", "src/halfdensity/trivializer.py",
           "            if s.s_letter == -s.t_letter:\n                return False\n",
           "            if s.s_letter == -s.t_letter:\n                return True\n",
           ("tests/test_trivializer.py",)),
    # the checker accepts a k >= 2 collision whose k-th letters agree
    Mutant("collision-kth-letters", "src/halfdensity/trivializer.py",
           "            if u[0] == v[0] or u[k - 1] == v[k - 1]:\n                return False\n",
           "            if u[0] == v[0] and u[k - 1] == v[k - 1]:\n                return False\n",
           ("tests/test_trivializer.py",)),
    # the checker reads a right flank past the host's last letter
    Mutant("reduction-end-range", "src/halfdensity/trivializer.py",
           "end <= len(host) - 1", "end <= len(host)",
           ("tests/test_trivializer.py",)),
    # the checker rejects a collision with k = len(v)
    Mutant("collision-k-range", "src/halfdensity/trivializer.py",
           "k <= len(v)", "k < len(v)",
           ("tests/test_trivializer.py",)),
    # the checker rejects a conclusion on one-letter words
    Mutant("conclusion-one-letter", "src/halfdensity/trivializer.py",
           "len(u) < 1", "len(u) < 2",
           ("tests/test_trivializer.py",)),
    # the pattern scan keeps a row whose pattern has its left flank at column 0
    # live, and a later chunk overwrites that pattern
    Mutant("scan-column-zero-live", "src/halfdensity/trivializer.py",
           "flanks[0, live] < 0", "flanks[0, live] <= 0",
           ("tests/test_trivializer.py",)),
    # the word codec reads any iterable of characters as a word
    Mutant("word-codec-str-check", "src/halfdensity/trivializer.py",
           "    if not isinstance(value, str):", "    if False:",
           ("tests/test_trivializer.py",)),
    # the coincidence kernel reads a guide bucket from the top 11 bits, not 12
    Mutant("kernel-bucket-shift", "src/halfdensity/pigeonhole.py",
           "np.right_shift(x, 52, out=", "np.right_shift(x, 53, out=",
           ("tests/test_pigeonhole.py",)),
    # the coincidence kernel's stages end at the last z0 * 2^j below z, not at z
    Mutant("kernel-last-stage-end", "src/halfdensity/pigeonhole.py",
           " if z0 << j < z] + [z]", " if z0 << j < z]",
           ("tests/test_pigeonhole.py",)),
    # a live trial's hit flags are offset by its place among the live trials,
    # not by its trial index within the block
    Mutant("kernel-live-offset", "src/halfdensity/pigeonhole.py",
           "bb += offset[live]", "bb += offset[:len(bb)]",
           ("tests/test_pigeonhole.py",)),
    # the coincidence kernel leaves the draws in a cut guide bucket unsearched
    Mutant("kernel-cut-fixup", "src/halfdensity/pigeonhole.py",
           "    if cuts:\n", "    if False:\n",
           ("tests/test_pigeonhole.py",)),
    # the exact oracle drops the sign of the outer inclusion-exclusion sum
    Mutant("oracle-outer-sign", "src/halfdensity/pigeonhole.py",
           "    g[odd] *= -1\n", "",
           ("tests/test_pigeonhole.py",)),
    # the measure check adds numerators without scaling each to the common denominator
    Mutant("measure-sum-scaling", "src/halfdensity/pigeonhole.py",
           "sum(p.numerator * (d // p.denominator) for p in self.mu)",
           "sum(p.numerator for p in self.mu)",
           ("tests/test_pigeonhole.py",)),
    # the reduction stage excises each hit's right flank t along with d w d^-1
    Mutant("excise-right-flank", "src/halfdensity/trivializer.py",
           "    span = ti - si - 1  #", "    span = ti - si  #",
           ("tests/test_trivializer.py",)),
    # the pattern scan drops a row whose first occurrence in a chunk is invalid
    # instead of checking its next occurrence
    Mutant("scan-drops-invalid-first", "src/halfdensity/trivializer.py",
           "            todo = todo[~valid]\n", "            todo = todo[:0]\n",
           ("tests/test_trivializer.py",)),
    # a reduction pass offsets each hit by its block row's index, not its block's
    Mutant("hits-block-offset", "src/halfdensity/trivializer.py",
           "    offset = RESERVED_PREFIX + j * size\n",
           "    offset = RESERVED_PREFIX + held[at] * size\n",
           ("tests/test_trivializer.py",)),
    # a reduction pass also scans the blocks that a row holds only in part
    Mutant("hits-partial-blocks", "src/halfdensity/trivializer.py",
           "np.flatnonzero(blocks[:, -1])", "np.flatnonzero(blocks[:, 0])",
           ("tests/test_trivializer.py",)),
    # each chunk of the pattern scan compares one candidate column too few
    Mutant("scan-chunk-one-short", "src/halfdensity/trivializer.py",
           "        n = min(SCAN_CHUNK, ncand - c0)\n",
           "        n = min(SCAN_CHUNK, ncand - c0) - 1\n",
           ("tests/test_trivializer.py",)),
    # a row's first reduction cites the slot before it, not the row's prior step
    Mutant("deferred-first-reduction-ref", "src/halfdensity/trivializer.py",
           "zip([prior, *range(first, end - 1)], records)",
           "zip([first - 1, *range(first, end - 1)], records)",
           ("tests/test_trivializer.py", "tests/test_golden.py")),
    # each later reduction of a row cites its own slot, not the step before it
    Mutant("deferred-row-chain", "src/halfdensity/trivializer.py",
           "*range(first, end - 1)]", "*range(first + 1, end)]",
           ("tests/test_trivializer.py", "tests/test_golden.py")),
    # tail grouping splits sorted runs only where tails differ in every letter
    Mutant("group-tails-run-split", "src/halfdensity/trivializer.py",
           "(ordered[1:] != ordered[:-1]).any(axis=1)",
           "(ordered[1:] != ordered[:-1]).all(axis=1)",
           ("tests/test_trivializer.py",)),
    # a tail key keeps the letters before start that its one word reads
    Mutant("tail-keys-head-mask", "src/halfdensity/trivializer.py",
           "~np.uint64((1 << 8 * max(start + 8 - width, 0)) - 1)", "~np.uint64(0)",
           ("tests/test_trivializer.py",)),
    # of two sorted neighbours with equal keys, only the later one is a candidate
    Mutant("group-tails-one-neighbour", "src/halfdensity/trivializer.py",
           "    repeats[:-1] |= same\n", "",
           ("tests/test_trivializer.py",)),
    # rows with no letter at position start stay among the candidates
    Mutant("group-tails-short-rows", "src/halfdensity/trivializer.py",
           "    rows = rows[mat[rows, start - 1] != 0]\n", "",
           ("tests/test_trivializer.py",)),
    # the guard's echelon basis keeps its old pivot row after a Euclid step
    Mutant("add-rows-keeps-old-pivot", "src/halfdensity/trivializer.py",
           "            basis[c] = b\n", "",
           ("tests/test_trivializer.py",)),
    # the step index stores each reduced row's last step, not 1 + it, so a later
    # citation of the row names the step before its current word
    Mutant("step-index-off-by-one", "src/halfdensity/trivializer.py",
           "cur_ref[rd.rows] = rd.ends\n", "cur_ref[rd.rows] = rd.ends - 1\n",
           ("tests/test_trivializer.py", "tests/test_golden.py")),
    # the run flags shift one hit left, so each row's hits start one hit early
    Mutant("deferred-first-run-flag", "src/halfdensity/trivializer.py",
           "out=new_run[1:-1])", "out=new_run[:-2])",
           ("tests/test_trivializer.py", "tests/test_golden.py")),
    # an excised row loses one letter per hit, not its hit's whole d w d^-1
    Mutant("excise-lengths-unweighted", "src/halfdensity/trivializer.py",
           "np.bincount(at, weights=span, minlength=len(mat))",
           "np.bincount(at, minlength=len(mat))",
           ("tests/test_trivializer.py",)),
    # classify_rate reads the leading coefficient's magnitude, not its sign
    Mutant("classify-lead-sign", "src/halfdensity/thresholds.py",
           "        if lead > 0:\n", "        if lead != 0:\n",
           ("tests/test_thresholds.py",)),
    # a rate expression accepts any argument key, not just its own
    Mutant("rate-key-check", "src/halfdensity/cli.py",
           "            if key not in keys:\n", "            if False:\n",
           ("tests/test_cli.py",)),
    # conditions parses the flags a condition reads without checking they were given
    Mutant("conditions-missing-expression", "src/halfdensity/cli.py",
           "    if not all(recorded[flag] for flag in flags):\n", "    if False:\n",
           ("tests/test_cli.py",)),
    # Presentation(m, relators) packs a 0 letter, which ends its word early
    Mutant("pack-zero-check", "src/halfdensity/words.py",
           "not letters.all() or ", "",
           ("tests/test_words.py",)),
    # Presentation(m, relators) accepts letters below -m
    Mutant("pack-lower-bound", "src/halfdensity/words.py",
           "letters.min(initial=0) < -bound or ", "",
           ("tests/test_words.py",)),
    # is_reduced compares each letter with the inverse of the letter two on
    Mutant("is-reduced-stride", "src/halfdensity/words.py",
           "islice(seq, 1, None)", "islice(seq, 2, None)",
           ("tests/test_words.py",)),
    # the padding mask compares in uint8 at any width, which wraps past 255
    Mutant("padding-mask-uint8", "src/halfdensity/words.py",
           "dtype = np.min_scalar_type(width)", "dtype = np.uint8",
           ("tests/test_words.py",)),
    # the sampler's draws keep the halves that Lemire's rule skips
    Mutant("draws-no-skip", "src/halfdensity/words.py",
           "keep = products >= skip if skip and products.min() < skip else None",
           "keep = None",
           ("tests/test_words.py",)),
    # the sampler's draws drop a call's odd last half instead of keeping it for the next
    Mutant("draws-odd-half-dropped", "src/halfdensity/words.py",
           "            if halves.size > k:\n                self._waiting = self._high\n", "",
           ("tests/test_words.py",)),
    # the sampler's draws read each PCG64 output's high half first
    Mutant("draws-high-half-first", "src/halfdensity/words.py",
           '.astype("<u8", copy=False).view("<u4")', '.astype(">u8", copy=False).view(">u4")',
           ("tests/test_words.py",)),
    # the sampler's draws step at floor(i 2^32 / b), not ceil: at a half just below
    # a threshold that b does not divide, the draw is one too large
    Mutant("draws-threshold-floor", "src/halfdensity/words.py",
           "((i << 32) + b - 1) // b", "(i << 32) // b",
           ("tests/test_words.py",)),
    # the sampler's step keys are int16, which wraps above 2^15 rows (m >= 91)
    Mutant("step-keys-int16", "src/halfdensity/words.py",
           "(draws + (draws >= inverse)).astype(np.uint16)",
           "(draws + (draws >= inverse)).astype(np.int16)",
           ("tests/test_words.py",)),
    # the relator count skips its m and ell bound, so an ell past the float range
    # overflows instead of raising ValueError
    Mutant("materialize-ell-range", "src/halfdensity/words.py",
           "    if max(m, ell) >= 2**1000:\n", "    if False:\n",
           ("tests/test_words.py",)),
    # every int seed gives the stream of seed 0
    Mutant("as-source-int-seed", "src/halfdensity/rng.py",
           "return RandomSource(int(rng))", "return RandomSource(0)",
           ("tests/test_rng.py",)),
    # spade takes an exact power however far past the float range its exponent is
    Mutant("exp-base-bound", "src/halfdensity/thresholds.py",
           "    if abs(c0) > 2**14 / math.log2(2 * m - 1):\n", "    if False:\n",
           ("tests/test_thresholds.py",)),
    # a rate's term past the float range raises OverflowError, not ValueError
    Mutant("evaluate-overflow", "src/halfdensity/thresholds.py",
           "            except OverflowError:\n                raise ValueError(f\"{self!r}",
           "            except ():\n                raise ValueError(f\"{self!r}",
           ("tests/test_thresholds.py",)),
    # a pigeonhole run reads an unknown measure as the geometric one
    Mutant("measure-lookup-fallback", "src/halfdensity/cli.py",
           '    if recorded["mu"] not in makers:\n'
           '        raise CliError(f"unknown measure {recorded[\'mu\']!r}")\n'
           '    cfg = makers[recorded["mu"]](',
           '    cfg = makers.get(recorded["mu"], pigeonhole.PigeonholeConfig.geometric)(',
           ("tests/test_cli.py",)),
    # two outputs that share a path are both written, and the later one wins
    Mutant("output-path-collision", "src/halfdensity/cli.py",
           "    if len({os.path.realpath(path) for path, _ in files}) < len(files):\n",
           "    if False:\n",
           ("tests/test_cli.py",)),
    # a run whose log cannot be written keeps the files it wrote before it
    Mutant("write-error-cleanup", "src/halfdensity/cli.py",
           "                os.remove(path)\n", "                pass\n",
           ("tests/test_cli.py",)),
    # a rate evaluated at m = 1 takes logs of base 1 and divides by zero
    Mutant("evaluate-m-check", "src/halfdensity/thresholds.py",
           "        if m < 2:\n", "        if False:\n",
           ("tests/test_thresholds.py", "tests/test_cli.py")),
    # JSON files end without a newline
    Mutant("write-json-newline", "src/halfdensity/manifest.py",
           'indent=2) + "\\n"', "indent=2)",
           ("tests/test_cli.py",)),
]


def run_tests(mutant: Mutant) -> str:
    """"passed", "failed" or "timeout": the mutant's tests on a copy with its one replacement made."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tmp = Path(tmp)
        for part in ("src", "tests", "pyproject.toml"):
            copy = shutil.copytree if (ROOT / part).is_dir() else shutil.copy
            copy(ROOT / part, tmp / part)
        target = tmp / mutant.path
        target.write_text(target.read_text().replace(mutant.old, mutant.new))
        try:
            result = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                 "-m", "not hypothesis", *mutant.tests],
                cwd=tmp, env={**os.environ, "PYTHONPATH": str(tmp / "src")},
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return "timeout"
        return "failed" if result.returncode else "passed"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = parser.parse_args()
    known = {m.name: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in known]
    if unknown:
        parser.error(f"unknown mutant(s) {unknown}; known: {sorted(known)}")
    chosen = [known[n] for n in args.names] or MUTANTS
    counts = [(m, (ROOT / m.path).read_text().count(m.old)) for m in chosen]
    stale = [f"{m.name}: text to replace occurs {n} times in {m.path}, not once"
             for m, n in counts if n != 1]
    if stale:
        print("\n".join(stale))
        return 2
    tests = tuple(sorted({t for m in chosen for t in m.tests}))
    if run_tests(Mutant("unmutated", chosen[0].path, chosen[0].old, chosen[0].old,
                        tests)) != "passed":
        print(f"the unmutated copy fails {' '.join(tests)}; no mutant can be judged")
        return 2
    killed = 0
    label = {"passed": "SURVIVED", "failed": "killed  ", "timeout": "killed (timeout)"}
    for mutant in chosen:
        outcome = run_tests(mutant)
        killed += outcome != "passed"
        print(f"{label[outcome]} {mutant.name}", flush=True)
    print(f"{killed} killed, {len(chosen) - killed} survived")
    return 0 if killed == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main())
