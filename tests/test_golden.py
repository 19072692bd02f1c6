"""Golden outputs: seeded CLI runs, reduction-stage verdicts and planted rates.

The hashes and files were recorded from the tool before any refactor of the
trivializer or the CLI; a change that alters a single byte of these outputs
fails here.  Re-record only for an intended format change, and say so in
CHANGES.md.
"""

import hashlib
import json
import re
from pathlib import Path

import pytest

from halfdensity import cli
from halfdensity import trivializer as tz
from halfdensity import words
from halfdensity.rng import RandomSource
from test_trivializer import build_reduction_fixture, reduction_presentation

GOLDEN_DIR = Path(__file__).parent / "golden"

CLI_CASES = {
    "sample": (["sample", "--m", "2", "--ell", "10", "--density", "0.5", "--seed", "31"],
               "e7ae8fa32a7778094bc528124e8bbbc019dd1af6ed66193ddeefc3367f5a95f5"),
    "trivialize": (["trivialize", "--m", "2", "--ell", "14", "--density", "0.55",
                    "--seed", "32"],
                   "8a35805b61f170c5cbb0b771cd593e9fa829a0fceb7d4f9797eee60853be07e9"),
    "trivialize-k-override": (["trivialize", "--m", "2", "--ell", "10", "--density", "0.5",
                               "--seed", "1", "--k-override", "2"],
                              "1fa4b9881fbae06a9d93de18570b5b9366fc1dab3e1354268df1e30037fc1874"),
    "trivialize-m3-rounds2": (["trivialize", "--m", "3", "--ell", "10", "--density", "0.5",
                               "--seed", "5", "--max-rounds", "2"],
                              "57feae06dcfeaa5989277ab9bb7a217d2465c8b750c92fbccc19841f0e9bda90"),
    "verify-dist": (["verify-dist", "--m", "2", "--n", "4", "--samples", "20000",
                     "--seed", "33"],
                    "89afa4a6cc7203e7491e4202fda499fdce0bd2db2924fbfaba2642c1c48a2083"),
    "pigeonhole": (["pigeonhole", "--n", "16", "--q", "2", "--z", "16", "--trials", "20000",
                    "--seed", "34"],
                   "3b92d1cc77d05e58f303bb929b278453c956bbc1e58c3f5059902b47e16c0c06"),
    "diagrams-census": (["diagrams", "census", "--max-n", "3"],
                        "a03c780e864654a6a3d1470c9bf7af2352a0c94d557d382df28f9c19004c352b"),
    "diagrams-tutte": (["diagrams", "tutte", "--n", "4", "--with-census"],
                       "af82d3d7dc962149350c11016912c6814ba6c37916e976d42510da7c69b008dd"),
    "diagrams-bound": (["diagrams", "bound", "--faces", "3", "--ell", "20", "--m", "2"],
                       "9afa97af8398793ff42b517125fd9a69b346e75248cd4105b8e2ae3e1654f860"),
    "diagrams-fulfill": (["diagrams", "fulfill", "--faces", "3", "--boundary", "20",
                          "--ell", "20", "--density", "0.45"],
                         "d47d7bbceea4536a9fb200c3099c226661380244435de723ecf1dee10fb3d916"),
    "conditions": (["conditions", "--which", "spade", "--k-expr", "threshold-k",
                    "--ell-grid", "pow2:10:14"],
                   "30e6a96a7a27aed65864ca63262c55347ded07c4ef4d0d2e34c22616ebf80c28"),
    "conditions-asterisk": (["conditions", "--which", "asterisk", "--K-expr",
                             "window-K:cprime=2", "--f-expr",
                             "family:alpha=1/3,beta=1/3,c0=1e5"],
                            "a785c02ae4ac6545c23271d40ad6948cc0813837dd35d12eaa693264d5eaf42b"),
    # spade's (2m-1)^(2k) for an integral exponent (exact) and a float one
    "spade-const": (["conditions", "--which", "spade", "--k-expr", "const:2"],
                    "e1882fac2913a92c9d7055ddf0778135ea2e58dc040588d6c9b7bb64dcd0c08b"),
    "spade-float-power": (["conditions", "--which", "spade", "--k-expr",
                           "family:alpha=0,beta=0,c0=3"],
                          "75e7138196678748720afd2c867fc47d00fbcce308d22f52b021166d1d93595e"),
    # asterisk with a unit coefficient of K (log c = 0) and a float one
    "asterisk-unit-K": (["conditions", "--which", "asterisk", "--K-expr", "window-K",
                         "--f-expr", "hyperbolic-threshold"],
                        "1867a92f7d9da8e5874418ed3fbc544e6732d00e58ee9f7bf089599758056bd2"),
    "asterisk-float-K": (["conditions", "--which", "asterisk", "--K-expr",
                          "family:alpha=-1/3,beta=0,c0=3", "--f-expr", "hyperbolic-threshold"],
                         "e7215d56c717e49516b8b5d65bfca539a8860b7deac6fa033c90db33ed45c2b1"),
    "phase-map": (["phase-map", "--alpha", "0:1.5:0.25", "--beta", "-1:2:0.5"],
                  "ab78f106ba38c489fb5edb5bcb2404821cffeaabeb91977c144db0fe01758dfb"),
}


#: The line each CLI_CASES run prints, with its --out path as <out>.
CLI_STDOUT = {
    "asterisk-float-K": "conditions: asterisk verdict=diverges -> <out>",
    "asterisk-unit-K": "conditions: asterisk verdict=converges-to-minus-infinity -> <out>",
    "conditions": "conditions: spade verdict=diverges -> <out>",
    "conditions-asterisk": "conditions: asterisk verdict=converges-to-minus-infinity -> <out>",
    "diagrams-bound": "diagrams bound: -> <out>",
    "diagrams-census": "diagrams census: n <= 3 -> <out>",
    "diagrams-fulfill": "diagrams fulfill: -> <out>",
    "diagrams-tutte": "diagrams tutte: -> <out>",
    "phase-map": "phase-map: {'hyperbolic': 9, 'not-o1': 5, 'unknown': 17, 'trivial': 18} -> <out>",
    "pigeonhole": "pigeonhole: estimate=1.000000 bound=0.22119921692859512 -> <out>",
    "sample": "sample: wrote 243 relators to <out>",
    "spade-const": "conditions: spade verdict=diverges -> <out>",
    "spade-float-power": "conditions: spade verdict=diverges -> <out>",
    "trivialize": "trivialize: outcome=trivial certificates=2 -> <out>",
    "trivialize-k-override": "trivialize: outcome=unknown certificates=0 -> <out>",
    "trivialize-m3-rounds2": "trivialize: outcome=unknown certificates=3 -> <out>",
    "verify-dist": "verify-dist: m=2 n=4 -> <out>",
}


def sha256_of(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_output_bytes(name, tmp_path, capsys):
    argv, expected = CLI_CASES[name]
    out = tmp_path / "out"
    assert cli.run(argv + ["--out", str(out)]) == 0
    assert sha256_of(out) == expected
    assert capsys.readouterr().out == CLI_STDOUT[name].replace("<out>", str(out)) + "\n"


def test_cli_stdout_covers_every_case():
    assert set(CLI_STDOUT) == set(CLI_CASES)


def test_diagrams_stdout_bytes(capsys):
    # with no --out, the JSON goes to stdout and no manifest is written
    assert cli.run(["diagrams", "bound", "--faces", "2", "--ell", "5"]) == 0
    assert capsys.readouterr().out == (
        '{\n  "asymptotic": 20.103401262900952,\n  "ell": 5,\n  "faces": 2,\n'
        '  "format_version": 1,\n  "log_bound": 70.10340126290096,\n  "m": 2,\n'
        '  "manifest_digest": '
        '"6424d78612c84890f5d368d828c17130061b781e6dd1bc40709bfb7133109ff2"\n}\n')


def test_trivialize_log_bytes(tmp_path, capsys):
    out, log = tmp_path / "v.json", tmp_path / "v.log"
    assert cli.run(["trivialize", "--m", "2", "--ell", "16", "--density", "0.55",
                    "--seed", "0", "--out", str(out), "--log", str(log)]) == 0
    assert sha256_of(out) == "8f6714c719acf36d3809a5952e3e8752a55c7e0bc031f4917a75043148f33183"
    assert sha256_of(log) == "fc221007ae57b1088fe100d7cbe652280b70b4c3c122105b7c39c1ba705320d1"
    manifest = Path(str(out) + ".manifest.json").read_text()
    manifest = manifest.replace(str(out), "<out>").replace(str(log), "<log>")
    manifest = re.sub(r'"created_utc": "[^"]*"', '"created_utc": "<utc>"', manifest)
    manifest = re.sub(r'"wall_clock_s": [^\n]*', '"wall_clock_s": "<s>"', manifest)
    assert manifest == TRIVIALIZE_LOG_MANIFEST


#: The manifest of test_trivialize_log_bytes's run, its paths and times masked.
TRIVIALIZE_LOG_MANIFEST = """{
  "created_utc": "<utc>",
  "digest": "72e33ed0ce7622c6ac8ad1be255117f5372eae89396f3cdaabdde993c1680d25",
  "format_version": 1,
  "outputs": [
    "<out>",
    "<log>"
  ],
  "params": {
    "density": 0.5499986960103814,
    "density_arg": 0.55,
    "ell": 16,
    "f": -0.04999869601038143,
    "k": 1,
    "m": 2,
    "max_letters": 134217728,
    "max_rounds": 1,
    "num": 15800,
    "num_spec": "density"
  },
  "rng_algorithm": "numpy-pcg64",
  "seed": 0,
  "subcommand": "trivialize",
  "threads": 1,
  "tool_version": "0.1.0",
  "wall_clock_s": "<s>"
}
"""


# No CLI-reachable input fires the reduction stage, so the hand-built fixture
# is the golden for the derivation log text of a ReductionStep.
@pytest.mark.parametrize("rounds", [1, 3])
def test_reduction_fixture_verdict_and_log(rounds):
    cfg = tz.TrivializerConfig(m=2, ell=40, k=1, max_rounds=rounds)
    v = tz.trivialize(build_reduction_fixture(), cfg)
    stem = GOLDEN_DIR / f"reduction_fixture_rounds{rounds}"
    assert json.dumps(v.to_json_dict(), sort_keys=True, indent=2) + "\n" == \
        stem.with_suffix(".json").read_text()
    assert "".join(c.describe() + "\n\n" for c in v.certificates) == \
        stem.with_suffix(".log").read_text()


# The reduction stage on many hosts: at m=2, k=1 a relator of length 80 has
# two full blocks, and round 1's w = Ab (from the fixture's r1, r2) occurs in
# most of them.  A partner p = y h'[2..] of a reduced background relator h'
# with y in h's class {a, b} ~ {A, B} collides with h' in round 2, which
# supplies new trivial words; the optional closing partner agrees with a
# host only after its round-2 reduction and certifies a cross-class equality.
_SAME_CLASS = {1: 2, 2: 1, -1: -2, -2: -1}


def reduction_sweep_presentation(closing: bool):
    cfg = tz.TrivializerConfig(m=2, ell=80, k=1)
    fixture = build_reduction_fixture()
    w1 = (-1, 2)
    rows = [tuple(r) for r in
            words.sample_relator_matrix(2, 80, 300, RandomSource(77)).tolist()]
    extra, w2 = [], None
    for h in rows:
        if len(extra) == 24:
            break
        reduced, records = tz.reduce_relator(h, w1, cfg)
        y = _SAME_CLASS[h[0]]
        p = (y,) + reduced[1:]
        if not records or y == -reduced[1] or tz.reduce_relator(p, w1, cfg)[1]:
            continue
        extra.append(p)
        if w2 is None and (-h[0], y) != w1:
            w2 = (-h[0], y)
    if closing:
        for h in reversed(rows):
            twice, records = tz.reduce_relator(tz.reduce_relator(h, w1, cfg)[0], w2, cfg)
            ys = [y for y in (1, 2, -1, -2) if y not in (h[0], _SAME_CLASS[h[0]], -twice[1])]
            if not records or not ys:
                continue
            p = (ys[0],) + twice[1:]
            if not (tz.reduce_relator(p, w1, cfg)[1] or tz.reduce_relator(p, w2, cfg)[1]):
                extra.append(p)
                break
    return words.Presentation(2, [fixture.relator(0), fixture.relator(1)] + rows + extra)


@pytest.mark.parametrize("closing, rounds, outcome, expected", [
    (False, 1, "unknown", "e77ebed926510e1c1558e66a40b518f0859c7d045addc7b6297b20a93fd06532"),
    (False, 3, "unknown", "a38dac0a397cbdfa3d4e0ef0cc4beb221a455bcef200472493fca3982f9433c9"),
    (True, 3, "trivial", "9a99424fdc52e0d6b8e53fa7c3d052744d2374a34c0662a505369825cdafbc8b"),
])
def test_reduction_sweep_verdict(closing, rounds, outcome, expected):
    R = reduction_sweep_presentation(closing)
    v = tz.trivialize(R, tz.TrivializerConfig(m=2, ell=80, k=1, max_rounds=rounds))
    assert v.outcome == outcome
    assert v.stats.reductions_applied > 500
    text = json.dumps(v.to_json_dict(), sort_keys=True, indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == expected


def test_reduction_sweep_certificates_chain_reductions():
    # The trivial case's hash covers a collision that cites a reduced word
    # (round 1's reductions feeding round 2) and a reduction of a word that
    # an earlier block or round already reduced.
    v = tz.trivialize(reduction_sweep_presentation(True),
                      tz.TrivializerConfig(m=2, ell=80, k=1, max_rounds=3))
    cites = {(s.kind, n, c.steps[getattr(s, n)].kind)
             for c in v.certificates for s in c.steps for n in tz._STEP_REFS[type(s)]}
    assert {("collision", "r1", "reduction"), ("collision", "r2", "reduction")} & cites
    assert ("reduction", "host", "reduction") in cites


# reduction_presentation's random hosts at one to three rounds.  In each
# run a certificate holds a reduction whose host step a collision step also
# cites: the row was first cited in the round that reduces it, so that round's
# first reduction of the row cites the collision's RelatorStep.
@pytest.mark.parametrize("m, seed, rounds, outcome, expected", [
    (2, 5, 1, "unknown", "ede77bee148e2b2bd8e4e1731fc5cbad206f4fa6d90a7b63fbdf01e8f3b8953a"),
    (2, 5, 2, "trivial", "c5cd1d89c1fb035d1c35081bf1c5cb48d9308931f4a4cf269788e9cf3a84d402"),
    (2, 5, 3, "trivial", "f269b712b72e8929ee2d7b3d9e93948e01d6fd5dd504ec9dfd376893c031324d"),
    (3, 2, 1, "unknown", "9b4fd012abb641eddec1880b9a33b9bdb4a0222059b20f1a4ec371e5db98786c"),
    (3, 2, 2, "unknown", "0406a6697deab75b6b7662edb51145b5a1fd396fb34f9ef4a9c535f67afc5caf"),
    (3, 2, 3, "unknown", "08b6f7e77317eb27d7d041c3c2abfc8b30dc1e26de7ba38049df1ff97456cd03"),
])
def test_reduction_presentation_verdict(m, seed, rounds, outcome, expected):
    gen = RandomSource(seed).child(m * 10 + 1).generator()
    R, _ = reduction_presentation(m, 1, lambda xs: xs[int(gen.integers(len(xs)))],
                                  lambda lo, hi: int(gen.integers(lo, hi + 1)), gen)
    v = tz.trivialize(R, tz.TrivializerConfig(m=m, ell=R.max_length(), k=1, max_rounds=rounds))
    assert v.outcome == outcome
    assert any(isinstance(s, tz.ReductionStep) and s.host in
               {getattr(c, n) for c in cert.steps if isinstance(c, tz.CollisionStep)
                for n in ("r1", "r2")}
               for cert in v.certificates for s in cert.steps)
    text = json.dumps(v.to_json_dict(), sort_keys=True, indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == expected


@pytest.mark.parametrize("k, m, seed, expected", [
    (1, 2, 612, (0.95925, 0.0031260773143030212)),
    (2, 2, 622, (0.985, 0.0019219131093782577)),
    (1, 3, 613, (0.96375, 0.0029553315169368057)),
    (3, 2, 632, (0.99525, 0.0010871335589521685)),
    (2, 3, 623, (0.9925, 0.0013641618305758258)),
])
def test_planted_rate_values(k, m, seed, expected):
    assert tz.planted_reduction_rate(k, m, 4000, RandomSource(seed)) == expected
