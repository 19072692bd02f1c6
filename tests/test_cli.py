import importlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from halfdensity import cli, thresholds, trivializer, words
from halfdensity.manifest import RunManifest, json_text, manifest_digest


#: A number past the float range, given as a CLI count or length.
BIG = 10**400
#: A rate ell^400, past the float range from ell = 6.
FAST_K = "family:alpha=-400,beta=0"
#: The spade condition's argv up to its --ell-grid and --out.
SPADE = ["conditions", "--which", "spade", "--k-expr", "threshold-k"]
#: A fast seeded trivialize run's argv up to its --out and --log.
TRIVIALIZE_12 = ["trivialize", "--m", "2", "--ell", "12", "--density", "0.5", "--seed", "1"]


def run_ok(argv):
    assert cli.run(argv) == 0


def run_main(monkeypatch, argv) -> int:
    """The exit code of the console entry point on argv."""
    monkeypatch.setattr(sys, "argv", ["halfdensity", *argv])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    return exc.value.code


class TestSample:
    def test_writes_parseable_presentation(self, tmp_path, capsys):
        out = tmp_path / "p.txt"
        run_ok(["sample", "--m", "2", "--ell", "6", "--num", "10",
                "--seed", "3", "--out", str(out)])
        pres = words.presentation_from_text(out.read_text())
        assert pres.m == 2 and len(pres.relators) == 10
        assert all(len(r) == 6 for r in pres.relators)

    def test_embeds_digest_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "p.txt"
        run_ok(["sample", "--m", "2", "--ell", "4", "--num", "3",
                "--seed", "1", "--out", str(out)])
        man = RunManifest.read(str(out) + ".manifest.json")
        assert f"# manifest_digest={man.digest}" in out.read_text()
        assert man.seed == 1 and man.subcommand == "sample"

    def test_density_materializes_num(self, tmp_path, capsys):
        out = tmp_path / "p.txt"
        run_ok(["sample", "--m", "2", "--ell", "12", "--density", "0.5",
                "--seed", "0", "--out", str(out)])
        man = RunManifest.read(str(out) + ".manifest.json")
        assert man.params["num"] == 729

    def test_requires_exactly_one_count_spec(self, tmp_path, capsys):
        with pytest.raises(cli.CliError):
            cli.run(["sample", "--m", "2", "--ell", "4", "--seed", "1",
                     "--out", str(tmp_path / "x.txt")])

    def test_unseeded_run_records_seed(self, tmp_path, capsys):
        out = tmp_path / "p.txt"
        run_ok(["sample", "--m", "2", "--ell", "4", "--num", "2", "--out", str(out)])
        man = RunManifest.read(str(out) + ".manifest.json")
        assert isinstance(man.seed, int)


def test_json_text_format():
    assert json_text({"b": [1], "a": 2}) == '{\n  "a": 2,\n  "b": [\n    1\n  ]\n}\n'


class TestReproducibility:
    def test_trivialize_byte_identical(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["trivialize", "--m", "2", "--ell", "12", "--density", "0.55",
                "--seed", "7"]
        run_ok(argv + ["--out", str(a)])
        run_ok(argv + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_rerun_from_manifest(self, tmp_path, capsys):
        out = tmp_path / "v.json"
        run_ok(["trivialize", "--m", "2", "--ell", "12", "--density", "0.5",
                "--seed", "11", "--out", str(out)])
        out2 = tmp_path / "v2.json"
        run_ok(["rerun", "--manifest", str(out) + ".manifest.json", "--out", str(out2)])
        assert out.read_bytes() == out2.read_bytes()

    def test_pigeonhole_rerun(self, tmp_path, capsys):
        out = tmp_path / "pg.json"
        run_ok(["pigeonhole", "--n", "4", "--q", "2", "--z", "4",
                "--trials", "20000", "--seed", "2", "--out", str(out)])
        out2 = tmp_path / "pg2.json"
        run_ok(["rerun", "--manifest", str(out) + ".manifest.json", "--out", str(out2)])
        assert out.read_bytes() == out2.read_bytes()

    def test_rerun_keeps_recorded_threads(self, tmp_path, capsys):
        out = tmp_path / "pg.json"
        run_ok(["pigeonhole", "--n", "4", "--q", "2", "--z", "4", "--trials", "20000",
                "--seed", "2", "--threads", "2", "--out", str(out)])
        out2 = tmp_path / "pg2.json"
        run_ok(["rerun", "--manifest", str(out) + ".manifest.json", "--out", str(out2)])
        assert RunManifest.read(str(out2) + ".manifest.json").threads == 2
        assert out.read_bytes() == out2.read_bytes()


def _drop_subcommand(man):
    del man["subcommand"]
    return man


def _drop_num(man):
    del man["params"]["num"]
    return man


def _set_k_text(man):
    man["params"]["k"] = "1"
    return man


class TestRerunRejectsMalformedManifest:
    @pytest.mark.parametrize("edit, message", [
        (_drop_subcommand, "has no 'subcommand' field"),
        (_drop_num, "'digest' does not match"),
        (lambda man: [man], "is not a JSON object"),
        (_set_k_text, "'digest' does not match"),
    ], ids=["no-subcommand", "params-without-num", "json-list", "k-as-text"])
    def test_exits_one_without_output(self, edit, message, tmp_path, capsys, monkeypatch):
        out = tmp_path / "v.json"
        run_ok(["trivialize", "--m", "2", "--ell", "10", "--num", "5", "--seed", "1",
                "--out", str(out)])
        path = tmp_path / "edited.manifest.json"
        path.write_text(json.dumps(edit(json.loads(
            (tmp_path / "v.json.manifest.json").read_text()))))
        capsys.readouterr()
        again = tmp_path / "again.json"
        argv = ["rerun", "--manifest", str(path), "--out", str(again)]
        assert run_main(monkeypatch, argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not again.exists() and not (tmp_path / "again.json.manifest.json").exists()

    @pytest.mark.parametrize("params", [
        lambda p: {**p, "k": "1"},
        lambda p: list(p.values()),
    ], ids=["k-as-text", "params-as-list"])
    def test_wrong_param_types_with_matching_digest(self, params, tmp_path, capsys,
                                                    monkeypatch):
        # the digest shows the manifest is self-consistent, not that its
        # params have the types the parser would record
        out = tmp_path / "v.json"
        run_ok(["trivialize", "--m", "2", "--ell", "10", "--num", "5", "--seed", "1",
                "--out", str(out)])
        man = json.loads((tmp_path / "v.json.manifest.json").read_text())
        man["params"] = params(man["params"])
        man["digest"] = manifest_digest(man["subcommand"], man["params"], man["seed"])
        path = tmp_path / "edited.manifest.json"
        path.write_text(json.dumps(man))
        capsys.readouterr()
        again = tmp_path / "again.json"
        argv = ["rerun", "--manifest", str(path), "--out", str(again)]
        assert run_main(monkeypatch, argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: manifest {path} has malformed params")
        assert not again.exists() and not (tmp_path / "again.json.manifest.json").exists()

    @pytest.mark.parametrize("extra", [{"bogus": "x"}, {"block_count": 99, "block_size": 36}],
                             ids=["bogus", "block-geometry"])
    def test_params_key_the_subcommand_never_records(self, extra, tmp_path, capsys,
                                                     monkeypatch):
        out = tmp_path / "v.json"
        run_ok(["trivialize", "--m", "2", "--ell", "10", "--num", "5", "--seed", "1",
                "--out", str(out)])
        man = json.loads((tmp_path / "v.json.manifest.json").read_text())
        man["params"].update(extra)
        man["digest"] = manifest_digest(man["subcommand"], man["params"], man["seed"])
        path = tmp_path / "edited.manifest.json"
        path.write_text(json.dumps(man))
        capsys.readouterr()
        again = tmp_path / "again.json"
        argv = ["rerun", "--manifest", str(path), "--out", str(again)]
        assert run_main(monkeypatch, argv) == 1
        assert capsys.readouterr().err == (f"error: manifest {path} has params that trivialize "
                                           f"never records: {', '.join(sorted(extra))}\n")
        assert not again.exists() and not (tmp_path / "again.json.manifest.json").exists()

    @pytest.mark.parametrize("argv, key, message", [
        (["diagrams", "tutte", "--n", "2"], "diagram_cmd", "unknown diagrams subcommand 'bogus'"),
        (["conditions", "--which", "spade", "--k-expr", "threshold-k", "--ell-grid", "1024"],
         "which", "unknown condition 'bogus'"),
        (["sample", "--m", "2", "--ell", "4", "--num", "2", "--seed", "1"], None,
         "manifest has unknown subcommand 'bogus'"),
        (["pigeonhole", "--n", "4", "--q", "2", "--z", "4", "--trials", "10", "--seed", "1"],
         "mu", "unknown measure 'bogus'"),
    ], ids=["diagram-command", "condition", "subcommand", "measure"])
    def test_unknown_name_with_matching_digest(self, argv, key, message, tmp_path, capsys,
                                               monkeypatch):
        run_ok([*argv, "--out", str(tmp_path / "run.out")])
        man = json.loads((tmp_path / "run.out.manifest.json").read_text())
        if key is None:
            man["subcommand"] = "bogus"
        else:
            man["params"][key] = "bogus"
        man["digest"] = manifest_digest(man["subcommand"], man["params"], man["seed"])
        path = tmp_path / "edited.manifest.json"
        path.write_text(json.dumps(man))
        capsys.readouterr()
        again = tmp_path / "again.out"
        assert run_main(monkeypatch, ["rerun", "--manifest", str(path), "--out", str(again)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not again.exists() and not (tmp_path / "again.out.manifest.json").exists()

    @pytest.mark.parametrize("threads", [2.5, True, "2", 0, None],
                             ids=["float", "bool", "text", "zero", "null"])
    def test_threads_that_are_not_a_count(self, threads, tmp_path, capsys, monkeypatch):
        # threads is not digested, so an edit to it leaves the digest valid
        out = tmp_path / "pg.json"
        run_ok(["pigeonhole", "--n", "4", "--q", "2", "--z", "4", "--trials", "100",
                "--seed", "1", "--out", str(out)])
        man = json.loads((tmp_path / "pg.json.manifest.json").read_text())
        man["threads"] = threads
        path = tmp_path / "edited.manifest.json"
        path.write_text(json.dumps(man))
        capsys.readouterr()

        def simulate(*args, **kwargs):
            raise AssertionError("a rejected manifest ran")

        monkeypatch.setattr(cli.pigeonhole, "coincidence_simulate", simulate)
        again = tmp_path / "again.json"
        argv = ["rerun", "--manifest", str(path), "--out", str(again)]
        assert run_main(monkeypatch, argv) == 1
        assert capsys.readouterr().err == (f"error: manifest {path} 'threads' must be an int "
                                           f">= 1, got {threads!r}\n")
        assert not again.exists() and not (tmp_path / "again.json.manifest.json").exists()

    @pytest.mark.parametrize("argv", [
        ["sample", "--m", "2", "--ell", "10", "--num", "5", "--seed", "1"],
        ["trivialize", "--m", "2", "--ell", "10", "--density", "0.5", "--seed", "1"],
        ["trivialize", "--m", "2", "--ell", "16", "--f-expr", "zero", "--seed", "1"],
        ["verify-dist", "--m", "2", "--n", "4", "--samples", "100", "--seed", "1"],
        ["pigeonhole", "--n", "4", "--q", "2", "--z", "4", "--trials", "100", "--seed", "1"],
        ["diagrams", "tutte", "--n", "2"],
        ["diagrams", "fulfill", "--faces", "2", "--boundary", "4", "--ell", "8",
         "--density", "0.3"],
        ["conditions", "--which", "star", "--k-expr", "threshold-k", "--f-expr", "zero",
         "--ell-grid", "1024"],
        ["phase-map", "--alpha", "0:1:0.5", "--beta", "0:1:0.5"],
    ], ids=["sample", "trivialize-density", "trivialize-f-expr", "verify-dist", "pigeonhole",
            "diagrams-tutte", "diagrams-fulfill", "conditions", "phase-map"])
    def test_every_recorded_key_reruns(self, argv, tmp_path, capsys):
        out, again = tmp_path / "first.out", tmp_path / "again.out"
        run_ok([*argv, "--out", str(out)])
        run_ok(["rerun", "--manifest", f"{out}.manifest.json", "--out", str(again)])
        assert again.read_bytes() == out.read_bytes()

    @pytest.mark.parametrize("argv", [
        ["pigeonhole", "--n", "4", "--q", "2", "--z", "4", "--trials", "100", "--seed", "1"],
        ["trivialize", "--m", "2", "--ell", "10", "--num", "5", "--seed", "1"],
    ], ids=["pigeonhole", "trivialize"])
    def test_rerun_rejects_fewer_than_one_thread(self, argv, tmp_path, capsys, monkeypatch):
        out = tmp_path / "run.out"
        run_ok([*argv, "--out", str(out)])
        capsys.readouterr()
        again = tmp_path / "again.out"
        argv = ["rerun", "--manifest", str(out) + ".manifest.json", "--threads", "0",
                "--out", str(again)]
        assert run_main(monkeypatch, argv) == 1
        assert capsys.readouterr().err == "error: threads must be >= 1, got 0\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.out", "run.out.manifest.json"]


class TestTrivializeOutput:
    def test_verdict_schema(self, tmp_path, capsys):
        out = tmp_path / "v.json"
        log = tmp_path / "v.log"
        run_ok(["trivialize", "--m", "2", "--ell", "16", "--density", "0.55",
                "--seed", "0", "--out", str(out), "--log", str(log)])
        d = json.loads(out.read_text())
        assert d["outcome"] == "trivial"
        assert d["parameters"]["k"] == 1
        assert d["model"]["num"] == 15800
        assert d["certificates"]
        assert "claim:" in log.read_text()

    def test_k_override_recorded(self, tmp_path, capsys):
        out = tmp_path / "v.json"
        run_ok(["trivialize", "--m", "2", "--ell", "10", "--density", "0.5",
                "--seed", "1", "--k-override", "2", "--out", str(out)])
        d = json.loads(out.read_text())
        assert d["parameters"]["k"] == 2

    def test_f_expr_materializes_num_and_reruns(self, tmp_path, capsys):
        out = tmp_path / "v.json"
        run_ok(["trivialize", "--m", "2", "--ell", "16", "--f-expr", "trivial-threshold",
                "--seed", "7", "--out", str(out)])
        man = RunManifest.read(str(out) + ".manifest.json")
        assert man.params["num_spec"] == "f-expr"
        assert man.params["f_expr"] == "trivial-threshold"
        f_value = thresholds.trivial_threshold_f().evaluate(16, 2)
        assert man.params["f_value"] == f_value
        assert man.params["num"] == words.ModelParams.from_f(2, 16, f_value).num
        assert json.loads(out.read_text())["model"]["num"] == man.params["num"]
        again = tmp_path / "again.json"
        run_ok(["rerun", "--manifest", str(out) + ".manifest.json", "--out", str(again)])
        assert again.read_bytes() == out.read_bytes()

    def test_block_count_clamped_at_zero(self, tmp_path, capsys):
        out = tmp_path / "v.json"
        run_ok(["trivialize", "--m", "2", "--ell", "1", "--num", "4", "--seed", "0",
                "--k-override", "1", "--out", str(out)])
        assert json.loads(out.read_text())["parameters"]["block_count"] == 0
        # derived from m, ell and k, so not recorded where a rerun could contradict it
        man = RunManifest.read(str(out) + ".manifest.json")
        assert "block_count" not in man.params and "block_size" not in man.params


class TestPigeonholeOutput:
    def test_estimate_near_exact(self, tmp_path, capsys):
        out = tmp_path / "pg.json"
        run_ok(["pigeonhole", "--n", "2", "--q", "2", "--z", "2",
                "--trials", "100000", "--seed", "1", "--out", str(out)])
        d = json.loads(out.read_text())
        assert d["exact"] == "7/8"
        assert abs(d["estimate"] - 7 / 8) <= 3 * d["stderr"]
        assert d["hypothesis_met"] is False and d["bound"] is None

    def test_bound_present_when_hypothesis_met(self, tmp_path, capsys):
        out = tmp_path / "pg.json"
        run_ok(["pigeonhole", "--n", "16", "--q", "2", "--z", "16",
                "--trials", "20000", "--seed", "4", "--out", str(out)])
        d = json.loads(out.read_text())
        assert d["hypothesis_met"] is True
        assert d["estimate"] - 3 * d["stderr"] >= d["bound"]
        assert d["bound"] <= Fraction(d["exact"]) < 1

    def test_exact_null_past_budget(self, tmp_path, capsys):
        # 2^17 subset types of a geometric measure on 17 boxes
        out = tmp_path / "pg.json"
        run_ok(["pigeonhole", "--mu", "geometric", "--n", "17", "--q", "3", "--z", "56",
                "--trials", "2000", "--seed", "2", "--out", str(out)])
        d = json.loads(out.read_text())
        assert d["exact"] is None
        assert d["estimate"] - 3 * d["stderr"] >= d["bound"]

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_rejects_fewer_than_one_thread(self, threads, tmp_path, capsys, monkeypatch):
        argv = ["pigeonhole", "--n", "4", "--q", "2", "--z", "4", "--trials", "100",
                "--seed", "1", "--threads", threads, "--out", str(tmp_path / "pg.json")]
        assert run_main(monkeypatch, argv) == 1
        assert capsys.readouterr().err == f"error: threads must be >= 1, got {threads}\n"
        assert list(tmp_path.iterdir()) == []


class TestVerifyDist:
    def test_csv_zscores_small(self, tmp_path, capsys):
        out = tmp_path / "vd.csv"
        run_ok(["verify-dist", "--m", "2", "--n", "4", "--samples", "200000",
                "--seed", "9", "--out", str(out)])
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "relation,exact,oracle,empirical,zscore"
        rows = [l.split(",") for l in lines[1:]]
        assert {r[0] for r in rows} == {"same", "inverse", "other"}
        for r in rows:
            assert r[1] == r[2]  # exact law equals oracle
            assert abs(float(r[4])) < 4.5

    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_rejects_fewer_than_one_sample(self, tmp_path, capsys, monkeypatch, samples):
        argv = ["verify-dist", "--m", "2", "--n", "4", "--samples", samples,
                "--seed", "9", "--out", str(tmp_path / "vd.csv")]
        assert run_main(monkeypatch, argv) == 1
        assert capsys.readouterr().err == f"error: samples must be >= 1, got {samples}\n"
        assert list(tmp_path.iterdir()) == []


class TestConditionsAndPhaseMap:
    def test_star_csv(self, tmp_path, capsys):
        out = tmp_path / "star.csv"
        run_ok(["conditions", "--which", "star", "--k-expr", "threshold-k",
                "--f-expr", "trivial-threshold", "--ell-grid", "pow2:10:20",
                "--out", str(out)])
        text = out.read_text()
        assert "# verdict=diverges" in text
        assert "loglog" in text

    def test_indeterminate_verdict_names_its_heuristic(self, tmp_path, capsys):
        out = tmp_path / "asterisk.csv"
        run_ok(["conditions", "--which", "asterisk", "--K-expr", "threshold-k",
                "--f-expr", "zero", "--out", str(out)])
        preamble = [l for l in out.read_text().splitlines() if l.startswith("#")]
        assert preamble[-2:] == ["# verdict=indeterminate", "# heuristic=diverges"]

    def test_asterisk_rejects_without_K(self, tmp_path, capsys):
        with pytest.raises(cli.CliError):
            cli.run(["conditions", "--which", "asterisk", "--f-expr", "zero",
                     "--out", str(tmp_path / "x.csv")])

    @pytest.mark.parametrize("argv,message", [
        (["--which", "star", "--f-expr", "zero"], "star needs --k-expr and --f-expr"),
        (["--which", "star", "--k-expr", "threshold-k"], "star needs --k-expr and --f-expr"),
        (["--which", "spade", "--f-expr", "zero"], "spade needs --k-expr"),
        (["--which", "asterisk", "--K-expr", "window-K"],
         "asterisk needs --K-expr and --f-expr"),
        # the needs check runs before the condition's own expressions are parsed
        (["--which", "star", "--f-expr", "bogus"], "star needs --k-expr and --f-expr"),
        (["--which", "star", "--k-expr", "threshold-k", "--f-expr", "bogus"],
         "unknown rate expression 'bogus'"),
        (["--which", "star", "--k-expr", "bogus"], "star needs --k-expr and --f-expr"),
        (["--which", "star", "--k-expr", "bogus", "--f-expr", "zero"],
         "unknown rate expression 'bogus'"),
        (["--which", "star", "--k-expr", "threshold-k", "--f-expr", "family:alpha"],
         "malformed rate expression argument 'alpha'"),
    ])
    def test_missing_or_bad_expression_exits_one(self, argv, message, tmp_path, capsys,
                                                 monkeypatch):
        out = tmp_path / "x.csv"
        assert run_main(monkeypatch, ["conditions", *argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("k_expr, value", [
        ("const:-2", "-2.0"),
        ("const:-1", "-1.0"),  # 2k + 2 = 0: the block count has no symbolic form either
        ("family:alpha=0,beta=1,c0=-1", "-6.309297535714574"),
    ])
    def test_spade_rejects_k_not_above_minus_one(self, k_expr, value, tmp_path, capsys,
                                                 monkeypatch):
        out = tmp_path / "x.csv"
        argv = ["conditions", "--which", "spade", "--k-expr", k_expr, "--ell-grid", "1024",
                "--out", str(out)]
        assert run_main(monkeypatch, argv) == 1
        assert capsys.readouterr().err == f"error: k(1024) = {value} must be above -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        ([*SPADE, "--ell-grid", "pow2:x:3"], "malformed ell grid 'pow2:x:3'"),
        ([*SPADE, "--ell-grid", "pow2:5:3"], "malformed ell grid 'pow2:5:3'"),
        ([*SPADE, "--ell-grid", "1,x"], "malformed ell grid '1,x'"),
        ([*SPADE, "--ell-grid", ","], "empty ell grid ','"),
        (["phase-map", "--alpha", "0:1"], "malformed grid range '0:1'; expected start:stop:step"),
    ], ids=["pow2-not-a-number", "pow2-reversed", "list-not-a-number", "empty-list",
            "range-without-step"])
    def test_malformed_grid_exits_one(self, argv, message, tmp_path, capsys, monkeypatch):
        assert run_main(monkeypatch, [*argv, "--out", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(tmp_path.iterdir())

    def test_expression_the_condition_does_not_read_stays_unparsed(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        run_ok(["conditions", "--which", "spade", "--k-expr", "threshold-k",
                "--K-expr", "bogus", "--ell-grid", "1024", "--out", str(out)])
        run_ok(["conditions", "--which", "spade", "--k-expr", "threshold-k",
                "--f-expr", "bogus", "--ell-grid", "1024", "--out", str(out)])
        run_ok(["conditions", "--which", "star", "--k-expr", "threshold-k", "--f-expr", "zero",
                "--K-expr", "bogus", "--ell-grid", "1024", "--out", str(out)])
        run_ok(["conditions", "--which", "asterisk", "--K-expr", "window-K", "--f-expr", "zero",
                "--k-expr", "bogus", "--ell-grid", "1024", "--out", str(out)])

    def test_phase_map_regions(self, tmp_path, capsys):
        out = tmp_path / "pm.csv"
        run_ok(["phase-map", "--alpha", "0.05:1.5:0.05", "--beta", "-1:2:0.25",
                "--out", str(out)])
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        verdicts = {l.split(",")[2] for l in lines[1:]}
        assert {"hyperbolic", "trivial", "unknown"} <= verdicts

    @pytest.mark.parametrize("coeff", ["-1", "inf", "nan"])
    def test_phase_map_rejects_bad_coeff(self, coeff, tmp_path, capsys, monkeypatch):
        # once, before the grid: not caught per cell as "f not o(1)"
        out = tmp_path / "pm.csv"
        assert run_main(monkeypatch, ["phase-map", "--coeff", coeff, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: coefficient must be finite")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["--which", "star", "--k-expr", "threshold-k", "--f-expr", "family:alpha=1,beta=1,c=100"],
        ["--which", "star", "--k-expr", "threshold-k", "--f-expr", "zero:x=1"],
        ["--which", "asterisk", "--K-expr", "window-K:cprime=2,foo=3", "--f-expr", "zero"],
    ])
    def test_rate_expression_rejects_keys_it_does_not_take(self, argv, tmp_path, capsys):
        with pytest.raises(cli.CliError, match="takes no argument"):
            cli.run(["conditions", *argv, "--out", str(tmp_path / "x.csv")])

    @pytest.mark.parametrize("c0", ["nan", "inf", "-inf"])
    def test_rate_expression_rejects_non_finite_c0(self, c0, tmp_path, capsys, monkeypatch):
        out = tmp_path / "x.csv"
        argv = ["conditions", "--which", "star", "--k-expr", "threshold-k",
                "--f-expr", f"family:alpha=1,beta=1,c0={c0}", "--ell-grid", "1024",
                "--out", str(out)]
        assert run_main(monkeypatch, argv) == 1
        assert "c0 must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("spec", ["family:alpha=1,alpha=2,beta=0",
                                      "family:alpha=1,beta=0,c0=2,c0=3",
                                      "window-K:cprime=2,cprime=3"])
    def test_rate_expression_rejects_repeated_keys(self, spec):
        with pytest.raises(cli.CliError, match="repeats argument"):
            cli.parse_rate_expr(spec)

    def test_rate_expression_keys(self):
        assert cli.parse_rate_expr("family:alpha=1,beta=1,c0=100").terms == {(-1, 1, 0): 100.0}
        assert cli.parse_rate_expr("window-K:cprime=2") == thresholds.hyperbolic_window_K(2)

    @pytest.mark.parametrize("spec,expected", [
        ("zero", thresholds.GrowthExpr()),
        ("trivial-threshold", thresholds.trivial_threshold_f()),
        ("hyperbolic-threshold", thresholds.hyperbolic_threshold_f()),
        ("threshold-k", thresholds.threshold_head_k()),
        ("window-K", thresholds.hyperbolic_window_K(1)),
        ("window-K:cprime=3/2", thresholds.hyperbolic_window_K(Fraction(3, 2))),
        ("delta-K", thresholds.delta_hyperbolic_window_K()),
        ("const:3/2", thresholds.GrowthExpr.constant(Fraction(3, 2))),
        ("family:alpha=1/3,beta=-2", thresholds.family(Fraction(1, 3), -2, 1.0)),
        ("family:c0=1e5,beta=1/3,alpha=1/3",
         thresholds.family(Fraction(1, 3), Fraction(1, 3), 10**5)),
    ])
    def test_every_rate_name_parses_to_its_builder(self, spec, expected):
        assert cli.parse_rate_expr(spec) == expected

    @pytest.mark.parametrize("spec", ["family:alpha=1", "family:beta=1", "const:", "const:x"])
    def test_rate_expression_without_its_value(self, spec, tmp_path, capsys, monkeypatch):
        out = tmp_path / "x.csv"
        argv = ["conditions", "--which", "star", "--k-expr", "threshold-k",
                "--f-expr", spec, "--out", str(out)]
        assert run_main(monkeypatch, argv) == 1
        assert capsys.readouterr().err.startswith(
            f"error: cannot parse rate expression {spec!r}:")
        assert not out.exists()

    @pytest.mark.parametrize("argv, merged", [
        (["phase-map", "--beta"], ["phase-map", "--beta"]),
        (["--beta", "--beta", "-1:2:0.5"], ["--beta=--beta", "-1:2:0.5"]),
        (["--alpha", "-1:0:1", "--beta", "-2:0:1"], ["--alpha=-1:0:1", "--beta=-2:0:1"]),
        (["--beta=-1:2:0.5"], ["--beta=-1:2:0.5"]),
    ], ids=["option-last", "option-as-value", "both-options", "joined-already"])
    def test_merge_dash_values(self, argv, merged):
        assert cli._merge_dash_values(argv) == merged

    def test_negative_beta_value_form(self, tmp_path, capsys):
        out = tmp_path / "pm.csv"
        run_ok(["phase-map", "--alpha", "0:1:0.5", "--beta", "-1:0:0.5",
                "--out", str(out)])
        assert out.exists()


class TestDiagramsCli:
    def test_tutte_json(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        run_ok(["diagrams", "tutte", "--n", "3", "--with-census", "--out", str(out)])
        d = json.loads(out.read_text())
        assert d["tutte_count"] == 54 and d["census_count"] == 54

    def test_fulfill_json(self, tmp_path, capsys):
        out = tmp_path / "f.json"
        run_ok(["diagrams", "fulfill", "--faces", "1", "--boundary", "0",
                "--ell", "10", "--density", "0.4", "--out", str(out)])
        d = json.loads(out.read_text())
        assert d["exponent"] == pytest.approx(-1.0)

    def test_stdout_mode(self, tmp_path, capsys):
        run_ok(["diagrams", "bound", "--faces", "2", "--ell", "5"])
        captured = capsys.readouterr()
        assert "log_bound" in captured.out

    def test_census_csv(self, tmp_path, capsys):
        out = tmp_path / "census.csv"
        run_ok(["diagrams", "census", "--max-n", "3", "--out", str(out)])
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "n,count,oracle_count"
        assert lines[1:] == ["1,2,2", "2,9,9", "3,54,54"]


class TestErrors:
    def test_usage_error_exit_code_two(self):
        with pytest.raises(SystemExit) as exc:
            cli.run(["sample", "--bogus-flag"])
        assert exc.value.code == 2

    def test_trivialize_has_no_threads_option(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.run(["trivialize", "--m", "2", "--ell", "10", "--num", "5", "--seed", "1",
                     "--threads", "4", "--out", str(tmp_path / "v.json")])
        assert exc.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            cli.run(["frobnicate"])
        assert exc.value.code == 2

    def test_main_maps_cli_error_to_exit_one(self, tmp_path, capsys, monkeypatch):
        argv = ["conditions", "--which", "star", "--k-expr", "threshold-k",
                "--f-expr", "zero:x=1", "--out", str(tmp_path / "x.csv")]
        assert run_main(monkeypatch, argv) == 1
        assert capsys.readouterr().err == "error: rate expression 'zero' takes no argument 'x'\n"

    def test_main_maps_value_error_to_exit_one(self, tmp_path, capsys, monkeypatch):
        # ModelParams raises a plain ValueError, not a CliError
        argv = ["sample", "--m", "1", "--ell", "4", "--num", "2", "--seed", "1",
                "--out", str(tmp_path / "x")]
        assert run_main(monkeypatch, argv) == 1
        assert capsys.readouterr().err == "error: m must be >= 2, got 1\n"

    @pytest.mark.parametrize("argv, message", [
        (["sample", "--m", "2", "--ell", "1000", "--density", "0.6543", "--seed", "1"],
         "relator count 3^654.3 must be finite and below 2^1024"),
        (["trivialize", "--m", "2", "--ell", "10", "--density", "inf", "--seed", "1"],
         "relator count 3^inf must be finite and below 2^1024"),
        (["pigeonhole", "--n", "0", "--q", "2", "--z", "4", "--trials", "10"],
         "n must be >= 1, got 0"),
        (["pigeonhole", "--n", "4", "--q", "2", "--z", "4", "--trials", "10", "--c", "1/0"],
         "--c 1/0 has a zero denominator"),
        # numbers past the float range, rejected before any float arithmetic reads them
        (["sample", "--m", "2", "--ell", str(BIG), "--density", "0.5", "--seed", "1"],
         f"m and ell must be below 2^1000, got m=2, ell={BIG}"),
        (["sample", "--m", "2", "--ell", str(BIG), "--density", "0.0", "--seed", "1"],
         f"m and ell must be below 2^1000, got m=2, ell={BIG}"),
        (["sample", "--m", "2", "--ell", str(BIG), "--f-expr", "zero", "--seed", "1"],
         f"evaluation needs ell >= 2 and below 2^1000, got {BIG}"),
        (["trivialize", "--m", "2", "--ell", str(BIG), "--density", "0.5", "--seed", "1"],
         f"m and ell must be below 2^1000, got m=2, ell={BIG}"),
        (["trivialize", "--m", "2", "--ell", str(BIG), "--f-expr", "zero", "--seed", "1"],
         f"evaluation needs ell >= 2 and below 2^1000, got {BIG}"),
        (["diagrams", "fulfill", "--faces", "2", "--boundary", "2", "--ell", str(BIG),
          "--density", "0.4"],
         f"ell must be >= 1 and below 2^1000, got {BIG}"),
        (["diagrams", "bound", "--faces", str(BIG), "--ell", "5"],
         "need F and ell >= 1 and below 2^1000"),
        (["conditions", "--which", "star", "--k-expr", "threshold-k", "--f-expr", "zero",
          "--ell-grid", "pow2:1023:1023"],
         f"evaluation needs ell >= 2 and below 2^1000, got {2**1023}"),
        # rate values past the float range
        (["conditions", "--which", "spade", "--k-expr", "const:1000000", "--ell-grid", "10"],
         "3^2000000 is far past the float range"),
        (["conditions", "--which", "spade", "--k-expr", "const:322"],
         "spade's coefficient for k = GrowthExpr(322) leaves the float range"),
        (["conditions", "--which", "spade", "--k-expr", FAST_K, "--ell-grid", "10"],
         "GrowthExpr(1.0*ell^400) leaves the float range at ell = 10"),
        (["conditions", "--which", "star", "--k-expr", FAST_K, "--f-expr", "zero",
          "--ell-grid", "100"],
         "GrowthExpr(1.0*ell^400) leaves the float range at ell = 100"),
        (["trivialize", "--m", "2", "--ell", "16", "--f-expr", FAST_K, "--seed", "1"],
         "GrowthExpr(1.0*ell^400) leaves the float range at ell = 16"),
        (["conditions", "--which", "asterisk", "--K-expr", "const:1e200", "--f-expr", "zero",
          "--ell-grid", "10"],
         f"asterisk with K = GrowthExpr({10**200}) leaves the float range"),
        (["conditions", "--which", "asterisk", "--K-expr", "family:alpha=-2,beta=0",
          "--f-expr", "zero", "--ell-grid", "pow2:600:600"],
         f"GrowthExpr(1.0*ell^2) leaves the float range at ell = {2**600}"),
        (["conditions", "--which", "star", "--k-expr", "family:alpha=-1,beta=0",
          "--f-expr", "const:1e400", "--ell-grid", "10"],
         f"GrowthExpr({10**400}) leaves the float range at ell = 10"),
        # m = 1 would take logs of base 2m - 1 = 1
        (["sample", "--m", "1", "--ell", "40", "--f-expr", FAST_K],
         "m must be >= 2, got 1"),
        (["conditions", "--which", "asterisk", "--m", "1", "--K-expr", "window-K",
          "--f-expr", "zero", "--ell-grid", "2"],
         "m must be >= 2, got 1"),
        (["diagrams", "bound", "--faces", "5", "--ell", "3", "--m", "1"],
         "m must be >= 2, got 1"),
        # star's symbolic sum of a float coefficient of k and an exact one of 2 ell f
        (["conditions", "--which", "star", "--k-expr", "family:alpha=-1,beta=0",
          "--f-expr", "const:1e308", "--ell-grid", "10"],
         f"star with k = GrowthExpr(1.0*ell^1) and f = GrowthExpr({10**308}) "
         "leaves the float range"),
        # an explicit --num never meets the relator count's bound on ell
        (["trivialize", "--m", "40", "--ell", str(BIG), "--num", "10"],
         f"m and ell must be below 2^1000, got m=40, ell={BIG}"),
    ], ids=["count-past-float-range", "infinite-density", "no-boxes", "c-zero-denominator",
            "sample-density-big-ell", "sample-zero-density-big-ell", "sample-f-expr-big-ell",
            "trivialize-density-big-ell", "trivialize-f-expr-big-ell", "fulfill-big-ell",
            "bound-big-faces", "star-ell-2-to-the-1023", "spade-power-far-past-float-range",
            "spade-coefficient-past-float-range", "spade-k-past-float-range",
            "star-k-past-float-range", "trivialize-f-past-float-range",
            "asterisk-exact-K-past-float-range", "asterisk-K-past-float-range",
            "star-f-past-float-range", "sample-f-expr-m-1", "asterisk-m-1", "bound-m-1",
            "star-exact-f-past-float-range", "trivialize-num-big-ell"])
    def test_arithmetic_domain_errors_exit_one(self, argv, message, tmp_path, capsys,
                                               monkeypatch):
        out = tmp_path / "x"
        assert run_main(monkeypatch, [*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        # the JSON text fails to build (Python's 4,300-digit int-to-str limit)
        ["diagrams", "tutte", "--n", "4000", "--out", "o"],
        # the log cannot be opened once the verdict is written
        [*TRIVIALIZE_12, "--out", "tr.json", "--log", "nodir/x.log"],
        # two outputs share a path
        [*TRIVIALIZE_12, "--out", "x", "--log", "x"],
        [*TRIVIALIZE_12, "--out", "x", "--log", "x.manifest.json"],
    ], ids=["tutte-int-to-str-limit", "log-in-missing-directory", "log-is-out",
            "log-is-manifest"])
    def test_failed_run_writes_nothing(self, argv, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_main(monkeypatch, argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not list(tmp_path.iterdir())

    def test_failed_write_leaves_a_link_in_place(self, tmp_path, capsys, monkeypatch):
        # the clean-up removes regular files only, never a link such as /dev/stdout
        monkeypatch.chdir(tmp_path)
        (tmp_path / "link.json").symlink_to("real.json")
        argv = [*TRIVIALIZE_12, "--out", "link.json", "--log", "nodir/x.log"]
        assert run_main(monkeypatch, argv) == 1
        assert (tmp_path / "link.json").is_symlink()

    def test_main_maps_soundness_error_to_exit_three(self, tmp_path, capsys, monkeypatch):
        def contradicted(*args, **kwargs):
            raise trivializer.SoundnessError("derived 'trivial' for an infinite group")

        monkeypatch.setattr(trivializer, "trivialize", contradicted)
        argv = ["trivialize", "--m", "2", "--ell", "10", "--num", "5", "--seed", "1",
                "--out", str(tmp_path / "v.json")]
        assert run_main(monkeypatch, argv) == 3
        assert capsys.readouterr().err == \
            "soundness error: derived 'trivial' for an infinite group\n"

    def test_guard_contradiction_exits_three(self, tmp_path, capsys, monkeypatch):
        # trivialize itself is left in place: its own guard call must raise
        monkeypatch.setattr(trivializer, "abelianization_guard",
                            lambda R: trivializer.CERTAINLY_NONTRIVIAL)
        argv = ["trivialize", "--m", "2", "--ell", "16", "--density", "0.55", "--seed", "0",
                "--out", str(tmp_path / "v.json")]
        assert run_main(monkeypatch, argv) == 3
        assert capsys.readouterr().err.startswith("soundness error: pipeline derived 'trivial'")

    def test_main_exits_zero_on_success(self, tmp_path, capsys, monkeypatch):
        argv = ["sample", "--m", "2", "--ell", "4", "--num", "2", "--seed", "1",
                "--out", str(tmp_path / "x")]
        assert run_main(monkeypatch, argv) == 0

    def test_domain_error_message(self, tmp_path):
        # num so large the letter budget trips
        with pytest.raises(words.ResourceLimitError):
            cli.run(["sample", "--m", "2", "--ell", "100", "--num", "10000000",
                     "--seed", "1", "--out", str(tmp_path / "x.txt")])


class TestConsoleScript:
    """The CI console-script step without an install: the README's trivialize and
    rerun pair through `python -m halfdensity.cli`, and the entry point that
    pyproject.toml names."""

    ROOT = Path(__file__).resolve().parent.parent

    def run_module(self, *argv, cwd):
        path = os.pathsep.join(filter(None, [str(self.ROOT / "src"),
                                             os.environ.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-m", "halfdensity.cli", *argv], cwd=cwd,
                              env={**os.environ, "PYTHONPATH": path}, capture_output=True,
                              text=True)

    def test_readme_pair_reruns_byte_identical(self, tmp_path):
        first = self.run_module("trivialize", "--m", "2", "--ell", "16", "--density", "0.55",
                                "--seed", "7", "--out", "verdict.json",
                                "--log", "derivation.txt", cwd=tmp_path)
        assert first.returncode == 0, first.stderr
        again = self.run_module("rerun", "--manifest", "verdict.json.manifest.json",
                                "--out", "verdict2.json", cwd=tmp_path)
        assert again.returncode == 0, again.stderr
        verdicts = [(tmp_path / name).read_bytes() for name in ("verdict.json", "verdict2.json")]
        assert verdicts[0] == verdicts[1]

    def test_bad_argv_exits_one_with_one_line(self, tmp_path):
        bad = self.run_module("sample", "--m", "1", "--ell", "4", "--num", "2", "--seed", "1",
                              "--out", "x", cwd=tmp_path)
        assert (bad.returncode, bad.stderr) == (1, "error: m must be >= 2, got 1\n")
        assert not list(tmp_path.iterdir())

    def test_pyproject_script_is_cli_main(self):
        tomllib = pytest.importorskip("tomllib")
        with open(self.ROOT / "pyproject.toml", "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["halfdensity"]
        module, _, attr = target.partition(":")
        assert getattr(importlib.import_module(module), attr) is cli.main
