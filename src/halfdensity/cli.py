"""Command-line entry point wiring all modules.

Subcommands: sample, trivialize, verify-dist, pigeonhole, diagrams,
conditions, phase-map, plus rerun (re-execute a recorded manifest).  Every
output file embeds the digest of its manifest, and every run writes
<out>.manifest.json next to its output, once every text is built.
Randomized runs with no --seed draw one from the OS and record it; there is
deliberately no environment-variable seed fallback.  Exit codes: 0 success,
1 domain, 2 usage, 3 soundness error.

Each command parses argv into a flat "recorded" parameter dict and then
executes from that dict alone, so rerun reproduces outputs byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import secrets
import sys
import time
from collections import Counter
from fractions import Fraction

from . import __version__, diagrams, distribution, pigeonhole, thresholds, trivializer, words
from .manifest import RunManifest, json_text, manifest_digest, now_utc
from .rng import RandomSource


class CliError(ValueError):
    """Domain-level failure reported with exit code 1."""


# ---------------------------------------------------------------------------
# small parsers


def _family(alpha, beta, c0="1.0") -> thresholds.GrowthExpr:
    c0 = float(c0)
    if not math.isfinite(c0):
        raise ValueError(f"c0 must be finite, got {c0}")
    return thresholds.family(Fraction(alpha), Fraction(beta), c0)


#: Each rate expression's builder and the argument keys it takes (rational alpha,
#: beta and cprime, finite c0); None: the bare rational value after the colon.
_RATES = {
    "zero": (thresholds.GrowthExpr, ()),
    "trivial-threshold": (thresholds.trivial_threshold_f, ()),
    "hyperbolic-threshold": (thresholds.hyperbolic_threshold_f, ()),
    "threshold-k": (thresholds.threshold_head_k, ()),
    "window-K": (lambda cprime="1": thresholds.hyperbolic_window_K(Fraction(cprime)),
                 ("cprime",)),
    "delta-K": (thresholds.delta_hyperbolic_window_K, ()),
    "const": (lambda value: thresholds.GrowthExpr.constant(Fraction(value)), None),
    "family": (_family, ("alpha", "beta", "c0")),
}


def parse_rate_expr(spec: str) -> thresholds.GrowthExpr:
    """The rate 'name[:key=value,...]' of --f-expr / --k-expr / --K-expr, name in _RATES.

    A key that the name does not take, or a repeated key, is an error.
    """
    name, _, argstr = spec.partition(":")
    if name not in _RATES:
        raise CliError(f"unknown rate expression {spec!r}")
    build, keys = _RATES[name]
    kwargs = {}
    if argstr and keys is not None:
        for part in argstr.split(","):
            key, _, val = part.partition("=")
            key = key.strip()
            if not val:
                raise CliError(f"malformed rate expression argument {part!r}")
            if key not in keys:
                raise CliError(f"rate expression {name!r} takes no argument {key!r}")
            if key in kwargs:
                raise CliError(f"rate expression {name!r} repeats argument {key!r}")
            kwargs[key] = val.strip()
    try:
        return build(argstr) if keys is None else build(**kwargs)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise CliError(f"cannot parse rate expression {spec!r}: {exc}") from None


def parse_ell_grid(spec: str) -> list:
    """Either 'pow2:LO:HI' for powers of two or a comma list of integers."""
    if spec.startswith("pow2:"):
        try:
            _, lo, hi = spec.split(":")
            lo_i, hi_i = int(lo), int(hi)
        except ValueError:
            raise CliError(f"malformed ell grid {spec!r}") from None
        if not 0 <= lo_i <= hi_i:
            raise CliError(f"malformed ell grid {spec!r}")
        return [2**j for j in range(lo_i, hi_i + 1)]
    try:
        grid = [int(p) for p in spec.split(",") if p]
    except ValueError:
        raise CliError(f"malformed ell grid {spec!r}") from None
    if not grid:
        raise CliError(f"empty ell grid {spec!r}")
    return grid


def parse_grid_range(spec: str) -> list:
    try:
        start, stop, step = spec.split(":")
        return thresholds.grid_range(Fraction(start), Fraction(stop), Fraction(step))
    except (ValueError, ZeroDivisionError):
        raise CliError(f"malformed grid range {spec!r}; expected start:stop:step") from None


#: The params keys _model_recorded writes, under any of --density, --f-expr and --num.
_MODEL_KEYS = frozenset({"m", "ell", "num", "density", "f", "num_spec", "density_arg",
                         "f_expr", "f_value"})


def _model_recorded(args) -> dict:
    """Materialize ModelParams from --density/--f-expr/--num into a recorded dict."""
    chosen = [n for n in ("density", "f_expr", "num") if getattr(args, n) is not None]
    if len(chosen) != 1:
        raise CliError("exactly one of --density, --f-expr, --num is required")
    if args.num is not None:
        params = words.ModelParams(args.m, args.ell, args.num)
        spec = {"num_spec": "explicit"}
    elif args.density is not None:
        params = words.ModelParams.from_density(args.m, args.ell, args.density)
        spec = {"num_spec": "density", "density_arg": args.density}
    else:
        f_val = parse_rate_expr(args.f_expr).evaluate(args.ell, args.m)
        params = words.ModelParams.from_f(args.m, args.ell, f_val)
        spec = {"num_spec": "f-expr", "f_expr": args.f_expr, "f_value": f_val}
    return {"m": params.m, "ell": params.ell, "num": params.num,
            "density": params.density, "f": params.f, **spec}


def _resolve_seed(args) -> int | None:
    """--seed, else one drawn from the OS; None for subcommands without --seed."""
    if not hasattr(args, "seed"):
        return None
    if args.seed is not None:
        return args.seed
    return secrets.randbits(63)


# ---------------------------------------------------------------------------
# output helpers


def _csv_text(digest: str, header: list, rows: list, preamble=()) -> str:
    fh = io.StringIO()
    for line in ["format_version=1", f"manifest_digest={digest}", *preamble]:
        fh.write(f"# {line}\n")
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return fh.getvalue()


# ---------------------------------------------------------------------------
# executors: run purely from (recorded params, seed, out), write nothing, and
# return (message, out text[, log text]); digest is the manifest digest of
# (subcommand, recorded, seed) that every output embeds


def _sample(recorded, seed) -> words.Presentation:
    """The presentation of the recorded model that sample and trivialize draw from seed."""
    params = words.ModelParams(recorded["m"], recorded["ell"], recorded["num"])
    return words.sample_presentation(params, RandomSource(seed).child(0),
                                     max_letters=recorded["max_letters"])


def _exec_sample(recorded, seed, out, digest) -> tuple:
    lines = words.presentation_to_text(_sample(recorded, seed)).split("\n")
    lines.insert(1, f"# manifest_digest={digest}")
    return f"sample: wrote {recorded['num']} relators to {out}", "\n".join(lines)


def _exec_trivialize(recorded, seed, out, digest) -> tuple:
    cfg = trivializer.TrivializerConfig(
        m=recorded["m"], ell=recorded["ell"], k=recorded["k"], max_rounds=recorded["max_rounds"]
    )
    verdict = trivializer.trivialize(_sample(recorded, seed), cfg)
    payload = {
        "format_version": 1,
        "manifest_digest": digest,
        "seed": seed,
        "model": {k: recorded[k] for k in ("m", "ell", "num", "density", "f")},
        **verdict.to_json_dict(),
    }
    log = "".join([f"# manifest_digest={digest}\n",
                   *(cert.describe() + "\n\n" for cert in verdict.certificates)])
    return (f"trivialize: outcome={verdict.outcome} "
            f"certificates={len(verdict.certificates)} -> {out}", json_text(payload), log)


def _exec_verify_dist(recorded, seed, out, digest) -> tuple:
    m, n, samples = recorded["m"], recorded["n"], recorded["samples"]
    counts = distribution.sample_relation_counts(m, n, samples,
                                                 RandomSource(seed).child(0))
    exact = distribution.relation_totals(m, n)
    oracle = distribution.letter_law_oracle(m, n)
    oracle_totals = {"same": oracle["same"], "inverse": oracle["inverse"],
                     "other": (2 * m - 2) * oracle["other"]}
    rows = []
    for rel in ("same", "inverse", "other"):
        p = float(exact[rel])
        emp = counts[rel] / samples
        se = (p * (1 - p) / samples) ** 0.5
        z = (emp - p) / se if se else 0.0
        rows.append([rel, str(exact[rel]), str(oracle_totals[rel]),
                     f"{emp:.8f}", f"{z:+.4f}"])
    return (f"verify-dist: m={m} n={n} -> {out}",
            _csv_text(digest, ["relation", "exact", "oracle", "empirical", "zscore"], rows))


def _exec_pigeonhole(recorded, seed, out, digest, threads=1) -> tuple:
    try:
        c = Fraction(recorded["c"]) if recorded["c"] else None
    except ZeroDivisionError:
        raise CliError(f"--c {recorded['c']} has a zero denominator") from None
    makers = {"uniform": pigeonhole.PigeonholeConfig.uniform,
              "geometric": pigeonhole.PigeonholeConfig.geometric}
    if recorded["mu"] not in makers:
        raise CliError(f"unknown measure {recorded['mu']!r}")
    cfg = makers[recorded["mu"]](recorded["n"], recorded["q"], recorded["z"], c)
    result = pigeonhole.coincidence_simulate(cfg, recorded["trials"],
                                             RandomSource(seed).child(0), threads=threads)
    bound = pigeonhole.coincidence_bound(cfg) if cfg.hypothesis_met else None
    try:
        exact_str = str(pigeonhole.coincidence_exact(cfg))
    except words.ResourceLimitError:
        exact_str = None
    payload = {
        "format_version": 1,
        "manifest_digest": digest,
        "seed": seed,
        "n": cfg.n, "q": cfg.q, "z": cfg.z, "mu": recorded["mu"], "c": str(cfg.c),
        "hypothesis_met": cfg.hypothesis_met,
        "trials": recorded["trials"],
        "estimate": result.estimate,
        "stderr": result.stderr,
        "bound": bound,
        "exact": exact_str,
    }
    return (f"pigeonhole: estimate={result.estimate:.6f} bound={bound} -> {out}",
            json_text(payload))


def _exec_diagrams(recorded, seed, out, digest) -> tuple:
    sub = recorded["diagram_cmd"]
    if sub == "census":
        rows = [[n, diagrams.tutte_count(n), diagrams.enumerate_rooted_maps(n)]
                for n in range(1, recorded["max_n"] + 1)]
        return (f"diagrams census: n <= {recorded['max_n']} -> {out}",
                _csv_text(digest, ["n", "count", "oracle_count"], rows))
    if sub == "tutte":
        payload = {"n": recorded["n"], "tutte_count": diagrams.tutte_count(recorded["n"])}
        if recorded["with_census"]:
            payload["census_count"] = diagrams.enumerate_rooted_maps(recorded["n"])
    elif sub == "bound":
        b = diagrams.log_diagram_bound(recorded["faces"], recorded["ell"], recorded["m"])
        payload = {"faces": recorded["faces"], "ell": recorded["ell"], "m": recorded["m"],
                   "log_bound": b.log_bound, "asymptotic": b.asymptotic}
    elif sub == "fulfill":
        stats = diagrams.DiagramStats(recorded["faces"], recorded["boundary"],
                                      recorded["ell"])
        params = words.ModelParams.from_density(recorded["m"], recorded["ell"],
                                                recorded["density"])
        payload = {"faces": recorded["faces"], "boundary": recorded["boundary"],
                   "ell": recorded["ell"], "m": recorded["m"],
                   "density": recorded["density"], "num": params.num,
                   "exponent": diagrams.fulfillability_bound(stats, params)}
    else:
        raise CliError(f"unknown diagrams subcommand {sub!r}")
    text = json_text({"format_version": 1, "manifest_digest": digest, **payload})
    return (f"diagrams {sub}: -> {out}" if out else text[:-1]), text


#: Each condition's function and the rate flags it reads, in argument order.
_CONDITIONS = {
    "star": (thresholds.star_condition, ("k_expr", "f_expr")),
    "spade": (thresholds.spade_condition, ("k_expr",)),
    "asterisk": (thresholds.asterisk_condition, ("K_expr", "f_expr")),
}


def _exec_conditions(recorded, seed, out, digest) -> tuple:
    grid = parse_ell_grid(recorded["ell_grid"])
    which = recorded["which"]
    if which not in _CONDITIONS:
        raise CliError(f"unknown condition {which!r}")
    condition, flags = _CONDITIONS[which]
    if not all(recorded[flag] for flag in flags):
        raise CliError(f"{which} needs "
                       + " and ".join("--" + flag.replace("_", "-") for flag in flags))
    rates = [parse_rate_expr(recorded[flag]) for flag in flags]
    report = condition(*rates, grid, recorded["m"])
    preamble = [f"condition={report.condition}", f"verdict={report.verdict}"]
    if report.symbolic is not None:
        preamble.append(f"symbolic={report.symbolic!r}")
    if report.heuristic:  # the label of an indeterminate verdict
        preamble.append(f"heuristic={report.heuristic}")
    rows = [[ell, f"{val:.12g}"] for ell, val in report.trace]
    return (f"conditions: {report.condition} verdict={report.verdict} -> {out}",
            _csv_text(digest, ["ell", "value"], rows, preamble))


def _exec_phase_map(recorded, seed, out, digest) -> tuple:
    alphas = parse_grid_range(recorded["alpha"])
    betas = parse_grid_range(recorded["beta"])
    cells = thresholds.phase_map(alphas, betas, recorded["coeff"])
    rows = [[f"{float(c.alpha):.6g}", f"{float(c.beta):.6g}", c.outcome, c.clause]
            for c in cells]
    return (f"phase-map: {dict(Counter(c.outcome for c in cells))} -> {out}",
            _csv_text(digest, ["alpha", "beta", "verdict", "clause"], rows))


_EXECUTORS = {
    "sample": _exec_sample,
    "trivialize": _exec_trivialize,
    "verify-dist": _exec_verify_dist,
    "pigeonhole": _exec_pigeonhole,
    "diagrams": _exec_diagrams,
    "conditions": _exec_conditions,
    "phase-map": _exec_phase_map,
}


def _run(subcommand, recorded, seed, out, threads=1, log=None) -> int:
    """Execute from the recorded params, then write out, log and the manifest
    beside out; no file is opened until every text is built, outputs may not
    share a path, and an OSError removes the files this run has written.

    threads reaches only the pigeonhole executor, the one subcommand that
    splits its work; log is the path of trivialize's derivation log, if wanted.
    """
    if threads < 1:
        raise CliError(f"threads must be >= 1, got {threads}")
    t0 = time.monotonic()
    digest = manifest_digest(subcommand, recorded, seed)
    extra = {"threads": threads} if subcommand == "pigeonhole" else {}
    message, *texts = _EXECUTORS[subcommand](recorded, seed, out, digest, **extra)
    files = [(str(path), text) for path, text in zip([out, log], texts) if path]
    if files:
        man = RunManifest(
            subcommand=subcommand,
            params=recorded,
            seed=seed,
            threads=threads,
            outputs=[path for path, _ in files],
            tool_version=__version__,
            created_utc=now_utc(),
            wall_clock_s=round(time.monotonic() - t0, 6),
        )
        files.append((f"{out}.manifest.json", json_text(man.to_json_dict())))
    if len({os.path.realpath(path) for path, _ in files}) < len(files):
        raise CliError("outputs share a path: " + ", ".join(path for path, _ in files))
    written = []
    try:
        for path, text in files:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                written.append(path)
                fh.write(text)
    except OSError:
        for path in written:
            if os.path.isfile(path) and not os.path.islink(path):  # not /dev/stdout
                os.remove(path)
        raise
    print(message)
    return 0


# ---------------------------------------------------------------------------
# argv handling


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--m", type=int, required=True, help="generator count (>= 2)")
    p.add_argument("--ell", type=int, required=True, help="relator length")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--density", type=float, help="generalized density D")
    g.add_argument("--f-expr", dest="f_expr", help="rate expression for f; D = 1/2 - f(ell)")
    g.add_argument("--num", type=int, help="explicit relator count")
    p.add_argument("--max-letters", type=int, default=words.DEFAULT_MAX_LETTERS,
                   help="sampling memory budget in letters")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="halfdensity",
        description="Random group presentations at density one-half.",
    )
    top.add_argument("--version", action="version", version=f"halfdensity {__version__}")
    sub = top.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("sample", help="sample a presentation to a text file")
    _add_model_args(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)

    p = sub.add_parser("trivialize", help="run the triviality pipeline")
    _add_model_args(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--k-override", dest="k_override", type=int)
    p.add_argument("--max-rounds", dest="max_rounds", type=int, default=1)
    p.add_argument("--out", required=True)
    p.add_argument("--log", help="also write a human-readable derivation log")

    p = sub.add_parser("verify-dist", help="letter-distribution table as CSV")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)

    p = sub.add_parser("pigeonhole", help="coincidence simulation vs bound as JSON")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--z", type=int, required=True)
    p.add_argument("--mu", choices=("uniform", "geometric"), default="uniform")
    p.add_argument("--c", help="bound constant as a fraction, default 2^-(q+2)")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out", required=True)

    p = sub.add_parser("diagrams", help="diagram counting and bounds")
    dsub = p.add_subparsers(dest="diagram_cmd", required=True)
    d = dsub.add_parser("tutte")
    d.add_argument("--n", type=int, required=True)
    d.add_argument("--with-census", dest="with_census", action="store_true")
    d.add_argument("--out")
    d = dsub.add_parser("bound")
    d.add_argument("--faces", type=int, required=True)
    d.add_argument("--ell", type=int, required=True)
    d.add_argument("--m", type=int, default=2)
    d.add_argument("--out")
    d = dsub.add_parser("fulfill")
    d.add_argument("--faces", type=int, required=True)
    d.add_argument("--boundary", type=int, required=True)
    d.add_argument("--ell", type=int, required=True)
    d.add_argument("--density", type=float, required=True)
    d.add_argument("--m", type=int, default=2)
    d.add_argument("--out")
    d = dsub.add_parser("census")
    d.add_argument("--max-n", dest="max_n", type=int, default=3)
    d.add_argument("--out", required=True)

    p = sub.add_parser("conditions", help="condition traces as CSV")
    p.add_argument("--which", choices=_CONDITIONS, required=True)
    p.add_argument("--k-expr", dest="k_expr")
    p.add_argument("--K-expr", dest="K_expr")
    p.add_argument("--f-expr", dest="f_expr")
    p.add_argument("--ell-grid", dest="ell_grid", default="pow2:10:40")
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--out", required=True)

    p = sub.add_parser("phase-map", help="classify the (alpha, beta) grid to CSV")
    p.add_argument("--alpha", default="0:1.5:0.05")
    p.add_argument("--beta", default="-1:2:0.05")
    p.add_argument("--coeff", type=float, default=1.0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("rerun", help="re-execute a recorded manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--threads", type=int, help="default: the manifest's threads")

    return top


def _merge_dash_values(argv: list) -> list:
    """Join option values that start with '-' (e.g. --beta -1:2:0.05)."""
    out = []
    for a in argv:
        if out and out[-1] in ("--beta", "--alpha") and a.startswith("-"):
            out[-1] += "=" + a
        else:
            out.append(a)
    return out


#: Parsed arguments that steer a run without entering its recorded params.
_RUN_ONLY = ("subcommand", "seed", "out", "threads", "log")


def _recorded_keys(parser: argparse.ArgumentParser, sub: str) -> set:
    """Every params key run records for subcommand sub, whatever its options.

    sample and trivialize record their materialized model; the others record
    their parsed options (for diagrams, those of every diagram command) less
    the run-only ones.
    """
    if sub in ("sample", "trivialize"):
        return _MODEL_KEYS | {"max_letters"} | ({"k", "max_rounds"} if sub == "trivialize"
                                                else set())
    (subcommands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    keys, todo = set(), [subcommands.choices[sub]]
    while todo:
        for action in todo.pop()._actions:
            keys.add(action.dest)
            if isinstance(action, argparse._SubParsersAction):
                todo += action.choices.values()
    return keys - set(_RUN_ONLY) - {"help"}


def run(argv=None) -> int:
    """Parse argv and execute; returns the process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(_merge_dash_values(list(argv)))
    sub = args.subcommand

    if sub == "rerun":
        man = RunManifest.read(args.manifest)
        if man.subcommand not in _EXECUTORS:
            raise CliError(f"manifest has unknown subcommand {man.subcommand!r}")
        if isinstance(man.params, dict):
            unknown = sorted(set(man.params) - _recorded_keys(parser, man.subcommand))
            if unknown:
                raise CliError(f"manifest {args.manifest} has params that "
                               f"{man.subcommand} never records: {', '.join(unknown)}")
        threads = man.threads if args.threads is None else args.threads
        try:
            return _run(man.subcommand, man.params, man.seed, args.out, threads=threads)
        except (KeyError, TypeError) as exc:
            raise CliError(f"manifest {args.manifest} has malformed params: {exc!r}") from None

    recorded = {key: val for key, val in vars(args).items() if key not in _RUN_ONLY}
    if sub in ("sample", "trivialize"):
        recorded = {**_model_recorded(args), "max_letters": args.max_letters}
    if sub == "trivialize":
        cfg = trivializer.TrivializerConfig.for_params(
            args.m, args.ell, k=args.k_override, max_rounds=args.max_rounds
        )
        recorded.update({"k": cfg.k, "max_rounds": cfg.max_rounds})
    return _run(sub, recorded, _resolve_seed(args), args.out,
                threads=getattr(args, "threads", 1), log=getattr(args, "log", None))


def main() -> None:
    try:
        sys.exit(run())
    except SystemExit:
        raise
    except trivializer.SoundnessError as exc:
        print(f"soundness error: {exc}", file=sys.stderr)
        sys.exit(3)
    except (CliError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
