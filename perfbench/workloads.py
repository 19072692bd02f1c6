"""The three benchmark workloads, their correctness gate and their spans.

Each workload is a closed loop with one caller.  An item is one unit of work
whose latency is recorded; items come in passes, and every pass of a workload
has the same composition, so a run that ends on a pass boundary measures the
same mix however fast the program is.

Layers are measured from outside, by timing calls into the public functions
of halfdensity.words, halfdensity.trivializer and halfdensity.pigeonhole.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from halfdensity import pigeonhole, trivializer, words
from halfdensity.rng import RandomSource

import planted

#: Child key of the seed's stream that warm-up items draw from; measured
#: items use keys (pass, position) with pass far below this.
WARMUP_KEY = 1 << 30


class Tracer:
    """Spans and counters kept in memory; a disabled tracer records nothing.

    A span is (name, item, start, end); every span of one item has the item's
    index, and the "item" span is the parent of the others that lie inside it.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list = []
        self.counts: Counter = Counter()

    def span(self, name: str, item: int):
        return _Span(self, name, item) if self.enabled else nullcontext()

    def count(self, name: str, value) -> None:
        if self.enabled:
            self.counts[name] += value

    def busy(self, name: str) -> float:
        """Total seconds inside spans called `name`."""
        return sum(end - start for n, _, start, end in self.spans if n == name)


class _Span:
    __slots__ = ("tracer", "name", "item", "start")

    def __init__(self, tracer, name, item):
        self.tracer, self.name, self.item = tracer, name, item

    def __enter__(self):
        self.start = perf_counter()

    def __exit__(self, *exc):
        self.tracer.spans.append((self.name, self.item, self.start, perf_counter()))
        return False


@dataclass
class ItemResult:
    ok: bool
    #: Digest of the verdict or success count, compared with the reference.
    fingerprint: object


def verdict_digest(verdict) -> str:
    """First 16 hex digits of the SHA-256 of the canonical verdict JSON."""
    text = json.dumps(verdict.to_json_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _pipeline_item(pres, cfg, tracer: Tracer, item: int):
    """trivialize, replay every certificate, guard a trivial verdict.

    Returns (verdict or None, ok).  A SoundnessError or a certificate that
    does not replay makes the item fail instead of ending the run.
    """
    try:
        with tracer.span("trivializer.trivialize", item):
            verdict = trivializer.trivialize(pres, cfg)
    except trivializer.SoundnessError as exc:
        print(f"item {item}: SoundnessError: {exc}", file=sys.stderr)
        return None, False
    ok = True
    for cert in verdict.certificates:
        try:
            with tracer.span("trivializer.replay", item):
                replayed = trivializer.check_certificate(pres, cert)
        except trivializer.CertificateError as exc:
            print(f"item {item}: CertificateError: {exc}", file=sys.stderr)
            replayed = False
        ok = ok and replayed
    if verdict.outcome == trivializer.OUTCOME_TRIVIAL:
        with tracer.span("trivializer.guard", item):
            guard = trivializer.abelianization_guard(pres)
        tracer.count("trivializer.guard_calls", 1)
        ok = ok and guard == trivializer.POSSIBLY_TRIVIAL
    return verdict, ok


def _count_verdict(tracer: Tracer, pres, verdict) -> None:
    if not tracer.enabled:
        return
    tracer.count("trivializer.items", 1)
    tracer.count("trivializer.relators", len(pres.relators))
    if verdict is None:
        return
    for key, value in verdict.stats.to_json_dict().items():
        tracer.count(f"trivializer.{key}", value)
    tracer.count("trivializer.trivial", int(verdict.outcome == trivializer.OUTCOME_TRIVIAL))
    tracer.count("trivializer.cert_steps", sum(len(c.steps) for c in verdict.certificates))


def _reduce_pass(tracer: Tracer, relators, w, cfg, item: int) -> None:
    """Traced only: reduce_relator on every relator with a full block, as in round 1."""
    hosts = [r for r in relators if cfg.block_count_for(len(r)) >= 1]
    with tracer.span("trivializer.reduce", item):
        for r in hosts:
            trivializer.reduce_relator(r, w, cfg)


def _payload_bytes(pres) -> int:
    """Bytes of the arrays and word containers a Presentation holds."""
    total = 0
    for value in vars(pres).values():
        if isinstance(value, np.ndarray):
            total += value.nbytes
        elif isinstance(value, (list, tuple)):
            total += sys.getsizeof(value) + sum(sys.getsizeof(x) for x in value)
    return total


def spread_order(n: int) -> list:
    """A fixed order of range(n) that scatters neighbouring indices over a pass.

    The grids list inputs of similar cost next to each other; in this order
    (a golden-ratio stride) the items near any latency percentile run at many
    moments of a pass, so a stretch of slow machine time moves the
    percentile less.
    """
    stride = round(0.618 * n)
    while math.gcd(stride, n) != 1:
        stride += 1
    return [i * stride % n for i in range(n)]


def soundness_grid(max_letters: int = 4_000_000) -> list:
    """The a04 grid: m in {2,3}, ell 8..24, density in {0.45,0.5,0.55}, num*ell <= 4M."""
    return [
        p
        for m in (2, 3)
        for ell in range(8, 25)
        for density in (0.45, 0.5, 0.55)
        for p in [words.ModelParams.from_density(m, ell, density)]
        if p.num * ell <= max_letters
    ]


class Sweep:
    """Seeded round-robin passes over the a04 grid; sampling is part of each item.

    No relator on the grid has a full reduction block (block_count == 0 at
    every ell <= 24), so the reduction stage is inert here: a change to it
    should show no change on this workload.
    """

    name = "sweep"

    def __init__(self, seed: int):
        self.seed = seed
        self.grid = soundness_grid()
        self.order = spread_order(len(self.grid))
        for m in (2, 3):
            params = next(p for p in self.grid if p.m == m)
            pres = words.sample_presentation(params, RandomSource(seed).child(WARMUP_KEY))
            _pipeline_item(pres, None, Tracer(False), -1)

    @property
    def pass_size(self) -> int:
        return len(self.grid)

    def input_id(self, item: int) -> int:
        return item

    def run(self, item: int, tracer: Tracer) -> ItemResult:
        combo = self.order[item % self.pass_size]
        params = self.grid[combo]
        src = RandomSource(self.seed).child(item // self.pass_size).child(combo)
        with tracer.span("item", item):
            with tracer.span("words.sample", item):
                pres = words.sample_presentation(params, src)
            verdict, ok = _pipeline_item(pres, None, tracer, item)
        if tracer.enabled:
            with tracer.span("words.kernel", item):
                words.sample_relator_matrix(params.m, params.ell, params.num, src)
            tracer.count("words.letters", params.num * params.ell)
            tracer.count("words.computed_bytes", _payload_bytes(pres))
            _count_verdict(tracer, pres, verdict)
            if verdict is not None:
                # No relator on the grid has a full block, so the pass has no
                # host, whichever trivial word w of length 2k it is given.
                w = (1, 2) * verdict.config.k
                _reduce_pass(tracer, pres.relators, w, verdict.config, item)
        return ItemResult(ok, verdict_digest(verdict) if verdict is not None else None)


class Planted:
    """Presentations from planted.py, built at set-up and cycled through.

    Their background sizes step from 500 to 1700 relators, so item latencies
    spread over a range wider than the machine's own swings.

    The only workload that runs the reduction stage, the ragged (non-matrix)
    tail grouping, more than one round, and certificates with reduction
    steps.
    """

    name = "planted"
    POOL = 16

    def __init__(self, seed: int):
        self.cfg = planted.config()
        self.pool = [planted.planted_relators(seed, i, 500 + 80 * j)
                     for i, j in enumerate(spread_order(self.POOL))]
        verdict, ok = _pipeline_item(words.Presentation(planted.M, self.pool[0]), self.cfg,
                                     Tracer(False), -1)
        if verdict is None or not ok:
            raise RuntimeError("planted set-up: the first presentation fails the gate")
        if verdict.stats.reductions_applied == 0:
            raise RuntimeError("planted set-up: the reduction stage applied no reduction")
        if not any(isinstance(s, trivializer.ReductionStep)
                   for c in verdict.certificates for s in c.steps):
            raise RuntimeError("planted set-up: no certificate holds a ReductionStep")

    @property
    def pass_size(self) -> int:
        return self.POOL

    def input_id(self, item: int) -> int:
        return item % self.POOL

    def run(self, item: int, tracer: Tracer) -> ItemResult:
        relators = self.pool[item % self.POOL]
        with tracer.span("item", item):
            pres = words.Presentation(planted.M, relators)
            verdict, ok = _pipeline_item(pres, self.cfg, tracer, item)
        if tracer.enabled:
            _count_verdict(tracer, pres, verdict)
            _reduce_pass(tracer, pres.relators, planted.W1, self.cfg, item)
        return ItemResult(ok, verdict_digest(verdict) if verdict is not None else None)


@dataclass(frozen=True)
class _Cell:
    kind: str
    cfg: object = None
    bound: float | None = None
    k: int = 0


class MonteCarlo:
    """coincidence_simulate over the criterion-3 grid, plus planted_reduction_rate.

    Uniform cells make large q*z draws; geometric cells concentrate the balls
    in a few boxes; the planted-rate scan samples long blocks.  Neither word
    conversion nor trivialize runs here.
    """

    name = "montecarlo"
    TRIALS = pigeonhole.CHUNK_TRIALS
    PLANTED_BLOCKS = {2: 8192, 3: 1024}

    def __init__(self, seed: int):
        self.seed = seed
        self.cells = []
        for q in (2, 3):
            for n in (16, 64, 256):
                z0 = math.ceil(2 * n ** (1 - 1 / q))
                for z in (z0, 2 * z0, 4 * z0):
                    for kind in ("uniform", "geometric"):
                        cfg = getattr(pigeonhole.PigeonholeConfig, kind)(n, q, z)
                        bound = pigeonhole.coincidence_bound(cfg) if cfg.hypothesis_met else None
                        self.cells.append(_Cell(kind, cfg, bound))
        self.cells += [_Cell("planted_rate", k=k) for k in self.PLANTED_BLOCKS]
        self.order = spread_order(len(self.cells))
        warm = RandomSource(seed).child(WARMUP_KEY)
        pigeonhole.coincidence_simulate(self.cells[0].cfg, 64, warm, threads=1)
        trivializer.planted_reduction_rate(2, 2, 64, warm)

    @property
    def pass_size(self) -> int:
        return len(self.cells)

    def input_id(self, item: int) -> int:
        return item

    def run(self, item: int, tracer: Tracer) -> ItemResult:
        position = self.order[item % self.pass_size]
        cell = self.cells[position]
        src = RandomSource(self.seed).child(item // self.pass_size).child(position)
        if cell.kind == "planted_rate":
            blocks = self.PLANTED_BLOCKS[cell.k]
            with tracer.span("item", item), tracer.span("trivializer.planted_rate", item):
                rate, se = trivializer.planted_reduction_rate(cell.k, 2, blocks, src)
            tracer.count("trivializer.planted_blocks", blocks)
            # Criterion 6: the per-block rate exceeds 1/4 within 3 stderr.
            return ItemResult(rate > 0.25 - 3 * se, round(rate * blocks))
        cfg = cell.cfg
        with tracer.span("item", item), tracer.span(f"pigeonhole.{cell.kind}", item):
            sim = pigeonhole.coincidence_simulate(cfg, self.TRIALS, src, threads=1)
        tracer.count("pigeonhole.trials", self.TRIALS)
        # float64 uniforms and int64 box indices per ball, one bool per (color, box)
        tracer.count("pigeonhole.computed_bytes",
                     self.TRIALS * cfg.q * (16 * cfg.z + cfg.n))
        # Criterion 3: the estimate clears the bound by 3 stderr wherever it applies.
        ok = cell.bound is None or sim.estimate - 3 * sim.stderr >= cell.bound
        return ItemResult(ok, sim.successes)


WORKLOADS = {w.name: w for w in (Sweep, Planted, MonteCarlo)}


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics from a traced run: name -> (value, unit)."""
    c = tracer.counts
    busy = tracer.busy
    items = sum(1 for s in tracer.spans if s[0] == "item")
    item_s = busy("item")
    uniform_s, geometric_s = busy("pigeonhole.uniform"), busy("pigeonhole.geometric")
    trivialized = c["trivializer.items"]
    return {
        "words.sample_s": (busy("words.sample"), "s"),
        "words.kernel_s": (busy("words.kernel"), "s"),
        "words.convert_s": (busy("words.sample") - busy("words.kernel"), "s"),
        "words.letters": (c["words.letters"], "count"),
        "words.computed_bytes": (c["words.computed_bytes"], "bytes"),
        "trivializer.trivialize_s": (busy("trivializer.trivialize"), "s"),
        "trivializer.relators": (c["trivializer.relators"], "count"),
        "trivializer.rounds": (c["trivializer.rounds"], "count"),
        "trivializer.collisions_found": (c["trivializer.collisions_found"], "count"),
        "trivializer.reductions_applied": (c["trivializer.reductions_applied"], "count"),
        "trivializer.letters_removed": (c["trivializer.letters_removed"], "count"),
        "trivializer.equality_edges": (c["trivializer.equality_edges"], "count"),
        "trivializer.trivial_fraction": (
            c["trivializer.trivial"] / trivialized if trivialized else 0.0, "ratio"),
        "trivializer.reduce_s": (busy("trivializer.reduce"), "s"),
        "trivializer.replay_s": (busy("trivializer.replay"), "s"),
        "trivializer.cert_steps": (c["trivializer.cert_steps"], "count"),
        "trivializer.guard_s": (busy("trivializer.guard"), "s"),
        "trivializer.guard_calls": (c["trivializer.guard_calls"], "count"),
        "trivializer.planted_rate_s": (busy("trivializer.planted_rate"), "s"),
        "trivializer.planted_blocks": (c["trivializer.planted_blocks"], "count"),
        "pigeonhole.simulate_s": (uniform_s + geometric_s, "s"),
        "pigeonhole.trials": (c["pigeonhole.trials"], "count"),
        "pigeonhole.uniform_s": (uniform_s, "s"),
        "pigeonhole.geometric_s": (geometric_s, "s"),
        "pigeonhole.computed_bytes": (c["pigeonhole.computed_bytes"], "bytes"),
        "trace.items": (items, "count"),
        "trace.items_per_s": (items / item_s if item_s else 0.0, "1/s"),
    }
