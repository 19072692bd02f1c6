"""Run manifests: the recorded state that reproduces a CLI run.

The digest covers exactly (subcommand, params, seed) in canonical JSON;
wall-clock and output paths are informational and excluded, so re-running
from a manifest yields byte-identical output files.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass, field, fields

from .rng import RNG_ALGORITHM

FORMAT_VERSION = 1


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def json_text(payload) -> str:
    """payload as the JSON text of every output file: sorted keys, indent 2, trailing newline."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def manifest_digest(subcommand: str, params: dict, seed: int | None) -> str:
    payload = canonical_json({"subcommand": subcommand, "params": params, "seed": seed})
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class RunManifest:
    subcommand: str
    params: dict
    seed: int | None
    threads: int = 1
    outputs: list = field(default_factory=list)
    tool_version: str = ""
    rng_algorithm: str = RNG_ALGORITHM
    created_utc: str = ""
    wall_clock_s: float = 0.0

    @property
    def digest(self) -> str:
        return manifest_digest(self.subcommand, self.params, self.seed)

    def to_json_dict(self) -> dict:
        return {**asdict(self), "format_version": FORMAT_VERSION, "digest": self.digest}

    @classmethod
    def read(cls, path) -> "RunManifest":
        """Load a manifest; ValueError names the field that is missing or edited."""
        with open(path, encoding="utf-8") as fh:
            d = json.load(fh)
        if not isinstance(d, dict):
            raise ValueError(f"manifest {path} is not a JSON object")
        for key in ("subcommand", "params", "seed"):
            if key not in d:
                raise ValueError(f"manifest {path} has no {key!r} field")
        threads = d.get("threads", 1)
        if type(threads) is not int or threads < 1:
            raise ValueError(f"manifest {path} 'threads' must be an int >= 1, got {threads!r}")
        man = cls(**{f.name: d[f.name] for f in fields(cls) if f.name in d})
        if d.get("digest") != man.digest:
            raise ValueError(f"manifest {path} 'digest' does not match its "
                             "subcommand, params and seed")
        return man


def now_utc() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
