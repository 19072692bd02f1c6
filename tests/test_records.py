"""The committed benchmark records at the repository root."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
#: What every BENCH_*.json must name about the host it was measured on.
ENV_KEYS = ("nproc", "python", "numpy")


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_bench_record_names_its_host(path):
    record = json.loads(path.read_text())
    # the keys sit at the top level or in one object under it ("env", "host")
    places = [record, *(v for v in record.values() if isinstance(v, dict))]
    assert any(all(place.get(key) for key in ENV_KEYS) for place in places), path.name
