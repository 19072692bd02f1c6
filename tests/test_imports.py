"""The package loads its submodules on first use, checked in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

CHECK = """
import sys
import halfdensity.trivializer, halfdensity.pigeonhole, halfdensity.words

unused = ("diagrams", "distribution", "thresholds", "cli")
loaded = [name for name in unused if "halfdensity." + name in sys.modules]
assert not loaded, loaded

import halfdensity
assert callable(halfdensity.thresholds.classify_rate)

namespace = {}
exec("from halfdensity import *", namespace)
missing = [name for name in halfdensity.__all__ if name not in namespace]
assert not missing, missing

try:
    halfdensity.nope
except AttributeError as exc:
    assert str(exc) == "module 'halfdensity' has no attribute 'nope'", exc
else:
    raise AssertionError("halfdensity.nope resolved")
"""


def test_submodules_load_on_first_use():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", CHECK], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
