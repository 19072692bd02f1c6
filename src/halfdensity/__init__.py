"""Random group presentations at density one-half.

Samplers for uniform freely reduced relator families, exact letter-position
laws, the colored coincidence bound, a certificate-checked triviality
pipeline, planar-diagram counting bounds, and the phase classifier for
vanishing rate functions.
"""

import importlib

from .rng import RandomSource

__version__ = "0.1.0"

__all__ = [
    "words",
    "distribution",
    "pigeonhole",
    "trivializer",
    "diagrams",
    "thresholds",
    "RandomSource",
    "__version__",
]


def __getattr__(name):
    """Load a submodule of __all__ on first use (PEP 562), so an import pays only for it."""
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
