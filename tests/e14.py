"""The E14 workload generators of ``benchmarks/workloads.py``, for tests.

``benchmarks/`` is not a package, so the module is loaded from its
file; every test that needs an E14 program uses this one loader
instead of a copy of the generator.
"""

import functools
import importlib.util
from pathlib import Path


@functools.lru_cache(maxsize=None)
def workloads():
    """The ``benchmarks/workloads.py`` module."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py"
    spec = importlib.util.spec_from_file_location("e14_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
