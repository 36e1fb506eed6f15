"""The benchmark's tracer wraps library functions by name; every name must resolve.

``perfbench/spans.py`` patches ``(module, attribute)`` pairs where callers
look them up, so a renamed or moved function would otherwise show only when
a traced benchmark run crashes. This test goes away with ``PATCHES``, once
the library owns its instrumentation.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from voxalign.rng import Rng

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _spans()


@pytest.mark.parametrize("module,attr", sorted({(m, a) for m, a, _, _ in spans.PATCHES}))
def test_patched_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"voxalign.{module}"), attr))


@pytest.mark.parametrize("method", spans.RNG_METHODS)
def test_patched_rng_method_resolves(method):
    assert callable(getattr(Rng, method))
