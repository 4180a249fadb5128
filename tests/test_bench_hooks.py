"""The benchmark's traced run still finds every decodekit function it wraps.

``bench/tracer.py`` names functions, methods and ``harness._open_out`` by
(module, attribute). A rename in decodekit would only show when someone runs
``bench/run.py --trace 1``; this test shows it in the ordinary suite.
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    module = importlib.import_module("tracer")
    yield module
    sys.modules.pop("tracer", None)


def _resolve(module: str, attr: str):
    owner = importlib.import_module(f"decodekit.{module}")
    if "." in attr:
        cls_name, method = attr.split(".")
        return getattr(owner, cls_name).__dict__[method]  # the tracer patches the class's own entry
    return getattr(owner, attr)


def test_every_traced_hook_resolves(tracer):
    hooks = tracer.SPANS + tracer.COUNTS + [("harness", "_open_out")]
    for module, attr in hooks:
        assert callable(_resolve(module, attr)), f"{module}.{attr}"


def test_installed_tracer_restores_every_hook(tracer):
    hooks = tracer.SPANS + tracer.COUNTS + [("harness", "_open_out")]
    before = {hook: _resolve(*hook) for hook in hooks}
    with tracer.Tracer().installed():
        assert all(_resolve(*hook) is not before[hook] for hook in hooks)
    assert all(_resolve(*hook) is before[hook] for hook in hooks)
