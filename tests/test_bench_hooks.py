"""The benchmark's traced run still finds and reaches every function it wraps.

``bench/tracer.py`` names functions, methods and ``harness._open_out`` by
(module, attribute). A rename in decodekit would only show when someone runs
``bench/run.py --trace 1``; these tests show it in the ordinary suite. The
last one also catches a truncation rule captured before the tracer patched
its name (say, in a module-level table), whose per-layer figure would
otherwise read 0 without an error.
"""

import copy
import importlib
import sys
from pathlib import Path

import pytest

from decodekit.samplers import SAMPLER_NAMES

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


# One run per truncation rule the tracer times; each must record one call per token.
TRUNCATION_RUNS = {
    "baselines.topk_restrict": {"sampler": "topk"},
    "baselines.nucleus_restrict": {"sampler": "nucleus"},
    "baselines.mirostat_step": {"sampler": "mirostat"},
    "lts.typical_set_band": {"sampler": "lts", "lts": {"mode": "band"}},
    "lts.typical_set_mass": {"sampler": "lts", "lts": {"mode": "mass"}},
}


def test_traced_run_calls_every_truncation_rule(tracer):
    from decodekit.harness import DEFAULTS, run_sequence

    traced = tracer.Tracer()
    with traced.installed():
        for section in TRUNCATION_RUNS.values():
            cfg = copy.deepcopy(DEFAULTS)
            cfg["max_tokens"] = 4
            cfg["sampler"] = section["sampler"]
            cfg["lts"].update(section.get("lts", {}))
            run_sequence(cfg, 0)
    for name in TRUNCATION_RUNS:
        assert traced.n_calls({name}) == 4, name


def test_traced_report_calls_each_metric_once_per_sequence(tracer, tmp_path):
    # A metric bound before the tracer patched its name would read 0 calls.
    from decodekit.harness import cmd_metrics
    from decodekit.metrics import REP_WINDOWS

    config = tmp_path / "config.json"
    config.write_text('{"model": {"selector": "synthetic:mixed"}}', encoding="utf-8")
    generated, reference = tmp_path / "generated.txt", tmp_path / "reference.txt"
    generated.write_text(
        "tok001 tok002 tok003 tok001\ntok004 tok005 tok004 tok006 tok007\ntok008 tok009 tok010 tok011\n",
        encoding="utf-8",
    )
    reference.write_text("tok012 tok013 tok014 tok015\n", encoding="utf-8")

    traced = tracer.Tracer()
    with traced.installed():
        cmd_metrics(
            generated, reference_path=reference, out_path=tmp_path / "report.json", config_path=config, fmt="text"
        )
    assert traced.n_calls({"metrics.perplexity"}) == 2  # generated and reference
    assert traced.n_calls({"metrics.rep_l"}) == 3 * len(REP_WINDOWS)
    assert traced.n_calls({"metrics.ngram_diversity"}) == 3


@pytest.mark.parametrize("name", SAMPLER_NAMES)
def test_traced_run_draws_once_per_token(tracer, name):
    # simlm.drive owns the only draw: every sampler, ASTS included, is a rule.
    # An ASTS run goes through asts_step only when it keeps an audit, so it
    # runs both ways: four steps in each, and four asts_step calls in all.
    from decodekit.harness import DEFAULTS, prepare_run, run_sequence

    cfg = copy.deepcopy(DEFAULTS)
    cfg["max_tokens"] = 4
    cfg["sampler"] = name
    audits = (False, True) if name == "asts" else (False,)
    traced = tracer.Tracer()
    with traced.installed():
        for audit in audits:
            run_sequence(cfg, 0, prepare_run(cfg, audit))
    assert traced.n_calls({"core.sample"}) == 4 * len(audits)
    if name == "asts":
        assert traced.n_calls({"asts.asts_step"}) == 4
