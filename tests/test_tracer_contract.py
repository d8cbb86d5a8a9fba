"""The benchmark's span tracer (bench/tracing.py) wraps package names and
reads report keys; a refactor that drops one breaks the traced benchmark
run.  This installs the tracer on the real modules for one small pipeline
run, so the contract is checked by the ordinary test suite too."""

import importlib.util
import sys
from pathlib import Path

from mbb_sdp import PipelineConfig
from mbb_sdp import graphs as graphs_module
from mbb_sdp import pipeline as pipeline_module
from mbb_sdp import rounding as rounding_module

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # its slotted dataclass looks its module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_name_it_lists_and_restores_them(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    modules = (pipeline_module, rounding_module, graphs_module)
    targets = (tracing.PIPELINE_TARGETS, tracing.ROUNDING_TARGETS, tracing.GRAPHS_TARGETS)
    originals = [{attr: getattr(m, attr) for attr, _, _ in t} for m, t in zip(modules, targets)]
    tracer = tracing.Tracer()
    tracer.install(*modules)
    try:
        tracer.pass_id = "setup"
        graph, _ = graphs_module.planted_instance(8, 2, 0.2, seed=1)
        tracer.pass_id = "traced"
        best, report = pipeline_module.approximate_mbb(graph, PipelineConfig(trials=16))
    finally:
        tracer.restore()
    for module, saved in zip(modules, originals):
        assert {attr: getattr(module, attr) for attr in saved} == saved

    totals = tracer.totals("traced")
    assert totals["pipeline.approximate_mbb"]["calls"] == 1
    for name in ("sdp.solve_feasibility", "sdp.gram_to_vectors", "rounding.round_many", "rounding.diagnostics"):
        assert totals[name]["calls"] >= 1, name
    assert tracer.totals("setup")["graphs.planted_instance"]["calls"] == 1
    assert tracer.solved and all(pass_id == "traced" for pass_id, _, _ in tracer.solved)

    metrics = tracing.layer_metrics(totals, tracer.totals("setup"), probe_s=0.0, overhead_s=0.0)
    assert metrics["rounding.trials"]["value"] == 16
    assert metrics["pipeline.anomalies"]["value"] == len(report.search["anomalies"]) == 0
    assert metrics["sdp.solves"]["value"] >= len(report.search["per_k"]) >= 1
    assert best.size >= 1
