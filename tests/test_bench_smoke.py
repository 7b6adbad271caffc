"""Smoke test of the benchmark in perfbench/.

Runs round 0 of every workload under the span tracer, the way
`python3 perfbench/run.py --trace 1` does, and checks each output with the
workload's own check.  perfbench/ is only imported, never written.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEED = 7


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delenv("ORLICZ_SEED", raising=False)
    return importlib.import_module("tracing"), importlib.import_module("workloads")


def _attributes(tracing) -> dict:
    """Every attribute the tracer may replace: module globals and traced methods."""
    for layer in tracing.LAYERS:
        importlib.import_module(f"orlicz.{layer}")
    state = {
        (name, key): value
        for name, mod in list(sys.modules.items())
        if name == "orlicz" or name.startswith("orlicz.")
        for key, value in vars(mod).items()
    }
    for layer, cls_name, meth, _ in tracing._METHODS:
        cls = getattr(sys.modules[f"orlicz.{layer}"], cls_name)
        assert meth in cls.__dict__, f"{cls_name}.{meth} is gone"
        state[(cls_name, meth)] = cls.__dict__[meth]
    return state


def test_round_zero_of_every_workload_passes_its_checks_under_the_tracer(bench):
    tracing, workloads = bench
    before = _attributes(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for name, make in workloads.WORKLOADS.items():
            wl = make(SEED)
            try:
                spans = len(tracer.spans)
                outputs = [(op, op.run()) for op in wl.ops(0)]
                assert len(tracer.spans) > spans, f"{name}: nothing was traced"
                tracer.enabled = False
                problems = [p for op, out in outputs for p in wl.check(op, out)]
                tracer.enabled = True
            finally:
                wl.close()
            assert problems == [], name
    finally:
        tracer.uninstall()
    after = _attributes(tracing)
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
