"""The benchmark's traced run (perfbench/tracing.py) wraps package
functions by module and name, so each of them must keep existing."""

import importlib
import os
from collections import Counter

import forestcalc.verify
from forestcalc.layers import coend
from forestcalc.simplicial import model_points

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench")


def _tracing(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    return importlib.import_module("tracing")


def test_trace_targets_resolve(monkeypatch):
    tracing = _tracing(monkeypatch)
    for modname, func, _, _ in tracing.TARGETS:
        module = importlib.import_module(f"forestcalc.{modname}")
        assert callable(getattr(module, func, None)), (modname, func)
    assert forestcalc.verify.CHECKS


def test_trace_coend_counter_reads_assembly(monkeypatch):
    tracing = _tracing(monkeypatch)
    counts = Counter()
    tracing.count_coend(counts, "layers.coend", (), coend(model_points(2), 1))
    assert counts["layers.coend.glued_cells"] > 0
