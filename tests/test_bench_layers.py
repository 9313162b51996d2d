"""The benchmark's layer tracer (``bench/layers.py``) wraps functions and
methods of the package by name.  ``install`` fails on a name that was
renamed or deleted; these tests run it, check that the table's evaluation
is among what it wraps and is counted, and that ``restore`` puts every
original back."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from frozen_tubes import FieldRows
from oscillab import subfun

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


@pytest.fixture
def layers(monkeypatch):
    # loaded from its file without writing a bytecode cache beside it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_wraps_the_table_and_restore_puts_originals_back(layers):
    rows = FieldRows(2)
    rows.add(subfun.TubeField(subfun.Frame.along([0.0, 0.5], [1.0, 0.0]), 4.0, 2, 0.0, 20.0))
    table = rows.table()
    pts = np.array([[2.0, 0.5], [3.0, 0.25], [30.0, 0.5]])
    tracer = layers.Tracer()
    try:
        layers.install(tracer)
        patches = list(tracer._patches)
        wrapped = {(owner, attr) for owner, attr, _original in patches}
        assert {(subfun.TubeTable, "eval_log"), (subfun.TubeTable, "upper_local")} <= wrapped
        assert all(owner.__dict__[attr] is not original for owner, attr, original in patches)
        table.eval_log(pts)
        table.upper_local(pts, 0.125)
        assert tracer.counts["eval_log.points"] == len(pts)
        assert tracer.counts["upper_local.points"] == len(pts)
    finally:
        tracer.restore()
    assert all(owner.__dict__[attr] is original for owner, attr, original in patches)
