"""Tests of the span arithmetic and of the traced launcher.

    python3 -m pytest perfbench
"""

import subprocess
import sys
from pathlib import Path

import numpy as np

import launch
import layers

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _span(name, start, end, parent, **extra):
    return {"name": name, "start": start, "end": end, "parent": parent, "run": "r", **extra}


def test_self_time_subtracts_merged_children():
    spans = [
        _span(layers.ROOT, 0.0, 10.0, None),
        _span("cli.run", 1.0, 4.0, 0),
        _span("chains.phi", 3.0, 6.0, 0),       # overlaps its sibling
        _span("chains.phi", 2.0, 3.0, 1),
        _span("chains.phi", 9.0, 12.0, 0),      # overhangs its parent
    ]
    assert layers.self_times(spans) == [10.0 - 5.0 - 1.0, 2.0, 3.0, 1.0, 3.0]


def test_layer_metrics_sum_self_time_counts_and_peaks():
    spans = [
        _span(layers.ROOT, 0.0, 10.0, None),
        _span("glp.search", 0.0, 6.0, 0),
        _span("glp.congruence_sum", 1.0, 2.0, 1, counts={"glp.congruence_sum_calls": 1}),
        _span("glp.congruence_sum", 2.0, 4.0, 1, counts={"glp.congruence_sum_calls": 1}),
        _span("pointsets.is_prime", 2.5, 3.0, 3),  # unnamed helper: time goes to its caller
        _span("hfourier.h_coefficient_table", 6.0, 7.0, 0,
              alloc_mb={"hfourier.peak_alloc_mb": 5.0}),
        _span("hfourier.h_coefficient_table", 7.0, 9.0, 0,
              alloc_mb={"hfourier.peak_alloc_mb": 3.0}),
    ]
    m = layers.layer_metrics(spans)
    assert m["glp.search_s"] == 3.0
    assert m["glp.congruence_sum_s"] == 3.0
    assert m["glp.congruence_sum_calls"] == 2
    assert m["hfourier.table_s"] == 3.0
    assert m["hfourier.peak_alloc_mb"] == 5.0
    assert m["sphere.hecke_block_s"] == 0.0
    assert layers.span_coverage(spans) == 0.9


def test_wrapping_keeps_classmethods_results_and_rebinding():
    from discrepancy_forge import chains, glp

    system = chains.ChainSystem.coordinate(2)
    expected = glp.PhiBall.build(system, 11)
    original_phi = chains.phi
    tracer = launch.Tracer("t")
    try:
        assert launch.wrap_package(tracer) == []
        assert glp.phi is chains.phi is not original_phi
        got = glp.PhiBall.build(system, 11)
        assert isinstance(got, glp.PhiBall)
        assert got.m == expected.m
        assert np.array_equal(got.freqs, expected.freqs)
        assert np.array_equal(got.values, expected.values)
        cert = glp.search(11, system)
        assert cert == glp.search.__wrapped__(11, system)
    finally:
        tracer.restore()
    assert chains.phi is original_phi

    names = [s["name"] for s in tracer.spans]
    build = names.index("glp.PhiBall.build")
    phi = [s for s in tracer.spans if s["name"] == "chains.phi" and s["parent"] == build]
    assert len(phi) == 1
    assert phi[0]["counts"] == {"chains.phi_calls": 1, "chains.phi_rows": len(expected.freqs)}
    assert all(s["end"] >= s["start"] for s in tracer.spans)


def test_missing_callable_is_reported_not_fatal(monkeypatch):
    monkeypatch.setitem(layers.TIMES, "kernel.gone_s", ["kernel.no_such_callable"])
    tracer = launch.Tracer("t")
    try:
        assert launch.wrap_package(tracer) == ["kernel.no_such_callable"]
    finally:
        tracer.restore()


def test_traced_report_is_byte_identical(tmp_path):
    args = ["glp-search", "--m", "101"]
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": ""}
    plain, traced, spans = tmp_path / "plain.json", tmp_path / "traced.json", tmp_path / "s"
    subprocess.run([sys.executable, "-m", "discrepancy_forge.cli", *args, "--out", str(plain)],
                   env=env, check=True, timeout=120)
    subprocess.run([sys.executable, str(ROOT / "perfbench" / "launch.py"), "--spans", str(spans),
                    "--run-id", "x", "--", *args, "--out", str(traced)],
                   env=env, check=True, timeout=120)
    assert plain.read_bytes() == traced.read_bytes()
    read, missing = layers.read_spans([spans])
    assert missing == []
    assert read[0]["name"] == layers.ROOT and read[0]["run"] == "x"
    assert layers.span_coverage(read) > 0.9
    assert layers.layer_metrics(read)["glp.phi_ball_s"] > 0
