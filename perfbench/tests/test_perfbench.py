"""Self-tests of the benchmark: metric names, span arithmetic, failure
counting and the analytic-q oracle.  Run with

    python3 -m pytest perfbench/tests
"""

import json
import re
from pathlib import Path

import numpy as np
import pytest

import cgolab
import oracles
import run
import tracing
from tracing import Span, Tracer, summarize
from workloads import GAUSSIAN, Operation, check_recover

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_metric_names_are_well_formed_and_declared():
    declared = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert all(NAME.fullmatch(name) for name in declared)
    assert len(set(declared)) == len(declared)
    traced = set(tracing.metric_units()) | {"cli.io_s", "trace.overhead_frac"}
    assert traced == {m["name"] for m in BENCHMARK["per_layer"]}
    assert {m["name"] for m in BENCHMARK["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        Span("cgo.select", -1, 0.0, 10.0),
        Span("spaces.norm", 0, 1.0, 4.0),
        Span("symbol.lattice", 1, 2.0, 3.0),
        Span("grid.fft", 0, 5.0, 6.5, overhead=0.5),
        Span("spaces.norm", -1, 11.0, 12.0),
    ]
    got = summarize(spans, {"cgo.iterations": 7})
    assert got["cgo.select_s"] == pytest.approx(10.0)
    assert got["cgo.select_self_s"] == pytest.approx(10.0 - 3.0 - 1.0)
    assert got["spaces.norm_calls"] == 2
    assert got["spaces.norm_s"] == pytest.approx(4.0)
    assert got["spaces.norm_self_s"] == pytest.approx(3.0)
    assert got["symbol.lattice_self_s"] == pytest.approx(1.0)
    assert got["grid.fft_s"] == pytest.approx(1.0)
    assert got["cgo.iterations"] == 7
    assert got["estimates.schur_calls"] == 0


def test_tracer_counts_calls_and_restores_the_package(monkeypatch):
    monkeypatch.setitem(tracing.TRACED, "potential.q", (("cgolab.potential", "potential_q"),
                                                        ("cgolab.potential", "no_such_function")))
    original = cgolab.potential_q
    grid = cgolab.FrequencyGrid(3, 16, 2.0 * np.pi)
    cond = cgolab.make_conductivity(grid, GAUSSIAN)
    tracer = Tracer()
    tracer.install()
    try:
        cgolab.potential.potential_q(cond)
        cgolab.potential.potential_q(cond)
    finally:
        tracer.uninstall()
    got = tracer.summary()
    assert cgolab.potential_q is original and cgolab.potential.potential_q is original
    assert got["potential.q_calls"] == 2
    # forward and inverse transform of g per call; the second forward one repeats
    assert got["grid.fft_calls"] == 4
    assert got["grid.fft_repeat"] == 1
    assert got["potential.q_self_s"] < got["potential.q_s"]


def test_failing_operations_are_counted_without_raising(tmp_path, monkeypatch):
    monkeypatch.setenv("CGOLAB_OUT", str(tmp_path / "out"))

    def always_missed(config, result):
        return [("forced", 1.0, 0.0)]

    ops = [
        Operation("recover", {"grid": {"n": 7}}, check_recover),  # config error, exit 2
        Operation("no-such-subcommand", {}, check_recover),  # argparse exits
        Operation("singbound", {"grid": {"n": 8}, "trials": 4}, always_missed),
    ]
    runner = run.Runner(tmp_path, ops)
    tally = run.Tally()
    runner.run_pass(tally)
    tally.check()
    assert (tally.attempted, tally.failed, tally.misses) == (3, 3, 1)
    assert any("exit 2" in message for message in tally.failures)


def test_analytic_q_matches_spectral_q_at_n64():
    grid = cgolab.FrequencyGrid(3, 64, 2.0 * np.pi)
    spectral = cgolab.potential_q(cgolab.make_conductivity(grid, GAUSSIAN)).values.real
    analytic = oracles.gaussian_q(oracles.Lattice(64), GAUSSIAN["amplitude"], GAUSSIAN["width"])
    assert np.max(np.abs(spectral - analytic)) <= 1e-6 * np.max(np.abs(analytic))


def test_benchmark_refuses_a_tree_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "sweep", "--seed", "0", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
