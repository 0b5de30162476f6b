"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import copy
import itertools
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402
import planemoduli as pm  # noqa: E402
import pytest  # noqa: E402

from perfbench import inputs, run, tracing, workloads  # noqa: E402

_SMALL = pm.SuiteSettings(grid_n=64, refine_rounds=1, cone_samples=3, grid_n_2d=64)


@pytest.mark.parametrize("workload", ["verify", "compute", "probe"])
def test_inputs_are_deterministic_per_seed(workload):
    a = inputs.make_inputs(workload, 5)
    assert a == inputs.make_inputs(workload, 5)
    assert inputs.digest(a) == inputs.digest(inputs.make_inputs(workload, 5))
    assert a != inputs.make_inputs(workload, 6)
    assert a != inputs.make_inputs(workload, inputs.HELD_OUT_SEED)


def test_random_polygons_are_valid_norms():
    for seed in range(20):
        vertices = inputs.make_inputs("verify", seed)["polygon"]
        assert 6 <= len(vertices) <= 24
        pm.polygon_norm(vertices)  # raises on a malformed polygon


def _span(name, start, end, parent, leaf_s=0.0, rows=1):
    return [name, start, end, parent, leaf_s, rows]


def test_self_times_on_a_synthetic_tree():
    spans = [
        _span("bench.pass", 0.0, 10.0, -1, leaf_s=0.5),
        _span("moduli.point.phi", 1.0, 4.0, 0, leaf_s=1.0),
        _span("engine.extremize", 5.0, 9.0, 0),
        _span("moduli.chord", 6.0, 7.0, 2),
    ]
    assert tracing.self_times(spans) == pytest.approx([2.5, 2.0, 3.0, 1.0])
    leaves = {"eval": [3, 30, 1.5, 1.5]}
    m = tracing.layer_metrics(spans, leaves, chord_iterations=46)
    assert m["trace.wall_s"] == 10.0
    assert m["bench.self_s"] == pytest.approx(2.5)
    assert m["moduli.self_s"] == pytest.approx(3.0)
    assert m["engine.self_s"] == pytest.approx(3.0)
    assert m["norms.self_s"] == pytest.approx(1.5)
    assert m["trace.self_sum_ratio"] == pytest.approx(1.0)
    assert m["moduli.chord_steps"] == 46
    assert m["moduli.point_ms.phi"] == pytest.approx(3000.0)
    assert m["norms.rows_per_eval_call"] == pytest.approx(10.0)


def test_tracer_charges_leaf_time_to_the_enclosing_frame():
    ticks = itertools.count()
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))

    class Leafy:
        def outer(self, a):
            return self.inner(a)

        def inner(self, a):
            return a

    Leafy.inner = tracer.leaf("eval", Leafy.inner)
    Leafy.outer = tracer.leaf("support", Leafy.outer)
    root = tracer.begin("bench.pass")  # t=0
    Leafy().outer(np.zeros((4, 2)))  # support 1..4, eval 2..3
    tracer.end(root)  # t=5
    assert tracer.leaves["support"] == [1, 4, 3.0, 2.0]
    assert tracer.leaves["eval"] == [1, 4, 1.0, 1.0]
    assert tracing.self_times(tracer.spans) == [2.0]


def test_tracing_is_removed_on_exit_and_sums_to_wall():
    norm = pm.lp_norm(3.0)
    originals = (type(norm).__dict__["_eval"], pm.moduli.extremize, pm.verify.modulus)
    tracer = tracing.Tracer()
    with tracer:
        root = tracer.begin("bench.pass")
        pm.modulus_curve(norm, pm.ModulusKind("phi-plus"), [0.5], grid_n=64, refine_rounds=2)
        tracer.end(root)
    assert (type(norm).__dict__["_eval"], pm.moduli.extremize, pm.verify.modulus) == originals
    m = tracing.layer_metrics(tracer.spans, tracer.leaves, chord_iterations=46)
    assert (m["moduli.points"], m["engine.calls"], m["moduli.witness_calls"]) == (1, 1, 1)
    assert m["engine.objective_calls"] > 1 and m["engine.coarse_rows"] >= 64
    assert m["norms.eval_calls"] > 0
    assert m["trace.self_sum_ratio"] == pytest.approx(1.0, abs=1e-9)


def test_tampered_verify_witness_counts_as_failed():
    specs = pm.default_suite([pm.lp_norm(3.0)], eps_points=2, checks=["zeta-envelope"])
    report = pm.run_suite(specs, settings=_SMALL)
    assert workloads.check_report_records(report, verdicts=True) == [None]
    witness = report.checks[0].witness
    witness["terms"][0]["witness"]["y"][0] += 0.25
    (problem,) = workloads.check_report_records(report, verdicts=True)
    assert "replays" in problem


def test_tampered_curve_witness_counts_as_failed():
    wl = workloads.WORKLOADS["compute"]
    curve = pm.modulus_curve(pm.euclidean_norm(), pm.ModulusKind("zeta-plus"), [0.3, 0.7], grid_n=64, refine_rounds=2)
    out = workloads.PassOutput([pm.curve_to_csv(curve)], [curve], [1.0])
    assert wl.check(None, out).failed == 0
    bad = copy.deepcopy(curve)
    bad.samples[1].witness["y"][0] += 0.25
    res = wl.check(None, workloads.PassOutput([pm.curve_to_csv(bad)], [bad], [1.0]))
    assert (res.attempted, res.failed) == (1, 1)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    s = run.latency_summary([float(i) for i in range(1, 52)])
    assert (s["tail"], s["samples"]) == (41.0, 51)
    assert s["tail_percentile"] == pytest.approx(100.0 * 41 / 51)
    s = run.latency_summary([float(i) for i in range(20)])
    assert (s["p50"], s["tail"], s["tail_percentile"]) == (9.5, 19.0, 100.0)
