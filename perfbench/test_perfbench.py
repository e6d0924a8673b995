"""Tests of the benchmark's own helpers, on systems small enough to run in
seconds:

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

import tracing
import workloads as W
from lqobt import databt, gramians, log_trapezoid, model, synthesize_system

N_NODES = 12


def small_inputs(m=1, p=1):
    sys_ = synthesize_system(8, m=m, p=p, damping=(0.1, 3.0), gain_decay=0.85, seed=3)
    rule = log_trapezoid(1e-2, 1e2, N_NODES)
    return W.Inputs(sys_.A, sys_.B, sys_.C, sys_.Ms, (2, 3, 4), 3, rule, rule)


def traced_outcome(solve, inp, tracer, pass_id=1):
    with tracer.traced_pass(pass_id):
        return solve(tracer.sampler(inp.system()), inp)


def test_proxy_sampler_returns_bit_identical_arrays():
    inp = small_inputs(m=2, p=2)
    bare = inp.system()
    proxy = tracing.Tracer().sampler(inp.system())
    t = inp.rule_p.nodes
    assert (proxy.m, proxy.p) == (2, 2)
    for method, args in (
        ("h1_grid", (t, t)), ("dh1_grid", (t, t)),
        ("h2_grid", (t, t, t)), ("dh2_grid", (t, t, np.zeros(1))),
        ("tf1", (1j * t,)), ("tf2_grid", (-1j * t, 1j * t)),
    ):
        assert W.same_bits(getattr(proxy, method)(*args), getattr(bare, method)(*args)), method


@pytest.mark.parametrize("name", ["time_direct", "freq_direct", "intrusive_sweep"])
def test_traced_roms_equal_untraced_roms(name):
    wl = W.WORKLOADS[name]
    inp = small_inputs()
    if name == "freq_direct":
        inp.orders = (inp.ref_order,)
        inp.rule_q = log_trapezoid(1.1e-2, 1.1e2, N_NODES)
    untraced = wl.solve(inp.system(), inp)
    traced = traced_outcome(wl.solve, inp, tracing.Tracer())
    assert W.same_roms(traced.roms, untraced.roms)


def test_rebindings_are_restored_after_a_pass():
    originals = {(m, a): getattr(m, a) for m, a in
                 ((model, "expm"), (databt, "svd"), (gramians, "solve_lyapunov"))}
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.traced_pass(1):
            assert model.expm is not originals[(model, "expm")]
            raise RuntimeError
    for (m, a), fn in originals.items():
        assert getattr(m, a) is fn


def span(name, start, end, parent, pass_id=1):
    return tracing.Span(name, start, end, parent, pass_id)


def test_self_time_on_a_hand_built_tree():
    spans = [
        span("pass", 0.0, 10.0, None),    # 0: children cover [1, 4] and [5, 9]
        span("a", 1.0, 4.0, 0),           # 1: leaf
        span("b", 5.0, 9.0, 0),           # 2: children cover [6, 8]
        span("c", 6.0, 7.5, 2),           # 3: overlaps its sibling
        span("d", 7.0, 8.0, 2),           # 4
        span("e", 8.5, 12.0, 2),          # 5: runs past its parent's end
        span("pass", 20.0, 21.0, None, 2),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 3.0, 1.5, 1.5, 1.0, 3.5, 1.0])


def test_counts_repeat_across_two_traced_runs():
    wl = W.WORKLOADS["time_direct"]
    inp = small_inputs()
    counts = []
    for run in range(2):
        tracer = tracing.Tracer()
        for pass_id in (1, 2):
            traced_outcome(wl.solve, inp, tracer, pass_id)
        per_pass = [tracing.pass_metrics(tracer.spans, p) for p in tracer.pass_ids()]
        counts.extend({k: m[k] for k in tracing.COUNTS} for m in per_pass)
    assert all(c == counts[0] for c in counts)
    # one sampling of every grid, then a single SVD for all orders
    assert counts[0]["numcore.expm_calls"] == 15 * N_NODES + 3
    assert counts[0]["numcore.svd_calls"] == 1
    assert counts[0]["databt.assemble_bytes"] > 0


def test_sweep_counts_lyapunov_solves():
    wl = W.WORKLOADS["intrusive_sweep"]
    inp = small_inputs()
    tracer = tracing.Tracer()
    out = traced_outcome(wl.solve, inp, tracer)
    metrics = tracing.pass_metrics(tracer.spans, 1)
    # one compute_gramians for BT plus one per H2 error, three solves each
    assert metrics["gramians.compute_gramians_calls"] == 1 + len(inp.orders)
    assert metrics["numcore.lyap_calls"] == 3 * (1 + len(inp.orders))
    assert metrics["gramians.h2_error_calls"] == len(inp.orders)
    assert metrics["gramians.lyap_residual_max"] <= W.RESIDUAL_TOL
    assert W.same_roms(out.roms, wl.solve(inp.system(), inp).roms)


def test_reference_bt_errors_match_the_package():
    sys_ = small_inputs().system()
    got = W.reference_bt_errors(sys_, (2, 3))
    for r in (2, 3):
        want = gramians.h2_error(sys_, gramians.intrusive_bt(sys_, r))
        assert got[r] == pytest.approx(want, rel=1e-8)


def test_benchmark_json_names_the_code():
    bench = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(W.WORKLOADS)
    per_layer = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    assert per_layer == list(tracing.PER_LAYER) + [("trace.overhead_frac", "1")]
