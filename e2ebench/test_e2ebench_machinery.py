"""Fast tests of the end-to-end benchmark's own machinery.

These run in the tier-1 suite; the workloads themselves (tens of seconds
each) run only through ``e2ebench/run.py``.
"""

from __future__ import annotations

import itertools

import pytest

import bench_stats
import bench_trace
import bench_workloads as wl
from bench_metrics import COVERAGE, END_TO_END, PER_LAYER


# ---------------------------------------------------------------------- self time


class FakeClock:
    """Advances by a scripted amount on every read."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


def test_self_time_on_nested_spans_across_layers():
    clock = FakeClock()
    tracer = bench_trace.Tracer(sample_every=1, clock=clock)

    def leaf():  # rtp, 5 ticks
        clock.now += 5

    def middle():  # dataplane: 3 ticks, leaf, 2 ticks
        clock.now += 3
        traced_leaf()
        clock.now += 2

    def root():  # netsim: 10, middle, 1, leaf, 4
        clock.now += 10
        traced_middle()
        clock.now += 1
        traced_leaf()
        clock.now += 4

    traced_leaf = tracer.wrap(leaf, "rtp:leaf", "rtp")
    traced_middle = tracer.wrap(middle, "dataplane:middle", "dataplane")
    traced_root = tracer.wrap(root, "netsim:root", "netsim")
    traced_root()

    stats = tracer.stats
    assert (stats["netsim:root"].total_ns, stats["netsim:root"].self_ns) == (30, 15)
    assert (stats["dataplane:middle"].total_ns, stats["dataplane:middle"].self_ns) == (10, 5)
    assert (stats["rtp:leaf"].calls, stats["rtp:leaf"].self_ns) == (2, 10)
    layers = tracer.layer_totals()
    assert layers["netsim"]["self_ns"] + layers["dataplane"]["self_ns"] + layers["rtp"]["self_ns"] == 30
    assert tracer.roots == 1 and tracer.top_ns == 30

    # raw spans: one root, children point at their parents
    by_name = {}
    for span_id, name, layer, start, end, parent, root_id in tracer.kept:
        by_name.setdefault(name, []).append((span_id, parent, root_id, end - start))
    (root_id, root_parent, root_root, root_len), = by_name["netsim:root"]
    assert root_parent == 0 and root_root == root_id and root_len == 30
    (middle_id, middle_parent, _, _), = by_name["dataplane:middle"]
    assert middle_parent == root_id
    assert sorted(parent for _, parent, _, _ in by_name["rtp:leaf"]) == sorted([middle_id, root_id])
    assert all(root == root_id for spans in by_name.values() for _, _, root, _ in spans)


def test_self_time_same_layer_recursion_and_exceptions():
    clock = FakeClock()
    tracer = bench_trace.Tracer(clock=clock)

    def recurse(depth):
        clock.now += 1
        if depth:
            traced(depth - 1)
        else:
            raise ValueError("bottom")

    traced = tracer.wrap(recurse, "core:recurse", "core")
    with pytest.raises(ValueError):
        traced(3)
    entry = tracer.stats["core:recurse"]
    assert entry.calls == 4
    assert entry.self_ns == 4  # each level's own tick, children excluded
    assert tracer.top_ns == 4 and not tracer._stack


def test_sampling_keeps_only_every_kth_root_and_reset_zeroes():
    tracer = bench_trace.Tracer(sample_every=3, clock=itertools.count().__next__)
    traced = tracer.wrap(lambda: None, "scenario:noop", "scenario")
    for _ in range(7):
        traced()
    assert tracer.roots == 7
    assert len(tracer.kept) == 3  # roots 0, 3, 6
    tracer.reset()
    assert tracer.stats["scenario:noop"].calls == 0 and not tracer.kept and tracer.top_ns == 0


def test_event_callbacks_start_roots_inside_the_loop_span():
    clock = FakeClock()
    tracer = bench_trace.Tracer(sample_every=2, clock=clock)

    def event():
        clock.now += 2

    callbacks = [tracer.wrap_callback(event) for _ in range(3)]

    def loop():  # the event loop: 1 tick per event of its own
        for callback in callbacks:
            clock.now += 1
            callback()

    traced_loop = tracer.wrap(loop, "netsim:loop", "netsim")
    traced_loop()
    loop_entry = tracer.stats["netsim:loop"]
    event_entry = next(entry for entry in tracer.stats.values() if entry.event)
    assert (loop_entry.self_ns, event_entry.self_ns, event_entry.calls) == (3, 6, 3)
    assert event_entry.layer == "scenario"  # defined in this (non-repro) module
    assert tracer.roots == 4 and tracer.top_ns == 9
    # roots 0 (the loop) and 2 (the second event) are sampled; the first
    # event's spans are not, and the loop's span survives the events
    kept = {name: (span_id, parent, root) for span_id, name, _, _, _, parent, root in tracer.kept}
    assert set(kept) == {event_entry.name, "netsim:loop"}
    loop_id = kept["netsim:loop"][0]
    event_id, event_parent, event_root = kept[event_entry.name]
    assert event_parent == loop_id and event_root == event_id


def test_callback_layer_attribution():
    from repro.netsim.link import Network

    assert bench_trace.layer_of_module("repro.webrtc.client") == "webrtc"
    assert bench_trace.layer_of_module("repro.obs.bus") == "scenario"
    assert bench_trace.layer_of_module(None) == "scenario"
    assert bench_trace.callback_module(Network.send) == "repro.netsim.link"


# ---------------------------------------------------------------------- percentiles


def test_percentile_rule_minimum_samples():
    assert bench_stats.min_samples_for(50) == 20
    assert bench_stats.min_samples_for(90) == 100
    assert bench_stats.min_samples_for(99) == 1000


def test_percentile_refuses_small_samples_and_ranks_nearest():
    samples = list(range(1, 101))
    assert bench_stats.percentile(samples, 90) == 90
    assert bench_stats.percentile(samples, 50) == 50
    with pytest.raises(bench_stats.InsufficientSamples):
        bench_stats.percentile(samples[:99], 90)
    with pytest.raises(bench_stats.InsufficientSamples):
        bench_stats.percentile(samples, 99)


# ---------------------------------------------------------------------- inputs


def _wire(inputs):
    return [
        (at, kind, tuple((d.src, d.to_bytes()) for d in payload) if kind == wl.BURST else payload)
        for at, kind, payload in inputs.events
    ]


def test_dataplane_inputs_are_a_pure_function_of_the_seed():
    first = wl.dataplane_inputs(5, 0.25)
    again = wl.dataplane_inputs(5, 0.25)
    other = wl.dataplane_inputs(6, 0.25)
    assert first.layout == again.layout
    assert _wire(first) == _wire(again)
    assert first.layout != other.layout
    assert _wire(first) != _wire(other)
    # rate-adapted receivers on a third of the meetings, RTCP and video mixed
    adapted = [meeting for meeting in first.layout.meetings if meeting.adapted]
    assert len(adapted) == wl.DATAPLANE_MEETINGS // 3
    assert any(len(payload) == 1 and payload[0].kind.value == "rtcp" for _, kind, payload in first.events if kind == wl.BURST)


def test_scenario_specs_are_a_pure_function_of_the_seed():
    for workload in wl.SCENARIO_WORKLOADS:
        assert wl.scenario_spec(workload, 3, 4.0) == wl.scenario_spec(workload, 3, 4.0)
        assert wl.scenario_spec(workload, 3, 4.0) != wl.scenario_spec(workload, 4, 4.0)
    churn = wl.scenario_spec("churn_storm", 3, 6.0)
    assert churn.schedule.events and max(event.at_s for event in churn.schedule.events) < 6.0


def test_default_and_held_out_seeds_generate_different_inputs():
    for workload, (default, held_out) in wl.SEEDS.items():
        assert default != held_out
        if workload == "dataplane":
            assert wl.dataplane_layout(default) != wl.dataplane_layout(held_out)
        else:
            assert wl.scenario_spec(workload, default, 4.0) != wl.scenario_spec(workload, held_out, 4.0)


# ---------------------------------------------------------------------- coverage


def test_coverage_flags_unwired_hooks_and_passes_when_called():
    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        assert tracer.uncalled(COVERAGE["dataplane"]) == sorted(COVERAGE["dataplane"])
        layout = wl.dataplane_layout(2, meetings=6)
        inputs = wl.dataplane_inputs(2, 1.25, layout)
        pipeline = wl.configure_dataplane(layout)
        outcome = wl.replay_dataplane(pipeline, inputs)
    finally:
        tracer.uninstall()
    assert not outcome.errors
    assert tracer.uncalled(COVERAGE["dataplane"]) == []
    assert tracer.stats["dataplane:PipelineDatapath.process_batch"].items == inputs.packets


def test_uninstall_restores_every_entry_point():
    from repro.dataplane.pipeline import PipelineDatapath
    from repro.netsim.simulator import Simulator
    from repro.rtp import av1, extensions, packet

    before = (
        PipelineDatapath.__dict__["process_batch"],
        Simulator.__dict__["schedule"],
        packet.RtpPacket.__dict__["parse"],
        av1.extract_dependency_descriptor,
        extensions.decode_extensions,
    )
    tracer = bench_trace.Tracer()
    tracer.install()
    assert PipelineDatapath.__dict__["process_batch"] is not before[0]
    tracer.uninstall()
    after = (
        PipelineDatapath.__dict__["process_batch"],
        Simulator.__dict__["schedule"],
        packet.RtpPacket.__dict__["parse"],
        av1.extract_dependency_descriptor,
        extensions.decode_extensions,
    )
    assert after == before


def test_every_coverage_name_is_a_wrapped_entry_point():
    names = {point.name for point in bench_trace.ENTRY_POINTS}
    for workload, required in COVERAGE.items():
        assert set(required) <= names, workload
    assert set(COVERAGE) == set(wl.WORKLOADS)


def test_per_layer_metric_list_covers_every_layer():
    for layer in bench_trace.LAYERS:
        for suffix in ("self_s", "share", "calls"):
            assert f"{layer}.{suffix}" in PER_LAYER
    assert "trace.overhead" in PER_LAYER


def test_benchmark_json_matches_the_catalogue():
    import json
    import os

    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")
    with open(path, encoding="utf-8") as handle:
        spec = json.load(handle)
    assert {metric["name"]: metric["unit"] for metric in spec["end_to_end"]} == END_TO_END
    assert {metric["name"]: metric["unit"] for metric in spec["per_layer"]} == PER_LAYER
    assert {workload["name"] for workload in spec["workloads"]} <= set(wl.WORKLOADS)
    setup = next(metric for metric in spec["end_to_end"] if metric["name"] == "setup_s")
    assert setup["bound"] == max(metric["bound"] for metric in spec["end_to_end"])
