"""The benchmark's metric catalogue and the traced run's per-layer arithmetic.

:data:`END_TO_END` and :data:`PER_LAYER` are the metric lists (name -> unit)
in the order ``BENCHMARK.json`` lists them.  End-to-end metrics come from
untraced runs; per-layer ones from the traced run.  Every metric is printed
on every workload; a layer a workload never enters reports zero calls and
zero time, which is the "no change here" prediction made visible.

:data:`COVERAGE` names, per workload, the wrapped entry points that must be
called at least once.  A traced run where one of them never fired fails, so
an unwired hook cannot pass for a layer that did no work.
"""

from __future__ import annotations

from typing import Dict, Optional

from bench_trace import LAYERS, Tracer, wrapper_costs_ns

END_TO_END: Dict[str, str] = {
    "wall_per_sim_s": "s/s",
    "step_ms.p50": "ms",
    "step_ms.p90": "ms",
    "pps": "packets/s",
    "burst_us.p50": "us",
    "burst_us.p99": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER: Dict[str, str] = {}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.self_s"] = "s"
    PER_LAYER[f"{_layer}.share"] = "ratio"
    PER_LAYER[f"{_layer}.calls"] = "count"
PER_LAYER.update(
    {
        "netsim.events": "count",
        "netsim.ns_per_event": "ns",
        "netsim.send_calls": "count",
        "netsim.link_drops": "count",
        "webrtc.gcc_calls": "count",
        "webrtc.gcc_ns_per_call": "ns",
        "webrtc.frames_decoded": "count",
        "webrtc.nacks": "count",
        "webrtc.plis": "count",
        "webrtc.freezes": "count",
        "rtp.parse_calls": "count",
        "rtp.serialize_calls": "count",
        "rtp.dd_extract_calls": "count",
        "rtp.ns_per_parse": "ns",
        "dataplane.packets": "count",
        "dataplane.ns_per_packet": "ns",
        "dataplane.batch_len": "packets",
        "dataplane.table_lookups": "count",
        "dataplane.replica_yield": "ratio",
        "dataplane.cpu_share": "ratio",
        "dataplane.control_writes": "count",
        "dataplane.control_write_us": "us",
        "core.cpu_packets": "count",
        "core.rule_updates": "count",
        "core.rewrite_calls": "count",
        "trace.overhead": "ratio",
        "trace.spans": "count",
        "trace.wrapper_s": "s",
        "trace.explained": "ratio",
    }
)

#: Per-layer metrics only the sharded, churning ``churn_storm`` moves off
#: zero: computed on every traced run and kept in its run record, but not
#: in :data:`PER_LAYER` while no ``BENCHMARK.json`` workload exercises them.
CHURN_ONLY: Dict[str, str] = {
    "netsim.burst_calls": "count",
    "netsim.burst_len": "packets",
    "webrtc.rx_batch_len": "packets",
    "dataplane.coord.partition_ns": "ns",
    "dataplane.coord.dispatch_ns": "ns",
    "dataplane.coord.reassemble_ns": "ns",
    "dataplane.migrations": "count",
    "core.join_ms": "ms",
    "core.leave_ms": "ms",
}

_SCENARIO_COMMON = (
    "scenario:Testbed.run_for",
    "netsim:Simulator.run",
    "netsim:Network.send",
    "netsim:Link.send",
    "webrtc:WebRtcClient.handle_datagram",
    "webrtc:RemoteBitrateEstimator.on_packet",
    "webrtc:RemoteBitrateEstimator.incoming_rate_bps",
    "webrtc:VideoReceiveStream.on_packet",
    "rtp:serialize_compound",
    "rtp:extract_dependency_descriptor",
    "core:ScallopSfu.handle_datagram",
    "core:SwitchAgent.handle_cpu_packet",
    "dataplane:PipelineDatapath.process",
)

COVERAGE: Dict[str, tuple] = {
    "steady": _SCENARIO_COMMON + ("dataplane:PipelineControlPlane.install_feedback_rule",),
    "churn_storm": _SCENARIO_COMMON
    + (
        "netsim:Network.send_burst",
        "netsim:Link.send_burst",
        "webrtc:WebRtcClient.handle_datagram_batch",
        "core:ScallopSfu.handle_datagram_batch",
        "core:ScallopSfu.join",
        "core:ScallopSfu.leave",
        "core:SequenceRewriterLowRetransmission.on_packet",
        "dataplane:PipelineDatapath.process_batch",
        "dataplane:ShardedScallopPipeline.process_batch",
        "dataplane:PipelineControlPlane.install_adaptation",
        "dataplane:PipelineControlPlane.remove_adaptation",
    ),
    "dataplane": (
        "netsim:Datagram.from_fields",
        "rtp:decode_extensions",
        "rtp:DependencyDescriptor.parse_prefix",
        "core:SequenceRewriterLowRetransmission.on_packet",
        "dataplane:PipelineDatapath.process",
        "dataplane:PipelineDatapath.process_batch",
        "dataplane:PipelineControlPlane.update_adaptation_templates",
    ),
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(
    tracer: Tracer,
    traced_wall_s: float,
    untraced_wall_s: float,
    behaviour: Dict[str, float],
    coordinator: Optional[object] = None,
) -> Dict[str, Dict[str, object]]:
    """Every :data:`PER_LAYER` and :data:`CHURN_ONLY` metric of one traced pass.

    Time the traced pass spent outside any span — the benchmark's own loop
    between scenario steps or bursts, and collector pauses that fall there —
    is attributed to ``scenario`` (the workload driver), so the layer self
    times sum to the traced wall time.  ``trace.wrapper_s`` is the
    calibrated cost of the spans themselves and ``trace.explained`` the
    share of the untraced wall time the self times account for once that
    cost is taken out.
    """
    layers = tracer.layer_totals()
    traced_ns = traced_wall_s * 1e9
    layers["scenario"]["self_ns"] += max(0.0, traced_ns - tracer.top_ns)
    tags = tracer.tag_totals()
    values: Dict[str, float] = {}
    for layer in LAYERS:
        self_ns = layers[layer]["self_ns"]
        values[f"{layer}.self_s"] = self_ns / 1e9
        values[f"{layer}.share"] = _ratio(self_ns, traced_ns)
        values[f"{layer}.calls"] = layers[layer]["calls"]

    events = behaviour.get("events", 0)
    burst = tags["netsim.burst"]
    values.update(
        {
            "netsim.events": events,
            "netsim.ns_per_event": _ratio(layers["netsim"]["self_ns"], events),
            "netsim.send_calls": tags["netsim.send"].calls,
            "netsim.burst_calls": burst.calls,
            "netsim.burst_len": _ratio(burst.items, burst.calls),
            "netsim.link_drops": behaviour.get("link_drops", 0),
        }
    )
    rx_batch = tags["webrtc.rx_batch"]
    gcc = tags["webrtc.gcc"]
    values.update(
        {
            "webrtc.rx_batch_len": _ratio(rx_batch.items, rx_batch.calls),
            "webrtc.gcc_calls": gcc.calls,
            "webrtc.gcc_ns_per_call": _ratio(gcc.self_ns, gcc.calls),
            "webrtc.frames_decoded": behaviour.get("frames_decoded", 0),
            "webrtc.nacks": behaviour.get("nacks", 0),
            "webrtc.plis": behaviour.get("plis", 0),
            "webrtc.freezes": behaviour.get("freezes", 0),
        }
    )
    parse = tags["rtp.parse"]
    values.update(
        {
            "rtp.parse_calls": parse.calls,
            "rtp.serialize_calls": tags["rtp.serialize"].calls,
            "rtp.dd_extract_calls": tags["rtp.dd"].calls,
            "rtp.ns_per_parse": _ratio(parse.self_ns, parse.calls),
        }
    )
    packets = behaviour.get("dataplane_packets", 0)
    # the calls that hand ingress to the engine: the SFU's receive entry
    # points in a scenario, the benchmark's bursts in the dataplane workload
    engine_calls = behaviour.get("bursts", tags["core.sfu_rx"].calls)
    control = tags["dataplane.control_write"]
    stage = {"partition": 0, "dispatch": 0, "reassemble": 0}
    if coordinator is not None and coordinator.packets:
        stage = {name: getattr(coordinator, f"{name}_ns") / coordinator.packets for name in stage}
    values.update(
        {
            "dataplane.packets": packets,
            "dataplane.ns_per_packet": _ratio(layers["dataplane"]["self_ns"], packets),
            "dataplane.batch_len": _ratio(packets, engine_calls),
            "dataplane.table_lookups": behaviour.get("table_lookups", 0),
            "dataplane.replica_yield": _ratio(
                behaviour.get("pre_copies", 0) - behaviour.get("adaptation_drops", 0),
                behaviour.get("pre_copies", 0),
            ),
            "dataplane.cpu_share": _ratio(behaviour.get("cpu_packets", 0), packets),
            "dataplane.control_writes": control.calls,
            "dataplane.control_write_us": _ratio(control.total_ns, control.calls) / 1e3,
            "dataplane.coord.partition_ns": stage["partition"],
            "dataplane.coord.dispatch_ns": stage["dispatch"],
            "dataplane.coord.reassemble_ns": stage["reassemble"],
            "dataplane.migrations": behaviour.get("migrations", 0),
        }
    )
    join = tags["core.join"]
    leave = tags["core.leave"]
    values.update(
        {
            "core.cpu_packets": tags["core.cpu"].calls,
            "core.rule_updates": behaviour.get("rule_updates", 0),
            "core.join_ms": _ratio(join.total_ns, join.calls) / 1e6,
            "core.leave_ms": _ratio(leave.total_ns, leave.calls) / 1e6,
            "core.rewrite_calls": tags["core.rewrite"].calls,
        }
    )
    spans = tracer.spans
    callbacks = sum(entry.calls for name, entry in tracer.stats.items() if ":callback:" in name)
    span_ns, callback_ns = wrapper_costs_ns()
    wrapper_s = ((spans - callbacks) * span_ns + callbacks * callback_ns) / 1e9
    self_total_s = sum(values[f"{layer}.self_s"] for layer in LAYERS)
    values.update(
        {
            "trace.overhead": _ratio(traced_wall_s, untraced_wall_s),
            "trace.spans": spans,
            "trace.wrapper_s": wrapper_s,
            "trace.explained": _ratio(self_total_s - wrapper_s, untraced_wall_s),
        }
    )
    units = dict(PER_LAYER, **CHURN_ONLY)
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
