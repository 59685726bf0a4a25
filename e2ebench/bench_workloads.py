"""The benchmark's workloads: input generators, set-up and timed passes.

Three workloads, everything in one process on the serial executor:

``steady`` / ``churn_storm``
    The canned scenarios of :mod:`repro.scenario.library`, re-horizoned by
    the benchmark (the schedule is scaled with the horizon) and re-seeded.
    A batch job: the simulator runs the spec as fast as it can, driven in
    fixed simulated steps through ``ScenarioRun.run_for``.

``dataplane``
    The switch model alone.  A :class:`ScallopPipeline` is configured through
    the public control-plane API with campus-shaped meetings (one AV1 L1T3
    sender each, a third of the meetings with S-LR rate-adapted receivers),
    then fed pre-generated wire-format ingress one frame burst at a time
    through ``process_batch`` in a closed loop with a single caller.  Receiver
    RTCP (RR + REMB) arrives as its own one-datagram bursts, and once per
    simulated second a few adapted receivers flip decode target through
    ``update_adaptation_templates``.

Every input is a pure function of the seed (and of the horizon the run
length implies).  Outputs are checked: scenarios must reconcile clean and
their CLI summary is digested; the dataplane's outputs are digested per
burst and compared against a per-packet ``process()`` replay on a fresh
pipeline.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import io
import random
import resource
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import bench_stats
from repro.core.seqrewrite import SequenceRewriterLowRetransmission, SkipCadence
from repro.dataplane.pipeline import FeedbackRule
from repro.experiments.batch_throughput import SFU_ADDRESS, build_meeting_pipeline
from repro.netsim.datagram import Address, Datagram
from repro.rtp.av1 import TemplateStructure
from repro.rtp.rtcp import ReceiverReport, Remb, ReportBlock, serialize_compound
from repro.rtp.wire import PacketView
from repro.scenario import build_scenario
from repro.scenario.__main__ import _print_run
from repro.scenario.library import LIBRARY
from repro.scenario.spec import Scenario
from repro.webrtc.encoder import RtpPacketizer, SvcEncoder

SCENARIO_WORKLOADS = ("steady", "churn_storm")
WORKLOADS = SCENARIO_WORKLOADS + ("dataplane",)

#: Per workload: the default seed (the canned scenario's own for the
#: scenarios) and a held-out seed whose generated inputs differ, for
#: confirming a claimed gain on inputs it was not tuned on.
SEEDS = {"steady": (1, 1001), "churn_storm": (7, 1007), "dataplane": (1, 1001)}

#: Simulated step of the scenario loop; a power of two so the clock lands
#: exactly on every step boundary and on the horizon.
SCENARIO_STEP_S = 1.0 / 16.0
#: Simulated step the dataplane's busy time is bucketed into.
DATAPLANE_STEP_S = 1.0 / 32.0

DATAPLANE_MEETINGS = 40
DATAPLANE_PARTICIPANTS = 8
DATAPLANE_VIDEO_BPS = 2_200_000
DATAPLANE_FRAME_RATE = 30.0
RTCP_INTERVAL_S = 1.0
FLIPS_PER_SECOND = 4

_L1T3 = TemplateStructure.l1t3()


def now_ns() -> int:
    return time.perf_counter_ns()


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------- scenarios


def scenario_spec(workload: str, seed: int, horizon_s: float) -> Scenario:
    """The canned scenario with the given horizon and seed; its schedule is
    scaled so every event keeps its relative position in the run."""
    base = LIBRARY[workload](False)
    scale = horizon_s / base.duration_s
    events = tuple(dataclasses.replace(event, at_s=event.at_s * scale) for event in base.schedule.events)
    return dataclasses.replace(
        base,
        duration_s=horizon_s,
        seed=seed,
        schedule=dataclasses.replace(base.schedule, events=events),
    )


@dataclass
class ScenarioOutcome:
    """What one scenario pass measured and produced."""

    horizon_s: float
    build_s: float
    wall_s: float
    step_wall_s: List[float]
    dataplane_call_ns: List[int]
    attempted: int
    failed: int
    problems: List[str]
    summary_text: str
    digest: str
    behaviour: Dict[str, float]
    peak_rss_mb: float


def _time_dataplane_calls(pipeline, sink: List[int]) -> None:
    """Record the wall latency of each call the SFU makes into its engine.

    Instance attributes shadow the engine's entry points: one clock pair per
    call, the engine itself untouched.
    """
    for attr in ("process", "process_batch"):
        inner = getattr(pipeline, attr)

        def timed(arg, _inner=inner, _append=sink.append, _clock=now_ns):
            start = _clock()
            result = _inner(arg)
            _append(_clock() - start)
            return result

        setattr(pipeline, attr, timed)


def summary_text(run) -> str:
    """The ``python -m repro.scenario`` printout of a finished run."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        _print_run(run)
    return buffer.getvalue()


def scenario_behaviour(run) -> Dict[str, float]:
    """Behavioural counters a pure performance change must leave fixed."""
    frames = nacks = plis = freezes = 0
    for client in list(run.clients) + list(run.departed):
        for inbound in client.get_stats().inbound_video:
            frames += inbound.frames_decoded
            nacks += inbound.nack_count
            plis += inbound.pli_count
            freezes += inbound.freeze_count
    sfu = run.sfu
    pipeline = sfu.pipeline
    counters = pipeline.counters
    tables = (pipeline.stream_table, pipeline.replica_table, pipeline.adaptation_table, pipeline.feedback_table)
    return {
        "events": run.simulator.events_processed,
        "frames_decoded": frames,
        "nacks": nacks,
        "plis": plis,
        "freezes": freezes,
        "sfu_packets_in": sfu.stats.packets_in,
        "dataplane_packets": counters.data_plane_packets + counters.cpu_packets,
        "cpu_packets": counters.cpu_packets,
        "replicas_out": counters.replicas_out,
        "pre_copies": pipeline.pre.copies_produced,
        "adaptation_drops": counters.adaptation_drops,
        "table_lookups": sum(table.lookups for table in tables),
        "agent_cpu_packets": sfu.agent.counters.packets_processed,
        "rule_updates": sfu.agent.counters.rule_updates,
        "migrations": getattr(pipeline, "migrations_applied", 0),
    }


def _links_of(run, links: Dict[int, object]) -> None:
    """Collect every live client's access links, once per step, so links of
    clients that leave later are still counted."""
    network = run.network
    for client in run.clients:
        address = client.config.address
        for getter in (network.uplink, network.downlink):
            try:
                link = getter(address)
            except KeyError:
                continue
            links[id(link)] = link


def run_scenario(
    workload: str,
    seed: int,
    horizon_s: float,
    on_built: Optional[Callable[[object], None]] = None,
) -> ScenarioOutcome:
    """Build, run to ``horizon_s`` in fixed steps, check, and summarize.

    ``on_built`` sees the built run before the clock starts (the traced run
    arms its profile there)."""
    spec = scenario_spec(workload, seed, horizon_s)
    steps = round(horizon_s / SCENARIO_STEP_S)
    call_ns: List[int] = []
    links: Dict[int, object] = {}
    started = time.perf_counter()
    with build_scenario(spec) as run:
        build_s = time.perf_counter() - started
        if on_built is not None:
            on_built(run)
        _time_dataplane_calls(run.sfu.pipeline, call_ns)
        step_wall: List[float] = []
        clock = time.perf_counter
        for _ in range(steps):
            before = clock()
            run.run_for(SCENARIO_STEP_S)
            step_wall.append(clock() - before)
            _links_of(run, links)
        wall = sum(step_wall)
        rss = peak_rss_mb()
        problems = run.reconcile()
        text = summary_text(run)
    dropped = sum(1 for _at, message in run.event_log if message.startswith("drop "))
    behaviour = scenario_behaviour(run)
    behaviour["link_drops"] = sum(link.packets_dropped for link in links.values())
    return ScenarioOutcome(
        horizon_s=horizon_s,
        build_s=build_s,
        wall_s=wall,
        step_wall_s=step_wall,
        dataplane_call_ns=call_ns,
        attempted=len(spec.schedule.events) + 1,
        failed=dropped + (1 if problems else 0),
        problems=problems,
        summary_text=text,
        digest=hashlib.sha256(text.encode("utf-8")).hexdigest(),
        behaviour=behaviour,
        peak_rss_mb=rss,
    )


# ---------------------------------------------------------------------- dataplane


@dataclass(frozen=True)
class MeetingLayout:
    """One meeting of the dataplane workload's control-plane configuration."""

    sender: Address
    ssrc: int
    receivers: Tuple[Address, ...]
    #: receiver -> initial decode target, for the rate-adapted receivers
    adapted: Tuple[Tuple[Address, int], ...]


@dataclass(frozen=True)
class DataplaneLayout:
    meetings: Tuple[MeetingLayout, ...]


def dataplane_layout(seed: int, meetings: int = DATAPLANE_MEETINGS) -> DataplaneLayout:
    """Which meetings/receivers are rate adapted, and their decode targets."""
    rng = random.Random(f"layout:{seed}")
    adapted_meetings = set(rng.sample(range(meetings), meetings // 3))
    layout = []
    for meeting in range(meetings):
        # the address plan of build_meeting_pipeline (rid 1 sends)
        addresses = tuple(
            Address(f"10.{1 + meeting // 200}.{meeting % 200}.{index + 2}", 6000 + index)
            for index in range(DATAPLANE_PARTICIPANTS)
        )
        adapted: Tuple[Tuple[Address, int], ...] = ()
        if meeting in adapted_meetings:
            chosen = sorted(rng.sample(range(1, DATAPLANE_PARTICIPANTS), DATAPLANE_PARTICIPANTS // 2))
            adapted = tuple((addresses[index], rng.choice((0, 1))) for index in chosen)
        layout.append(MeetingLayout(addresses[0], 10_000 + meeting, addresses[1:], adapted))
    return DataplaneLayout(tuple(layout))


def configure_dataplane(layout: DataplaneLayout):
    """Set-up as a user pays it: a pipeline configured through the public
    control-plane API (meetings, replica targets, adaptation, feedback)."""
    pipeline, senders = build_meeting_pipeline(len(layout.meetings), DATAPLANE_PARTICIPANTS)
    for meeting, (sender, ssrc) in zip(layout.meetings, senders):
        if (meeting.sender, meeting.ssrc) != (sender, ssrc):
            raise RuntimeError("dataplane layout drifted from build_meeting_pipeline's address plan")
        for target, decode_target in meeting.adapted:
            pipeline.install_adaptation(
                ssrc,
                target,
                frozenset(_L1T3.templates_for_decode_target(decode_target)),
                SequenceRewriterLowRetransmission(SkipCadence.for_decode_target(decode_target)),
            )
        for index, receiver in enumerate(meeting.receivers):
            pipeline.install_feedback_rule(
                receiver, ssrc, FeedbackRule(sender=sender, forward_remb=index == 0)
            )
    return pipeline


BURST = 0
FLIP = 1


@dataclass(frozen=True)
class DataplaneInputs:
    """Time-ordered ingress: ``(sim_time, BURST, datagrams)`` and
    ``(sim_time, FLIP, (ssrc, receiver, templates))`` control writes."""

    layout: DataplaneLayout
    horizon_s: float
    events: Tuple[Tuple[float, int, tuple], ...]
    packets: int


def dataplane_inputs(seed: int, horizon_s: float, layout: Optional[DataplaneLayout] = None) -> DataplaneInputs:
    """Generate the dataplane workload's ingress and control writes."""
    layout = layout if layout is not None else dataplane_layout(seed)
    rng = random.Random(f"ingress:{seed}")
    timeline: List[Tuple[float, int, int, tuple]] = []
    order = 0
    frame_interval = 1.0 / DATAPLANE_FRAME_RATE
    for meeting in layout.meetings:
        encoder = SvcEncoder(target_bitrate_bps=DATAPLANE_VIDEO_BPS, seed=rng.randrange(1 << 31))
        packetizer = RtpPacketizer(ssrc=meeting.ssrc, seed=rng.randrange(1 << 31))
        at = rng.uniform(0.0, frame_interval)
        while at < horizon_s:
            burst = tuple(
                Datagram(src=meeting.sender, dst=SFU_ADDRESS, payload=PacketView.from_packet(packet))
                for packet in packetizer.packetize(encoder.next_frame(at))
            )
            timeline.append((at, order, BURST, burst))
            order += 1
            at += frame_interval
        for index, receiver in enumerate(meeting.receivers):
            reporter_ssrc = 20_000 + meeting.ssrc * 16 + index
            at = rng.uniform(0.0, RTCP_INTERVAL_S)
            highest = rng.randrange(1 << 16)
            while at < horizon_s:
                highest += int(rng.uniform(200, 400))
                compound = serialize_compound(
                    [
                        ReceiverReport(
                            sender_ssrc=reporter_ssrc,
                            report_blocks=(
                                ReportBlock(
                                    ssrc=meeting.ssrc,
                                    fraction_lost=rng.randrange(8),
                                    highest_sequence=highest,
                                    jitter=rng.randrange(400),
                                ),
                            ),
                        ),
                        Remb(
                            sender_ssrc=reporter_ssrc,
                            bitrate_bps=rng.uniform(0.6, 2.5) * 1e6,
                            media_ssrcs=(meeting.ssrc,),
                        ),
                    ]
                )
                timeline.append((at, order, BURST, (Datagram.from_wire(receiver, SFU_ADDRESS, compound),)))
                order += 1
                at += RTCP_INTERVAL_S
    adapted = [(meeting.ssrc, receiver) for meeting in layout.meetings for receiver, _dt in meeting.adapted]
    second = 1
    while second < horizon_s and adapted:
        for ssrc, receiver in rng.sample(adapted, min(FLIPS_PER_SECOND, len(adapted))):
            templates = frozenset(_L1T3.templates_for_decode_target(rng.randrange(3)))
            timeline.append((float(second), order, FLIP, (ssrc, receiver, templates)))
            order += 1
        second += 1
    timeline.sort(key=lambda item: (item[0], item[1]))
    events = tuple((at, kind, payload) for at, _order, kind, payload in timeline)
    packets = sum(len(payload) for _at, kind, payload in events if kind == BURST)
    return DataplaneInputs(layout, horizon_s, events, packets)


class OutputDigest:
    """Digests ``(destination, wire bytes)`` of every output and CPU copy.

    Replicas mostly alias one buffer (the ingress packet's, or one rewritten
    copy), so each distinct buffer of a burst is hashed once and every
    output contributes its destination plus that buffer's hash.  The cache is
    per burst: a burst's results are alive while it is digested, so buffer
    identities cannot be recycled inside it.
    """

    def __init__(self) -> None:
        self._addresses: Dict[Address, bytes] = {}

    def _address(self, address: Address) -> bytes:
        encoded = self._addresses.get(address)
        if encoded is None:
            encoded = self._addresses[address] = f"{address.ip}:{address.port};".encode()
        return encoded

    def burst(self, results) -> bytes:
        tokens: List[bytes] = []
        append = tokens.append
        hashed: Dict[int, bytes] = {}
        address = self._address
        blake2b = hashlib.blake2b
        for result in results:
            append(b"|")
            for copies, tag in ((result.outputs, None), (result.cpu_copies, b"cpu;")):
                for datagram in copies:
                    payload = datagram.payload
                    wire = payload.buf if isinstance(payload, PacketView) else payload
                    key = id(wire)
                    digest = hashed.get(key)
                    if digest is None:
                        if not isinstance(wire, (bytes, bytearray)):
                            wire = serialize_compound(list(wire))
                        digest = hashed[key] = blake2b(wire, digest_size=16).digest()
                    append(tag if tag is not None else address(datagram.dst))
                    append(digest)
        return hashlib.blake2b(b"".join(tokens), digest_size=16).digest()


@dataclass
class ReplayOutcome:
    """One pass of the dataplane inputs through one pipeline."""

    busy_ns: int
    burst_ns: List[int]
    control_ns: List[int]
    step_busy_ns: List[int]
    burst_digests: List[Optional[bytes]]
    failed_packets: int
    counters: Dict[str, object]
    digest: str
    errors: List[str]


def replay_dataplane(pipeline, inputs: DataplaneInputs, per_packet: bool = False) -> ReplayOutcome:
    """Feed every event to ``pipeline`` in order, closed loop.

    Batch mode times each ``process_batch`` call and each control write; the
    digests are taken between calls, outside the timed windows.
    ``per_packet=True`` is the untimed reference: the same events through
    ``process()`` one datagram at a time.
    """
    digester = OutputDigest()
    steps = max(1, round(inputs.horizon_s / DATAPLANE_STEP_S))
    step_busy = [0] * steps
    burst_ns: List[int] = []
    control_ns: List[int] = []
    digests: List[Optional[bytes]] = []
    errors: List[str] = []
    failed = 0
    clock = now_ns
    process_batch = pipeline.process_batch
    process = pipeline.process
    update_templates = pipeline.update_adaptation_templates
    for at, kind, payload in inputs.events:
        bucket = min(steps - 1, int(at / DATAPLANE_STEP_S))
        if kind == FLIP:
            start = clock()
            update_templates(*payload)
            elapsed = clock() - start
            control_ns.append(elapsed)
            step_busy[bucket] += elapsed
            continue
        try:
            if per_packet:
                results = [process(datagram) for datagram in payload]
            else:
                start = clock()
                results = process_batch(payload)
                elapsed = clock() - start
                burst_ns.append(elapsed)
                step_busy[bucket] += elapsed
        except Exception:  # one bad burst must not end the run: count it
            failed += len(payload)
            digests.append(None)
            if len(errors) < 5:
                errors.append(traceback.format_exc())
            continue
        digests.append(digester.burst(results))
    whole = hashlib.blake2b(digest_size=16)
    for digest in digests:
        whole.update(digest if digest is not None else b"<raised>")
    return ReplayOutcome(
        busy_ns=sum(burst_ns) + sum(control_ns),
        burst_ns=burst_ns,
        control_ns=control_ns,
        step_busy_ns=step_busy,
        burst_digests=digests,
        failed_packets=failed,
        counters=dataclasses.asdict(pipeline.counters),
        digest=whole.hexdigest(),
        errors=errors,
    )


def mismatched_packets(inputs: DataplaneInputs, ours: List[Optional[str]], reference: List[Optional[str]]) -> int:
    """Ingress packets whose burst's outputs differ from the reference
    (per-burst digests in hex; ``None`` marks a burst that raised)."""
    bursts = [payload for _at, kind, payload in inputs.events if kind == BURST]
    return sum(
        len(burst)
        for burst, mine, theirs in zip(bursts, ours, reference)
        if mine is not None and mine != theirs
    )


def hex_digests(outcome: ReplayOutcome) -> List[Optional[str]]:
    return [digest.hex() if digest is not None else None for digest in outcome.burst_digests]


# ---------------------------------------------------------------------- measured passes
#
# One measured pass per worker process (``worker.py``); the run command
# takes the median of each metric over several workers.


def scenario_pass(workload: str, seed: int, horizon_s: float, import_s: float) -> Dict[str, object]:
    """Run one scenario pass and compute its end-to-end metric values."""
    outcome = run_scenario(workload, seed, horizon_s)
    steps_ms = [wall * 1e3 for wall in outcome.step_wall_s]
    calls_us = [ns / 1e3 for ns in outcome.dataplane_call_ns]
    return {
        "metrics": {
            "wall_per_sim_s": outcome.wall_s / horizon_s,
            "step_ms.p50": bench_stats.percentile(steps_ms, 50),
            "step_ms.p90": bench_stats.percentile(steps_ms, 90),
            "pps": outcome.behaviour["sfu_packets_in"] / outcome.wall_s,
            "burst_us.p50": bench_stats.percentile(calls_us, 50),
            "burst_us.p99": bench_stats.percentile(calls_us, 99),
            "setup_s": import_s + outcome.build_s,
            "peak_rss_mb": outcome.peak_rss_mb,
        },
        "samples": {"step_ms": len(steps_ms), "burst_us": len(calls_us)},
        "digest": outcome.digest,
        "behaviour": outcome.behaviour,
        "problems": outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
    }


def dataplane_pass(seed: int, window_s: float, replay_s: float, import_s: float) -> Dict[str, object]:
    """Replay the window on fresh pipelines — at least twice, then until
    ``replay_s`` seconds have passed — and compute the end-to-end metric
    values (medians over replays; percentiles over the pooled samples)."""
    inputs = dataplane_inputs(seed, window_s)
    deadline = time.perf_counter() + replay_s
    outcomes: List[ReplayOutcome] = []
    configure_s = 0.0
    first = None
    while len(outcomes) < 2 or time.perf_counter() < deadline:
        started = time.perf_counter()
        pipeline = configure_dataplane(inputs.layout)
        if first is None:
            configure_s = time.perf_counter() - started
            first = pipeline
        gc.collect()
        outcomes.append(replay_dataplane(pipeline, inputs))
    rss = peak_rss_mb()
    problems: List[str] = [error for outcome in outcomes for error in outcome.errors]
    if any(outcome.digest != outcomes[0].digest or outcome.counters != outcomes[0].counters for outcome in outcomes):
        problems.append("replays of the same inputs disagree")
    busy = bench_stats.median([outcome.busy_ns / 1e9 for outcome in outcomes])
    steps_ms = [ns / 1e6 for outcome in outcomes for ns in outcome.step_busy_ns]
    bursts_us = [ns / 1e3 for outcome in outcomes for ns in outcome.burst_ns]
    return {
        "metrics": {
            "wall_per_sim_s": busy / window_s,
            "step_ms.p50": bench_stats.percentile(steps_ms, 50),
            "step_ms.p90": bench_stats.percentile(steps_ms, 90),
            "pps": inputs.packets / busy,
            "burst_us.p50": bench_stats.percentile(bursts_us, 50),
            "burst_us.p99": bench_stats.percentile(bursts_us, 99),
            "setup_s": import_s + configure_s,
            "peak_rss_mb": rss,
        },
        "samples": {"step_ms": len(steps_ms), "burst_us": len(bursts_us), "replays": len(outcomes)},
        "digest": outcomes[0].digest,
        "burst_digests": hex_digests(outcomes[0]),
        "counters": outcomes[0].counters,
        "behaviour": dataplane_behaviour(first),
        "problems": problems,
        "attempted": inputs.packets * len(outcomes),
        "failed": sum(outcome.failed_packets for outcome in outcomes),
    }


def dataplane_behaviour(pipeline) -> Dict[str, float]:
    counters = pipeline.counters
    tables = (pipeline.stream_table, pipeline.replica_table, pipeline.adaptation_table, pipeline.feedback_table)
    return {
        "dataplane_packets": counters.data_plane_packets + counters.cpu_packets,
        "cpu_packets": counters.cpu_packets,
        "replicas_out": counters.replicas_out,
        "pre_copies": pipeline.pre.copies_produced,
        "adaptation_drops": counters.adaptation_drops,
        "table_lookups": sum(table.lookups for table in tables),
    }

