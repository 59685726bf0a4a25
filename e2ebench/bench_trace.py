"""Outside-in span tracer for the benchmark's traced run.

Nothing under ``src/`` knows about this module.  For a traced run the
benchmark patches the public entry points of each layer (the
:data:`ENTRY_POINTS` table) with wrappers that record one span per call, and
patches ``Simulator.schedule``/``schedule_batch`` so every scheduled callback
runs inside a span attributed to the layer of the module that defines it.
Spans nest as the calls do: a scenario step (``ScenarioRun.run_for``, the
``scenario`` layer) contains the event loop (``Simulator.run``, ``netsim``),
which contains one span per event callback.  Each event callback, and each
span opened with no span active (a burst or control write in the
``dataplane`` workload), starts a *root*: the unit raw spans are sampled by.

Each span has a name, a layer, start/end times, a parent and a root id.
Self time — a span's duration minus the part its child spans cover — is
aggregated online per entry point; raw spans are kept only for a
deterministic sample of roots (every ``sample_every``-th) and written out at
the end, since a scenario run executes on the order of a million events.

Patches are installed before the workload is built (engines bind some entry
points as instance attributes at construction) and removed by
:meth:`Tracer.uninstall`.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: The layers spans are attributed to: the packages under ``src/repro``.
LAYERS = ("netsim", "webrtc", "rtp", "dataplane", "core", "scenario")


@dataclass(frozen=True)
class EntryPoint:
    """One wrapped public callable: ``module:qualname`` in ``layer``.

    ``tag`` groups entries for the layer-specific metrics (``send``,
    ``parse``, ``control_write`` ...).  ``count_arg`` names a positional
    argument (``self`` is 0 for methods) whose ``len()`` is summed per call,
    for batch-length metrics.
    """

    layer: str
    module: str
    qualname: str
    tag: str = ""
    count_arg: Optional[int] = None

    @property
    def name(self) -> str:
        return f"{self.layer}:{self.qualname}"


def _control_writes() -> Tuple[EntryPoint, ...]:
    writes = (
        "install_stream",
        "remove_stream",
        "install_stream_route",
        "remove_stream_route",
        "install_replica_target",
        "remove_replica_target",
        "install_adaptation",
        "update_adaptation_templates",
        "remove_adaptation",
        "install_feedback_rule",
        "remove_feedback_rule",
        "install_placement",
        "remove_placement",
    )
    return tuple(
        EntryPoint("dataplane", "repro.dataplane.pipeline", f"PipelineControlPlane.{name}", "control_write")
        for name in writes
    )


ENTRY_POINTS: Tuple[EntryPoint, ...] = (
    EntryPoint("scenario", "repro.scenario.driver", "Testbed.run_for", "step"),
    EntryPoint("netsim", "repro.netsim.simulator", "Simulator.run", "loop"),
    EntryPoint("netsim", "repro.netsim.datagram", "Datagram.from_fields", "datagram"),
    EntryPoint("netsim", "repro.netsim.link", "Network.send", "send"),
    EntryPoint("netsim", "repro.netsim.link", "Network.send_burst", "burst", count_arg=1),
    EntryPoint("netsim", "repro.netsim.link", "Link.send", "send"),
    EntryPoint("netsim", "repro.netsim.link", "Link.send_burst", "link_burst"),
    EntryPoint("webrtc", "repro.webrtc.client", "WebRtcClient.handle_datagram", "rx"),
    EntryPoint("webrtc", "repro.webrtc.client", "WebRtcClient.handle_datagram_batch", "rx_batch", count_arg=1),
    EntryPoint("webrtc", "repro.webrtc.gcc", "RemoteBitrateEstimator.on_packet", "gcc"),
    EntryPoint("webrtc", "repro.webrtc.gcc", "RemoteBitrateEstimator.incoming_rate_bps", "gcc"),
    EntryPoint("webrtc", "repro.webrtc.decoder", "VideoReceiveStream.on_packet", "decoder"),
    EntryPoint("rtp", "repro.rtp.packet", "RtpPacket.parse", "parse"),
    EntryPoint("rtp", "repro.rtp.packet", "RtpPacket.serialize", "serialize"),
    EntryPoint("rtp", "repro.rtp.rtcp", "parse_compound", "parse"),
    EntryPoint("rtp", "repro.rtp.rtcp", "serialize_compound", "serialize"),
    EntryPoint("rtp", "repro.rtp.extensions", "decode_extensions", "parse"),
    EntryPoint("rtp", "repro.rtp.av1", "extract_dependency_descriptor", "dd"),
    EntryPoint("rtp", "repro.rtp.av1", "DependencyDescriptor.parse_prefix", "dd"),
    EntryPoint("core", "repro.core.scallop", "ScallopSfu.handle_datagram", "sfu_rx"),
    EntryPoint("core", "repro.core.scallop", "ScallopSfu.handle_datagram_batch", "sfu_rx"),
    EntryPoint("core", "repro.core.scallop", "ScallopSfu.join", "join"),
    EntryPoint("core", "repro.core.scallop", "ScallopSfu.leave", "leave"),
    EntryPoint("core", "repro.core.switch_agent", "SwitchAgent.handle_cpu_packet", "cpu"),
    EntryPoint("core", "repro.core.seqrewrite", "SequenceRewriterLowMemory.on_packet", "rewrite"),
    EntryPoint("core", "repro.core.seqrewrite", "SequenceRewriterLowRetransmission.on_packet", "rewrite"),
    EntryPoint("dataplane", "repro.dataplane.pipeline", "PipelineDatapath.process", "process"),
    EntryPoint("dataplane", "repro.dataplane.pipeline", "PipelineDatapath.process_batch", "process_batch", count_arg=1),
    EntryPoint("dataplane", "repro.dataplane.sharding", "ShardedScallopPipeline.process_batch", "coordinator", count_arg=1),
) + _control_writes()


def layer_of_module(module: Optional[str]) -> str:
    """Layer of a ``repro.<layer>...`` module; everything else is ``scenario``
    (the workload driver: scenario callbacks and the benchmark's own loop)."""
    if module:
        parts = module.split(".")
        if len(parts) > 1 and parts[0] == "repro" and parts[1] in LAYERS:
            return parts[1]
    return "scenario"


def callback_module(callback: Callable) -> Optional[str]:
    """Module that defines a scheduled callback (bound methods report their
    class's module, partials their wrapped function's)."""
    while isinstance(callback, functools.partial):
        callback = callback.func
    owner = getattr(callback, "__self__", None)
    if owner is not None and not isinstance(owner, type(sys)):
        return type(owner).__module__
    return getattr(callback, "__module__", None)


class EntryStats:
    """Online aggregates of one span name."""

    __slots__ = ("name", "layer", "event", "calls", "self_ns", "total_ns", "items")

    def __init__(self, name: str, layer: str, event: bool = False) -> None:
        self.name = name
        self.layer = layer
        #: spans of this entry are simulator events: each starts a root
        self.event = event
        self.calls = 0
        self.self_ns = 0
        self.total_ns = 0
        self.items = 0


class Tracer:
    """Span recorder with online self-time aggregation.

    ``sample_every`` selects which roots keep their raw spans (root ordinals
    ``0, k, 2k, ...``); ``max_kept`` caps the raw span buffer.
    """

    def __init__(
        self,
        sample_every: int = 997,
        max_kept: int = 100_000,
        clock: Callable[[], int] = time.perf_counter_ns,
    ) -> None:
        self.sample_every = sample_every
        self.max_kept = max_kept
        self.clock = clock
        self.stats: Dict[str, EntryStats] = {}
        #: Raw spans of sampled roots: (id, name, layer, start, end, parent, root).
        self.kept: List[Tuple[int, str, str, int, int, int, int]] = []
        self.roots = 0
        #: Summed duration of top-level spans (time spent inside any span).
        self.top_ns = 0
        self._stack: List[List[int]] = []  # per open span: [child_ns, span_id]
        self._recording = False
        self._root_id = 0
        self._next_id = 1
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------ spans

    def stat(self, name: str, layer: str, event: bool = False) -> EntryStats:
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = EntryStats(name, layer, event)
        return entry

    def run_span(self, entry: EntryStats, fn: Callable, args: tuple, kwargs: dict, count_arg=None):
        """Call ``fn(*args, **kwargs)`` inside one span of ``entry``."""
        stack = self._stack
        enclosing = None
        if entry.event or not stack:
            enclosing = (self._recording, self._root_id)
            self.roots += 1
            self._recording = (self.roots - 1) % self.sample_every == 0 and len(self.kept) < self.max_kept
            self._root_id = self._next_id
        span_id = parent_id = 0
        if self._recording:
            span_id = self._next_id
            self._next_id += 1
            parent_id = stack[-1][1] if stack else 0
        frame = [0, span_id]
        stack.append(frame)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            stack.pop()
            duration = end - start
            entry.calls += 1
            entry.self_ns += duration - frame[0]
            entry.total_ns += duration
            if count_arg is not None:
                entry.items += len(args[count_arg])
            if stack:
                stack[-1][0] += duration
            else:
                self.top_ns += duration
            if span_id:
                self.kept.append((span_id, entry.name, entry.layer, start, end, parent_id, self._root_id))
            if enclosing is not None:
                self._recording, self._root_id = enclosing

    def wrap(self, fn: Callable, name: str, layer: str, count_arg: Optional[int] = None) -> Callable:
        """A function that runs ``fn`` inside a span named ``name``."""
        entry = self.stat(name, layer)
        run_span = self.run_span

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return run_span(entry, fn, args, kwargs, count_arg)

        return traced

    def wrap_callback(self, callback: Callable) -> Callable:
        """Wrap a scheduled callback as a span of its defining module's layer."""
        module = callback_module(callback)
        layer = layer_of_module(module)
        entry = self.stat(f"{layer}:callback:{module}", layer, event=True)
        return functools.partial(self.run_span, entry, callback, (), {})

    def reset(self) -> None:
        """Zero every aggregate (wrappers keep their entries) and drop kept
        spans: set-up calls made before the measured pass do not count."""
        for entry in self.stats.values():
            entry.calls = entry.self_ns = entry.total_ns = entry.items = 0
        self.kept.clear()
        self.roots = 0
        self.top_ns = 0

    # ------------------------------------------------------------------ patching

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, entry_points: Iterable[EntryPoint] = ENTRY_POINTS, simulator: bool = True) -> None:
        """Patch every entry point (and the simulator's scheduling calls)."""
        for point in entry_points:
            module = importlib.import_module(point.module)
            owner_name, _, attr = point.qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.wrap(raw.__func__, point.name, point.layer, point.count_arg))
                elif isinstance(raw, staticmethod):
                    wrapped = staticmethod(self.wrap(raw.__func__, point.name, point.layer, point.count_arg))
                else:
                    wrapped = self.wrap(raw, point.name, point.layer, point.count_arg)
                self._set(owner, attr, wrapped)
            else:
                original = getattr(module, attr)
                wrapped = self.wrap(original, point.name, point.layer, point.count_arg)
                # ``from x import f`` copies the binding: rebind every copy
                for name, loaded in list(sys.modules.items()):
                    if (name == "repro" or name.startswith("repro.")) and getattr(loaded, attr, None) is original:
                        self._set(loaded, attr, wrapped)
        if simulator:
            self._patch_simulator()

    def _patch_simulator(self) -> None:
        from repro.netsim.simulator import Simulator

        schedule = Simulator.schedule
        schedule_batch = Simulator.schedule_batch
        wrap_callback = self.wrap_callback

        def traced_schedule(sim, delay, callback):
            return schedule(sim, delay, wrap_callback(callback))

        def traced_schedule_batch(sim, delay, callbacks):
            # the batch event itself becomes a root (via schedule); each
            # callback in it is a child span of its own module's layer
            return schedule_batch(sim, delay, [wrap_callback(cb) for cb in callbacks])

        self._set(Simulator, "schedule", traced_schedule)
        self._set(Simulator, "schedule_batch", traced_schedule_batch)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ reporting

    @property
    def spans(self) -> int:
        return sum(entry.calls for entry in self.stats.values())

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """Per layer: ``self_ns`` and ``calls`` summed over its entries."""
        totals = {layer: {"self_ns": 0, "calls": 0} for layer in LAYERS}
        for entry in self.stats.values():
            bucket = totals.setdefault(entry.layer, {"self_ns": 0, "calls": 0})
            bucket["self_ns"] += entry.self_ns
            bucket["calls"] += entry.calls
        return totals

    def tag_totals(self, points: Sequence[EntryPoint] = ENTRY_POINTS) -> Dict[str, EntryStats]:
        """Aggregates per ``layer.tag`` over the entry-point table."""
        out: Dict[str, EntryStats] = {}
        for point in points:
            entry = self.stats.get(point.name)
            key = f"{point.layer}.{point.tag}"
            total = out.get(key)
            if total is None:
                total = out[key] = EntryStats(key, point.layer)
            if entry is not None:
                total.calls += entry.calls
                total.self_ns += entry.self_ns
                total.total_ns += entry.total_ns
                total.items += entry.items
        return out

    def uncalled(self, names: Iterable[str]) -> List[str]:
        """The given entry names that never produced a span."""
        return sorted(name for name in names if self.stats.get(name) is None or self.stats[name].calls == 0)

    def write_spans(self, path: str) -> int:
        """Write the kept raw spans as JSON lines; returns how many."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, layer, start, end, parent, root in self.kept:
                handle.write(
                    json.dumps(
                        {"id": span_id, "name": name, "layer": layer, "start_ns": start,
                         "end_ns": end, "parent": parent, "root": root},
                        separators=(",", ":"),
                    )
                )
                handle.write("\n")
        return len(self.kept)


def wrapper_costs_ns(calls: int = 100_000) -> Tuple[float, float]:
    """Measured cost of one span, in ns: ``(wrapped call, scheduled callback)``.

    Times ``calls`` nested (non-root) spans around a two-argument no-op —
    once through :meth:`Tracer.wrap`, once through
    :meth:`Tracer.wrap_callback` as the patched scheduler does per event —
    against the same number of bare calls; the difference per call is what
    each kind of span adds to the traced wall time.
    """
    tracer = Tracer(sample_every=1 << 62)
    clock = time.perf_counter_ns

    def noop(_a=None, _b=None):
        return None

    traced = tracer.wrap(noop, "calibrate", "scenario")
    wrap_callback = tracer.wrap_callback

    def bare():
        start = clock()
        for _ in range(calls):
            noop(1, 2)
        return clock() - start

    def spans():
        start = clock()
        for _ in range(calls):
            traced(1, 2)
        return clock() - start

    def callbacks():
        start = clock()
        for _ in range(calls):
            wrap_callback(noop)()
        return clock() - start

    def best(run) -> int:
        # nested under a root span, as entry-point spans are in a traced run
        outer = tracer.wrap(run, "calibrate:outer", "scenario")
        return min(outer() for _ in range(3))

    baseline = min(bare() for _ in range(3))
    return (
        max(0.0, (best(spans) - baseline) / calls),
        max(0.0, (best(callbacks) - baseline) / calls),
    )
