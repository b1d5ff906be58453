"""Span and counter recorder that wraps skycell's public names from outside.

Nothing under src/ changes: each layer boundary is a function or method that
its callers look up by name at call time (a module attribute or a class
attribute), so replacing that attribute for the length of a traced pass puts
a span around every call. A name that no longer exists is reported as not
observed; the run carries on.

A span records its name, start, duration, its own id and the id of the span
it ran inside. Self time is the duration minus the time covered by child
spans. Spans stay in memory and are written out as Chrome trace-event JSON,
which Perfetto (https://ui.perfetto.dev) opens.
"""

from __future__ import annotations

import importlib
import itertools
import json
import statistics
import time
from collections import Counter

# (owner, attribute, span name). The owner is "module" or "module:Class".
SPAN_TARGETS = (
    ("skycell.orchestrator", "run_episode", "orchestrator.episode"),
    ("skycell.orchestrator:EpisodeLog", "write_jsonl", "orchestrator.log_write"),
    ("skycell.blueprint", "trace_paths", "geometry.trace"),
    ("skycell.blueprint", "synthesize_channel", "phy.synth"),
    ("skycell.blueprint", "beam_sweep", "phy.sweep"),
    ("skycell.blueprint", "throughput_mbps", "phy.throughput"),
    ("skycell.blueprint", "policy_decide", "ai.policy"),
    ("skycell.blueprint", "step_kinematics", "mobility.step"),
    ("skycell.blueprint", "position_payload", "mobility.payload"),
    ("skycell.blueprint:MobilityModule", "step", "blueprint.mobility_step"),
    ("skycell.blueprint:CommsModule", "step", "blueprint.comms_step"),
    ("skycell.blueprint:PolicyModule", "step", "blueprint.policy_step"),
    ("skycell.mission:MissionModule", "step", "mission.step"),
    ("skycell.bus:Broker", "publish", "bus.publish"),
    ("skycell.bus:Subscription", "drain", "bus.drain"),
    ("skycell.bus:Subscription", "next_message", "bus.barrier_wait"),
    ("skycell.ai:BeamDataset", "save_csv", "ai.csv_write"),
    ("skycell.ai:BeamDataset", "load_csv", "ai.csv_read"),
    ("skycell.ai", "train_tree", "ai.train"),
    ("skycell.ai", "topk_accuracy", "ai.topk"),
)

# Count-only hooks: no span, just a tally (and a timestamp for the clock).
COUNT_TARGETS = (
    ("skycell.bus:Subscription", "_deliver", "bus.deliveries"),
    ("skycell.bus:Broker", "set_virtual_time", "orchestrator.virtual_clock"),
)

# Per-layer metrics: name -> (unit, better). Order is the report order.
LAYER_METRICS = {
    "geometry.trace.calls": ("count", "lower"),
    "geometry.trace.busy_s": ("s", "lower"),
    "geometry.trace.us_per_call": ("us", "lower"),
    "geometry.paths.los": ("count", "higher"),
    "geometry.paths.r1": ("count", "higher"),
    "geometry.paths.r2": ("count", "higher"),
    "geometry.outage_ratio": ("ratio", "lower"),
    "phy.synth.calls": ("count", "lower"),
    "phy.synth.busy_s": ("s", "lower"),
    "phy.sweep.calls": ("count", "lower"),
    "phy.sweep.busy_s": ("s", "lower"),
    "phy.throughput.calls": ("count", "lower"),
    "blueprint.comms_step.self_s": ("s", "lower"),
    "blueprint.policy_step.self_s": ("s", "lower"),
    "blueprint.sweep_cache_hit_ratio": ("ratio", "higher"),
    "bus.publish.calls": ("count", "lower"),
    "bus.publish.busy_s": ("s", "lower"),
    "bus.publish.us_per_call": ("us", "lower"),
    "bus.deliveries": ("count", "lower"),
    "bus.fanout": ("ratio", "lower"),
    "bus.drain.busy_s": ("s", "lower"),
    "bus.barrier_wait_s": ("s", "lower"),
    "orchestrator.snapshots": ("count", "higher"),
    "orchestrator.self_s": ("s", "lower"),
    "orchestrator.snapshot_ms.p50": ("ms", "lower"),
    "orchestrator.snapshot_ms.p99": ("ms", "lower"),
    "orchestrator.log_write.busy_s": ("s", "lower"),
    "mobility.step.calls": ("count", "lower"),
    "mobility.step.busy_s": ("s", "lower"),
    "mobility.payload.busy_s": ("s", "lower"),
    "ai.policy.calls": ("count", "lower"),
    "ai.policy.busy_s": ("s", "lower"),
    "ai.csv_write.busy_s": ("s", "lower"),
    "ai.csv_read.busy_s": ("s", "lower"),
    "ai.train.busy_s": ("s", "lower"),
    "ai.topk.busy_s": ("s", "lower"),
    "mission.step.self_s": ("s", "lower"),
    "mission.paused_ratio": ("ratio", "lower"),
    "tracing.overhead_s": ("s", "lower"),
}

MAX_TRACE_EVENTS = 200_000

# Counters that must repeat exactly at a fixed seed.
EXACT_COUNTERS = (
    "geometry.trace.calls",
    "geometry.paths.los",
    "geometry.paths.r1",
    "geometry.paths.r2",
    "bus.publish.calls",
    "bus.deliveries",
    "blueprint.sweep_cache_hit_ratio",
    "orchestrator.snapshots",
)


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    obj = importlib.import_module(module_name)
    return getattr(obj, class_name) if class_name else obj


class Tracer:
    """Collects spans and counters while its patches are installed."""

    def __init__(self):
        self.events = []  # (name, start, duration, self_time, span_id, parent_id)
        self.counts = Counter()
        self.clock_marks = []  # perf_counter at each Broker.set_virtual_time
        self.episodes = []  # (wall_clock_s, sum of module timings, records)
        self.missing = []  # span/counter names whose target does not exist
        self._stack = []
        self._ids = itertools.count(1)
        self._patches = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for owner, attr, name in SPAN_TARGETS:
            self._patch(owner, attr, name, self._span_wrapper)
        for owner, attr, name in COUNT_TARGETS:
            self._patch(owner, attr, name, self._count_wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner_obj, attr, raw = self._patches.pop()
            setattr(owner_obj, attr, raw)

    def _patch(self, owner, attr, name, make_wrapper) -> None:
        try:
            owner_obj = _resolve(owner)
        except (ImportError, AttributeError):
            self.missing.append(name)
            return
        raw = vars(owner_obj).get(attr)  # as stored on the owner, not inherited
        if raw is None:
            self.missing.append(name)
            return
        if isinstance(raw, classmethod):
            patched = classmethod(make_wrapper(name, raw.__func__))
        elif isinstance(raw, staticmethod):
            patched = staticmethod(make_wrapper(name, raw.__func__))
        else:
            patched = make_wrapper(name, raw)
        setattr(owner_obj, attr, patched)
        self._patches.append((owner_obj, attr, raw))

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, name, fn):
        stack, events, ids, clock = self._stack, self.events, self._ids, time.perf_counter
        on_result = _RESULT_HOOKS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [0.0, next(ids)]
            parent = stack[-1][1] if stack else 0
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                events.append((name, t0, dur, dur - frame[0], frame[1], parent))
            if on_result is not None:
                on_result(tracer, args, kwargs, result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        counts, marks, clock = self.counts, self.clock_marks, time.perf_counter
        keep_time = name == "orchestrator.virtual_clock"

        def wrapper(*args, **kwargs):
            counts[name] += 1
            if keep_time:
                marks.append(clock())
            return fn(*args, **kwargs)

        return wrapper

    # -- results -----------------------------------------------------------

    def span_stats(self) -> dict:
        """name -> [calls, busy seconds, self seconds]."""
        stats = {}
        for name, _t0, dur, self_t, _sid, _parent in self.events:
            s = stats.get(name)
            if s is None:
                stats[name] = [1, dur, self_t]
            else:
                s[0] += 1
                s[1] += dur
                s[2] += self_t
        return stats

    def snapshot_latencies_ms(self) -> list:
        """Interval from each snapshot's clock set to the next, per episode.

        run_episode sets the clock once before module init and once per
        snapshot; the last snapshot ends when run_episode returns.
        """
        out = []
        marks = sorted(self.clock_marks)
        for name, t0, dur, *_ in self.events:
            if name != "orchestrator.episode":
                continue
            inside = [m for m in marks if t0 <= m <= t0 + dur][1:]
            bounds = inside + [t0 + dur]
            out.extend((b - a) * 1e3 for a, b in zip(bounds, bounds[1:]))
        return out

    def layer_metrics(self) -> dict:
        """Every per-layer metric except the tracing overhead, as name -> value."""
        st = self.span_stats()
        c = self.counts

        def calls(n):
            return st.get(n, (0, 0.0, 0.0))[0]

        def busy(n):
            return st.get(n, (0, 0.0, 0.0))[1]

        def self_s(n):
            return st.get(n, (0, 0.0, 0.0))[2]

        def per_call_us(n):
            return busy(n) / calls(n) * 1e6 if calls(n) else 0.0

        n_trace = calls("geometry.trace")
        handled = c["positions_handled"]
        payloads = calls("mobility.payload")
        snapshots = sum(rec for _w, _t, rec in self.episodes)
        barrier = busy("bus.barrier_wait")
        latencies = sorted(self.snapshot_latencies_ms())
        m = {
            "geometry.trace.calls": n_trace,
            "geometry.trace.busy_s": busy("geometry.trace"),
            "geometry.trace.us_per_call": per_call_us("geometry.trace"),
            "geometry.paths.los": c["paths.LOS"],
            "geometry.paths.r1": c["paths.R1"],
            "geometry.paths.r2": c["paths.R2"],
            "geometry.outage_ratio": c["trace.outage"] / n_trace if n_trace else 0.0,
            "phy.synth.calls": calls("phy.synth"),
            "phy.synth.busy_s": busy("phy.synth"),
            "phy.sweep.calls": calls("phy.sweep"),
            "phy.sweep.busy_s": busy("phy.sweep"),
            "phy.throughput.calls": calls("phy.throughput"),
            "blueprint.comms_step.self_s": self_s("blueprint.comms_step"),
            "blueprint.policy_step.self_s": self_s("blueprint.policy_step"),
            "blueprint.sweep_cache_hit_ratio": (handled - n_trace) / handled if handled else 0.0,
            "bus.publish.calls": calls("bus.publish"),
            "bus.publish.busy_s": busy("bus.publish"),
            "bus.publish.us_per_call": per_call_us("bus.publish"),
            "bus.deliveries": c["bus.deliveries"],
            "bus.fanout": c["bus.deliveries"] / calls("bus.publish") if calls("bus.publish") else 0.0,
            "bus.drain.busy_s": busy("bus.drain"),
            "bus.barrier_wait_s": barrier,
            "orchestrator.snapshots": snapshots,
            "orchestrator.self_s": sum(w - t for w, t, _r in self.episodes) - barrier,
            "orchestrator.snapshot_ms.p50": _percentile(latencies, 50),
            "orchestrator.snapshot_ms.p99": _percentile(latencies, 99),
            "orchestrator.log_write.busy_s": busy("orchestrator.log_write"),
            "mobility.step.calls": calls("mobility.step"),
            "mobility.step.busy_s": busy("mobility.step"),
            "mobility.payload.busy_s": busy("mobility.payload"),
            "ai.policy.calls": calls("ai.policy"),
            "ai.policy.busy_s": busy("ai.policy"),
            "ai.csv_write.busy_s": busy("ai.csv_write"),
            "ai.csv_read.busy_s": busy("ai.csv_read"),
            "ai.train.busy_s": busy("ai.train"),
            "ai.topk.busy_s": busy("ai.topk"),
            "mission.step.self_s": self_s("mission.step"),
            # a held UAV publishes its position without a kinematics step
            "mission.paused_ratio": (
                (payloads - calls("mobility.step")) / payloads
                if payloads and calls("mission.step") else 0.0
            ),
        }
        return m

    def not_observed_layers(self) -> list:
        layers = {name.split(".")[0] for name in self.missing}
        return sorted(layers)

    def write_chrome_trace(self, path, metadata: dict) -> None:
        """Chrome trace-event JSON ("X" complete events, microseconds).

        Only the first MAX_TRACE_EVENTS spans by start time are written, which
        keeps the file under about 25 MB; the metadata gives the total.
        """
        events = sorted(self.events, key=lambda e: e[1])
        base = events[0][1] if events else 0.0
        meta = dict(metadata, spans_total=len(events), spans_written=min(len(events), MAX_TRACE_EVENTS))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"displayTimeUnit":"ms","otherData":')
            fh.write(json.dumps(meta, sort_keys=True))
            fh.write(',"traceEvents":[\n')
            fh.write(",\n".join(
                '{"name":"%s","cat":"%s","ph":"X","ts":%.3f,"dur":%.3f,'
                '"pid":1,"tid":1,"args":{"id":%d,"parent":%d}}'
                % (name, name.split(".")[0], (t0 - base) * 1e6, dur * 1e6, sid, parent)
                for name, t0, dur, _self, sid, parent in events[:MAX_TRACE_EVENTS]
            ))
            fh.write("\n]}\n")


def _percentile(sorted_values, q) -> float:
    """Nearest-rank percentile of an ascending list; 0.0 when empty."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-q * len(sorted_values) // 100))
    return sorted_values[int(rank) - 1]


# -- result hooks: counters taken from a wrapped call's arguments or result --


def _on_trace(tracer, args, kwargs, bundle):
    if not bundle.paths:
        tracer.counts["trace.outage"] += 1
    for p in bundle.paths:
        tracer.counts["paths." + p.kind] += 1


def _on_publish(tracer, args, kwargs, seq):
    topic = args[1] if len(args) > 1 else kwargs.get("topic")
    # one best-pair report per position the communications module handled
    if topic == "communications.best_pair":
        tracer.counts["positions_handled"] += 1


def _on_episode(tracer, args, kwargs, log):
    tracer.episodes.append((log.wall_clock_s, sum(log.timings.values()), len(log.records)))


_RESULT_HOOKS = {
    "geometry.trace": _on_trace,
    "bus.publish": _on_publish,
    "orchestrator.episode": _on_episode,
}


def median_metrics(per_pass: list) -> dict:
    """Median of each metric over passes (counts repeat, so their median is exact)."""
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
