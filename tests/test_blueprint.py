import collections
import dataclasses
import json
import math
import os
import subprocess
import sys
import types
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import trace_oracle
from hypothesis import example, given, settings
from hypothesis import strategies as st

from skycell import blueprint, bus
from skycell import orchestrator as orch
from skycell.ai import DecisionTreeModel, Policy, TreeNode
from skycell.blueprint import CommsModule, PolicyModule
from skycell.bench import run_benchmark
from skycell.bus import Broker, json_leaf
from skycell.cli import main
from skycell.config import base_route, comms_config, load_config, load_scene
from skycell.geometry import Building, Material, Scene, TxPose, los_class, trace_paths
from skycell.mission import MissionConfig, run_mission
from skycell.mobility import TrajectoryPlan, UeState, position_payload
from skycell.phy import UpaConfig, beam_sweep, boresight_rotation, dft_codebook

CONCRETE = Material("concrete", 0.5)
SHIPPED = comms_config(load_config(None))


def _publish(broker, ue_id, pos):
    doc = {"UE_type": "UAV", "UE_Id": ue_id, "position": {"x": pos[0], "y": pos[1], "z": pos[2]}}
    broker.publish(orch.POSITIONS_TOPIC, json.dumps(doc), publisher=ue_id)


def _comms(scene, cfg=SHIPPED, **kwargs):
    broker = Broker()
    comms = CommsModule(scene, cfg, **kwargs)
    comms.init(broker)
    return broker, comms


def test_outage_gains_sized_from_codebooks():
    # a tall box hides the receiver from the transmitter: no path of any order
    scene = Scene(300, 300, TxPose((20.0, 50.0, 30.0)),
                  [Building((40, 0.1, 0), (60, 100, 200), CONCRETE)])
    cfg = dataclasses.replace(SHIPPED, tx_upa=UpaConfig(4, 4))
    broker, comms = _comms(scene, cfg)
    _publish(broker, "hidden", (80.0, 50.0, 30.0))
    _publish(broker, "seen", (20.0, 150.0, 30.0))
    comms.step(0.0, broker)
    assert comms.current("hidden").los == "outage"
    assert comms.current("seen").los == "LOS"
    for result in map(comms.current, comms.queues):
        assert result.gains.shape == (16 * 4,)


def test_step_traces_each_moved_ue_once(monkeypatch):
    scene = Scene(719.2, 693.4, TxPose((100.0, 100.0, 50.0)),
                  [Building((50, 40, 0), (90, 90, 60), CONCRETE)])
    calls = []  # the receivers of each batch trace call
    real = blueprint.trace_path_arrays

    def spy(scene, tx, rx, **kwargs):
        calls.append([tuple(p) for p in rx])
        return real(scene, tx, rx, **kwargs)

    monkeypatch.setattr(blueprint, "trace_path_arrays", spy)
    broker, comms = _comms(scene)
    best = broker.subscribe(orch.BEST_PAIR_TOPIC)

    a, b, c = (200.0, 150.0, 40.0), (30.0, 120.0, 25.0), (120.0, 20.0, 60.0)
    for ue_id, pos in (("u2", a), ("u0", b), ("u1", a)):
        _publish(broker, ue_id, pos)
    comms.step(0.0, broker)
    assert calls == [[a, b, a]]
    assert [json.loads(m.payload)["UE_Id"] for m in best.drain()] == ["u2", "u0", "u1"]
    for ue_id, pos in (("u2", a), ("u0", b), ("u1", a)):
        bundle = trace_paths(scene, scene.tx.position, pos)
        assert comms.current(ue_id).los == los_class(bundle)

    # only the UE that moved is traced again; a snapshot with none traces nothing
    for ue_id, pos in (("u2", a), ("u0", c), ("u1", a)):
        _publish(broker, ue_id, pos)
    comms.step(0.5, broker)
    assert calls == [[a, b, a], [c]]
    for ue_id, pos in (("u2", a), ("u0", c), ("u1", a)):
        _publish(broker, ue_id, pos)
    comms.step(1.0, broker)
    assert len(calls) == 2


# a tall wall hides the point behind it from the transmitter; a low block adds reflections
_WALLED = Scene(300, 300, TxPose((20.0, 50.0, 30.0)),
                [Building((40, 0.1, 0), (60, 100, 200), CONCRETE),
                 Building((100, 150, 0), (140, 200, 40), CONCRETE)])
_HIDDEN = (80.0, 50.0, 30.0)
_point = st.tuples(st.floats(1.0, 299.0), st.floats(1.0, 299.0), st.floats(1.0, 120.0))


def _oracle_sweep(scene, cfg, pos):
    """(los, best_pair, gains) of one UE from the frozen tracer and path-by-path synthesis."""
    bundle = trace_oracle.trace_paths(scene, scene.tx.position, pos, carrier_hz=cfg.carrier_hz)
    tx_cb, rx_cb = dft_codebook(cfg.tx_upa), dft_codebook(cfg.rx_upa)
    if not bundle.paths:
        return "outage", 0, np.zeros(tx_cb.n_codewords * rx_cb.n_codewords)
    h = trace_oracle.synthesize_channel(
        bundle, cfg.tx_upa, cfg.rx_upa,
        boresight_rotation(scene.tx.azimuth_deg, scene.tx.downtilt_deg),
        boresight_rotation(cfg.rx_azimuth_deg, cfg.rx_downtilt_deg),
    )
    best, gains = beam_sweep(h, tx_cb, rx_cb)
    return los_class(bundle), best, gains


@given(
    first=st.lists(_point, min_size=0, max_size=3),
    moves=st.lists(st.one_of(st.none(), _point, st.just(_HIDDEN)), min_size=6, max_size=6),
    orders=st.tuples(st.permutations(range(6)), st.permutations(range(6))),
)
# u5's LOS length squares a coordinate whose pow(y, 2) is one ulp off y * y
@example(first=[], moves=[None] * 5 + [(1.0, 100.26463614718702, 1.0)],
         orders=(list(range(6)), list(range(6))))
@settings(max_examples=15, deadline=None)
def test_step_matches_per_ue_oracle_sweeps(first, moves, orders):
    """Over two snapshots, each UE's SweepResult and the best-pair wire equal per-UE sweeps
    on the oracle; u0 and u1 share a position, u2 starts in outage, a held UE keeps its
    cached result, and each snapshot traces its moved UEs in one batch call."""
    ues = [f"u{i}" for i in range(6)]
    shared = first[0] if first else (200.0, 250.0, 60.0)
    start = [shared, shared, _HIDDEN, *first[1:]]
    start += [(30.0 + 40.0 * i, 280.0, 50.0) for i in range(6 - len(start))]
    snapshots = [dict(zip(ues, start))]
    snapshots.append({u: pos if move is None else move
                      for (u, pos), move in zip(snapshots[0].items(), moves)})
    assert _oracle_sweep(_WALLED, SHIPPED, _HIDDEN)[0] == "outage"

    broker, comms = _comms(_WALLED)
    best = broker.subscribe(orch.BEST_PAIR_TOPIC)
    before = {}
    for k, (positions, order) in enumerate(zip(snapshots, orders)):
        sent = [ues[i] for i in order]
        for ue_id in sent:
            _publish(broker, ue_id, positions[ue_id])
        batch = mock.Mock(wraps=blueprint.trace_path_arrays)
        with mock.patch.object(blueprint, "trace_path_arrays", batch):
            comms.step(0.5 * k, broker)
        moved = [positions[u] for u in sent
                 if u not in before or before[u].position != positions[u]]
        assert [[tuple(p) for p in c.args[2]] for c in batch.call_args_list] == (
            [moved] if moved else [])
        wire = [(m.doc["UE_Id"], m.doc["pair"]) for m in best.drain()]
        expected = []
        for ue_id in sent:
            los, pair, gains = _oracle_sweep(_WALLED, SHIPPED, positions[ue_id])
            result = comms.current(ue_id)
            assert result.position == positions[ue_id]
            assert (result.los, result.best_pair) == (los, pair)
            assert type(result.best_pair) is int
            assert result.gains.tobytes() == gains.tobytes()
            if ue_id in before and before[ue_id].position == positions[ue_id]:
                assert result is before[ue_id]
            expected.append((ue_id, pair))
        assert wire == expected
        before = {ue_id: comms.current(ue_id) for ue_id in comms.queues}


def test_policy_module_rejects_model_of_other_pair_count():
    scene = Scene(300, 300, TxPose((20.0, 50.0, 30.0)), [])
    comms = CommsModule(scene, dataclasses.replace(SHIPPED, tx_upa=UpaConfig(4, 4)))
    assert comms.pair_grid == (4, 16)
    rng = np.random.default_rng(0)
    for n_classes, ok in ((64, True), (256, False)):
        counts = np.zeros(n_classes, dtype=np.int64)
        model = DecisionTreeModel(TreeNode(counts=counts), 1, n_classes)
        if ok:
            PolicyModule(Policy(kind="tree", model=model), comms, rng)
        else:
            with pytest.raises(ValueError, match="256 pairs, arrays 64"):
                PolicyModule(Policy(kind="tree", model=model), comms, rng)


def test_no_message_is_parsed_and_every_reader_gets_its_doc(monkeypatch):
    """Every position message carries the doc its text encodes, so the episode parses no
    JSON: the orchestrator, comms and policy each read that doc through Message.doc."""
    parses = []
    monkeypatch.setattr(bus, "json", types.SimpleNamespace(
        loads=lambda text: parses.append(text) or json.loads(text), dumps=json.dumps))
    reads = collections.Counter()  # id of a position message -> reads of its doc
    doc = bus.Message.doc

    def read(msg):
        if msg.topic == orch.POSITIONS_TOPIC:  # kept alive by the probe, so ids stay unique
            reads[id(msg)] += 1
        return doc.fget(msg)

    monkeypatch.setattr(bus.Message, "doc", property(read))
    cfg = load_config(None)
    route = base_route(cfg)
    plans = {f"uav{i}": blueprint.offset_plan(route, 3.0 * i) for i in range(2)}
    mobility = blueprint.MobilityModule(plans, 0.5)
    mobility.hold("uav1", 3)  # uav1 sends its start position for three snapshots
    comms = CommsModule(load_scene(cfg), SHIPPED)
    ai = PolicyModule(Policy(kind="random"), comms, np.random.default_rng(0))
    broker = Broker()
    probe = broker.subscribe(orch.POSITIONS_TOPIC)
    ep = orch.EpisodeConfig(n_snapshots=6, category=orch.ALL_IN_LOOP)
    log = orch.run_episode(ep, [mobility, comms, ai], broker=broker)
    assert len(log.records) == 6
    positions = probe.drain()
    assert len(positions) == 6 * 2
    assert all(reads[id(msg)] == 3 for msg in positions)
    assert parses == []
    for msg in positions:
        assert msg.doc == json.loads(msg.payload)


def test_a_held_snapshot_reuses_its_sweep_and_encodes_per_send(monkeypatch):
    """While a UE holds, its sweep is reused and the tracer does not run, and its next
    moves come from the queue its first pass traced; every text is built when it is
    sent, so each snapshot encodes its position, pair and throughput report and
    computes one rate, held or not. Every text is built by bus from its
    leaves, so the spy counts leaf encodings: five for a position, three each for the
    best pair, the decision and the throughput report."""
    calls = collections.Counter()

    def spy(fn, name):
        return lambda *args, **kwargs: calls.update([name]) or fn(*args, **kwargs)

    monkeypatch.setattr(bus, "json_leaf", spy(json_leaf, "leaf"))
    for name in ("position_payload", "throughput_mbps", "trace_path_arrays"):
        monkeypatch.setattr(blueprint, name, spy(getattr(blueprint, name), name))
    cfg = load_config(None)
    mob = blueprint.MobilityModule({"uav0": base_route(cfg)}, 0.5)
    mob.hold("uav0", 5)
    comms = CommsModule(load_scene(cfg), SHIPPED)
    ai = PolicyModule(Policy(kind="oracle"), comms, np.random.default_rng(0))
    broker = Broker()
    positions = broker.subscribe(orch.POSITIONS_TOPIC)
    counts = []
    ep = orch.EpisodeConfig(n_snapshots=7, category=orch.ALL_IN_LOOP)
    orch.run_episode(ep, [mob, comms, ai], broker=broker,
                     stop_early=lambda rec: counts.append(dict(calls)))
    assert calls["position_payload"] == len(positions.drain()) == 7
    # position, best pair, decision and throughput report, once per snapshot each
    for k in range(5):
        n = k + 1
        assert counts[k] == {"leaf": (5 + 3 + 3 + 3) * n, "position_payload": n,
                             "throughput_mbps": n, "trace_path_arrays": 1}
    # run_episode links the hand-built list, so the first pass also traced the moves
    # after the hold, and they come from the queue
    assert counts[5]["trace_path_arrays"] == counts[6]["trace_path_arrays"] == 1


_leaf = st.one_of(
    st.floats(), st.integers(), st.booleans(), st.just(-0.0), st.text(max_size=4),
    st.sampled_from([math.nan, math.inf, -math.inf]), st.floats().map(np.float64),
)


@given(ue_id=st.text(max_size=8), position=st.tuples(_leaf, _leaf, _leaf), pair=_leaf,
       tput=_leaf)
@settings(max_examples=150, deadline=None)
def test_message_texts_are_json_dumps_of_a_fresh_doc(ue_id, position, pair, tput):
    """The position, pair and throughput texts are templates filled leaf by leaf; each is
    json.dumps of a fresh doc, for non-ASCII ids, ints, bools, -0.0, nan, inf and float64.
    1, True and 1.0 compare and hash alike; sent in that order for one UE, each still
    says its own value."""
    x, y, z = position
    state = UeState("PERSON", ue_id, position, 0.0)
    assert position_payload(state)[0] == json.dumps(
        {"UE_type": "PERSON", "UE_Id": ue_id, "position": {"x": x, "y": y, "z": z}})
    assert bus.pair_text("CAR", ue_id, pair)[0] == json.dumps(
        {"UE_type": "CAR", "UE_Id": ue_id, "pair": pair})
    broker, comms = _comms(_WALLED)
    # a policy built on comms takes its throughput report over: the step sends the pair
    # text alone, and these pairs need not index the gains
    PolicyModule(Policy(kind="random"), comms, np.random.default_rng(0))
    best, reports = (broker.subscribe(topic)
                     for topic in (orch.BEST_PAIR_TOPIC, orch.THROUGHPUT_TOPIC))
    here = (0.0, 0.0, 0.0)
    doc = {"UE_type": "UAV", "UE_Id": ue_id}
    for value in (1, True, 1.0, pair):
        comms.queues[ue_id] = collections.deque(
            [blueprint.SweepResult(here, "LOS", value, np.ones(4))])
        _publish(broker, ue_id, here)
        comms.step(0.0, broker)  # the UE has not moved: its best pair is the value set
        assert [m.payload for m in best.drain()] == [json.dumps({**doc, "pair": value})]
    for value in (1, True, 1.0, tput):
        with mock.patch.object(blueprint, "throughput_mbps", lambda gain, cfg: value):
            sent = comms.report_throughput(doc, 0, broker)
        assert (sent, [m.payload for m in reports.drain()]) == (
            value, [json.dumps({**doc, "throughput": value})])


def test_held_throughput_reports_follow_their_pair(monkeypatch):
    """A held UE under a random policy repeats pairs from one sweep: one rate is computed
    per report, and a repeated pair repeats its text."""
    rates = []
    real = blueprint.throughput_mbps
    monkeypatch.setattr(blueprint, "throughput_mbps", lambda *a: rates.append(a) or real(*a))
    cfg = load_config(None)
    small = dataclasses.replace(SHIPPED, tx_upa=UpaConfig(2, 2))  # 16 pairs
    mob = blueprint.MobilityModule({"uav0": base_route(cfg)}, 0.5)
    mob.hold("uav0", 20)
    sweeps = {}  # id -> every SweepResult the episode made, kept alive
    comms = CommsModule(load_scene(cfg), small,
                        sweep_hook=lambda t, ue_id, result: sweeps.setdefault(id(result), result))
    ai = PolicyModule(Policy(kind="random"), comms, np.random.default_rng(0))
    broker = Broker()
    decisions, reports = (broker.subscribe(topic)
                          for topic in (orch.DECISION_TOPIC, orch.THROUGHPUT_TOPIC))
    ep = orch.EpisodeConfig(n_snapshots=24, category=orch.ALL_IN_LOOP)
    orch.run_episode(ep, [mob, comms, ai], broker=broker)
    pairs = [m.doc["pair"] for m in decisions.drain()]
    texts = [m.payload for m in reports.drain()]
    held = set(pairs[:20])  # the first sweep serves the 20 held snapshots
    assert len(sweeps) == 5 and len(held) < 20
    assert len(rates) == len(texts) == 24
    assert len(set(zip(pairs[:20], texts[:20]))) == len(held)  # one text per held pair
    for text in texts:
        tput = json.loads(text)["throughput"]
        assert text == json.dumps({"UE_type": "UAV", "UE_Id": "uav0", "throughput": tput})


def test_broker_state_is_fixed_by_the_loop_not_its_length():
    """The loop publishes a fixed set of (publisher, topic) pairs, so longer runs add none,
    and the sweep queues are bounded by the UEs."""
    cfg = load_config(None)
    route = base_route(cfg)
    scene = load_scene(cfg)

    def broker_after(n_snapshots):
        plans = {f"uav{i}": blueprint.offset_plan(route, 3.0 * (i - 1)) for i in range(3)}
        comms = CommsModule(scene, SHIPPED)
        mob = blueprint.MobilityModule(plans, 0.5)
        mob.hold("uav1", n_snapshots // 2)  # one UAV reports from one sweep for a while
        ai = PolicyModule(Policy(kind="random"), comms, np.random.default_rng(0))
        broker = Broker()
        routes = []  # read while the episode's subscriptions are open
        ep = orch.EpisodeConfig(n_snapshots=n_snapshots, category=orch.ALL_IN_LOOP)
        log = orch.run_episode(ep, [mob, comms, ai], broker=broker,
                               stop_early=lambda rec: routes.append(len(broker._routes)))
        assert len(log.records) == n_snapshots
        return len(broker._seq), routes[-1], len(comms.queues)

    short, long = broker_after(5), broker_after(40)
    assert short == long
    assert short[0] >= 3  # one position key per UAV at least
    assert short[2] == 3


def test_episodes_on_one_broker_close_their_subscriptions():
    """Comms and policy return their subscriptions from init, and the episode closes them."""
    cfg = load_config(None)
    plans = {"uav0": base_route(cfg)}
    scene = load_scene(cfg)
    broker = Broker()
    probe = broker.subscribe(orch.DECISION_TOPIC)
    ep = orch.EpisodeConfig(n_snapshots=5, category=orch.ALL_IN_LOOP)
    for _ in range(3):
        comms = CommsModule(scene, SHIPPED)
        modules = [blueprint.MobilityModule(plans, 0.5), comms,
                   PolicyModule(Policy(kind="random"), comms, np.random.default_rng(0))]
        orch.run_episode(ep, modules, broker=broker)
        assert broker._subs == [probe]
    assert len(probe.drain()) == 3 * 5


class _HeldMobility(blueprint.MobilityModule):
    """Holds UE u<i> for n snapshots from snapshot k, for each (k, i, n) of a schedule."""

    def __init__(self, plans, sampling_interval, holds):
        super().__init__(plans, sampling_interval)
        self.holds = holds

    def step(self, t, broker):
        k = round(t / self.sampling_interval)
        for when, i, n in self.holds:
            if when == k and f"u{i}" in self.states:
                self.hold(f"u{i}", n)
        super().step(t, broker)


class _Unforeseen(_HeldMobility):
    """A position source that lists no move ahead, so communications traces none."""

    def upcoming(self, ue_id, k):
        return []


def _episode(plans, holds=(), look_ahead=True, category=orch.ALL_IN_LOOP, n_snapshots=16):
    """Published (topic, text) in order, every sweep_hook result, the log lines and the
    receivers of each trace call of one episode, or the EpisodeAbort it raised. Without
    look_ahead the position source lists no move ahead."""
    routes = {f"u{i}": p for i, p in enumerate(plans)}
    mobility = (_HeldMobility if look_ahead else _Unforeseen)(routes, 0.5, holds)
    return _run(mobility, category, n_snapshots)


def _run(source, category, n_snapshots):
    """_episode's results for an episode driven by a given position source."""
    sweeps = []

    def hook(t, ue_id, r):
        sweeps.append((t, ue_id, r.position, r.los, r.best_pair, r.gains.tobytes()))

    comms = CommsModule(_WALLED, SHIPPED, sweep_hook=hook)
    modules = [source, comms]
    if "ai" in orch.category_wiring(category):
        modules.append(PolicyModule(Policy(kind="random"), comms, np.random.default_rng(7)))
    broker = Broker()
    wire = broker.subscribe(">")
    batch = mock.Mock(wraps=blueprint.trace_path_arrays)
    with mock.patch.object(blueprint, "trace_path_arrays", batch):
        try:
            log = orch.run_episode(orch.EpisodeConfig(n_snapshots=n_snapshots, category=category),
                                   modules, broker=broker)
        except orch.EpisodeAbort as exc:
            return exc
    traced = [[tuple(p) for p in c.args[2]] for c in batch.call_args_list]
    return ([(m.topic, m.payload) for m in wire.drain()], sweeps,
            [rec.to_json() for rec in log.records], traced)


_route_point = st.tuples(st.floats(5.0, 295.0), st.floats(5.0, 295.0), st.floats(2.0, 80.0))


@st.composite
def _plans(draw):
    points = draw(st.lists(_route_point, min_size=2, max_size=5))
    for i in draw(st.lists(st.integers(0, len(points) - 1), max_size=2)):
        points.insert(i, points[i])  # a repeated point is a zero-length leg
    speed = draw(st.sampled_from([2.5, 5.0]) | st.floats(1.0, 60.0))
    return TrajectoryPlan(points[0], points[-1], tuple(points[1:-1]), speed)


@given(
    # 1 to 12 UEs: 1-5 trace more than one move ahead each, 6-12 one
    plans=st.lists(_plans(), min_size=1, max_size=12),
    holds=st.lists(st.tuples(st.integers(0, 15), st.integers(0, 11), st.integers(1, 4)),
                   max_size=4),
    category=st.sampled_from([orch.ALL_IN_LOOP, orch.MOB3D_COMM_IN_LOOP]),
)
@settings(max_examples=25, deadline=None)
def test_look_ahead_changes_no_output(plans, holds, category):
    """Whether or not its position source lists moves ahead, an episode publishes the same
    texts in the same order, hands sweep_hook the same results (position, LOS class, best
    pair, gains bytes) and logs the same records; the look-ahead only merges trace calls,
    and a pass holds at most max(TRACE_BATCH, 2M) receivers for M UEs."""
    ahead = _episode(plans, holds, True, category)
    plain = _episode(plans, holds, False, category)
    assert ahead[:3] == plain[:3]
    assert len(ahead[3]) <= len(plain[3])
    assert all(len(c) <= max(blueprint.TRACE_BATCH, 2 * len(plans)) for c in ahead[3])


class _UnlistedReplay(blueprint.ReplayModule):
    """A replay that lists no move ahead, so communications traces none."""

    def upcoming(self, ue_id, k):
        return []


@given(
    # 1 to 8 UEs: 1-5 trace more than one move ahead each, 6-8 one
    plans=st.lists(_plans(), min_size=1, max_size=8),
    holds=st.lists(st.tuples(st.integers(0, 15), st.integers(0, 7), st.integers(1, 4)),
                   max_size=4),
    absent=st.lists(st.tuples(st.integers(0, 15), st.integers(0, 7)), max_size=6),
    # a height on or below the ground, or None for the transmitter's position
    rejected=st.lists(st.tuples(st.integers(0, 15), st.integers(0, 7),
                                st.sampled_from([0.0, -3.0, None])), max_size=1),
)
@settings(max_examples=20, deadline=None)
def test_a_replay_traces_ahead_and_changes_no_output(plans, holds, absent, rejected):
    """A recorded flight with holds, replayed in AiCommInLoop with UEs dropped from some
    frames and at times a position the tracer rejects, publishes the same texts, hands
    sweep_hook the same results and logs the same records, or aborts at the same
    snapshot with the same diagnostic and partial log, whether or not the replay lists
    the recorded moves ahead; the look-ahead only merges trace calls. Unedited, the
    replay hands sweep_hook the flight's own results and traces no more receivers."""
    flight = _episode(plans, holds, True, orch.MOB3D_COMM_IN_LOOP)
    frames = [orch.SnapshotRecord.from_json(line).ue_states for line in flight[2]]
    for k, i in absent:
        if k < len(frames):
            frames[k] = [u for u in frames[k] if u[1] != f"u{i}"]
    for k, i, z in rejected:
        if k < len(frames):
            frames[k] = [(kind, ue_id, _WALLED.tx.position if z is None else (*pos[:2], z))
                         if ue_id == f"u{i}" else (kind, ue_id, pos)
                         for kind, ue_id, pos in frames[k]]
    records = [orch.SnapshotRecord(0.5 * k, f, 0, 0.0) for k, f in enumerate(frames)]
    ahead = _run(blueprint.ReplayModule(records), orch.AI_COMM_IN_LOOP, len(records))
    plain = _run(_UnlistedReplay(records), orch.AI_COMM_IN_LOOP, len(records))
    if isinstance(plain, orch.EpisodeAbort):
        assert isinstance(ahead, orch.EpisodeAbort)
        assert ahead.diagnostic == plain.diagnostic
        assert [r.to_json() for r in ahead.log.records] == [
            r.to_json() for r in plain.log.records]
        return
    assert ahead[:3] == plain[:3]
    assert len(ahead[3]) <= len(plain[3])
    if not (absent or rejected):
        assert ahead[1] == flight[1]
        assert sum(map(len, ahead[3])) <= sum(map(len, flight[3]))


def test_replay_upcoming_lists_the_recorded_moves():
    """A replay lists the moves after the frame it last published: a repeated position
    (a hold) once, none past the recording's end, and none for a UE the frame lacks."""
    a, b, c = (1.0, 2.0, 30.0), (2.0, 2.0, 30.0), (3.0, 2.0, 30.0)
    frames = [[("UAV", "u0", a), ("UAV", "u1", c)], [("UAV", "u0", a)],
              [("UAV", "u0", [2, 2, 30]), ("UAV", "u1", b)],
              [("UAV", "u0", c), ("UAV", "u1", a)], [("UAV", "u0", b)]]
    replay = blueprint.ReplayModule([orch.SnapshotRecord(0.5 * k, f, 0, 0.0)
                                     for k, f in enumerate(frames)])
    broker = Broker()
    assert replay.upcoming("u0", 3) == []  # nothing published yet
    listed = []
    for k in range(len(frames)):
        replay.step(0.5 * k, broker)
        listed.append((replay.upcoming("u0", 2), replay.upcoming("u1", 2)))
    assert listed == [([b, c], [b, a]), ([b, c], []), ([c, b], [a]), ([b], []), ([], [])]
    assert all(type(p) is tuple for p in listed[0][0])


_ROUTE = TrajectoryPlan((150.0, 250.0, 40.0), (250.0, 250.0, 40.0), speed_mps=5.0)


@given(
    # 1 to 12 UEs: 1-5 trace more than one move ahead each, 6-12 one
    plans=st.lists(_plans(), min_size=1, max_size=12),
    holds=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 11), st.integers(1, 4)),
                   max_size=12),
    jumps=st.lists(st.tuples(st.integers(1, 9), st.integers(0, 11)), max_size=2),
    look_ahead=st.booleans(),
)
# twelve UEs: u0-u2 trace their next moves in snapshot 1 while the rest hold; in snapshot
# 2 u0 is put on another route as nine UEs resume, so ten trace one move ahead each
@example(plans=[blueprint.offset_plan(_ROUTE, 3.0 * i) for i in range(12)],
         holds=[(1, i, 1) for i in range(3, 12)], jumps=[(2, 0)], look_ahead=True)
@settings(max_examples=25, deadline=None)
def test_each_queue_is_the_published_position_then_its_next_moves(plans, holds, jumps,
                                                                   look_ahead):
    """After every step, each UE's queue holds the sweeps of its published position and
    then of a prefix of the moves its position source's upcoming lists for it (none from
    a source that lists none), at any UE count; a UE put on another route gets a new
    queue."""
    routes = {f"u{i}": p for i, p in enumerate(plans)}
    mobility = (_HeldMobility if look_ahead else _Unforeseen)(routes, 0.5, holds)
    broker = Broker()
    comms = CommsModule(_WALLED, SHIPPED)
    comms.source = mobility  # the link run_episode makes
    comms.init(broker)
    published = broker.subscribe(orch.POSITIONS_TOPIC)
    for k in range(10):
        for when, i in jumps:
            if when == k and i < len(plans):
                plan = blueprint.offset_plan(plans[i], 3.0)
                mobility.states[f"u{i}"] = blueprint.uav_state(f"u{i}", plan)
        mobility.step(0.5 * k, broker)
        comms.step(0.5 * k, broker)
        for msg in published.drain():
            ue_id = msg.doc["UE_Id"]
            queued = [r.position for r in comms.queues[ue_id]]
            assert queued[0] == blueprint.position_of(msg.doc)
            assert queued[1:] == mobility.upcoming(ue_id, len(queued) - 1)


def _step(x):
    return (150.0 + 2.5 * x, 250.0, 40.0)


# _ROUTE's line, 2 * TRACE_BATCH + 8 moves long, so every pass below runs full
_LONG = TrajectoryPlan((150.0, 250.0, 40.0), _step(2 * blueprint.TRACE_BATCH + 8), speed_mps=5.0)


def test_a_lone_ue_traces_its_next_moves_in_one_pass():
    """A lone moving UE traces TRACE_BATCH positions per call and its next moves trace
    nothing; a hold delays them. Two UEs trace TRACE_BATCH // 2 positions each; the
    fewest UEs that leave room for no more, TRACE_BATCH // 2 + 1, trace their next move
    each: 2M receivers on every other snapshot."""
    n = blueprint.TRACE_BATCH
    *_, traced = _episode([_LONG], holds=[(2, 0, 3)], n_snapshots=n + 4)
    # snapshots 2-4 hold; moves 3 to n then come from the first call's queue
    assert traced == [[_step(x) for x in range(k, k + n)] for k in (1, n + 1)]
    two = [_LONG, blueprint.offset_plan(_LONG, 3.0)]
    *_, traced = _episode(two, n_snapshots=n)
    assert [len(c) for c in traced] == [n, n]
    assert traced[0][:n // 2] == [_step(x) for x in range(1, n // 2 + 1)]
    crowd = [blueprint.offset_plan(_LONG, 3.0 * i) for i in range(n // 2 + 1)]
    *_, traced = _episode(crowd, n_snapshots=4)
    assert [len(c) for c in traced] == [2 * (n // 2 + 1)] * 2


def test_upcoming_lists_the_moves_the_ue_publishes():
    mob = blueprint.MobilityModule({"u0": _ROUTE}, 0.5)
    assert mob.upcoming("u0", 3) == [_step(1), _step(2), _step(3)]
    mob.hold("u0", 2)
    broker = Broker()
    sub = broker.subscribe(orch.POSITIONS_TOPIC)
    for k in range(5):
        mob.step(0.5 * k, broker)
    published = [blueprint.position_of(m.doc) for m in sub.drain()]
    assert published == [_step(0)] * 2 + [_step(1), _step(2), _step(3)]
    short = TrajectoryPlan((150.0, 250.0, 40.0), (155.0, 250.0, 40.0), speed_mps=5.0)
    assert blueprint.MobilityModule({"u0": short}, 0.5).upcoming("u0", 3) == [
        _step(1), _step(2)]  # the route ends after two moves
    assert mob.upcoming("u1", 3) == []  # a UE the module does not move


_near_point = st.tuples(st.floats(0.0, 30.0), st.floats(0.0, 30.0), st.floats(1.0, 30.0))


@st.composite
def _short_plans(draw):
    """Routes of up to about 150 moves, so upcoming's k often reaches past their end."""
    points = draw(st.lists(_near_point, min_size=2, max_size=4))
    return TrajectoryPlan(points[0], points[-1], tuple(points[1:-1]), draw(st.floats(2.0, 20.0)))


_source_ops = st.lists(st.one_of(
    st.tuples(st.just("upcoming"), st.integers(0, 3), st.integers(-2, 160)),
    st.tuples(st.just("hold"), st.integers(0, 2), st.integers(0, 3)),
    st.tuples(st.just("step"), st.just(0), st.just(0)),
    # set a UE's state from outside: the start of a route, or the state it is in
    st.tuples(st.just("set"), st.integers(0, 2), st.integers(-1, 2)),
), max_size=60)


@given(plans=st.lists(_short_plans(), min_size=1, max_size=3), ops=_source_ops)
# u0 is set back to its route's start once it has moved and listed its next moves
@example(plans=[_LONG], ops=[("step", 0, 0), ("step", 0, 0), ("upcoming", 0, 3), ("set", 0, 0),
                             ("step", 0, 0)])
@settings(max_examples=100, deadline=None)
def test_upcoming_changes_nothing_the_position_source_publishes(plans, ops):
    """Under any interleaving of upcoming (k from -2 to past the route's end, for a UE the
    module moves or not), hold, step and an outside set of a UE's state, the module
    publishes, text for text, what a twin that is never asked for upcoming publishes, and
    each upcoming(ue, k) lists the UE's next k moves: the positions it publishes when it
    next moves, fewer only when its route ends after them."""
    routes = {f"u{i}": p for i, p in enumerate(plans)}
    asked, twin = blueprint.MobilityModule(routes, 0.5), blueprint.MobilityModule(routes, 0.5)
    brokers = Broker(), Broker()
    subs = [b.subscribe(orch.POSITIONS_TOPIC) for b in brokers]
    listed = {}  # UE_Id -> (moves upcoming listed and not yet made, whether the route ends there)

    def step():
        before = dict(twin.states)
        asked.step(0.0, brokers[0])
        twin.step(0.0, brokers[1])
        assert [m.payload for m in subs[0].drain()] == [m.payload for m in subs[1].drain()]
        for ue_id, state in twin.states.items():
            moves, ends = listed.get(ue_id, ((), False))
            if state is not before[ue_id] and moves:  # it moved
                assert state.position == moves[0]
                listed[ue_id] = moves[1:], ends
                if ends and len(moves) == 1:  # the last move listed ends the route
                    assert state.done

    for op, i, n in ops:
        ue_id = f"u{i % len(plans)}"
        if op == "upcoming":
            ue_id = f"u{i}"  # u{len(plans)} and on: a UE the module does not move
            moves = asked.upcoming(ue_id, n)
            if ue_id not in routes or n <= 0:
                assert moves == []
                continue
            assert len(moves) <= n
            old, _ = listed.get(ue_id, ((), False))
            assert moves[:len(old)] == list(old[:len(moves)])
            listed[ue_id] = tuple(moves), len(moves) < n
            if not moves:
                assert twin.states[ue_id].done
        elif op == "hold":
            asked.hold(ue_id, n)
            twin.hold(ue_id, n)
        elif op == "set":
            if n < 0:
                asked.states[ue_id] = asked.states[ue_id]
                twin.states[ue_id] = twin.states[ue_id]
            else:
                state = blueprint.uav_state(ue_id, plans[n % len(plans)])
                asked.states[ue_id] = twin.states[ue_id] = state
                listed.pop(ue_id, None)
        else:
            step()
    for _ in range(400):  # make every listed move
        if not any(moves for moves, _ in listed.values()):
            break
        step()
    assert not any(moves for moves, _ in listed.values())


def test_a_queue_that_does_not_lead_to_the_published_position_is_dropped():
    broker = Broker()
    mob = blueprint.MobilityModule({"u0": _LONG}, 0.5)
    comms = CommsModule(_WALLED, SHIPPED)
    comms.source = mob  # the link run_episode makes
    comms.init(broker)
    batch = mock.Mock(wraps=blueprint.trace_path_arrays)
    with mock.patch.object(blueprint, "trace_path_arrays", batch):
        for k in range(2):
            mob.step(0.5 * k, broker)
            comms.step(0.5 * k, broker)
        mob.states["u0"] = blueprint.uav_state("u0", blueprint.offset_plan(_LONG, 3.0))
        mob.step(1.0, broker)
        comms.step(1.0, broker)
    moved = (152.5, 253.0, 40.0)
    offset = [(150.0 + 2.5 * x, 253.0, 40.0) for x in range(1, blueprint.TRACE_BATCH + 1)]
    assert [[tuple(p) for p in c.args[2]] for c in batch.call_args_list] == [
        [_step(x) for x in range(1, blueprint.TRACE_BATCH + 1)], offset]
    assert offset[0] == moved
    assert comms.current("u0").position == moved
    assert [r.position for r in list(comms.queues["u0"])[1:]] == offset[1:]


@pytest.mark.parametrize(
    "plan, t",
    # the fourth move lands on the ground; the sixth on the transmitter, at (20, 50, 30)
    [(TrajectoryPlan((150.0, 250.0, 10.0), (150.0, 250.0, -10.0), speed_mps=5.0), 1.5),
     (TrajectoryPlan((20.0, 35.0, 30.0), (20.0, 70.0, 30.0), waypoints=((20.0, 50.0, 30.0),),
                     speed_mps=5.0), 2.5)],
    ids=["below-ground", "through-the-transmitter"],
)
def test_a_rejected_position_ahead_aborts_where_the_ue_reaches_it(plan, t):
    """The look-ahead stops before a position the tracer rejects, so the episode aborts at
    the snapshot that publishes it, with the same diagnostic and partial log."""
    ahead = _episode([plan], look_ahead=True)
    plain = _episode([plan], look_ahead=False)
    assert isinstance(ahead, orch.EpisodeAbort) and isinstance(plain, orch.EpisodeAbort)
    assert ahead.diagnostic == plain.diagnostic
    assert f"failed at t={t}:" in ahead.diagnostic
    assert [r.to_json() for r in ahead.log.records] == [r.to_json() for r in plain.log.records]


def _run_command(category):
    def run(tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"episode": {"n_snapshots": 3, "category": category}}))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0

    return run


_DEFAULTS = load_config(None)
_ENTRY_POINTS = {
    "run-Mob3dCommInLoop": _run_command(orch.MOB3D_COMM_IN_LOOP),
    "run-AllInLoop": _run_command(orch.ALL_IN_LOOP),
    "generate_dataset_rows": lambda tmp_path: blueprint.generate_dataset_rows(
        load_scene(_DEFAULTS), base_route(_DEFAULTS), SHIPPED, max_snapshots=3),
    "run_mission": lambda tmp_path: run_mission(
        load_scene(_DEFAULTS), base_route(_DEFAULTS), MissionConfig(),
        orch.EpisodeConfig(n_snapshots=3), SHIPPED, Policy(kind="random"),
        np.random.default_rng(0)),
    "run_benchmark": lambda tmp_path: run_benchmark(
        load_scene(_DEFAULTS), [1], base_route(_DEFAULTS), SHIPPED, virtual_seconds=1.0,
        repetitions=1),
}


def test_a_hand_built_list_looks_ahead():
    """Ten UAVs built as perfbench's swarm10 builds them and passed straight to
    run_episode trace their next TRACE_BATCH // 10 - 1 moves with each position: over
    the TRACE_BATCH // 10 snapshots those cover, one pass of 10 * (TRACE_BATCH // 10)
    receivers. Replayed in AiCommInLoop, whose source lists the recorded moves ahead,
    the same flight traces the same one pass."""
    route = base_route(_DEFAULTS)
    plans = {f"uav{i}": blueprint.offset_plan(route, 3.0 * (i - 4.5)) for i in range(10)}
    scene = load_scene(_DEFAULTS)
    batch = mock.Mock(wraps=blueprint.trace_path_arrays)

    def episode(category, source, n_snapshots):
        comms = CommsModule(scene, SHIPPED)
        policy = PolicyModule(Policy(kind="random"), comms, np.random.default_rng(0))
        batch.reset_mock()
        with mock.patch.object(blueprint, "trace_path_arrays", batch):
            log = orch.run_episode(orch.EpisodeConfig(n_snapshots=n_snapshots,
                                                      category=category),
                                   [source, comms, policy])
        return log, [len(c.args[2]) for c in batch.call_args_list], comms.source

    per_ue = blueprint.TRACE_BATCH // 10  # each position and its next moves
    assert per_ue >= 2
    mobility = blueprint.MobilityModule(plans, 0.5)
    log, traced, linked = episode(orch.ALL_IN_LOOP, mobility, per_ue)
    assert traced == [10 * per_ue] and linked is mobility
    replay = blueprint.ReplayModule(log.records)
    replayed, traced, linked = episode(orch.AI_COMM_IN_LOOP, replay, per_ue)
    assert traced == [10 * per_ue] and linked is replay
    assert [r.ue_states for r in replayed.records] == [r.ue_states for r in log.records]


@pytest.mark.parametrize("entry", _ENTRY_POINTS)
def test_every_entry_point_traces_a_lone_uav_ahead(tmp_path, monkeypatch, entry):
    """Each loop links communications to its MobilityModule, so the first pass traces the
    lone UAV's position and its next moves, TRACE_BATCH receivers in all."""
    receivers = []
    real = blueprint.trace_path_arrays

    def spy(scene, tx, rx, **kwargs):
        receivers.append(len(rx))
        return real(scene, tx, rx, **kwargs)

    monkeypatch.setattr(blueprint, "trace_path_arrays", spy)
    _ENTRY_POINTS[entry](tmp_path)
    assert receivers[0] == blueprint.TRACE_BATCH


def test_loop_modules_follow_the_category_wiring():
    """Modules in the category's role order, with no look-ahead link (run_episode makes
    it); the throughput report where the AI module is absent."""
    mobility = blueprint.MobilityModule({"u0": base_route(_DEFAULTS)}, 0.5)
    replay = blueprint.ReplayModule([])

    def ai(comms):
        return PolicyModule(Policy(kind="random"), comms, np.random.default_rng(0))

    def hook(t, ue_id, result):
        pass

    for category, source, has_ai in ((orch.ALL_IN_LOOP, mobility, True),
                                     (orch.AI_COMM_IN_LOOP, replay, True),
                                     (orch.MOB3D_COMM_IN_LOOP, mobility, False)):
        modules = blueprint.loop_modules(category, _WALLED, SHIPPED, source,
                                         ai=ai if has_ai else None, sweep_hook=hook)
        assert tuple(m.role for m in modules) == orch.category_wiring(category)
        comms = modules[1]
        assert modules[0] is source and comms.sweep_hook is hook
        assert comms.source is None
        assert comms.reports_throughput is not has_ai
        assert not has_ai or modules[2].comms is comms
        message = f"category {category} {'needs an' if has_ai else 'has no'} AI module"
        with pytest.raises(ValueError, match=message):
            blueprint.loop_modules(category, _WALLED, SHIPPED, source,
                                   ai=None if has_ai else ai)


def _run_script(name, *args):
    """A short run of a micro-benchmark under scripts/, so a tier-1 run keeps it working."""
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    return subprocess.run(
        [sys.executable, str(root / "scripts" / name), *map(str, args)],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_radio_pass_bench_script_runs():
    def run(n):
        return _run_script("radio_pass_bench.py", "--passes", n)

    ok = run(2)
    assert ok.returncode == 0, ok.stderr
    *lines, build = ok.stdout.splitlines()
    n = blueprint.TRACE_BATCH
    assert [line.split(":")[0] for line in lines] == [
        "M=1", "M=4", "M=8", "M=10", "M=16", "M=20", "M=32", "M=64", f"M={n} along one route",
        f"M={10 * max(2, n // 10)} across ten routes"]
    assert build.startswith("image tree build: ") and " ms (quartiles " in build
    assert build.endswith("), 440 pairs")
    assert all(" ms per receiver (quartiles " in line and line.endswith(" KB") for line in lines)
    assert all(" kernel " in line and "% of the pass, peak " in line for line in lines)
    short = run(1)
    assert short.returncode == 2
    assert "--passes must be at least 2" in short.stderr


def test_bus_publish_bench_script_runs():
    ok = _run_script("bus_publish_bench.py", "--publishes", 200)
    assert ok.returncode == 0, ok.stderr
    lines = ok.stdout.splitlines()
    assert len(lines) == 2 and lines[0].startswith("publish to 8 subscribers: ")
    assert lines[1].startswith("first .doc read of a text-only message: ")
    assert all(line.endswith(")") and " us (quartiles " in line for line in lines)
    short = _run_script("bus_publish_bench.py", "--publishes", 50)
    assert short.returncode == 2
    assert "--publishes must be at least 200, got 50" in short.stderr
