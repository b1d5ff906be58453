import collections
import dataclasses
import json
import math
import types
from unittest import mock

import numpy as np
import pytest
import trace_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from skycell import blueprint, bus
from skycell import orchestrator as orch
from skycell.ai import DecisionTreeModel, Policy, TreeNode
from skycell.blueprint import CommsModule, PolicyModule
from skycell.bus import Broker, json_leaf
from skycell.config import base_route, comms_config, load_config, load_scene
from skycell.geometry import Building, Material, Scene, TxPose, los_class, trace_paths
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
    assert comms.last["hidden"].los == "outage"
    assert comms.last["seen"].los == "LOS"
    for result in comms.last.values():
        assert result.gains.shape == (16 * 4,)


def test_step_traces_each_moved_ue_once(monkeypatch):
    scene = Scene(719.2, 693.4, TxPose((100.0, 100.0, 50.0)),
                  [Building((50, 40, 0), (90, 90, 60), CONCRETE)])
    calls = []  # the receivers of each batch trace call
    real = blueprint.trace_paths_batch

    def spy(scene, tx, rx, **kwargs):
        calls.append([tuple(p) for p in rx])
        return real(scene, tx, rx, **kwargs)

    monkeypatch.setattr(blueprint, "trace_paths_batch", spy)
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
        assert comms.last[ue_id].los == los_class(bundle)

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
        batch = mock.Mock(wraps=blueprint.trace_paths_batch)
        with mock.patch.object(blueprint, "trace_paths_batch", batch):
            comms.step(0.5 * k, broker)
        moved = [positions[u] for u in sent
                 if u not in before or before[u].position != positions[u]]
        assert [[tuple(p) for p in c.args[2]] for c in batch.call_args_list] == (
            [moved] if moved else [])
        wire = [(m.doc["UE_Id"], m.doc["pair"]) for m in best.drain()]
        expected = []
        for ue_id in sent:
            los, pair, gains = _oracle_sweep(_WALLED, SHIPPED, positions[ue_id])
            result = comms.last[ue_id]
            assert result.position == positions[ue_id]
            assert (result.los, result.best_pair) == (los, pair)
            assert type(result.best_pair) is int
            assert result.gains.tobytes() == gains.tobytes()
            if ue_id in before and before[ue_id].position == positions[ue_id]:
                assert result is before[ue_id]
            expected.append((ue_id, pair))
        assert wire == expected
        before = dict(comms.last)


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


def test_each_message_is_decoded_once_per_snapshot(monkeypatch):
    """Each distinct payload text is parsed at most once, and every reader gets that doc:
    the orchestrator, comms and policy read every position message through Message.doc."""
    decoded = []
    monkeypatch.setattr(bus, "json", types.SimpleNamespace(
        loads=lambda text: decoded.append(text) or json.loads(text)))
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
    assert len(decoded) == len(set(decoded))
    texts = {msg.payload for msg in positions}
    assert len(texts) == 6 + 4  # uav0 moves every snapshot, uav1 from its fourth on
    assert {text for text in decoded if "position" in json.loads(text)} == texts


def test_a_held_snapshot_reuses_its_sweep_and_encodes_per_send(monkeypatch):
    """While a UE holds, its sweep is reused and the tracer does not run; every text is
    built when it is sent, so each snapshot encodes its position, pair and throughput
    report and computes one rate, held or not. Every text is built by bus from its
    leaves, so the spy counts leaf encodings: five for a position, three each for the
    best pair, the decision and the throughput report."""
    calls = collections.Counter()

    def spy(fn, name):
        return lambda *args, **kwargs: calls.update([name]) or fn(*args, **kwargs)

    monkeypatch.setattr(bus, "json_leaf", spy(json_leaf, "leaf"))
    for name in ("position_payload", "throughput_mbps", "trace_paths_batch"):
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
                             "throughput_mbps": n, "trace_paths_batch": 1}
    assert counts[5]["trace_paths_batch"] == 2


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
    assert position_payload(state) == json.dumps(
        {"UE_type": "PERSON", "UE_Id": ue_id, "position": {"x": x, "y": y, "z": z}})
    assert bus.pair_text("CAR", ue_id, pair) == json.dumps(
        {"UE_type": "CAR", "UE_Id": ue_id, "pair": pair})
    broker, comms = _comms(_WALLED)
    best, reports = (broker.subscribe(topic)
                     for topic in (orch.BEST_PAIR_TOPIC, orch.THROUGHPUT_TOPIC))
    here = (0.0, 0.0, 0.0)
    doc = {"UE_type": "UAV", "UE_Id": ue_id}
    for value in (1, True, 1.0, pair):
        comms.last[ue_id] = blueprint.SweepResult(here, "LOS", value, np.ones(4))
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


def test_broker_state_is_fixed_by_the_loop_not_its_length(monkeypatch):
    """The loop publishes a fixed set of (publisher, topic) pairs, so longer runs add none;
    the sweep cache and the doc cache are bounded by the UEs and DOC_CACHE_SIZE."""
    monkeypatch.setattr(bus, "DOC_CACHE_SIZE", 16)  # so that both runs reach it
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
        return (len(broker._seq), routes[-1], len(comms.last),
                broker._parse.cache_info().currsize)

    short, long = broker_after(5), broker_after(40)
    assert short == long
    assert short[0] >= 3  # one position key per UAV at least
    assert short[2:] == (3, 16)


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


def _episode(plans, holds=(), look_ahead=True, category=orch.ALL_IN_LOOP, n_snapshots=16):
    """Published (topic, text) in order, every sweep_hook result, the log lines and the
    receivers of each trace call of one episode, or the EpisodeAbort it raised."""
    mobility = _HeldMobility({f"u{i}": p for i, p in enumerate(plans)}, 0.5, holds)
    sweeps = []

    def hook(t, ue_id, r):
        sweeps.append((t, ue_id, r.position, r.los, r.best_pair, r.gains.tobytes()))

    comms = CommsModule(_WALLED, SHIPPED, sweep_hook=hook,
                        publish_throughput_in_step=category == orch.MOB3D_COMM_IN_LOOP,
                        mobility=mobility if look_ahead else None)
    modules = [mobility, comms]
    if category == orch.ALL_IN_LOOP:
        modules.append(PolicyModule(Policy(kind="random"), comms, np.random.default_rng(7)))
    broker = Broker()
    wire = broker.subscribe(">")
    batch = mock.Mock(wraps=blueprint.trace_paths_batch)
    with mock.patch.object(blueprint, "trace_paths_batch", batch):
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
    plans=st.lists(_plans(), min_size=1, max_size=4),
    holds=st.lists(st.tuples(st.integers(0, 15), st.integers(0, 3), st.integers(1, 4)),
                   max_size=4),
    category=st.sampled_from([orch.ALL_IN_LOOP, orch.MOB3D_COMM_IN_LOOP]),
)
@settings(max_examples=25, deadline=None)
def test_look_ahead_changes_no_output(plans, holds, category):
    """With and without mobility=, an episode publishes the same texts in the same order,
    hands sweep_hook the same results (position, LOS class, best pair, gains bytes) and
    logs the same records; the look-ahead only merges trace calls."""
    ahead = _episode(plans, holds, True, category)
    plain = _episode(plans, holds, False, category)
    assert ahead[:3] == plain[:3]
    assert len(ahead[3]) <= len(plain[3])
    assert all(len(c) <= max(blueprint.TRACE_BATCH, len(plans)) for c in ahead[3])


_ROUTE = TrajectoryPlan((150.0, 250.0, 40.0), (250.0, 250.0, 40.0), speed_mps=5.0)


def _step(x):
    return (150.0 + 2.5 * x, 250.0, 40.0)


def test_a_lone_ue_traces_its_next_moves_in_one_pass():
    """A lone moving UE traces TRACE_BATCH positions per call and its next moves trace
    nothing; a hold delays them. Two UEs trace two positions each, three none ahead."""
    *_, traced = _episode([_ROUTE], holds=[(2, 0, 3)], n_snapshots=12)
    # snapshots 2-4 hold; moves 3 and 4 then come from the first call's queue
    assert traced == [[_step(x) for x in range(k, k + 4)] for k in (1, 5, 9)]
    two = [_ROUTE, blueprint.offset_plan(_ROUTE, 3.0)]
    *_, traced = _episode(two, n_snapshots=4)
    assert [len(c) for c in traced] == [4, 4]
    assert traced[0][:2] == [_step(1), _step(2)]
    *_, traced = _episode([*two, blueprint.offset_plan(_ROUTE, 6.0)], n_snapshots=4)
    assert [len(c) for c in traced] == [3, 3, 3, 3]


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


def test_a_queue_that_does_not_lead_to_the_published_position_is_dropped():
    broker = Broker()
    mob = blueprint.MobilityModule({"u0": _ROUTE}, 0.5)
    comms = CommsModule(_WALLED, SHIPPED, mobility=mob)
    comms.init(broker)
    batch = mock.Mock(wraps=blueprint.trace_paths_batch)
    with mock.patch.object(blueprint, "trace_paths_batch", batch):
        for k in range(2):
            mob.step(0.5 * k, broker)
            comms.step(0.5 * k, broker)
        mob.states["u0"] = blueprint.uav_state("u0", blueprint.offset_plan(_ROUTE, 3.0))
        mob.step(1.0, broker)
        comms.step(1.0, broker)
    moved = (152.5, 253.0, 40.0)
    assert [[tuple(p) for p in c.args[2]] for c in batch.call_args_list] == [
        [_step(1), _step(2), _step(3), _step(4)],
        [moved, (155.0, 253.0, 40.0), (157.5, 253.0, 40.0), (160.0, 253.0, 40.0)]]
    assert comms.last["u0"].position == moved
    assert [r.position for r in comms._ahead["u0"]] == [(155.0, 253.0, 40.0),
                                                        (157.5, 253.0, 40.0),
                                                        (160.0, 253.0, 40.0)]


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
