import dataclasses
import json
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
from skycell.bus import Broker
from skycell.config import base_route, comms_config, load_config, load_scene
from skycell.geometry import Building, Material, Scene, TxPose, los_class, trace_paths
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
    """Orchestrator, comms and policy share one parse of each position message."""
    decoded = []
    monkeypatch.setattr(bus, "json", types.SimpleNamespace(
        loads=lambda text: decoded.append(text) or json.loads(text)))
    cfg = load_config(None)
    route = base_route(cfg)
    plans = {f"uav{i}": blueprint.offset_plan(route, 3.0 * i) for i in range(2)}
    mobility = blueprint.MobilityModule(plans, 0.5)
    comms = CommsModule(load_scene(cfg), SHIPPED)
    ai = PolicyModule(Policy(kind="random"), comms, np.random.default_rng(0))
    ep = orch.EpisodeConfig(n_snapshots=3, category=orch.ALL_IN_LOOP)
    log = orch.run_episode(ep, [mobility, comms, ai])
    assert len(log.records) == 3
    # per snapshot: two positions (three readers each), the last decision, the last throughput
    assert len(decoded) == 3 * 4
    assert sum("position" in json.loads(text) for text in decoded) == 3 * 2


def test_broker_state_is_fixed_by_the_loop_not_its_length():
    """The loop publishes a fixed set of (publisher, topic) pairs, so longer runs add none."""
    cfg = load_config(None)
    route = base_route(cfg)
    scene = load_scene(cfg)

    def broker_after(n_snapshots):
        plans = {f"uav{i}": blueprint.offset_plan(route, 3.0 * (i - 1)) for i in range(3)}
        comms = CommsModule(scene, SHIPPED)
        modules = [blueprint.MobilityModule(plans, 0.5), comms,
                   PolicyModule(Policy(kind="random"), comms, np.random.default_rng(0))]
        broker = Broker()
        routes = []  # read while the episode's subscriptions are open
        ep = orch.EpisodeConfig(n_snapshots=n_snapshots, category=orch.ALL_IN_LOOP)
        log = orch.run_episode(ep, modules, broker=broker,
                               stop_early=lambda rec: routes.append(len(broker._routes)))
        assert len(log.records) == n_snapshots
        return len(broker._seq), routes[-1]

    short, long = broker_after(5), broker_after(40)
    assert short == long
    assert short[0] >= 3  # one position key per UAV at least


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
