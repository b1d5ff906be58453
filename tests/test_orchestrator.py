import itertools
import json

import numpy as np
import pytest
import trace_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from skycell import orchestrator as orch
from skycell.bus import Broker
from skycell.orchestrator import (
    AI_COMM_IN_LOOP,
    ALL_IN_LOOP,
    MOB3D_COMM_IN_LOOP,
    EpisodeAbort,
    EpisodeConfig,
    EpisodeLog,
    ModuleHandle,
    SnapshotRecord,
    category_wiring,
    run_episode,
)


class FakeMobility(ModuleHandle):
    role = "mobility"
    name = "3D"

    def __init__(self):
        self.steps = []

    def step(self, t, broker):
        self.steps.append(t)
        broker.publish(
            orch.POSITIONS_TOPIC,
            json.dumps({"UE_type": "UAV", "UE_Id": "uav0",
                        "position": {"x": float(len(self.steps)), "y": 0.0, "z": 40.0}}),
            publisher="uav0",
        )


class FakeComms(ModuleHandle):
    role = "comms"
    name = "communications"

    def __init__(self, publish_ready=True):
        self.publish_ready = publish_ready
        self.steps = []

    def step(self, t, broker):
        self.steps.append(t)
        broker.publish(orch.BEST_PAIR_TOPIC,
                       json.dumps({"UE_type": "UAV", "UE_Id": "uav0", "pair": 42}),
                       publisher=self.name)
        broker.publish(orch.THROUGHPUT_TOPIC,
                       json.dumps({"UE_type": "UAV", "UE_Id": "uav0", "throughput": 77.5}),
                       publisher=self.name)
        if self.publish_ready:
            broker.publish(orch.READY_TOPIC, orch.READY_PAYLOAD, publisher=self.name)


class FakeAi(ModuleHandle):
    role = "ai"
    name = "ai"

    def __init__(self):
        self.ready_seen_before_step = []
        self._sub = None

    def init(self, broker):
        self._sub = broker.subscribe(orch.READY_TOPIC)
        return (self._sub,)

    def step(self, t, broker):
        # the barrier must have let the Ready message through already
        self.ready_seen_before_step.append(len(self._sub.drain()) > 0)
        broker.publish(orch.DECISION_TOPIC,
                       json.dumps({"UE_type": "UAV", "UE_Id": "uav0", "pair": 7}),
                       publisher=self.name)


class FakeReplay(ModuleHandle):
    role = "replay"
    name = "3D"

    def __init__(self, frames):
        self.frames = frames
        self.k = 0

    def step(self, t, broker):
        for ue_type, ue_id, pos in self.frames[self.k]:
            broker.publish(
                orch.POSITIONS_TOPIC,
                json.dumps({"UE_type": ue_type, "UE_Id": ue_id,
                            "position": {"x": pos[0], "y": pos[1], "z": pos[2]}}),
                publisher=ue_id,
            )
        self.k += 1


def test_snapshot_times_n3():
    mob, comms, ai = FakeMobility(), FakeComms(), FakeAi()
    cfg = EpisodeConfig(n_snapshots=3, sampling_interval=0.5, category=ALL_IN_LOOP)
    log = run_episode(cfg, [mob, comms, ai])
    assert mob.steps == [0.0, 0.5, 1.0]
    assert [r.t for r in log.records] == [0.0, 0.5, 1.0]


def test_single_snapshot_steps_each_module_once():
    mob, comms, ai = FakeMobility(), FakeComms(), FakeAi()
    cfg = EpisodeConfig(n_snapshots=1, category=ALL_IN_LOOP)
    run_episode(cfg, [mob, comms, ai])
    assert len(mob.steps) == len(comms.steps) == 1


def test_n_from_virtual_duration():
    assert int(60.0 / 0.5) == 120  # AllInLoop 60 s at Ts=0.5


def test_category_wiring():
    assert category_wiring(ALL_IN_LOOP) == ("mobility", "comms", "ai")
    assert category_wiring(AI_COMM_IN_LOOP) == ("replay", "comms", "ai")
    assert category_wiring(MOB3D_COMM_IN_LOOP) == ("mobility", "comms")
    with pytest.raises(ValueError):
        category_wiring("bogus")


def _role_module(role):
    fake = {"mobility": FakeMobility, "comms": FakeComms, "ai": FakeAi}
    return FakeReplay([[]]) if role == "replay" else fake[role]()


@pytest.mark.parametrize("category", orch.CATEGORIES)
def test_run_episode_accepts_exactly_the_category_wiring(category):
    roles = ("mobility", "replay", "comms", "ai")
    cfg = EpisodeConfig(n_snapshots=1, category=category)
    for n in range(1, 5):
        for seq in itertools.product(roles, repeat=n):
            modules = [_role_module(r) for r in seq]
            if seq == category_wiring(category):
                assert len(run_episode(cfg, modules).records) == 1
            else:
                with pytest.raises(ValueError):
                    run_episode(cfg, modules)


def test_mob3d_rejects_ai_module():
    cfg = EpisodeConfig(n_snapshots=1, category=MOB3D_COMM_IN_LOOP)
    with pytest.raises(ValueError):
        run_episode(cfg, [FakeMobility(), FakeComms(), FakeAi()])


def test_ai_comm_requires_replay_source():
    cfg = EpisodeConfig(n_snapshots=1, category=AI_COMM_IN_LOOP)
    with pytest.raises(ValueError):
        run_episode(cfg, [FakeComms(), FakeAi()])


def test_registration_order_enforced():
    cfg = EpisodeConfig(n_snapshots=1, category=ALL_IN_LOOP)
    with pytest.raises(ValueError):
        run_episode(cfg, [FakeComms(), FakeMobility(), FakeAi()])


def test_record_assembly_from_bus():
    cfg = EpisodeConfig(n_snapshots=2, category=ALL_IN_LOOP)
    log = run_episode(cfg, [FakeMobility(), FakeComms(), FakeAi()])
    rec = log.records[0]
    assert rec.ue_states == [("UAV", "uav0", (1.0, 0.0, 40.0))]
    assert rec.chosen_pair == 7  # the AI decision wins over the sweep best
    assert rec.throughput_mbps == 77.5


def test_best_pair_fallback_without_ai():
    cfg = EpisodeConfig(n_snapshots=1, category=MOB3D_COMM_IN_LOOP)
    log = run_episode(cfg, [FakeMobility(), FakeComms()])
    assert log.records[0].chosen_pair == 42


def test_barrier_ready_precedes_ai_step():
    ai = FakeAi()
    cfg = EpisodeConfig(n_snapshots=4, category=ALL_IN_LOOP)
    run_episode(cfg, [FakeMobility(), FakeComms(), ai])
    assert ai.ready_seen_before_step == [True] * 4


def test_barrier_timeout_aborts_with_partial_log():
    cfg = EpisodeConfig(n_snapshots=5, category=ALL_IN_LOOP)
    silent, ai = FakeComms(publish_ready=False), FakeAi()
    with pytest.raises(EpisodeAbort) as err:
        run_episode(cfg, [FakeMobility(), silent, ai])
    assert "barrier" in str(err.value)
    assert len(err.value.log.records) == 0  # failed in the first snapshot
    assert ai.ready_seen_before_step == []  # no later module ran


class ExplodingAi(FakeAi):
    def step(self, t, broker):
        if t >= 1.0:
            raise RuntimeError("boom")
        super().step(t, broker)


def test_module_failure_aborts_with_partial_log():
    cfg = EpisodeConfig(n_snapshots=5, category=ALL_IN_LOOP)
    with pytest.raises(EpisodeAbort) as err:
        run_episode(cfg, [FakeMobility(), FakeComms(), ExplodingAi()])
    assert "boom" in str(err.value)
    assert len(err.value.log.records) == 2  # t=0 and t=0.5 completed


def test_episodes_close_their_subscriptions_even_when_aborted():
    broker = Broker()
    probe = broker.subscribe(orch.DECISION_TOPIC)  # the caller's own, opened first
    cfg = EpisodeConfig(n_snapshots=5, category=ALL_IN_LOOP)
    for _ in range(3):
        run_episode(cfg, [FakeMobility(), FakeComms(), FakeAi()], broker=broker)
        assert broker._subs == [probe]
    with pytest.raises(EpisodeAbort):
        run_episode(cfg, [FakeMobility(), FakeComms(), ExplodingAi()], broker=broker)
    assert broker._subs == [probe]
    assert len(probe.drain()) == 3 * 5 + 2  # the aborted episode decided at t=0 and t=0.5


def test_determinism_byte_identical_logs(tmp_path):
    def run_once(path):
        cfg = EpisodeConfig(n_snapshots=6, category=ALL_IN_LOOP, seed=5)
        log = run_episode(cfg, [FakeMobility(), FakeComms(), FakeAi()])
        log.write_jsonl(path)
        return path.read_bytes()

    assert run_once(tmp_path / "a.jsonl") == run_once(tmp_path / "b.jsonl")


def test_replay_reproduces_recorded_positions():
    cfg = EpisodeConfig(n_snapshots=4, category=ALL_IN_LOOP)
    recorded = run_episode(cfg, [FakeMobility(), FakeComms(), FakeAi()])
    replay = FakeReplay([r.ue_states for r in recorded.records])
    cfg2 = EpisodeConfig(n_snapshots=4, category=AI_COMM_IN_LOOP)
    replayed = run_episode(cfg2, [replay, FakeComms(), FakeAi()])
    assert [r.ue_states for r in replayed.records] == [r.ue_states for r in recorded.records]


def test_stop_early_hook():
    cfg = EpisodeConfig(n_snapshots=100, category=ALL_IN_LOOP)
    log = run_episode(cfg, [FakeMobility(), FakeComms(), FakeAi()],
                      stop_early=lambda rec: rec.t >= 2.0)
    assert len(log.records) == 5


def test_virtual_clock_stamps_messages():
    broker = Broker()
    probe = broker.subscribe(orch.READY_TOPIC)
    cfg = EpisodeConfig(n_snapshots=3, category=ALL_IN_LOOP)
    run_episode(cfg, [FakeMobility(), FakeComms(), FakeAi()], broker=broker)
    times = [m.publish_time for m in probe.drain()]
    assert times == [0.0, 0.5, 1.0]


def test_snapshot_record_json_round_trip():
    rec = SnapshotRecord(t=1.5, ue_states=[("UAV", "uav0", (1.0, 2.0, 3.0))],
                         chosen_pair=20, throughput_mbps=88.25, events=["rescued:1"])
    again = SnapshotRecord.from_json(rec.to_json())
    assert again == rec


_number = st.one_of(st.floats(), st.integers(), st.booleans(), st.floats().map(np.float64))
_json = st.recursive(
    st.one_of(st.none(), _number, st.text()),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6,
)


@given(
    t=_number,
    ue_states=st.lists(st.tuples(
        st.one_of(st.sampled_from(("UAV", "CAR", "PERSON")), st.text()),
        st.one_of(st.text(), _number, st.none()),
        st.one_of(st.tuples(_number, _number, _number), st.lists(_number, max_size=4)),
    ), max_size=4),
    chosen_pair=_number,
    throughput=_number,
    events=st.one_of(st.lists(st.text(), max_size=4), st.lists(_json, max_size=3),
                     st.tuples(st.text()), _json),
)
@settings(max_examples=300, deadline=None)
def test_record_line_equals_one_dumps_of_the_record(t, ue_states, chosen_pair, throughput,
                                                    events):
    """to_json writes exactly the bytes of one sorted, compact json.dumps of the record."""
    rec = SnapshotRecord(t=t, ue_states=ue_states, chosen_pair=chosen_pair,
                         throughput_mbps=throughput, events=events)
    assert rec.to_json() == trace_oracle.snapshot_to_json(rec)


def test_episode_log_jsonl_round_trip(tmp_path):
    log = EpisodeLog(records=[
        SnapshotRecord(t=0.0, ue_states=[], chosen_pair=0, throughput_mbps=0.0),
        SnapshotRecord(t=0.5, ue_states=[("UAV", "u", (0.0, 1.0, 2.0))],
                       chosen_pair=3, throughput_mbps=1.25, events=["x"]),
    ])
    p = tmp_path / "log.jsonl"
    log.write_jsonl(p)
    loaded = EpisodeLog.read_jsonl(p)
    assert loaded.records == log.records


def test_config_validation():
    with pytest.raises(ValueError):
        EpisodeConfig(n_snapshots=0)
    with pytest.raises(ValueError):
        EpisodeConfig(n_snapshots=1, sampling_interval=0.0)
    with pytest.raises(ValueError):
        EpisodeConfig(n_snapshots=1, category="Nope")
