"""Wire oracle: every message the loop publishes, in order, against frozen digests.

Each digest is the SHA-256 of one JSON line per ``Broker.publish`` call,
``[topic, payload, publisher, seq, publish_time]``, in call order. It pins
the bytes on the bus, not only the artifacts written from them, so reusing
an encoded payload or a parsed doc must leave it unchanged. The spy also
checks that each doc sent with a payload is the one the payload encodes. The digests were
recorded before any payload or doc was reused, and hold for the numpy build
and CPU family the goldens name (numpy 2.4, x86-64).
"""

import hashlib
import json

import numpy as np
import pytest

from skycell import blueprint, bus
from skycell import orchestrator as orch
from skycell.ai import Policy
from skycell.cli import main
from skycell.config import base_route, comms_config, load_config, load_scene

MISSION_RANDOM = "051d1157d4b3fd1959e4d20fa314cb873c2a19ec1db61a02bd5a98b599b602a5"
THREE_UAV_RANDOM = "c661f10a0f0d2fdf9ce763fdcfb7956758e8dda1d3c4fbbf29d3e6b3c841f67d"


def _typed(doc):
    """doc with each leaf as (type, repr): equal only where every leaf has the same type
    and value, -0.0 and nan told apart."""
    if type(doc) is dict:
        return {key: _typed(value) for key, value in doc.items()}
    if type(doc) is list:
        return [_typed(value) for value in doc]
    return (type(doc), repr(doc))


@pytest.fixture
def wire(monkeypatch):
    """Digest of every publish made while the fixture is active, and the count. A publish
    that carries its doc must carry what json.loads reads back from its payload."""
    digest = hashlib.sha256()
    count = [0, 0]  # publishes, those with a doc
    raw = bus.Broker.publish

    def publish(self, topic, payload, publisher="default", doc=bus._UNPARSED):
        if doc is not bus._UNPARSED:
            assert _typed(json.loads(payload)) == _typed(doc), payload
            count[1] += 1
        seq = raw(self, topic, payload, publisher, doc)
        line = json.dumps([topic, payload, publisher, seq, self._virtual_time])
        digest.update(line.encode("utf-8") + b"\n")
        count[0] += 1
        return seq

    monkeypatch.setattr(bus.Broker, "publish", publish)
    return lambda: (digest.hexdigest(), *count)


def test_mission_random_wire(wire, tmp_path):
    """The `mission --policy random` golden configuration (seed 7)."""
    assert main(["mission", "--seed", "7", "--policy", "random", "--out", str(tmp_path)]) == 0
    digest, count, with_doc = wire()
    assert count > with_doc > 0
    assert digest == MISSION_RANDOM


def test_three_uav_random_wire(wire):
    """Three offset UAVs, all in loop, random policy, flown past the end of their routes."""
    cfg = load_config(None)
    route = base_route(cfg)
    plans = {f"uav{i}": blueprint.offset_plan(route, 3.0 * (i - 1)) for i in range(3)}
    comms = blueprint.CommsModule(load_scene(cfg), comms_config(cfg))
    modules = [blueprint.MobilityModule(plans, 0.5), comms,
               blueprint.PolicyModule(Policy(kind="random"), comms, np.random.default_rng(5))]
    ep = orch.EpisodeConfig(n_snapshots=150, category=orch.ALL_IN_LOOP)
    log = orch.run_episode(ep, modules)
    assert len(log.records) == 150
    assert all(modules[0].route_complete(u) for u in plans)
    digest, count, with_doc = wire()
    assert count == 150 * (3 * 4 + 1)
    assert with_doc == 150 * 3 * 4  # all but Ready
    assert digest == THREE_UAV_RANDOM
