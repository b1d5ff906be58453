"""Self-test of the benchmark harness.

    python3 -m pytest -q perfbench/test_perfbench.py

Checks that the counters later changes may cite as counts repeat exactly at a
fixed seed, that each workload stresses the layer it was chosen for, and
that the harness refuses to run without the program's sources.
"""

import subprocess
import sys
from pathlib import Path

import pytest

import run  # sets the thread pins before numpy loads

run.require_program()

import spans  # noqa: E402
import workloads  # noqa: E402

SEED = 3


@pytest.fixture(scope="module")
def traced_counters(tmp_path_factory):
    """Layer metrics of two traced passes per workload, in one process."""
    ctx = workloads.Context.load(tmp_path_factory.mktemp("out"))
    meter = workloads.EpisodeMeter()
    meter.install()
    try:
        out = {}
        for w in workloads.WORKLOADS:
            runs = []
            for _ in range(2):
                p = run.one_pass(ctx, w, SEED, meter, traced=True)
                assert p["result"].failed == 0, p["result"].errors[:5]
                assert p["tracer"].missing == []
                runs.append(p["tracer"].layer_metrics())
            out[w] = runs
        return out
    finally:
        meter.uninstall()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_exact_counters_repeat(traced_counters, workload):
    first, second = traced_counters[workload]
    for name in spans.EXACT_COUNTERS:
        assert first[name] == second[name], name
    assert first["orchestrator.snapshots"] > 0
    assert first["geometry.trace.calls"] > 0


def test_workloads_stress_their_layers(traced_counters):
    mission = traced_counters["mission_random"][0]
    assert mission["blueprint.sweep_cache_hit_ratio"] >= 0.8
    assert mission["bus.publish.busy_s"] >= mission["geometry.trace.busy_s"]
    assert mission["mission.paused_ratio"] > 0.5

    swarm = traced_counters["swarm10"][0]
    layer_busy = [swarm[k] for k in spans.LAYER_METRICS if k.endswith(("busy_s", "self_s"))]
    assert swarm["geometry.trace.busy_s"] == max(layer_busy)
    assert swarm["geometry.trace.calls"] == (
        workloads.SWARM_UAVS * workloads.SWARM_SEGMENTS * workloads.SWARM_SEGMENT_SNAPSHOTS
    )

    dataset = traced_counters["dataset10"][0]
    assert dataset["ai.csv_write.busy_s"] > 0 and dataset["ai.csv_read.busy_s"] > 0
    assert dataset["ai.policy.calls"] == 0


def test_refuses_to_run_without_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in Path(run.HERE).glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "swarm10", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_missing_name_is_reported_not_fatal(monkeypatch):
    absent = ("skycell.blueprint", "trace_batch", "geometry.batch")
    monkeypatch.setattr(spans, "SPAN_TARGETS", spans.SPAN_TARGETS + (absent,))
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["geometry.batch"]
    assert tracer.not_observed_layers() == ["geometry"]
