import csv
import json

import pytest

from skycell.bench import CSV_FIELDS, TimingReport, rtf, run_benchmark, write_csv, write_json
from skycell.config import base_route, comms_config, default_scene, load_config
from skycell.geometry import Scene, TxPose

CFG = load_config(None)
ROUTE, COMMS = base_route(CFG), comms_config(CFG)


def test_rtf_examples():
    assert rtf(120.0, 60.0) == 2.0
    assert rtf(60.0, 60.0) == 1.0
    assert rtf(30.0, 60.0) == 0.5
    with pytest.raises(ValueError):
        rtf(1.0, 0.0)


def test_report_rtf_consistency():
    r = TimingReport(n_uavs=1, n_snapshots=120, tp_s=7.25, tv_s=60.0,
                     t_mobility_s=1.0, t_comms_s=5.0, t_ai_s=0.5)
    assert r.rtf == pytest.approx(7.25 / 60.0, abs=1e-15)
    assert r.to_dict()["Tv_s"] == 60.0


def test_virtual_duration_exact():
    assert 120 * 0.5 == 60.0  # exact in binary floating point


@pytest.fixture(scope="module")
def small_reports():
    scene = default_scene()
    return run_benchmark(scene, [1, 2], ROUTE, COMMS, virtual_seconds=5.0,
                         sampling_interval=0.5, repetitions=1, seed=0)


def test_benchmark_reports(small_reports):
    reports = small_reports
    assert [r.n_uavs for r in reports] == [1, 2]
    for r in reports:
        assert r.error is None
        assert r.tv_s == 5.0
        assert r.n_snapshots == 10
        assert r.rtf == pytest.approx(r.tp_s / r.tv_s, abs=1e-15)
        assert r.t_mobility_s + r.t_comms_s + r.t_ai_s <= r.tp_s
        assert 0 < r.tp_min_s <= r.tp_s
        assert 0 < r.t_loop_s < r.tp_s


def test_benchmark_csv_and_json(tmp_path, small_reports):
    write_csv(small_reports, tmp_path / "bench.csv")
    with open(tmp_path / "bench.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(CSV_FIELDS)
    assert len(rows) == 1 + len(small_reports)
    write_json(small_reports, tmp_path / "bench.json")
    docs = json.loads((tmp_path / "bench.json").read_text())
    assert docs[0]["n_uavs"] == 1
    assert docs[0]["rtf"] == pytest.approx(docs[0]["Tp_s"] / docs[0]["Tv_s"])
    assert docs[0]["Tp_min_s"] <= docs[0]["Tp_s"]
    assert docs[0]["t_loop_s"] == small_reports[0].t_loop_s


def test_benchmark_rejects_bad_args():
    scene = Scene(100, 100, TxPose((50, 50, 20)), [])
    with pytest.raises(ValueError):
        run_benchmark(scene, [], ROUTE, COMMS)
    with pytest.raises(ValueError):
        run_benchmark(scene, [1], ROUTE, COMMS, virtual_seconds=0.7, sampling_interval=0.5)
