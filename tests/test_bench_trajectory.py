"""scripts/bench_trajectory.py chains the bench points' paired medians into one table."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_trajectory.py"


def _point(rtf, rss, schema="skycell-bench-point/1"):
    """A bench point of one workload whose change medians are rtf and rss times the
    parent's."""
    def metric(parent, factor):
        return {"parent": {"median": parent}, "change": {"median": parent * factor}}

    return {"schema": schema, "workloads": {"swarm10": {"metrics": {
        "rtf": metric(0.002, rtf), "peak_rss_mb": metric(45.0, rss)}}}}


def _run(*args):
    return subprocess.run([sys.executable, str(SCRIPT), *map(str, args)],
                          capture_output=True, text=True, timeout=60)


def _rows(stdout):
    """{(workload, metric): (points, from, to, chained)} of the printed table."""
    lines = stdout.splitlines()
    assert lines[0].split() == ["workload", "metric", "points", "from", "to", "chained"]
    rows = {}
    for line in lines[1:]:
        workload, metric, count, first, last, chained = line.split()
        assert chained.startswith("x")
        rows[workload, metric] = (int(count), first, last, float(chained[1:]))
    return rows


def test_two_points_chain_in_numeric_order(tmp_path):
    (tmp_path / "BENCH_10.json").write_text(json.dumps(_point(0.5, 1.25)))
    (tmp_path / "BENCH_3.json").write_text(json.dumps(_point(0.8, 0.96)))
    (tmp_path / "BENCH_7.json").write_text(json.dumps(_point(100.0, 100.0, schema="other/1")))
    before = sorted(p.name for p in tmp_path.iterdir())
    ok = _run("--dir", tmp_path)
    assert ok.returncode == 0, ok.stderr
    assert "skipping BENCH_7.json: schema 'other/1'" in ok.stderr
    rows = _rows(ok.stdout)
    assert list(rows) == [("swarm10", "rtf"), ("swarm10", "peak_rss_mb")]
    assert rows["swarm10", "rtf"][:3] == (2, "BENCH_3", "BENCH_10")
    assert rows["swarm10", "rtf"][3] == pytest.approx(0.8 * 0.5, abs=5e-5)
    assert rows["swarm10", "peak_rss_mb"][3] == pytest.approx(0.96 * 1.25, abs=5e-5)
    assert sorted(p.name for p in tmp_path.iterdir()) == before  # no BENCH file written
    since = _rows(_run("--dir", tmp_path, "--since", 4).stdout)
    assert since["swarm10", "rtf"] == (1, "BENCH_10", "BENCH_10", 0.5)


def test_a_directory_without_points_is_an_argument_error(tmp_path):
    empty = _run("--dir", tmp_path)
    assert empty.returncode == 2
    assert "no skycell-bench-point/1 point in" in empty.stderr
    missing = _run("--dir", tmp_path / "nope")
    assert missing.returncode == 2
    assert "is not a directory" in missing.stderr
