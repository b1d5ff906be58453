"""scripts/bench_pairs.py judges a claimed gain and a regression from its pairs.

The script is loaded from its file, as test_benchmark_hooks.py loads
perfbench/spans.py; the runs here are synthetic, so no benchmark runs, and
--parent is resolved in a throwaway git repository.
"""

import importlib.util
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _load_script()

METRICS = {"rtf": ("s/s", "lower", 0.24), "score": ("count", "higher", 0.05)}


def _run(rtf, score, correct=True, failed=0):
    return {"correct": correct, "failed": failed,
            "metrics": {"rtf": {"value": rtf}, "score": {"value": score}}}


def _pairs(parent_rtf, change_rtf, n=10, change_correct=True, change_failed=0):
    """n pairs; the rtf values are cycled, score stays 100 on both sides."""
    return [{"seed": 1701 + i, "first": ("parent", "change")[i % 2],
             "parent": _run(parent_rtf[i % len(parent_rtf)], 100.0),
             "change": _run(change_rtf[i % len(change_rtf)], 100.0,
                            correct=change_correct, failed=change_failed)}
            for i in range(n)]


def _judge(pairs):
    return bench_pairs.judge("w:rtf", {"w": bench_pairs.summarise(pairs, METRICS)})


def test_a_clear_gain_over_ten_pairs_is_met():
    claim = _judge(_pairs([1.0, 1.01, 0.99], [0.8, 0.81, 0.79]))
    assert claim["met"], claim["result"]
    assert claim["result"].startswith("met: ")


@pytest.mark.parametrize("kwargs, reason", [
    ({"n": 9}, "9 pairs, fewer than 10"),
    ({"change_failed": 1}, "10 failed operations against the parent's 0"),
    ({"change_correct": False}, "a change run reads correct: false"),
])
def test_a_claim_fails_on_each_rule(kwargs, reason):
    claim = _judge(_pairs([1.0, 1.01, 0.99], [0.8, 0.81, 0.79], **kwargs))
    assert not claim["met"]
    assert reason in claim["result"]


def test_a_claim_on_a_workload_not_run_is_not_met():
    assert not bench_pairs.judge("w:rtf", {})["met"]


@pytest.mark.parametrize("parent, change, verdict", [
    ([1.0, 1.01, 0.99], [1.2, 1.21, 1.19], "none"),  # x1.2, inside the 0.24 bound
    ([1.0, 1.01, 0.99], [0.8, 0.81, 0.79], "none"),  # better
    ([1.0, 1.01, 0.99], [1.3, 1.31, 1.29], "worse"),  # x1.3, beyond it
    ([0.6, 1.0, 1.4], [1.0, 1.0, 1.0], "unresolved"),  # parent IQR 0.7 of its median
    ([0.6, 1.0, 1.4], [0.5, 0.5, 0.5], "none"),  # every change run beats every parent run
])
def test_regression_verdict(parent, change, verdict):
    w = bench_pairs.summarise(_pairs(parent, change), METRICS)
    assert w["metrics"]["rtf"]["verdict"] == verdict
    assert w["metrics"]["rtf"]["bound"] == 0.24
    assert w["metrics"]["score"]["verdict"] == "none"  # equal on both sides


@pytest.mark.parametrize("change, verdict", [(96.0, "none"), (94.0, "worse"), (104.0, "none")])
def test_regression_verdict_of_a_higher_is_better_metric(change, verdict):
    assert bench_pairs.verdict([100.0] * 10, [change] * 10, "higher", 0.05) == verdict


def _git(repo, *args):
    return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                          cwd=repo, check=True, capture_output=True, text=True).stdout.strip()


def test_the_point_records_the_commit_parent_names(tmp_path, monkeypatch):
    """--parent HEAD~1 is stored as the commit it names when the script starts, so the
    point still names that tree after the branch moves; a name of no commit is an error."""
    _git(tmp_path, "init", "-q")
    for message in ("parent", "change"):
        _git(tmp_path, "commit", "-q", "--allow-empty", "-m", message)
    parent = _git(tmp_path, "rev-parse", "HEAD~1")
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    bench = {"workloads": [{"name": "w"}]}
    argv = ["--seeds", "1-2", "--out", str(tmp_path / "point.json")]
    args = bench_pairs.parse_args(bench, ["--parent", "HEAD~1", *argv])
    _git(tmp_path, "commit", "-q", "--allow-empty", "-m", "later")
    assert args.parent == parent and len(parent) == 40
    point = bench_pairs.bench_point(args, 20, METRICS, {"w": _pairs([1.0], [0.8])})
    assert point["parent"] == parent and f"git archive of {parent}" in point["method"]
    with pytest.raises(SystemExit):
        bench_pairs.parse_args(bench, ["--parent", "no-such-rev", *argv])


def test_a_missing_tmp_directory_is_an_argument_error(tmp_path, monkeypatch, capsys):
    """--tmp names an existing directory; a missing one exits 2 before any run."""
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "commit", "-q", "--allow-empty", "-m", "parent")
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    bench = {"workloads": [{"name": "w"}]}
    argv = ["--parent", "HEAD", "--seeds", "1-2", "--out", str(tmp_path / "point.json")]
    assert bench_pairs.parse_args(bench, [*argv, "--tmp", str(tmp_path)]).tmp == str(tmp_path)
    missing = tmp_path / "no" / "such"
    with pytest.raises(SystemExit) as exc:
        bench_pairs.parse_args(bench, [*argv, "--tmp", str(missing)])
    assert exc.value.code == 2
    assert f"--tmp {str(missing)!r} is not a directory" in capsys.readouterr().err
