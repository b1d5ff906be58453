"""Alternating parent/change pairs of perfbench runs, summarised as a bench point.

    python3 scripts/bench_pairs.py --parent HEAD~1 --seeds 1601-1610 \\
        --out BENCH_16.json --claim swarm10:rtf --note "what the change does"

Run from the root of a source checkout: that tree is the change. --parent is
resolved to its commit id with ``git rev-parse`` before any run, and the point
records that id, so a relative name such as HEAD still names the same tree
once the branch moves. The parent's committed files are extracted with ``git
archive`` into a temporary directory, which is removed when the script ends.
For each workload (default: every workload in BENCHMARK.json) and seed, the
parent and the change each run ``python3 perfbench/run.py --workload <w> --seed
<s> --seconds <n> --trace 0`` in their own tree, n being BENCHMARK.json's
run_seconds, alternating which side runs first. The output (schema
"skycell-bench-point/1") holds, per workload and end-to-end metric, every run,
the median and inclusive quartiles of each side and the number of pairs the
change wins; it is rewritten after every pair, so an interrupted run keeps the
pairs it finished.
Each metric also carries a regression verdict against its BENCHMARK.json
bound, a share of the parent's median: "none" when the change median is within
the bound, "worse" when it is beyond, "unresolved" when the parent's IQR
exceeds the bound and not every change run beats every parent run. With
--claim, it also says whether the claim is met: at least ten pairs, the change
winning at least nine in ten, its median beating the parent's by more than the
parent's inter-quartile range, every change run correct and no more failed
operations than the parent.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 1800
MIN_PAIRS = 10
WIN_SHARE = 0.9


def parse_seeds(text: str) -> list:
    """'1601-1610' or '3,5,9' as a list of ints."""
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",") if v.strip()]


def resolve_revision(rev: str):
    """The full commit id a git revision names in the checkout at ROOT, or None."""
    proc = subprocess.run(["git", "rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}"],
                          cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def parse_args(bench: dict, argv=None):
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="git revision the change is compared with")
    p.add_argument("--workloads", default=",".join(names), help="comma-separated subset")
    p.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 1601-1610 or 3,5,9")
    p.add_argument("--out", required=True, type=Path)
    p.add_argument("--claim", help="workload:metric the change claims to improve")
    p.add_argument("--note", default="", help="what the change does, stored as 'change'")
    p.add_argument("--tmp", help="directory for the parent's tree (default: system temp)")
    args = p.parse_args(argv)
    args.workloads = [w for w in args.workloads.split(",") if w]
    unknown = [w for w in args.workloads if w not in names]
    if unknown:
        p.error(f"--workloads names {unknown}, not in BENCHMARK.json ({names})")
    if len(args.seeds) < 1:
        p.error("--seeds names no seed")
    if args.tmp is not None and not Path(args.tmp).is_dir():
        p.error(f"--tmp {args.tmp!r} is not a directory")
    commit = resolve_revision(args.parent)
    if commit is None:
        p.error(f"--parent {args.parent!r} names no commit")
    args.parent = commit
    return args


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last-line JSON object of one untraced perfbench run in a tree."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def side_stats(runs: list) -> dict:
    if len(runs) > 1:
        q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    else:
        q1 = median = q3 = runs[0]
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def verdict(parent: list, change: list, better: str, bound: float) -> str:
    """Whether the change regresses a metric by more than ``bound``, a share of the
    parent's median: "none", "worse", or "unresolved" when the parent's runs spread
    wider than the bound and the change does not beat every one of them."""
    sign = 1 if better == "lower" else -1
    p_stats, c_stats = side_stats(parent), side_stats(change)
    scale = abs(p_stats["median"])
    beats_all = max(sign * v for v in change) < min(sign * v for v in parent)
    if p_stats["q3"] - p_stats["q1"] > bound * scale and not beats_all:
        return "unresolved"
    return "worse" if sign * (c_stats["median"] - p_stats["median"]) > bound * scale else "none"


def summarise(pairs: list, metrics: dict) -> dict:
    """Per-metric statistics of one workload's (seed, first, parent, change) pairs."""
    out = {
        "seeds": [p["seed"] for p in pairs],
        "first": [p["first"] for p in pairs],
        "correct": {side: all(p[side]["correct"] for p in pairs) for side in ("parent", "change")},
        "failed": {side: sum(p[side]["failed"] for p in pairs) for side in ("parent", "change")},
        "metrics": {},
    }
    for name, (unit, better, bound) in metrics.items():
        parent = [p["parent"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["metrics"][name]["value"] for p in pairs]
        sign = 1 if better == "lower" else -1
        p_stats, c_stats = side_stats(parent), side_stats(change)
        out["metrics"][name] = {
            "unit": unit,
            "better": better,
            "parent": p_stats,
            "change": c_stats,
            "change_wins": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
            "pairs": len(pairs),
            "median_ratio": c_stats["median"] / p_stats["median"] if p_stats["median"] else None,
            "parent_iqr": p_stats["q3"] - p_stats["q1"],
            "bound": bound,
            "verdict": verdict(parent, change, better, bound),
        }
    return out


def judge(claim: str, workloads: dict) -> dict:
    """Whether the claimed workload:metric gain holds, and if not, which condition fails."""
    workload, metric = claim.split(":")
    if workload not in workloads:
        return {"workload": workload, "metric": metric, "result": "no pairs run yet",
                "met": False}
    w = workloads[workload]
    m = w["metrics"][metric]
    sign = 1 if m["better"] == "lower" else -1
    gain = sign * (m["parent"]["median"] - m["change"]["median"])
    unmet = [text for ok, text in (
        (m["pairs"] >= MIN_PAIRS, f"{m['pairs']} pairs, fewer than {MIN_PAIRS}"),
        (m["change_wins"] >= WIN_SHARE * m["pairs"],
         f"{m['change_wins']}/{m['pairs']} wins, under {WIN_SHARE:.0%}"),
        (gain > m["parent_iqr"], "median gain not above the parent's IQR"),
        (w["correct"]["change"], "a change run reads correct: false"),
        (w["failed"]["change"] <= w["failed"]["parent"],
         f"{w['failed']['change']} failed operations against the parent's "
         f"{w['failed']['parent']}"),
    ) if not ok]
    return {
        "workload": workload,
        "metric": metric,
        "target": f">= {MIN_PAIRS} pairs, >= {WIN_SHARE:.0%} pair wins, a median gain larger "
                  f"than the parent's IQR, every change run correct, no more failed operations",
        "result": "%s: median %.6g -> %.6g (x%.4f), %d/%d wins, gain %.3g against a parent "
        "IQR of %.3g" % ("met" if not unmet else "not met (" + "; ".join(unmet) + ")",
                         m["parent"]["median"], m["change"]["median"], m["median_ratio"],
                         m["change_wins"], m["pairs"], gain, m["parent_iqr"]),
        "met": not unmet,
    }


def bench_point(args, seconds: float, metrics: dict, results: dict) -> dict:
    import numpy

    workloads = {w: summarise(pairs, metrics) for w, pairs in results.items() if pairs}
    seeds = args.seeds
    return {
        "schema": "skycell-bench-point/1",
        "change": args.note,
        "parent": args.parent,
        "command": f"python3 perfbench/run.py --workload <w> --seed <s> --seconds "
                   f"{seconds:g} --trace 0",
        "method": f"parent (git archive of {args.parent}) and change (this tree) each run "
                  f"from their own checkout, one pair per seed on seeds {seeds[0]}-{seeds[-1]} "
                  f"for every workload, alternating which side runs first; median and "
                  f"inclusive quartiles over the runs of each side; change_wins counts pairs "
                  f"where the change reads better; verdict is the regression verdict "
                  f"against the metric's BENCHMARK.json bound",
        "host": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        "claim": judge(args.claim, workloads) if args.claim else None,
        "workloads": workloads,
    }


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(bench, argv)
    seconds = bench["run_seconds"]
    metrics = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]}
    results = {w: [] for w in args.workloads}
    tmp = Path(tempfile.mkdtemp(prefix="bench-pairs-", dir=args.tmp))
    parent_tree = tmp / "parent"
    parent_tree.mkdir()
    try:
        archive = subprocess.run(["git", "archive", args.parent], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(parent_tree)], input=archive, check=True)
        trees = {"parent": parent_tree, "change": ROOT}
        for workload in args.workloads:
            for i, seed in enumerate(args.seeds):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_bench(trees[side], workload, seed, seconds)
                results[workload].append(pair)
                args.out.write_text(
                    json.dumps(bench_point(args, seconds, metrics, results), indent=1) + "\n"
                )
                print(f"{workload} seed {seed}: " + "  ".join(
                    f"{name} {pair['parent']['metrics'][name]['value']:.6g} -> "
                    f"{pair['change']['metrics'][name]['value']:.6g}" for name in metrics),
                    flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    point = bench_point(args, seconds, metrics, results)
    for workload, w in point["workloads"].items():
        print(f"{workload} regression: " + ", ".join(
            f"{name} {m['verdict']}" for name, m in w["metrics"].items()))
    if point["claim"] is not None:
        print(f"claim {args.claim}: {point['claim']['result']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
