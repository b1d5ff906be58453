"""The bench points' paired medians, chained per workload and end-to-end metric.

    python3 scripts/bench_trajectory.py [--dir .] [--since 31]

Reads every ``BENCH_<n>.json`` of schema "skycell-bench-point/1" in --dir (default:
the root of this checkout), in the numeric order of n, from n = --since on. Each
point holds, per workload and metric, the change's and the parent's median over
alternating pairs; their ratio is the change's factor on that metric. The table
multiplies those factors point by point, so a row reads the trajectory of one
metric on one workload over the points listed. The factors compare two trees on
one host in one session, so their product is meaningful where the medians across
files are not (a host drifts between sessions). A file of another schema is named
on stderr and skipped. Nothing is written.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = "skycell-bench-point/1"
POINT = re.compile(r"BENCH_(\d+)\.json")


def points(directory: Path, since: int = 0) -> list:
    """(n, point) for each BENCH_<n>.json of the schema in directory, n >= since, by n."""
    found = []
    for path in directory.iterdir():
        match = POINT.fullmatch(path.name)
        if match and int(match.group(1)) >= since:
            found.append((int(match.group(1)), path))
    out = []
    for n, path in sorted(found):
        point = json.loads(path.read_text())
        if point.get("schema") != SCHEMA:
            print(f"skipping {path.name}: schema {point.get('schema')!r}, not {SCHEMA!r}",
                  file=sys.stderr)
            continue
        out.append((n, point))
    return out


def chain(pts: list) -> dict:
    """{(workload, metric): [first n, last n, points, chained change/parent ratio]},
    keyed in the order the points first name each pair."""
    rows = {}
    for n, point in pts:
        for workload, w in point["workloads"].items():
            for metric, m in w["metrics"].items():
                parent, change = m["parent"]["median"], m["change"]["median"]
                if not parent:  # no ratio to a zero median
                    continue
                row = rows.setdefault((workload, metric), [n, n, 0, 1.0])
                row[1], row[2], row[3] = n, row[2] + 1, row[3] * change / parent
    return rows


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--dir", type=Path, default=ROOT, help="directory of the BENCH files")
    p.add_argument("--since", type=int, default=0, help="first point number to chain")
    args = p.parse_args(argv)
    if not args.dir.is_dir():
        p.error(f"--dir {str(args.dir)!r} is not a directory")
    rows = chain(points(args.dir, args.since))
    if not rows:
        p.error(f"no {SCHEMA} point in {args.dir} from BENCH_{args.since} on")
    print(f"{'workload':<16}{'metric':<13}{'points':>6}  {'from':<10}{'to':<10}{'chained':>9}")
    for (workload, metric), (first, last, count, ratio) in rows.items():
        print(f"{workload:<16}{metric:<13}{count:>6}  {f'BENCH_{first}':<10}"
              f"{f'BENCH_{last}':<10}{f'x{ratio:.4f}':>9}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
