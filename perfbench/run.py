"""skycell benchmark: one workload, untraced end-to-end metrics or traced per-layer metrics.

    python3 perfbench/run.py --workload swarm10 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; skycell is imported from ./src. The
benchmark times set-up in several fresh processes, warms the workload's
lazy caches with one snapshot, then repeats whole passes of the workload
until --seconds have gone by. Each operation of a pass (episode, flight,
mission, pipeline stage) is timed and scaled by the host speed measured
next to it (calibrate.py); a metric sums each operation's median over the
passes. With --trace 1 it alternates untraced and traced passes and reports
the per-layer metrics of the traced passes plus the tracing overhead.

Every metric is printed as "name value unit"; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. Details (environment fingerprint, per-pass values, errors) go to
.bench_out/<workload>-seed<n>-trace<t>.json, and a traced run also writes a
Chrome trace-event file .bench_out/<workload>-seed<n>.trace.json.
"""

import os

# Pin BLAS/OpenMP to one thread before numpy loads (also for the probes).
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE_FILE = HERE / "reference.json"
REFERENCE_SEED = 0
SETUP_PROBES = 5  # measured probes per run, after one discarded warm-up probe
PROBE_TIMEOUT_S = 60

END_TO_END = {
    "rtf": "s/s",
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("swarm10", "dataset10", "mission_random"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def require_program() -> None:
    if not (SRC / "skycell" / "__init__.py").is_file():
        print(f"error: no skycell sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(SRC), str(HERE)]


def measure_setup(workload: str, seed: int) -> list:
    """(set-up seconds, kernel seconds) from SETUP_PROBES fresh processes.

    One warm-up probe runs first and is discarded.
    """
    samples = []
    for _ in range(SETUP_PROBES + 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        setup_s, kernel_s = proc.stdout.split()[-2:]
        samples.append((float(setup_s), float(kernel_s)))
    return samples[1:]


def git_sha():
    """Commit of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def fingerprint(seed: int) -> dict:
    import numpy

    try:
        from skycell import kernels

        backend = kernels.active_backend()
    except (ImportError, AttributeError):
        backend = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": backend,
        "cpu_count": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_sha": git_sha(),
        "seed": seed,
    }


def normalise(obj):
    """JSON round trip, so digests compare equal to the stored reference."""
    return json.loads(json.dumps(obj))


def one_pass(ctx, workload, seed, meter, traced):
    import spans
    import workloads

    tracer = spans.Tracer() if traced else None
    if tracer:
        tracer.install()
    try:
        t0 = time.perf_counter()
        res = workloads.run_pass(ctx, workload, seed, meter)
        wall = time.perf_counter() - t0
    finally:
        if tracer:
            tracer.uninstall()
    digest = workloads.check_pass(ctx, workload, res)
    res.outputs = {}  # checked; free them so passes do not pile up in memory
    return {
        "traced": traced,
        "wall_s": wall,
        "result": res,
        "digest": None if digest is None else normalise(digest),
        "tracer": tracer,
        "layer": tracer.layer_metrics() if tracer else None,
    }


def per_op(passes):
    """Host-speed-scaled totals of a pass, each operation's median over passes.

    Every pass of a run does the same operations on the same inputs, so the
    i-th operation of each pass is a repeat of the same work.
    Returns (wall seconds, run_episode host seconds, virtual seconds).
    """
    names = [op[0] for op in passes[0]["result"].ops]
    # a pass that aborted did other operations and is left out (it counted as failed)
    ops = [p["result"].ops for p in passes if [op[0] for op in p["result"].ops] == names]
    n = len(names)
    wall = sum(statistics.median(o[i][1] * o[i][4] for o in ops) for i in range(n))
    host = sum(statistics.median(o[i][2] * o[i][4] for o in ops) for i in range(n))
    return wall, host, sum(op[3] for op in ops[0])


def main(argv=None) -> int:
    args = parse_args(argv)
    require_program()
    import calibrate
    import spans
    import workloads

    setup_samples = measure_setup(args.workload, args.seed)
    env = fingerprint(args.seed)
    # episode logs, CSV and model go to a directory of this process's own
    work_dir = OUT / f"work-{args.workload}-{os.getpid()}"
    ctx = workloads.Context.load(work_dir)
    meter = workloads.EpisodeMeter()
    meter.install()
    passes = []
    try:
        workloads.first_snapshot(ctx, args.workload, args.seed)  # fill lazy caches
        deadline = time.perf_counter() + args.seconds
        while True:
            passes.append(one_pass(ctx, args.workload, args.seed, meter, traced=False))
            if args.trace:
                for p in passes:
                    p["tracer"] = None  # only the last traced pass is written out
                passes.append(one_pass(ctx, args.workload, args.seed, meter, traced=True))
            if time.perf_counter() >= deadline:
                break
    finally:
        meter.uninstall()
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(p["result"].attempted for p in passes)
    failed = sum(p["result"].failed for p in passes)
    errors = [e for p in passes for e in p["result"].errors]

    # every pass of a run sees the same inputs, so every digest must agree
    mismatches = 0
    digests = [p["digest"] for p in passes if p["digest"] is not None]
    if any(d != digests[0] for d in digests[1:]):
        mismatches += 1
        errors.append("outputs differ between passes of the same seed")
    reference_checked = False
    if args.seed == REFERENCE_SEED and digests:
        reference = json.loads(REFERENCE_FILE.read_text()).get(args.workload)
        if reference is not None:
            reference_checked = True
            if digests[0] != reference:
                mismatches += 1
                errors.append(f"outputs differ from {REFERENCE_FILE.name} at seed {args.seed}")
    failed = min(attempted, failed + mismatches)

    plain = [p for p in passes if not p["traced"]]
    wall, host, virtual = per_op(plain)
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        layer = spans.median_metrics([p["layer"] for p in traced])
        layer["tracing.overhead_s"] = per_op(traced)[0] - wall
        units = {k: unit for k, (unit, _better) in spans.LAYER_METRICS.items()}
        metrics = {k: {"value": layer[k], "unit": units[k]} for k in spans.LAYER_METRICS}
        not_observed = traced[-1]["tracer"].not_observed_layers()
        trace_path = OUT / f"{args.workload}-seed{args.seed}.trace.json"
        traced[-1]["tracer"].write_chrome_trace(trace_path, {"workload": args.workload, **env})
    else:
        values = {
            "rtf": host / virtual if virtual else 0.0,
            "wall_s": wall,
            "setup_s": statistics.median(t * calibrate.REFERENCE_S / k for t, k in setup_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        not_observed = []
        trace_path = None

    error_rate = failed / attempted
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"error_rate {error_rate:.6g} ratio")
    print(f"passes {len(plain)} untraced, {len(passes) - len(plain)} traced; "
          f"reference {'checked' if reference_checked else 'not checked'}")
    if not_observed:
        print(f"layers not observed: {', '.join(not_observed)}")
    for e in errors[:20]:
        print(f"error: {e}", file=sys.stderr)

    report = {
        "workload": args.workload,
        "trace": args.trace,
        "environment": env,
        "metrics": metrics,
        "error_rate": error_rate,
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "setup_probes_s": setup_samples,
        "passes": [{"traced": p["traced"], "wall_s": p["wall_s"]} for p in passes],
        "unscaled": {
            "rtf": statistics.median(
                sum(op[2] for op in p["result"].ops) for p in plain
            ) / virtual if virtual else 0.0,
            "wall_s": statistics.median(sum(op[1] for op in p["result"].ops) for p in plain),
            "setup_s": statistics.median(t for t, _k in setup_samples),
        },
        "layers_not_observed": not_observed,
        "chrome_trace": None if trace_path is None else str(trace_path.relative_to(ROOT)),
    }
    report_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
