"""Record the reference outputs that run.py compares against at REFERENCE_SEED.

    python3 perfbench/record_reference.py

Runs one untraced pass of every workload at the reference seed, checks its
invariants and writes perfbench/reference.json: the swarm decision/throughput
digest, the dataset CSV and model.json SHA-256 with the top-K table, and the
MissionMetrics of every mission. Re-record only for a change that is meant
to alter behaviour, and say so in the change.
"""

import json
import sys

import run


def main() -> int:
    run.require_program()
    import workloads

    ctx = workloads.Context.load(run.OUT / "reference")
    meter = workloads.EpisodeMeter()
    meter.install()
    reference = {"seed": run.REFERENCE_SEED}
    try:
        for workload in workloads.WORKLOADS:
            p = run.one_pass(ctx, workload, run.REFERENCE_SEED, meter, traced=False)
            if p["result"].failed:
                print(f"{workload}: {p['result'].errors[:5]}", file=sys.stderr)
                return 1
            reference[workload] = p["digest"]
            print(f"{workload}: recorded")
    finally:
        meter.uninstall()
    run.REFERENCE_FILE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
