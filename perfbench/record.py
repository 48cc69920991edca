"""Record the reference outcomes that ``run.py`` checks every call against.

    python3 perfbench/record.py [--workload NAME ...]

For each workload and each pool seed this runs the workload once on that
seed and stores the recursion-audit fail count, the envelope verdict, the
switch log, the sync index, the final StepMetrics row and the verdicts of
the re-audit.  It also stores two exact input properties,
``changed_rows_frac`` (share of agent-instants whose neighbour set differs
from k=0) and ``p_dev_zero_frac`` (share of metrics rows with
``p_deviation == 0``), and, for information, the sha256 of the exported
files.  Rewriting the file changes what counts as correct: do it only when
the expected outcomes change on purpose, and say why.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

import benchenv

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def record_workload(workloads, tracing, workload, out: Path) -> dict:
    seeds = {}
    for seed in range(workloads.POOL_SIZE):
        output = workload.call([seed], out, tracing.no_span)
        if output.errors:
            raise RuntimeError(f"{workload.name} seed {seed} raised: {output.errors}")
        entry = dict(output.outcomes[seed])
        entry.update(workloads.input_properties(output)[seed])
        if seed in output.digests:
            entry["sha256"] = output.digests[seed]
        seeds[str(seed)] = entry
        print(f"{workload.name} seed {seed}: {entry['envelope_verdict']} "
              f"changed_rows_frac={entry['changed_rows_frac']:.4f} "
              f"p_dev_zero_frac={entry['p_dev_zero_frac']:.4f}", flush=True)
    mean = {key: sum(e[key] for e in seeds.values()) / len(seeds)
            for key in ("changed_rows_frac", "p_dev_zero_frac")}
    return {"pool_mean": mean, "seeds": seeds}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="record perfbench reference outcomes")
    parser.add_argument("--workload", action="append",
                        help="re-record only this workload (repeatable)")
    args = parser.parse_args(argv)
    root = benchenv.bootstrap()
    import tracing
    import workloads

    data = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {"workloads": {}}
    data["environment"] = benchenv.environment()
    data["pool_size"] = workloads.POOL_SIZE
    data["tolerance"] = {"rel": workloads.REL_TOL, "abs": workloads.ABS_TOL}
    out = root / ".perfbench_out" / "record"
    try:
        for name in args.workload or list(workloads.WORKLOADS):
            data["workloads"][name] = record_workload(workloads, tracing,
                                                      workloads.WORKLOADS[name], out)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
