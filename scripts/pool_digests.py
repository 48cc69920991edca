#!/usr/bin/env python3
"""Digests of the benchmark's pool runs, to show that a change left every output as it was.

Runs seeds 0-7 of four configs, one run at a time and each written to a
fresh directory: the leaderless m=500 config, the fig3 scenario, the
acceptance-criterion-8 leader campaign config (m=130, 1000 steps) and a
sparse leader config without self loops (m=72, 500 steps), whose graphs
hold agents without neighbors (seeds 0 and 2 start with 3 and 4), so that
the averaging rule for an agent of degree 0 is exercised too.  It
prints one JSON object holding, per config and seed, the sha256 of
``trajectory.csv``, ``trajectory.npy``, ``metrics.csv``, ``audits.json`` and
``run_meta.json`` (the last without its ``wallclock`` entry), the sha256 of
each column of ``metrics.csv`` (``metrics.csv columns``, by header name, so
that a diff shows which columns moved), and the re-audit's recursion
slacks (sha256 of their bytes), verdicts and
``ring_containment_check`` three times: from the files on disk
(``reaudit_disk``, which reads ``trajectory.npy``), from a copy of the
directory without ``trajectory.npy`` (``reaudit_csv``, which parses
``trajectory.csv``) and from the trajectory in memory (``reaudit_memory``).

Run it on two checkouts and diff the output:

    python3 scripts/pool_digests.py > after.json

The library is imported from this checkout's ``src/``, with BLAS on one
thread.  Of the output, only the digests of ``metrics.csv`` and of its
``p_dev`` column, which comes from a BLAS Gram product and LAPACK's
``eigvalsh``, depend on the BLAS build and the kernel it picks for the CPU
(for OpenBLAS, ``OPENBLAS_CORETYPE``).
"""

import hashlib
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_name] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from uniswarm import (LEADER_CONSTANT, ModelParams, RunConfig, geometric_envelope_audit,  # noqa: E402
                      load_trajectory, recursion_audit, ring_containment_check, run,
                      scenario_fig3)

SEEDS = range(8)
FILES = ("trajectory.csv", "trajectory.npy", "metrics.csv", "audits.json")


def _m500(seed: int) -> RunConfig:
    return RunConfig(params=ModelParams(n=500, r_n=0.15, v_n=0.05, tau_n=0.01), steps=100,
                     seed=seed, audit_level="sampled")


def _criterion8(seed: int) -> RunConfig:
    params = ModelParams(n=100, alpha_n=0.3, r_n=0.3, v_n=0.1, tau_n=0.01, vartheta=0.5)
    return RunConfig(params=params, steps=1000, seed=seed, mode=LEADER_CONSTANT,
                     reference_heading=np.pi / 4, audit_level="sampled")


def _isolated(seed: int) -> RunConfig:
    params = ModelParams(n=60, alpha_n=0.2, r_n=0.12, v_n=0.1, tau_n=0.01, vartheta=0.5,
                         self_inclusive=False)
    return RunConfig(params=params, steps=500, seed=seed, mode=LEADER_CONSTANT,
                     reference_heading=np.pi / 4, audit_level="sampled")


CONFIGS = {"leaderless_m500": _m500, "fig3": lambda seed: scenario_fig3(seed=seed),
           "criterion8": _criterion8, "isolated": _isolated}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _column_digests(csv: bytes) -> dict:
    """The sha256 of each column's text, its lines joined by newlines, by
    header name."""
    header, *lines = csv.decode().splitlines()
    columns = zip(*(line.split(",") for line in lines))
    return {name: _sha256("\n".join(column).encode())
            for name, column in zip(header.split(","), columns)}


def _reaudit(traj, substeps: int) -> dict:
    recursion = recursion_audit(traj, substep_count=substeps)
    return {"slacks_sha256": _sha256(recursion.slacks.tobytes()),
            "verdicts_sha256": _sha256(json.dumps(recursion.verdicts).encode()),
            "fail_count": recursion.fail_count, "max_violation": recursion.max_violation,
            "envelope": geometric_envelope_audit(traj).to_dict(),
            "ring_containment": ring_containment_check(traj)}


def digests(config: RunConfig, out: Path) -> dict:
    result = run(config, out_dir=out)
    record = {name: _sha256((out / name).read_bytes()) for name in FILES}
    record["metrics.csv columns"] = _column_digests((out / "metrics.csv").read_bytes())
    meta = json.loads((out / "run_meta.json").read_text())
    del meta["wallclock"]
    record["run_meta.json"] = _sha256(json.dumps(meta, indent=1).encode())
    record["reaudit_disk"] = _reaudit(load_trajectory(out), config.substeps)
    csv_only = out.with_name(out.name + "_csv")
    shutil.copytree(out, csv_only, ignore=shutil.ignore_patterns("trajectory.npy"))
    record["reaudit_csv"] = _reaudit(load_trajectory(csv_only), config.substeps)
    record["reaudit_memory"] = _reaudit(result.trajectory, config.substeps)
    return record


def main() -> None:
    report = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, config in CONFIGS.items():
            report[name] = {str(seed): digests(config(seed), Path(tmp) / name / str(seed))
                            for seed in SEEDS}
    print(json.dumps(report, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
