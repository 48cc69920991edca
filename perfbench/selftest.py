"""Self-test of the benchmark itself (not of the library).

    python3 perfbench/selftest.py

1. A reference with one deliberately wrong value makes a checked call
   fail, so ``failed_frac`` becomes non-zero.
2. An untraced and a traced run pass the same correctness check, so the
   span wrappers do not change results, and each prints exactly the metrics
   that BENCHMARK.json declares for it.
3. In a directory holding only BENCHMARK.json and the benchmark's files the
   run exits non-zero without printing a result.

Uses the cheapest workload; takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import benchenv

HERE = Path(__file__).resolve().parent
WORKLOAD = "fig3_roundtrip"
TIMEOUT_S = 600


def bench(cwd: Path, trace: int = 0) -> tuple[int, dict | None]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", WORKLOAD,
                           "--seed", "0", "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result if isinstance(result, dict) else None


def main() -> int:
    root = benchenv.bootstrap()
    import run
    import tracing
    import workloads

    spec = json.loads((root / "BENCHMARK.json").read_text())
    scratch = root / ".perfbench_out" / "selftest"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    checks = []
    try:
        # 1. one wrong reference value, the envelope verdict of the called seed
        workload = workloads.WORKLOADS[WORKLOAD]
        reference = json.loads(run.REFERENCE.read_text())["workloads"][WORKLOAD]
        (seed,) = seeds = next(workload.inputs(0))
        reference["seeds"][str(seed)]["envelope_verdict"] += " (tampered)"
        session = run.Session(workloads, workload, reference, scratch / "out")
        session.call(seeds, tracing.no_span)
        checks.append(("wrong reference value makes failed_frac non-zero",
                       session.attempted == 1 and session.failed == 1))

        # 2. untraced and traced runs pass the same check
        for trace, declared in ((0, "end_to_end"), (1, "per_layer")):
            code, result = bench(root, trace=trace)
            names = {m["name"] for m in spec[declared]}
            checks.append((f"trace={trace} run is correct and prints every {declared} metric",
                           code == 0 and result is not None and result["correct"]
                           and result["failed"] == 0 and set(result["metrics"]) == names))

        # 3. no library in the directory: non-zero exit, no result
        bare = scratch / "bare"
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(root / "BENCHMARK.json", bare)
        code, result = bench(bare)
        checks.append(("without the library the run exits non-zero and prints no result",
                       code != 0 and result is None))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    return 0 if all(ok for _, ok in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
