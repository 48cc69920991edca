"""A run's bits do not depend on the BLAS kernel: the same configs, run in
two interpreters whose OpenBLAS takes different CPU kernels, write the same
trajectory and audits byte for byte."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# Two kernels of an OpenBLAS DYNAMIC_ARCH build whose gemv adds a row's
# terms in different orders.
CORETYPES = ("Sandybridge", "Haswell")

# One small config of each mode, each run with export into argv[2]/<mode>.
_SCRIPT = """
import sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import numpy as np
from uniswarm import LEADER_CONSTANT, ModelParams, RunConfig, run, scenario_fig3
out = Path(sys.argv[2])
run(RunConfig(params=ModelParams(n=100, r_n=0.2, v_n=0.05, tau_n=0.01), steps=100, seed=1),
    out_dir=out / "leaderless")
run(RunConfig(params=ModelParams(n=100, alpha_n=0.3, r_n=0.3, v_n=0.1, tau_n=0.01,
                                 vartheta=0.5),
              steps=300, seed=0, mode=LEADER_CONSTANT, reference_heading=np.pi / 4),
    out_dir=out / "leader_constant")
run(scenario_fig3(seed=0, steps=600), out_dir=out / "leader_dynamic")
"""


def _env(coretype: str) -> dict:
    return {**os.environ, "OPENBLAS_CORETYPE": coretype, "OPENBLAS_VERBOSE": "2",
            "OPENBLAS_NUM_THREADS": "1"}


def _core_taken(coretype: str) -> str | None:
    """The kernel that numpy's OpenBLAS reports when asked for ``coretype``,
    or None when its BLAS reports none: not an OpenBLAS DYNAMIC_ARCH build."""
    proc = subprocess.run([sys.executable, "-c", "import numpy"], env=_env(coretype),
                          capture_output=True, text=True, check=True, timeout=60)
    cores = [line.split(":", 1)[1].strip() for line in proc.stderr.splitlines()
             if line.startswith("Core:")]
    return cores[0] if cores else None


def test_outputs_are_byte_equal_under_two_blas_kernels(tmp_path):
    for coretype in CORETYPES:
        taken = _core_taken(coretype)
        if taken is None:
            pytest.skip("numpy's BLAS is not an OpenBLAS DYNAMIC_ARCH build "
                        "(OPENBLAS_VERBOSE=2 prints no 'Core:')")
        if taken != coretype:
            pytest.skip(f"OpenBLAS took the {taken} kernel when asked for {coretype}")
    for coretype in CORETYPES:
        subprocess.run([sys.executable, "-c", _SCRIPT, str(SRC), str(tmp_path / coretype)],
                       env=_env(coretype), capture_output=True, check=True, timeout=300)
    first, second = (tmp_path / coretype for coretype in CORETYPES)
    for mode in ("leaderless", "leader_constant", "leader_dynamic"):
        for name in ("trajectory.npy", "audits.json"):
            assert (first / mode / name).read_bytes() == (second / mode / name).read_bytes(), \
                f"{mode}/{name} differs between the {' and '.join(CORETYPES)} kernels"
