"""A run's bits do not depend on the BLAS kernel: the same configs, run in
interpreters whose OpenBLAS takes different CPU kernels, write the same
trajectory and audits byte for byte, and every ``metrics.csv`` column but
``p_dev``, which comes from a BLAS Gram product and LAPACK's ``eigvalsh``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# Two kernels of an OpenBLAS DYNAMIC_ARCH build whose gemv adds a row's
# terms in different orders; the kernel OpenBLAS picks for the CPU, when it
# is neither, is compared with them too.
CORETYPES = ("Sandybridge", "Haswell")

# One small config of each mode, each run with export into argv[2]/<mode>,
# and a leaderless m = 500 run, whose envelope scale is the norm of 500
# speeds: a BLAS dot product rounds it differently under the SkylakeX kernel.
_SCRIPT = """
import sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import numpy as np
from uniswarm import LEADER_CONSTANT, ModelParams, RunConfig, run, scenario_fig3
out = Path(sys.argv[2])
run(RunConfig(params=ModelParams(n=100, r_n=0.2, v_n=0.05, tau_n=0.01), steps=100, seed=1),
    out_dir=out / "leaderless")
run(RunConfig(params=ModelParams(n=500, r_n=0.15, v_n=0.05, tau_n=0.01), steps=3, seed=2),
    out_dir=out / "leaderless_m500")
run(RunConfig(params=ModelParams(n=100, alpha_n=0.3, r_n=0.3, v_n=0.1, tau_n=0.01,
                                 vartheta=0.5),
              steps=300, seed=0, mode=LEADER_CONSTANT, reference_heading=np.pi / 4),
    out_dir=out / "leader_constant")
run(scenario_fig3(seed=0, steps=600), out_dir=out / "leader_dynamic")
"""


def _env(coretype: str | None) -> dict:
    """The environment that asks OpenBLAS for ``coretype``, or for the
    kernel it picks for the CPU when None."""
    env = {**os.environ, "OPENBLAS_VERBOSE": "2", "OPENBLAS_NUM_THREADS": "1"}
    env.pop("OPENBLAS_CORETYPE", None)
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    return env


def _core_taken(coretype: str | None) -> str | None:
    """The kernel that numpy's OpenBLAS reports when asked for ``coretype``
    (None: the CPU's own), or None when its BLAS reports none: not an
    OpenBLAS DYNAMIC_ARCH build."""
    proc = subprocess.run([sys.executable, "-c", "import numpy"], env=_env(coretype),
                          capture_output=True, text=True, check=True, timeout=60)
    cores = [line.split(":", 1)[1].strip() for line in proc.stderr.splitlines()
             if line.startswith("Core:")]
    return cores[0] if cores else None


def _metrics_columns(path: Path) -> dict:
    """The text of each column of the ``metrics.csv`` at ``path``, by header
    name, but ``p_dev``."""
    header, *lines = path.read_text().splitlines()
    columns = zip(*(line.split(",") for line in lines))
    return {name: column for name, column in zip(header.split(","), columns) if name != "p_dev"}


def test_outputs_are_byte_equal_under_each_blas_kernel(tmp_path):
    for coretype in CORETYPES:
        taken = _core_taken(coretype)
        if taken is None:
            pytest.skip("numpy's BLAS is not an OpenBLAS DYNAMIC_ARCH build "
                        "(OPENBLAS_VERBOSE=2 prints no 'Core:')")
        if taken != coretype:
            pytest.skip(f"OpenBLAS took the {taken} kernel when asked for {coretype}")
    kernels = {coretype: coretype for coretype in CORETYPES}
    default = _core_taken(None)
    if default not in kernels:
        kernels[default] = None
    for name, coretype in kernels.items():
        subprocess.run([sys.executable, "-c", _SCRIPT, str(SRC), str(tmp_path / name)],
                       env=_env(coretype), capture_output=True, check=True, timeout=300)
    first, *others = kernels
    for other in others:
        for mode in ("leaderless", "leaderless_m500", "leader_constant", "leader_dynamic"):
            for name in ("trajectory.npy", "trajectory.csv", "audits.json"):
                assert ((tmp_path / first / mode / name).read_bytes()
                        == (tmp_path / other / mode / name).read_bytes()), \
                    f"{mode}/{name} differs between the {first} and {other} kernels"
            want = _metrics_columns(tmp_path / first / mode / "metrics.csv")
            got = _metrics_columns(tmp_path / other / mode / "metrics.csv")
            assert want.keys() == got.keys()
            for column in want:
                assert want[column] == got[column], \
                    f"{mode}/metrics.csv column {column} differs between the {first} and " \
                    f"{other} kernels"
