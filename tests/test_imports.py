"""Which scipy modules the library loads, each case in a fresh interpreter."""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs a config with export, then `uniswarm audit` on the written directory,
# and prints the names of the scipy modules loaded after the import and at the end.
_SCRIPT = """
import json, sys, tempfile
sys.path.insert(0, sys.argv[1])
import uniswarm
loaded = [sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]
from uniswarm import LEADER_CONSTANT, LEADERLESS, ModelParams, RunConfig, run
from uniswarm.cli import main
n, alpha_n = int(sys.argv[2]), float(sys.argv[3])
config = RunConfig(params=ModelParams(n=n, alpha_n=alpha_n, r_n=0.5, v_n=0.05, tau_n=0.01),
                   steps=120, seed=0, mode=LEADER_CONSTANT if alpha_n else LEADERLESS,
                   audit_level="sampled")
with tempfile.TemporaryDirectory() as out:
    run(config, out_dir=out)
    assert main(["audit", "--traj", out]) == 0
loaded.append(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
print(json.dumps(loaded))
"""


def _scipy_modules(n: int, alpha_n: float = 0.0) -> tuple[list[str], list[str]]:
    proc = subprocess.run([sys.executable, "-c", _SCRIPT, str(SRC), str(n), str(alpha_n)],
                          capture_output=True, text=True, check=True, timeout=120)
    after_import, after_audit = json.loads(proc.stdout.splitlines()[-1])
    return after_import, after_audit


def test_import_and_runs_below_64_agents_load_no_scipy():
    for n, alpha_n in ((8, 0.0), (40, 0.25)):
        assert _scipy_modules(n, alpha_n) == ([], [])


def test_runs_from_64_agents_compute_distances_with_pdist():
    after_import, after_audit = _scipy_modules(64)
    assert after_import == []
    assert "scipy.spatial.distance" in after_audit
    assert not any(m.startswith("scipy.integrate") for m in after_audit)
