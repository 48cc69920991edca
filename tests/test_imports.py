"""Which modules the library loads, each case in a fresh interpreter."""

import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs a config with export, then `uniswarm audit` on the written directory,
# and prints the names of the scipy and concurrent modules loaded after the
# import and at the end.
_SCRIPT = """
import json, sys, tempfile
sys.path.insert(0, sys.argv[1])
import uniswarm
loaded = [sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "concurrent"))]
from uniswarm import LEADER_CONSTANT, LEADERLESS, ModelParams, RunConfig, run
from uniswarm.cli import main
n, alpha_n = int(sys.argv[2]), float(sys.argv[3])
config = RunConfig(params=ModelParams(n=n, alpha_n=alpha_n, r_n=0.5, v_n=0.05, tau_n=0.01),
                   steps=120, seed=0, mode=LEADER_CONSTANT if alpha_n else LEADERLESS,
                   audit_level="sampled")
with tempfile.TemporaryDirectory() as out:
    run(config, out_dir=out)
    assert main(["audit", "--traj", out]) == 0
loaded.append(sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "concurrent")))
print(json.dumps(loaded))
"""


def _loaded_modules(n: int, alpha_n: float = 0.0) -> tuple[list[str], list[str]]:
    proc = subprocess.run([sys.executable, "-c", _SCRIPT, str(SRC), str(n), str(alpha_n)],
                          capture_output=True, text=True, check=True, timeout=120)
    after_import, after_audit = json.loads(proc.stdout.splitlines()[-1])
    return after_import, after_audit


def test_import_and_runs_below_64_agents_load_no_scipy():
    # nor concurrent.futures, which the recursion re-audit imports only to
    # split the instants of swarms from 257 agents on
    for n, alpha_n in ((8, 0.0), (40, 0.25)):
        assert _loaded_modules(n, alpha_n) == ([], [])


def test_runs_from_64_agents_compute_distances_with_pdist():
    after_import, after_audit = _loaded_modules(64)
    assert after_import == []
    assert "scipy.spatial.distance" in after_audit
    assert not any(m.startswith("scipy.integrate") for m in after_audit)
    # scipy itself loads concurrent.futures, but below the split size the
    # re-audit starts no pool, whose module loads only when it is asked for
    assert "concurrent.futures.thread" not in after_audit


# Records whether `import uniswarm` loads hashlib, then which file first
# imports it during a run that writes nothing.
_HASHLIB_SCRIPT = """
import json, sys, traceback
sys.path.insert(0, sys.argv[1])
importers = []


class Watch:
    def find_spec(self, name, path=None, target=None):
        if name == "hashlib":
            frames = [f.filename for f in traceback.extract_stack()[:-1]]
            importers.append([f for f in frames if not f.startswith("<frozen")][-1])
        return None


sys.meta_path.insert(0, Watch())
import uniswarm
after_import = "hashlib" in sys.modules
from uniswarm import ModelParams, RunConfig, run
run(RunConfig(params=ModelParams(n=8, r_n=0.5, v_n=0.05, tau_n=0.01), steps=20, seed=0))
print(json.dumps([after_import, importers]))
"""


def test_import_and_runs_without_export_do_not_import_hashlib():
    proc = subprocess.run([sys.executable, "-c", _HASHLIB_SCRIPT, str(SRC)],
                          capture_output=True, text=True, check=True, timeout=120)
    after_import, importers = json.loads(proc.stdout.splitlines()[-1])
    assert not after_import
    # numpy.random loads hashlib itself (bit_generator -> secrets -> hmac), so
    # the run loads it; only the hashing functions of the export import it in
    # the library
    assert len(importers) == 1
    assert not Path(importers[0]).resolve().is_relative_to(SRC / "uniswarm")


# Records whether the CSV formatter module is loaded after `import uniswarm`,
# after a run that writes nothing, and after a run with export.
_CSVTEXT_SCRIPT = """
import json, sys, tempfile
sys.path.insert(0, sys.argv[1])
import uniswarm
loaded = ["uniswarm._csvtext" in sys.modules]
from uniswarm import ModelParams, RunConfig, run
config = RunConfig(params=ModelParams(n=8, r_n=0.5, v_n=0.05, tau_n=0.01), steps=20, seed=0)
run(config)
loaded.append("uniswarm._csvtext" in sys.modules)
with tempfile.TemporaryDirectory() as out:
    run(config, out_dir=out)
loaded.append("uniswarm._csvtext" in sys.modules)
print(json.dumps(loaded))
"""


def test_only_runs_with_export_load_the_csv_formatter():
    # the formatter's tables cost import time and memory that runs which
    # write nothing, such as campaigns, never need
    proc = subprocess.run([sys.executable, "-c", _CSVTEXT_SCRIPT, str(SRC)],
                          capture_output=True, text=True, check=True, timeout=120)
    assert json.loads(proc.stdout.splitlines()[-1]) == [False, False, True]


# The bytes the formatter's module-level numpy tables may hold together: about
# 137 kB today, 80 kB of which is the table of four-digit groups.
_CSVTEXT_TABLE_BUDGET = 140_000


def test_csv_formatter_tables_stay_within_budget():
    # each run with export loads the tables, and their pages count towards
    # the run's peak RSS
    import numpy as np

    from uniswarm import _csvtext

    tables = [v for v in vars(_csvtext).values() if isinstance(v, np.ndarray)]
    assert len(tables) >= 10
    assert sum(t.nbytes for t in tables) <= _CSVTEXT_TABLE_BUDGET


# Prints the top-level modules that `import uniswarm` adds to those numpy loads.
_IMPORT_SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
import numpy
before = {name.split(".")[0] for name in sys.modules}
import uniswarm
print(" ".join(sorted({name.split(".")[0] for name in sys.modules} - before)))
"""


def test_import_adds_only_these_modules_to_numpy():
    # every module added here is paid for by each command's start-up time
    proc = subprocess.run([sys.executable, "-c", _IMPORT_SCRIPT, str(SRC)],
                          capture_output=True, text=True, check=True, timeout=120)
    assert proc.stdout.split() == ["__future__", "_json", "copy", "dataclasses", "json", "uniswarm"]
