"""What a backtest process loads: with the compiled kernels, no scipy, and
no OpenSSL (``_hashlib``) for the kernel cache key."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mixrec
import mixrec.sweep_kernel as sweep_kernel

# Runs one backtest, which fits every chunk model in a fresh output
# directory and reloads them in a used one, and prints the scipy and OpenSSL
# (``_hashlib``) modules loaded after each step, as JSON.
SCRIPT = r"""
import json, logging, sys
from pathlib import Path

logging.basicConfig(level=logging.INFO)

def unwanted_modules():
    return sorted(m for m in sys.modules if m in ("scipy", "_hashlib") or m.startswith("scipy."))

out, steps = Path(sys.argv[1]), {}
import mixrec.backtest
steps["import mixrec.backtest"] = unwanted_modules()
import mixrec.cli
steps["import mixrec.cli"] = unwanted_modules()
from mixrec.sweep_kernel import load_kernel
load_kernel()  # hashes the source for its cache key
steps["load_kernel"] = unwanted_modules()

from mixrec.backtest import RunConfig, backtest
from mixrec.graph import write_edge_list
from mixrec.synth import SynthSpec, generate

data = out / "edges.tsv"
if not data.exists():
    g, _ = generate(SynthSpec(num_users=40, num_items=80, num_interests=3, num_chunks=4,
                              engagements_per_user=8, support_size=2, seed=3))
    write_edge_list(g, data)
cfg = RunConfig(data_path=str(data), out_dir=str(out / "run"), test_chunks=2, num_interests=3,
                kmeans_iters=5, m_values=[5], seed=1, user_count_mode="accumulate", embed={"dim": 8, "epochs": 2})
backtest(cfg)
steps["backtest"] = unwanted_modules()
print(json.dumps(steps))
"""
STEPS = ["import mixrec.backtest", "import mixrec.cli", "load_kernel", "backtest"]


def run_script(out: Path) -> tuple[dict, str]:
    """The steps ``SCRIPT`` reports in a fresh process, and its log."""
    env = {**os.environ, "PYTHONPATH": str(Path(mixrec.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(out)], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    steps = json.loads(proc.stdout.splitlines()[-1])
    assert list(steps) == STEPS
    return steps, proc.stderr


def test_backtest_process_loads_no_scipy(tmp_path):
    if sweep_kernel.load_kernel() is None:
        pytest.skip("no C compiler: log-gamma comes from scipy here")
    fitting, log = run_script(tmp_path)
    assert "stage=fit chunk=2 engagements=" in log
    reloading, log = run_script(tmp_path)
    # the second process reloaded the models the first one fitted
    assert "stage=fit chunk=2 action=reuse" in log
    assert {step: [m for m in mods if m != "_hashlib"] for step, mods in fitting.items()} == {s: [] for s in STEPS}
    # nor OpenSSL, which the kernel's cache key needs no longer; only the
    # fitting run loads it, since numpy.random imports the standard
    # library's secrets and through it hmac and _hashlib
    assert {**fitting, "backtest": []} == reloading == {s: [] for s in STEPS}
