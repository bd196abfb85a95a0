"""What a backtest process loads: with the compiled kernels, no scipy."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mixrec
import mixrec.sweep_kernel as sweep_kernel

# Prints the scipy modules loaded after each step, as JSON.
SCRIPT = r"""
import json, logging, sys
from pathlib import Path

logging.basicConfig(level=logging.INFO)

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

out, steps = Path(sys.argv[1]), {}
import mixrec.backtest
steps["import mixrec.backtest"] = scipy_modules()
import mixrec.cli
steps["import mixrec.cli"] = scipy_modules()

from mixrec.backtest import RunConfig, backtest
from mixrec.synth import SynthSpec, generate

g, _ = generate(SynthSpec(num_users=40, num_items=80, num_interests=3, num_chunks=4,
                          engagements_per_user=8, support_size=2, seed=3))
data = out / "edges.tsv"
data.write_text("".join(f"{u}\t{i}\t{t}\n" for u, i, t in zip(g.users.tolist(), g.items.tolist(), g.chunks.tolist())))
cfg = RunConfig(data_path=str(data), out_dir=str(out / "run"), test_chunks=2, num_interests=3,
                kmeans_iters=5, m_values=[5], seed=1, user_count_mode="accumulate")
cfg.embed.dim, cfg.embed.epochs = 8, 2
backtest(cfg)  # fits every chunk model
steps["backtest, fitting"] = scipy_modules()
backtest(cfg)  # reloads them
steps["backtest, reloading"] = scipy_modules()
print(json.dumps(steps))
"""


def test_backtest_process_loads_no_scipy(tmp_path):
    if sweep_kernel.load_kernel() is None:
        pytest.skip("no C compiler: log-gamma comes from scipy here")
    src = str(Path(mixrec.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    steps = json.loads(proc.stdout.splitlines()[-1])
    assert list(steps) == ["import mixrec.backtest", "import mixrec.cli", "backtest, fitting", "backtest, reloading"]
    assert steps == {step: [] for step in steps}
    # the second run reloaded the models the first one fitted
    assert "stage=fit chunk=2 engagements=" in proc.stderr
    assert "stage=fit chunk=2 action=reuse" in proc.stderr
