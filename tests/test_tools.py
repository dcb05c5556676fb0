"""tools/ab_steps.py, the in-process A/B of two copies of the package, runs
end to end: one round with both sides on this checkout's src, in its own
process, since it imports the package a second time under another name."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_ab_steps_runs_with_both_sides_on_src():
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "ab_steps.py"), str(ROOT / "src"), "--rounds", "1"],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    rows = {line.split()[0]: line for line in proc.stdout.splitlines()[2:]}
    assert sorted(rows) == ["evaluate_bpb", "stage1_step", "stage2_step"]
    # the same package on both sides computes the same losses
    assert all(row.endswith("0.0e+00 (agree)") for row in rows.values()), proc.stdout
