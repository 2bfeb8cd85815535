"""The benchmark's correctness gate passes against the current package.

The gate compares the probe's train losses and reloaded-checkpoint logits
with ``perfbench/reference.json`` within a float32-reassociation
tolerance, so a change to the arithmetic of any model fails here too.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_gate_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "gate.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
