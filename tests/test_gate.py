"""The benchmark's correctness gate passes against the current package.

The gate compares the probe's train losses and reloaded-checkpoint logits
with ``perfbench/reference.json`` within a float32-reassociation
tolerance, so a change to the arithmetic of any model fails here too.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_gate_passes():
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "gate.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_benchmark_tracing_finds_every_function_it_wraps(monkeypatch):
    # the benchmark wraps package functions by name: a rename must fail here
    import absalab.harness  # noqa: F401  (loads every module the benchmark traces)
    from absalab import layers

    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)

    original = layers.run_lstm
    recorder = tracing.Recorder()
    try:
        recorder.install(tracing.TRACED)
        assert layers.run_lstm.__wrapped__ is original
    finally:
        recorder.uninstall()
    assert layers.run_lstm is original
