"""The benchmark's self-test passes on this checkout.

``cpsbench/selftest.py`` checks the benchmark's own pieces against the
code under ``src/``: the DuckDB exact join against the brute-force join,
the gate against tampered pair sets, and every workload generator's
determinism.  It needs no Spark.  Running it here makes a ``src/``
change that breaks one of them fail the test suite, not only a
benchmark run.
"""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_cpsbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "-B", str(ROOT / "cpsbench" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
