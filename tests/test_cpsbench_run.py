"""One benchmark run of the exact-aol workload passes on this checkout.

``cpsbench/run.py`` makes one cold and one warm ALLPAIRS call on the AOL
clone, gates both against the DuckDB exact join, and counts as failed a
warm call whose pair-set hash, counters or Spark job/stage/task counts
differ from the cold call's.  It starts its own Spark session (about
25 s) and writes only under ``.bench_out/``.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_cpsbench_exact_aol_run_passes():
    proc = subprocess.run(
        [sys.executable, "-B", str(ROOT / "cpsbench" / "run.py"),
         "--workload", "exact-aol", "--seed", "3", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-4000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], result
    assert result["failed"] == 0, result
