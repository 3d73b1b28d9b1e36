"""One benchmark run of each workload passes on this checkout.

``cpsbench/run.py`` makes one cold and one warm call of the workload's
join (CPSJoin on cp-skew, ALLPAIRS on the AOL clone for exact-aol),
gates both against the DuckDB exact join, and counts as failed a warm
call whose pair-set hash, counters or Spark job/stage/task counts
differ from the cold call's.  Each run starts its own Spark session
(about 25-30 s) and writes only under ``.bench_out/``.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["exact-aol", "cp-skew"])
def test_cpsbench_run_passes(workload):
    proc = subprocess.run(
        [sys.executable, "-B", str(ROOT / "cpsbench" / "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-4000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], result
    assert result["failed"] == 0, result
