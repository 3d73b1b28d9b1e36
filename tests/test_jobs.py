"""Job entrypoint tests: all four compile; one runs end to end."""
import os
import py_compile
import subprocess
import sys

import pytest

JOBS = os.path.join(os.path.dirname(__file__), "..", "jobs")


@pytest.mark.parametrize(
    "name",
    [
        "table1_dataset_stats.py",
        "table2_join_times.py",
        "table3_parameters.py",
        "table4_candidates.py",
        "_session.py",
    ],
)
def test_job_compiles(name):
    py_compile.compile(os.path.join(JOBS, name), doraise=True)


def _fresh_checkout_env() -> dict:
    """The caller's environment minus anything that locates ``repro``:
    a job must find it from its own checkout, as after ``git clone``."""
    env = dict(os.environ)
    env["SPARK_SHUFFLE_PARTITIONS"] = "8"
    env.pop("PYSPARK_SUBMIT_ARGS", None)
    env.pop("PYTHONPATH", None)
    return env


def test_table1_job_runs():
    """Run one job in a subprocess (its own SparkSession) end to end."""
    env = _fresh_checkout_env()
    out = subprocess.run(
        [
            sys.executable,
            os.path.join(JOBS, "table1_dataset_stats.py"),
            "--scale", "0.1",
            "--datasets", "DBLP,UNIFORM005",
        ],
        capture_output=True,
        text=True,
        timeout=420,
        env=env,
    )
    assert out.returncode == 0, out.stderr[-3000:]
    assert "DBLP" in out.stdout and "UNIFORM005" in out.stdout
    assert "paper_n_sets" in out.stdout


_WORKER_IMPORT = """
import _session

spark = _session.get_spark("worker-import")


def run(batches):
    import repro  # runs in a Python worker, not in the driver

    for pdf in batches:
        yield pdf.assign(id=len(repro.__name__))


print(spark.range(2).mapInPandas(run, "id long").collect())
spark.stop()
"""


def test_session_workers_import_repro():
    """A job's Python workers import ``repro`` without ``pip install``."""
    out = subprocess.run(
        [sys.executable, "-c", _WORKER_IMPORT],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=JOBS,
        env=_fresh_checkout_env(),
    )
    assert out.returncode == 0, out.stderr[-3000:]
    assert "Row(id=5), Row(id=5)" in out.stdout
