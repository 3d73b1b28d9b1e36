"""Helpers shared by the Spark join tests."""
import hashlib
from contextlib import contextmanager

import duckdb

from repro.exact import exact_join_sql
from repro.setsynth import collection_to_pandas


def pair_set(res) -> set[tuple[int, int]]:
    """The ``(sid_a, sid_b)`` pairs of a join result."""
    return {(int(r["sid_a"]), int(r["sid_b"])) for r in res.pairs.collect()}


def pair_sha256(pairs: set[tuple[int, int]]) -> str:
    """SHA-256 of a sorted pair set, one ``a,b`` line per pair."""
    text = "\n".join(f"{a},{b}" for a, b in sorted(pairs))
    return hashlib.sha256(text.encode()).hexdigest()


def oracle_pairs(sets, lam: float) -> set[tuple[int, int]]:
    """The DuckDB exact join of ``sets`` (sid = list index) at ``lam``."""
    con = duckdb.connect()
    try:
        con.register("sets", collection_to_pandas(sets))
        return {(int(a), int(b)) for a, b in con.execute(exact_join_sql(lam)).fetchall()}
    finally:
        con.close()


def run_counted(spark, group: str, fn):
    """Run ``fn()`` in job group ``group``; return ``(result, jobs, tasks)``.

    Counts come from ``statusTracker()``: the group's jobs and the tasks
    completed by their stages.
    """
    sc = spark.sparkContext
    sc.setJobGroup(group, group)
    try:
        out = fn()
        sc._jsc.sc().listenerBus().waitUntilEmpty()
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setLocalProperty("spark.job.description", None)
    tracker = sc.statusTracker()
    jobs = tracker.getJobIdsForGroup(group)
    stages = set()
    for j in jobs:
        stages.update(tracker.getJobInfo(j).stageIds)
    tasks = sum(
        info.numCompletedTasks
        for info in map(tracker.getStageInfo, stages) if info is not None
    )
    return out, len(jobs), tasks


@contextmanager
def arrow_batch_rows(spark, n: int):
    """Cap Arrow batches at ``n`` rows inside the block, then restore the setting."""
    key = "spark.sql.execution.arrow.maxRecordsPerBatch"
    old = spark.conf.get(key, None)
    spark.conf.set(key, str(n))
    try:
        yield
    finally:
        if old is None:
            spark.conf.unset(key)
        else:
            spark.conf.set(key, old)
