"""Every join caches a result sized to the session's task slots.

AQE cannot coalesce a cached plan: a result cached straight off a shuffle
keeps one partition per shuffle partition, so the stage that fills the
cache and every later scan of it (the join's own count, a caller's
``collect``) run that many tasks for a few hundred pairs.
"""
import pytest
from pyspark.errors import PySparkException
from pyspark.sql import functions as F

from repro import datasets
from repro.baselines.allpairs import allpairs
from repro.baselines.minhash_lsh import minhash_lsh_join
from repro.core.cpsjoin import _cache_pairs, cpsjoin
from repro.setsynth import collection_to_spark

LAM = 0.5
JOINS = {
    "cpsjoin": lambda spark, df: cpsjoin(spark, df, LAM, t=64, ell=8, reps=3, seed=1),
    "allpairs": lambda spark, df: allpairs(spark, df, LAM),
    "minhash_lsh_join": lambda spark, df: minhash_lsh_join(
        spark, df, LAM, k=3, reps=6, ell=8, seed=2
    ),
}


@pytest.fixture(scope="module")
def dblp(spark):
    df = collection_to_spark(spark, datasets.generate("DBLP", seed=0, scale=0.15)).cache()
    df.count()
    yield df
    df.unpersist()


@pytest.mark.parametrize("join", JOINS)
def test_result_fits_the_task_slots(spark, dblp, join):
    res = JOINS[join](spark, dblp)
    try:
        assert res.n_results > 0
        assert res.pairs.rdd.getNumPartitions() <= spark.sparkContext.defaultParallelism
    finally:
        res.pairs.unpersist()


def test_failed_count_leaves_nothing_cached(spark):
    """A result whose count raises is not left registered in the cache:
    a registered plan is re-planned, and fails again, whenever a cached
    plan it reads is unpersisted."""
    bad = spark.range(100).select(
        F.when(F.col("id") == 3, F.raise_error(F.lit("bad row")))
        .otherwise(F.col("id")).alias("id")
    )
    with pytest.raises(PySparkException, match="bad row"):
        _cache_pairs(bad)
    coalesced = bad.coalesce(spark.sparkContext.defaultParallelism)
    assert not coalesced.storageLevel.useMemory
