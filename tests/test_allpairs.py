"""ALLPAIRS exactness tests — every result goes through the DuckDB oracle."""
import numpy as np
import pytest
from pyspark.errors import PySparkException
from pyspark.sql import functions as F

from repro import datasets
from repro.baselines.allpairs import allpairs
from repro.exact import brute_force_join, exact_join_sql
from repro.oracle import assert_equivalent
from repro.setsynth import collection_to_pandas, collection_to_spark

from ._helpers import pair_set, pair_sha256, run_counted

# Output of the DBLP x0.15 join at lam = 0.5, recorded before ALLPAIRS
# became one Catalyst plan; a rewrite of the plan must not move it.
PINNED_SHA256 = "9ba6ef461e70371ff0d67628f6f55999908e3e38b0932362e361d24097202d5a"
PINNED_STATS = (104527, 9999, 24)

# Jobs and tasks of one DBLP x0.15 call at 4 task slots: 21 and 846 with a
# single-partition Window, cached intermediates and a pandas verifier; 16
# and 154 as one Catalyst plan that ranked the sets four times and cached
# its result in 64 partitions; 10 and 19 with the ranked sets checkpointed
# once and the result coalesced to the task slots.
TASKS_PER_SLOT = 8
JOB_BUDGET = 12


@pytest.fixture(scope="module")
def dblp(spark):
    sets = datasets.generate("DBLP", seed=0, scale=0.15)
    df = collection_to_spark(spark, sets).cache()
    df.count()
    yield sets, df
    df.unpersist()


class TestExactness:
    @pytest.mark.parametrize(
        "name,lam",
        [
            ("DBLP", 0.5),
            ("DBLP", 0.8),
            ("UNIFORM005", 0.5),
            ("TOKENS10K", 0.7),
            ("AOL", 0.5),
            ("NETFLIX", 0.7),
        ],
    )
    def test_oracle_equivalence(self, spark, name, lam):
        """ALLPAIRS == DuckDB exact join on the same input (the oracle
        catches a wrong prefix length, broken length filter, etc.)."""
        sets = datasets.generate(name, seed=0, scale=0.12)
        df = collection_to_spark(spark, sets)
        ap = allpairs(spark, df, lam)
        assert_equivalent(
            ap.pairs, exact_join_sql(lam), sets=collection_to_pandas(sets)
        )

    @pytest.mark.parametrize("lam", [0.5, 0.6, 0.7, 0.9])
    def test_matches_brute_force(self, spark, dblp, lam):
        sets, df = dblp
        ap = allpairs(spark, df, lam)
        got = {(r["sid_a"], r["sid_b"]) for r in ap.pairs.collect()}
        assert got == brute_force_join(sets, lam)


class TestExactThreshold:
    def test_pair_at_exactly_lambda(self, spark):
        """J = 55/100 equals lam = 0.55 in double arithmetic, but
        ``0.55 * 100`` rounds to 55.00000000000001: a length filter or
        prefix bound built on that product drops the pair."""
        sets = [np.arange(100), np.arange(45, 100)]
        df = collection_to_spark(spark, sets)
        ap = allpairs(spark, df, 0.55)
        assert_equivalent(
            ap.pairs, exact_join_sql(0.55), sets=collection_to_pandas(sets)
        )
        got = pair_set(ap)
        ap.pairs.unpersist()
        assert got == brute_force_join(sets, 0.55) == {(0, 1)}


class TestSameOutput:
    def test_pinned_output(self, spark, dblp):
        """Pair set, counters and ``n_results`` of a fixed input."""
        _, df = dblp
        ap = allpairs(spark, df, 0.5)
        pairs = pair_set(ap)
        ap.pairs.unpersist()
        assert pair_sha256(pairs) == PINNED_SHA256
        assert ap.stats.as_tuple() == PINNED_STATS
        assert ap.n_results == len(pairs) == 24


class TestSparkResources:
    def test_task_budget(self, spark, dblp):
        """The sets are ranked once, AQE sizes every stage, and no stage
        runs a task per shuffle partition for a cached intermediate or for
        the cached result."""
        _, df = dblp
        ap, jobs, tasks = run_counted(
            spark, "allpairs-task-budget", lambda: allpairs(spark, df, 0.5)
        )
        ap.pairs.unpersist()
        assert ap.n_results > 0
        assert tasks <= TASKS_PER_SLOT * spark.sparkContext.defaultParallelism
        assert jobs <= JOB_BUDGET

    def test_no_persisted_rdd_outlives_the_call(self, spark, dblp):
        """Each call caches only ``res.pairs``; freeing it restores the
        session's persisted-RDD count."""
        _, df = dblp
        jsc = spark.sparkContext._jsc
        for lam in (0.5, 0.7, 0.9):
            before = len(jsc.getPersistentRDDs())
            ap = allpairs(spark, df, lam)
            ap.pairs.unpersist()
            assert len(jsc.getPersistentRDDs()) == before

    @pytest.mark.parametrize("case", ["empty", "single", "dblp-0.99"])
    def test_call_finding_no_pair(self, spark, dblp, case):
        """A call whose candidates all fail, or that has none, returns
        zero results with consistent counters and frees what it built."""
        _, df = dblp
        lam = 0.99 if case == "dblp-0.99" else 0.5
        if case != "dblp-0.99":
            df = collection_to_spark(spark, [] if case == "empty" else [np.arange(5)])
        jsc = spark.sparkContext._jsc
        before = len(jsc.getPersistentRDDs())
        ap = allpairs(spark, df, lam)
        assert ap.n_results == ap.stats.results == ap.pairs.count() == 0
        assert ap.stats.pre_candidates >= ap.stats.candidates >= 0
        if case == "dblp-0.99":
            assert ap.stats.candidates > 0, "the verifier must reject candidates"
        else:
            assert ap.stats.as_tuple() == (0, 0, 0)
        ap.pairs.unpersist()
        assert len(jsc.getPersistentRDDs()) == before

    def test_raising_call_leaves_nothing_persisted(self, spark):
        """A call that fails in its one action leaves nothing behind: no
        persisted RDD, and no cached result over its input, which
        unpersisting the input would re-plan and fail on again."""
        jsc = spark.sparkContext._jsc
        before = len(jsc.getPersistentRDDs())
        df = collection_to_spark(
            spark, datasets.generate("DBLP", seed=1, scale=0.05)
        ).cache()
        df.count()
        bad = df.withColumn(
            "tokens",
            F.when(F.col("sid") == 3, F.raise_error(F.lit("bad set")))
            .otherwise(F.col("tokens")),
        )
        with pytest.raises(PySparkException, match="bad set"):
            allpairs(spark, bad, 0.5)
        df.unpersist()
        assert len(jsc.getPersistentRDDs()) == before


class TestStats:
    def test_pipeline_monotonicity(self, spark, dblp):
        _, df = dblp
        ap = allpairs(spark, df, 0.5)
        st = ap.stats
        assert st.pre_candidates >= st.candidates >= st.results
        assert st.results == ap.n_results

    def test_higher_threshold_fewer_precandidates(self, spark, dblp):
        _, df = dblp
        lo = allpairs(spark, df, 0.5)
        hi = allpairs(spark, df, 0.9)
        # Shorter prefixes + stricter length filter at lam = 0.9.
        assert hi.stats.pre_candidates < lo.stats.pre_candidates
        assert hi.n_results <= lo.n_results


class TestValidation:
    @pytest.mark.parametrize("lam", [0.0, 1.0, -1.0])
    def test_invalid_lambda_raises(self, spark, dblp, lam):
        _, df = dblp
        with pytest.raises(ValueError):
            allpairs(spark, df, lam)

    def test_pairs_ordered_and_distinct(self, spark, dblp):
        _, df = dblp
        ap = allpairs(spark, df, 0.5)
        assert ap.pairs.filter(F.col("sid_a") >= F.col("sid_b")).count() == 0
        assert ap.pairs.count() == ap.pairs.distinct().count()
