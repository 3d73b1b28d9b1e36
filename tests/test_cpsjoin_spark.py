"""End-to-end tests for the distributed CPSJoin dataflow."""

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro import datasets, setsynth
from repro.core.cpsjoin import _map_buckets, cpsjoin
from repro.core.cpsjoin_local import JoinStats, cpsjoin_local_rep, root_path
from repro.core.preprocess import preprocess
from repro.exact import brute_force_join, exact_join_sql, precision, recall
from repro.oracle import assert_equivalent
from repro.setsynth import collection_to_pandas, collection_to_spark

from ._helpers import arrow_batch_rows, pair_set, pair_sha256, root_cluster_sets, run_counted

# BRUTEFORCEPAIRS limit of the DBLP x0.2 joins that run their root
# distributed: an input of at most ``max(limit, local_threshold)``
# records runs whole in the local kernel.
DBLP_LIMIT = 20

# The kernel's union over the repetitions of the DBLP x0.2 join in the
# placement test (t=64, limit 20, 10 reps, seed 2): pair-set SHA-256 and
# counters.  Every placement of that join must equal it, so it pins the
# Chosen-Path tree the driver and the kernel share.
PINNED_SHA256 = "1ef2771785deee82c1e2b1e4fe0b5034566fba095e668b3085e0f082fd958596"
PINNED_STATS = (21129, 729, 524)

# The root-cluster join below: pair-set SHA-256, counters, ``n_results``.
# The pre-candidates and candidates were recorded while every repetition
# still ran the root's BRUTEFORCE step itself, so they pin the
# once-per-repetition weight of the root's BRUTEFORCEPOINT pairs; the
# results count each verified finding, as the kernel does.
ROOT_PINNED = (
    "ba716b2c68b154fcd7c304d7703d9587bfb959463563221c34f42608c620e1c4",
    (13779, 9536, 9536), 1776,
)

# The join below the root (``below_root_sets``): pair-set SHA-256,
# counters, ``n_results``.  The pair set, pre-candidates and candidates
# were recorded while the level rows carried only ``(rep, path, sid)``
# and every BRUTEFORCEPOINT pair was joined with the embedding by
# ``sid``; the results count each verified finding, as the kernel does.
BELOW_ROOT_PINNED = (
    "2f36a31fece8134d4a434609ff67d6b18ede484f41ddb9f3e1a7187daddf9f5b",
    (7880, 7038, 7021), 440,
)

# Tasks of the 58-set join in the task-budget test: 370 when each pandas
# stage's output was cached (64 tasks per cached stage and per scan of
# it), 158 since.
TASK_BUDGET = 200

# Jobs of a join whose root runs distributed (the DBLP join at limit 20
# and the root-cluster join): 11 each at 4 cores, plus one.
ROOT_JOB_BUDGET = 12


def below_root_sets():
    """A 30-set near-duplicate cluster and 120 Zipf sets with planted pairs.

    In the 156-set root bucket the cluster's average similarity stays
    under the BRUTEFORCE cut; at ``limit=10`` BRUTEFORCEPOINT removes its
    records in the level-1 buckets instead.
    """
    rng = np.random.default_rng(7)
    d = 2000
    base = np.sort(rng.choice(d, size=24, replace=False))
    cluster = [base] + [
        setsynth.plant_pair(rng, base, d, float(rng.uniform(0.75, 0.95)))
        for _ in range(29)
    ]
    return setsynth.dedup_collection(
        setsynth.zipf_collection(120, 8, d, seed=7, planted_per_level=1) + cluster
    )


@pytest.fixture(scope="module")
def dblp(spark):
    sets = datasets.generate("DBLP", seed=0, scale=0.2)
    df = collection_to_spark(spark, sets).cache()
    df.count()
    yield sets, df
    df.unpersist()


class TestCorrectness:
    @pytest.mark.parametrize("name,lam", [
        ("DBLP", 0.5), ("UNIFORM005", 0.5), ("TOKENS10K", 0.5),
        ("NETFLIX", 0.7), ("AOL", 0.5), ("FLICKR", 0.7), ("KOSARAK", 0.5),
        ("TOKENS20K", 0.5),
    ])
    def test_recall_and_precision(self, spark, name, lam):
        sets = datasets.generate(name, seed=0, scale=0.2)
        df = collection_to_spark(spark, sets)
        truth = brute_force_join(sets, lam)
        assert truth, "clone must produce similar pairs"
        res = cpsjoin(spark, df, lam, t=64, ell=8, reps=10, seed=1)
        assert precision(res.pairs, truth) == 1.0
        assert recall(res.pairs, truth) >= 0.9

    def test_distributed_levels_preserve_correctness(self, spark, dblp):
        """A tiny ``limit`` runs the root's BRUTEFORCE step distributed and
        many deep kernel subtrees below it; recall must hold."""
        sets, df = dblp
        truth = brute_force_join(sets, 0.5)
        res = cpsjoin(
            spark, df, 0.5, t=64, ell=8, reps=10, seed=2,
            limit=DBLP_LIMIT, local_threshold=DBLP_LIMIT,
        )
        assert res.levels >= 1
        assert precision(res.pairs, truth) == 1.0
        assert recall(res.pairs, truth) >= 0.9

    def test_no_similar_pairs_yields_empty(self, spark):
        sets = datasets.generate("SPOTIFY", seed=0, scale=0.15)
        truth = brute_force_join(sets, 0.95)
        df = collection_to_spark(spark, sets)
        res = cpsjoin(spark, df, 0.95, t=32, ell=4, reps=3, seed=0)
        got = {(r["sid_a"], r["sid_b"]) for r in res.pairs.collect()}
        assert got <= truth


class TestExactThreshold:
    @pytest.mark.parametrize("local_threshold", [4000, 1])
    def test_pair_at_exactly_lambda(self, spark, local_threshold):
        """J = 55/100 equals lam = 0.55 in double arithmetic, but
        ``0.55 * 100`` rounds to 55.00000000000001.  The pair goes to a
        local bucket, or with ``limit = local_threshold = 1`` through
        BRUTEFORCEPOINT (``eps=0.5`` makes both records hot) to
        ``_verify_pairs_df``."""
        sets = [np.arange(100), np.arange(45, 100)]
        df = collection_to_spark(spark, sets)
        res = cpsjoin(spark, df, 0.55, t=64, ell=8, reps=2, eps=0.5, delta=1.0,
                      seed=0, limit=local_threshold, local_threshold=local_threshold)
        assert_equivalent(
            res.pairs, exact_join_sql(0.55), sets=collection_to_pandas(sets)
        )
        got = pair_set(res)
        res.pairs.unpersist()
        assert res.levels == (local_threshold == 1)
        assert got == {(0, 1)}
        assert res.stats.results >= 1


class TestStructure:
    def test_pairs_ordered_distinct(self, spark, dblp):
        _, df = dblp
        res = cpsjoin(spark, df, 0.5, t=64, ell=8, reps=5, seed=3)
        assert res.pairs.filter(F.col("sid_a") >= F.col("sid_b")).count() == 0
        assert res.pairs.count() == res.n_results

    def test_reps_accumulate(self, spark, dblp):
        """Repetition r is seeded identically regardless of total rep
        count, so more reps can only add pairs."""
        sets, df = dblp
        r1 = cpsjoin(spark, df, 0.5, t=64, ell=8, reps=2, seed=7)
        r2 = cpsjoin(spark, df, 0.5, t=64, ell=8, reps=8, seed=7)
        p1 = {(r["sid_a"], r["sid_b"]) for r in r1.pairs.collect()}
        p2 = {(r["sid_a"], r["sid_b"]) for r in r2.pairs.collect()}
        assert p1 <= p2

    def test_stats_monotonicity(self, spark, dblp):
        _, df = dblp
        res = cpsjoin(spark, df, 0.5, t=64, ell=8, reps=5, seed=4)
        st = res.stats
        assert st.pre_candidates >= st.candidates >= st.results
        assert st.results >= res.n_results  # raw counter includes dups

    def test_invalid_lambda_raises(self, spark, dblp):
        _, df = dblp
        with pytest.raises(ValueError):
            cpsjoin(spark, df, 1.5)

    @pytest.mark.parametrize("local_threshold", [0, -3])
    def test_local_threshold_below_one_raises(self, spark, local_threshold):
        """A one-record root would count as big, and the BRUTEFORCE cut
        would divide by ``|bucket| - 1 = 0`` in an executor."""
        df = collection_to_spark(spark, root_cluster_sets())
        with pytest.raises(ValueError, match="local_threshold"):
            cpsjoin(spark, df, 0.5, t=64, ell=8, reps=3, seed=1,
                    local_threshold=local_threshold)

    @pytest.mark.parametrize("delta", [0, -0.5])
    def test_delta_not_positive_raises(self, spark, delta):
        """The sketch cutoff takes the normal quantile at ``1 - delta``,
        which a Python worker would fail on after the root's jobs ran."""
        df = collection_to_spark(spark, root_cluster_sets())
        with pytest.raises(ValueError, match="delta"):
            cpsjoin(spark, df, 0.5, t=64, ell=8, reps=3, seed=1, delta=delta,
                    limit=50, local_threshold=50)

    @pytest.mark.parametrize("reps", [0, -1])
    def test_reps_below_one_raises(self, spark, reps):
        """No repetition finds no pair, yet a distributed root would verify
        and emit its BRUTEFORCEPOINT pairs with ``mult = 0``."""
        df = collection_to_spark(spark, root_cluster_sets())
        with pytest.raises(ValueError, match="reps"):
            cpsjoin(spark, df, 0.5, t=64, ell=8, reps=reps, seed=1,
                    limit=50, local_threshold=50)

    def test_shared_preprocessing(self, spark, dblp):
        from repro.core.preprocess import preprocess

        sets, df = dblp
        pre = preprocess(df, t=64, ell=8, seed=5).cache()
        pre.count()
        a = cpsjoin(spark, df, 0.5, t=64, ell=8, reps=3, seed=5, pre=pre)
        b = cpsjoin(spark, df, 0.5, t=64, ell=8, reps=3, seed=5, pre=pre)
        pa = {(r["sid_a"], r["sid_b"]) for r in a.pairs.collect()}
        pb = {(r["sid_a"], r["sid_b"]) for r in b.pairs.collect()}
        assert pa == pb  # fully deterministic given (pre, seed)
        pre.unpersist()


class TestPreprocessSchema:
    def test_columns_and_lengths(self, spark, dblp):
        from repro.core.preprocess import preprocess

        _, df = dblp
        pre = preprocess(df, t=16, ell=2, seed=0)
        row = pre.first()
        assert set(pre.columns) == {"sid", "tokens", "size", "mh", "sketch"}
        assert len(row["mh"]) == 16
        assert len(row["sketch"]) == 2
        assert row["size"] == len(row["tokens"])


class TestSameOutput:
    def test_pinned_output_with_distributed_levels(self, spark, dblp):
        """Pair set, counters and ``n_results`` of the DBLP join whose root
        runs distributed (limit 20): the kernel union's pins."""
        _, df = dblp
        res = cpsjoin(spark, df, 0.5, t=64, ell=8, reps=10, seed=2,
                      limit=DBLP_LIMIT, local_threshold=DBLP_LIMIT)
        pairs = pair_set(res)
        res.pairs.unpersist()
        assert res.levels == 1
        assert pair_sha256(pairs) == PINNED_SHA256
        assert res.stats.as_tuple() == PINNED_STATS
        assert res.n_results == len(pairs) == 27

    def test_pinned_output_across_arrow_batches(self, spark, dblp):
        """The pinned join again, with buckets cut across Arrow batches."""
        _, df = dblp
        with arrow_batch_rows(spark, 7):
            res = cpsjoin(spark, df, 0.5, t=64, ell=8, reps=10, seed=2,
                          limit=DBLP_LIMIT, local_threshold=DBLP_LIMIT)
        pairs = pair_set(res)
        res.pairs.unpersist()
        assert res.levels == 1
        assert pair_sha256(pairs) == PINNED_SHA256
        assert res.stats.as_tuple() == PINNED_STATS
        assert res.n_results == len(pairs) == 27

    def test_pinned_root_bruteforcepoint(self, spark):
        """The root bucket exceeds ``limit`` and BRUTEFORCEPOINT removes the
        planted cluster there: its pairs count once per repetition, as when
        every repetition ran the root itself."""
        sets = root_cluster_sets()
        df = collection_to_spark(spark, sets)
        res = cpsjoin(spark, df, 0.5, t=64, ell=8, reps=3, seed=1,
                      limit=50, local_threshold=50)
        pairs = pair_set(res)
        res.pairs.unpersist()
        sha, stats, n_results = ROOT_PINNED
        assert len(sets) == 86 and res.levels == 1
        assert pair_sha256(pairs) == sha
        assert res.stats.as_tuple() == stats
        assert res.n_results == len(pairs) == n_results

    def test_pinned_bruteforcepoint_below_root(self, spark):
        """BRUTEFORCEPOINT removes records below the root only (the 30
        cluster records from 281 level-1 bucket rows, none at levels 0 and
        2, counted when the pin was recorded by a driver that split those
        levels itself).  The kernel now removes them in the root's child
        buckets; their pairs, found in several buckets and repetitions,
        count as often as they were found."""
        sets = below_root_sets()
        df = collection_to_spark(spark, sets)
        res = cpsjoin(spark, df, 0.5, t=64, ell=8, reps=3, seed=1,
                      limit=10, local_threshold=10)
        pairs = pair_set(res)
        res.pairs.unpersist()
        sha, stats, n_results = BELOW_ROOT_PINNED
        assert len(sets) == 156 and res.levels == 1
        assert pair_sha256(pairs) == sha
        assert res.stats.as_tuple() == stats
        assert res.n_results == len(pairs) == n_results

    def test_t_comes_from_the_embedding(self, spark, dblp):
        """A ``pre`` of 64 coordinates with ``t`` left at its default joins
        as with ``t=64``: the BRUTEFORCE cut and the split rate read ``t``
        off the embedding, as the local kernel does."""
        _, df = dblp
        pre = preprocess(df, t=64, ell=8, seed=6).cache()
        pre.count()
        out = []
        for kw in ({}, {"t": 64}):
            res = cpsjoin(spark, df, 0.5, reps=3, seed=6, limit=DBLP_LIMIT,
                          local_threshold=DBLP_LIMIT, pre=pre, **kw)
            out.append((res.levels, pair_set(res), res.stats.as_tuple(), res.n_results))
            res.pairs.unpersist()
        pre.unpersist()
        assert out[0][0] >= 1
        assert out[0] == out[1]

    def test_driver_equals_kernel_when_input_fits_one_task(self, spark, dblp):
        """With ``local_threshold >= n`` every repetition's root bucket goes
        whole to the local kernel, so the driver must equal
        ``cpsjoin_local_rep`` run from each repetition's root path with the
        join's seed and its ``limit``, ``eps`` and ``delta``."""
        _, df = dblp
        seed, reps, lam = 3, 4, 0.5
        params = dict(limit=20, eps=0.1, delta=0.05)
        pre = preprocess(df, t=64, ell=8, seed=seed).cache()
        rows = pre.toPandas().sort_values("sid")
        res = cpsjoin(spark, df, lam, t=64, ell=8, reps=reps, seed=seed,
                      pre=pre, **params)
        got = pair_set(res)
        res.pairs.unpersist()
        pre.unpersist()
        assert res.levels == 0

        sids = rows["sid"].to_numpy()
        mh = np.stack(rows["mh"].to_numpy()).astype(np.int64)
        sketch = np.stack(rows["sketch"].to_numpy()).astype(np.int64).view(np.uint64)
        tokens = [np.asarray(x, dtype=np.int64) for x in rows["tokens"]]
        want, stats = set(), JoinStats()
        for rep in range(reps):
            pairs, st = cpsjoin_local_rep(
                mh, sketch, tokens, lam, seed=seed,
                start=(root_path(rep, seed), 0), **params,
            )
            want |= {(int(sids[a]), int(sids[b])) for a, b in pairs}
            stats.merge(st)
        assert want, "the kernel must find pairs for the comparison to bite"
        assert got == want
        assert res.stats.as_tuple() == stats.as_tuple()
        assert res.n_results == len(want)


class TestMapBuckets:
    def test_buckets_whole_once_and_never_one_row(self, spark):
        """``fn`` sees each bucket of at least 2 rows whole and once, also
        when it spans 7-row Arrow batches, and never a one-row bucket,
        which holds no pair."""
        rows = [(k, 100 * k) for k in range(10)]  # one-row buckets
        rows += [(10, x) for x in range(20)] + [(11, x) for x in range(2)]
        rows += [(12, 1200)]
        df = spark.createDataFrame(rows, "k long, x long")

        def fn(key, pdf):
            return pd.DataFrame({"k": [key[0]], "xs": [pdf["x"].tolist()]})

        with arrow_batch_rows(spark, 7):
            got = _map_buckets(df, ["k"], fn, "k long, xs array<long>").collect()
        assert sorted((r["k"], sorted(r["xs"])) for r in got) == [
            (10, list(range(20))), (11, [0, 1]),
        ]


class TestPlacementInvariance:
    """The driver's root step and the local kernel walk one Chosen-Path tree.

    ``local_threshold`` decides only where the root's BRUTEFORCE step
    runs, so every placement gives the pair set and all three counters of
    ``cpsjoin_local_rep`` run on the whole input at every repetition's
    root path.
    """

    # input, limit, reps, seed
    CASES = {
        "dblp": (lambda: datasets.generate("DBLP", seed=0, scale=0.2), DBLP_LIMIT, 10, 2),
        "root_cluster": (root_cluster_sets, 50, 3, 1),
        "below_root": (below_root_sets, 10, 3, 1),
    }

    @staticmethod
    def kernel_union(rows, lam, reps, seed, limit):
        sids = rows["sid"].to_numpy()
        mh = np.stack(rows["mh"].to_numpy()).astype(np.int64)
        sketch = np.stack(rows["sketch"].to_numpy()).astype(np.int64).view(np.uint64)
        tokens = [np.asarray(x, dtype=np.int64) for x in rows["tokens"]]
        want, stats = set(), JoinStats()
        for rep in range(reps):
            pairs, st = cpsjoin_local_rep(
                mh, sketch, tokens, lam, limit=limit, seed=seed,
                start=(root_path(rep, seed), 0),
            )
            want |= {(int(sids[a]), int(sids[b])) for a, b in pairs}
            stats.merge(st)
        return want, stats.as_tuple()

    @pytest.mark.parametrize("case", CASES)
    def test_placement_changes_no_output(self, spark, case):
        make, limit, reps, seed = self.CASES[case]
        sets = make()
        n = len(sets)
        df = collection_to_spark(spark, sets)
        pre = preprocess(df, t=64, ell=8, seed=seed).cache()
        want = self.kernel_union(pre.toPandas(), 0.5, reps, seed, limit)
        assert want[0], "the kernel must find pairs for the comparison to bite"
        if case == "dblp":
            assert pair_sha256(want[0]) == PINNED_SHA256
            assert want[1] == PINNED_STATS

        def join(local_threshold):
            res = cpsjoin(spark, df, 0.5, reps=reps, seed=seed, limit=limit,
                          local_threshold=local_threshold, pre=pre)
            got = (pair_set(res), res.stats.as_tuple())
            res.pairs.unpersist()
            assert res.n_results == len(got[0])
            return res.levels, got

        # Below ``limit`` as well: a root of at most ``limit`` records is
        # brute-forced, so it must not run distributed.
        runs = {lt: join(lt) for lt in (limit // 2, limit, 2 * limit, n)}
        with arrow_batch_rows(spark, 7):
            runs["arrow-7"] = join(limit)
        pre.unpersist()
        assert runs[limit][0] == 1 and runs[n][0] == 0
        for name, (_, got) in runs.items():
            assert got == want, name


class TestSparkResources:
    def test_no_persisted_rdd_outlives_the_call(self, spark, dblp):
        """Each call caches only ``res.pairs``; freeing it restores the
        session's persisted-RDD count, also after a distributed root."""
        _, df = dblp
        jsc = spark.sparkContext._jsc
        for seed in range(3):
            before = len(jsc.getPersistentRDDs())
            res = cpsjoin(spark, df, 0.5, t=64, ell=8, reps=3, seed=seed,
                          limit=DBLP_LIMIT, local_threshold=DBLP_LIMIT)
            assert res.levels >= 1
            res.pairs.unpersist()
            assert len(jsc.getPersistentRDDs()) == before

    def test_jobs_per_level(self, spark, dblp):
        """The DBLP join at limit 20 runs at most ROOT_JOB_BUDGET Spark jobs
        and under 200 tasks (recorded at 4 cores for the 4-level join at
        ``local_threshold=40`` below limit 250: 81 jobs and 287 tasks when
        each repetition ran the root level, the BRUTEFORCE similarities
        were evaluated twice per level and each bucket had its own Python
        call, 68 and 145 since; 40 and 72 at limit 20 while the driver
        split 4 levels, 11 and 33 since only its root runs distributed)."""
        _, df = dblp
        res, jobs, tasks = run_counted(
            spark, "cpsjoin-jobs-per-level",
            lambda: cpsjoin(spark, df, 0.5, t=64, ell=8, reps=10, seed=2,
                            limit=DBLP_LIMIT, local_threshold=DBLP_LIMIT),
        )
        res.pairs.unpersist()
        assert res.levels == 1
        assert jobs <= ROOT_JOB_BUDGET
        assert tasks < TASK_BUDGET

    def test_jobs_root_bruteforcepoint(self, spark):
        """The root-cluster join (one level, BRUTEFORCEPOINT at the root)
        runs at most ROOT_JOB_BUDGET Spark jobs (recorded at 4 cores: 25
        when the level rows carried only ``sid`` and were joined with the
        embedding again for the root's similarities, its survivors, the
        local rows and both sides of every pair; 14 while the child buckets
        were sized before they went to the kernel; 11 since)."""
        df = collection_to_spark(spark, root_cluster_sets())
        res, jobs, _ = run_counted(
            spark, "cpsjoin-jobs-root-bruteforcepoint",
            lambda: cpsjoin(spark, df, 0.5, t=64, ell=8, reps=3, seed=1,
                            limit=50, local_threshold=50),
        )
        res.pairs.unpersist()
        assert res.levels == 1
        assert jobs <= ROOT_JOB_BUDGET

    def test_task_budget_without_distributed_levels(self, spark):
        """A join with no distributed level must not run a task per
        shuffle partition (64 in the fixture) in its pandas stages."""
        sets = setsynth.zipf_collection(40, 8, 400, seed=5, planted_per_level=3)
        df = collection_to_spark(spark, sets).cache()
        df.count()
        res, _, tasks = run_counted(
            spark, "cpsjoin-task-budget",
            lambda: cpsjoin(spark, df, 0.5, t=64, ell=8, reps=10, seed=1),
        )
        res.pairs.unpersist()
        df.unpersist()
        assert res.levels == 0 and res.n_results > 0
        assert tasks < TASK_BUDGET
