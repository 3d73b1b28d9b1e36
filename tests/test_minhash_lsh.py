"""Tests for the MinHash LSH join baseline."""
import pytest
from pyspark.sql import functions as F

from repro import datasets
from repro.baselines.minhash_lsh import (
    choose_k,
    minhash_lsh_join,
    reps_for_recall,
)
from repro.core.preprocess import preprocess
from repro.exact import brute_force_join, precision, recall
from repro.setsynth import collection_to_spark

from ._helpers import arrow_batch_rows, pair_set, pair_sha256

# Output of the DBLP x0.15 join at lam = 0.5 over
# ``preprocess(t=12, ell=8, seed=5)`` with ``seed=3``, keyed by ``(k, reps)``:
# pair-set SHA-256, counters, ``n_results``.  Recorded before MinHash LSH
# shared CPSJoin's candidate check and pair framing.  At that commit the
# separate BayesLSH-lite baseline (``bayeslsh_join(pre=P, reps=4, seed=3)``)
# gave the k=1 output exactly: its candidate generation is MinHash LSH's
# with k fixed to one.
PINNED = {
    (1, 4): ("9ba6ef461e70371ff0d67628f6f55999908e3e38b0932362e361d24097202d5a",
             (11996, 203, 70), 24),
    (3, 4): ("dbc5da74dd7663b68a1160a7260a5c4919a675c9989d36872ab9bc8d0c231211",
             (609, 63, 35), 18),
}


@pytest.fixture(scope="module")
def dblp(spark):
    sets = datasets.generate("DBLP", seed=0, scale=0.2)
    df = collection_to_spark(spark, sets).cache()
    df.count()
    yield sets, df
    df.unpersist()


@pytest.fixture(scope="module")
def dblp15(spark):
    """DBLP x0.15 and its cached ``preprocess(t=12, ell=8, seed=5)``."""
    sets = datasets.generate("DBLP", seed=0, scale=0.15)
    df = collection_to_spark(spark, sets).cache()
    pre = preprocess(df, t=12, ell=8, seed=5).cache()
    pre.count()
    yield sets, df, pre
    pre.unpersist()
    df.unpersist()


class TestRepsFormula:
    def test_known_values(self):
        # ln(10) / 0.5^2 = 9.21 -> 10 reps.
        assert reps_for_recall(0.5, 2, 0.9) == 10
        # ln(10) / 0.9^1 = 2.56 -> 3 reps.
        assert reps_for_recall(0.9, 1, 0.9) == 3

    def test_monotone_in_k(self):
        assert reps_for_recall(0.5, 4, 0.9) >= reps_for_recall(0.5, 2, 0.9)

    def test_cap(self):
        assert reps_for_recall(0.5, 10, 0.99, cap=16) == 16


class TestChooseK:
    def test_in_range(self, spark, dblp):
        _, df = dblp
        pre = preprocess(df, t=12, ell=2, seed=0).cache()
        k = choose_k(spark, pre, 0.5)
        pre.unpersist()
        assert 2 <= k <= 10

    def test_deterministic(self, spark, dblp):
        _, df = dblp
        pre = preprocess(df, t=12, ell=2, seed=0).cache()
        assert choose_k(spark, pre, 0.7) == choose_k(spark, pre, 0.7)
        pre.unpersist()


class TestJoin:
    @pytest.mark.parametrize("name", ["DBLP", "UNIFORM005"])
    def test_recall_and_precision(self, spark, name):
        sets = datasets.generate(name, seed=0, scale=0.2)
        df = collection_to_spark(spark, sets)
        truth = brute_force_join(sets, 0.5)
        assert truth
        res = minhash_lsh_join(spark, df, 0.5, k=3, ell=8, seed=1)
        assert precision(res.pairs, truth) == 1.0
        assert recall(res.pairs, truth) >= 0.85

    def test_k1_precision_and_recall(self, spark, dblp15):
        """k=1 is the paper's BayesLSH candidate generation (§V-D)."""
        sets, df, _ = dblp15
        truth = brute_force_join(sets, 0.5)
        assert truth
        res = minhash_lsh_join(spark, df, 0.5, k=1, ell=8, seed=1)
        assert precision(res.pairs, truth) == 1.0
        assert recall(res.pairs, truth) >= 0.85

    def test_k1_generates_many_precandidates(self, spark, dblp15):
        """The k=1 candidate explosion — the reason BayesLSH loses in
        the paper — must be visible in the counters."""
        _, df, _ = dblp15
        k1 = minhash_lsh_join(spark, df, 0.5, k=1, reps=3, ell=8, seed=2)
        k4 = minhash_lsh_join(spark, df, 0.5, k=4, reps=3, ell=8, seed=2)
        assert k1.stats.pre_candidates > k4.stats.pre_candidates

    def test_short_embedding_raises(self, spark, dblp15):
        """A supplied ``pre`` needs ``k * reps`` coordinates: past its 12,
        repetitions would hash an empty slice and brute-force all sets."""
        _, df, pre = dblp15
        with pytest.raises(ValueError, match="t=12"):
            minhash_lsh_join(spark, df, 0.5, k=3, reps=8, seed=3, pre=pre)

    @pytest.mark.parametrize("kw", [
        {"lam": 1.0}, {"lam": 0.0}, {"lam": 1.5}, {"delta": 0}, {"delta": -0.5},
    ])
    def test_parameters_out_of_range_raise(self, spark, dblp15, kw):
        """Checked on the driver, before any job: at ``lam = 1`` a worker
        would fail in the sketch cutoff, at ``lam = 0`` ``reps_for_recall``
        would divide by zero, and at ``delta <= 0`` a worker would fail on
        the normal quantile at ``1 - delta``."""
        _, df, _ = dblp15
        args = {"lam": 0.5, "delta": 0.05, **kw}
        with pytest.raises(ValueError, match="lam" if "lam" in kw else "delta"):
            minhash_lsh_join(spark, df, args["lam"], delta=args["delta"], seed=3)

    def test_first_rep_tracking(self, spark, dblp):
        _, df = dblp
        res = minhash_lsh_join(spark, df, 0.5, k=3, reps=6, ell=8, seed=2)
        assert "first_rep" in res.pairs.columns
        rng = res.pairs.agg(
            F.min("first_rep").alias("lo"), F.max("first_rep").alias("hi")
        ).first()
        if res.n_results:
            assert 0 <= rng["lo"] <= rng["hi"] < 6

    def test_more_reps_more_recall(self, spark, dblp):
        sets, df = dblp
        truth = brute_force_join(sets, 0.5)
        pre = preprocess(df, t=3 * 12, ell=8, seed=3).cache()
        pre.count()
        r_few = minhash_lsh_join(spark, df, 0.5, k=3, reps=2, ell=8, seed=3,
                                 pre=pre)
        r_many = minhash_lsh_join(spark, df, 0.5, k=3, reps=12, ell=8, seed=3,
                                  pre=pre)
        pre.unpersist()
        assert recall(r_many.pairs, truth) >= recall(r_few.pairs, truth)

    def test_stats_monotonicity(self, spark, dblp):
        _, df = dblp
        res = minhash_lsh_join(spark, df, 0.5, k=4, reps=4, ell=8, seed=4)
        st = res.stats
        assert st.pre_candidates >= st.candidates >= st.results
        assert st.results >= res.n_results

    def test_auto_parameterization(self, spark, dblp):
        """With no k/reps given the join must self-parameterize."""
        sets, df = dblp
        truth = brute_force_join(sets, 0.5)
        res = minhash_lsh_join(spark, df, 0.5, ell=8, seed=5)
        assert 2 <= res.k <= 10 and res.reps >= 1
        assert precision(res.pairs, truth) == 1.0


class TestSameOutput:
    @pytest.mark.parametrize("k,reps", sorted(PINNED))
    def test_pinned_output(self, spark, dblp15, k, reps):
        """Pair set, counters and ``n_results`` at a fixed seed."""
        _, df, pre = dblp15
        res = minhash_lsh_join(spark, df, 0.5, k=k, reps=reps, seed=3, pre=pre)
        pairs = pair_set(res)
        res.pairs.unpersist()
        sha, stats, n_results = PINNED[k, reps]
        assert pair_sha256(pairs) == sha
        assert res.stats.as_tuple() == stats
        assert res.n_results == len(pairs) == n_results


    @pytest.mark.parametrize("k,reps", sorted(PINNED))
    def test_pinned_output_across_arrow_batches(self, spark, dblp15, k, reps):
        """The pinned joins again, with buckets cut across Arrow batches."""
        _, df, pre = dblp15
        with arrow_batch_rows(spark, 7):
            res = minhash_lsh_join(spark, df, 0.5, k=k, reps=reps, seed=3, pre=pre)
        pairs = pair_set(res)
        res.pairs.unpersist()
        sha, stats, n_results = PINNED[k, reps]
        assert pair_sha256(pairs) == sha
        assert res.stats.as_tuple() == stats
        assert res.n_results == len(pairs) == n_results


class TestSparkResources:
    @pytest.mark.parametrize("supplied", [False, True])
    def test_no_persisted_rdd_outlives_the_call(self, spark, dblp15, supplied):
        """A call caches only ``res.pairs``: not its pandas stage's output,
        and not the probe or final embedding it made itself.  The seed is
        used by no other test, so no cached plan of an earlier call is
        reused."""
        _, df, pre = dblp15
        jsc = spark.sparkContext._jsc
        before = len(jsc.getPersistentRDDs())
        if supplied:
            res = minhash_lsh_join(spark, df, 0.5, k=2, reps=6, seed=11, pre=pre)
        else:
            res = minhash_lsh_join(spark, df, 0.5, reps=2, seed=11)
        res.pairs.unpersist()
        assert len(jsc.getPersistentRDDs()) == before
