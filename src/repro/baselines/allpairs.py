"""ALLPAIRS — exact prefix-filtering set similarity join (Bayardo et al.).

The paper's exact baseline (via Mann et al.'s study, where the basic
prefix filter "ALL" is the overall winner).  Distributed formulation:

1. order tokens globally by ascending document frequency (rarest first,
   ties by token) and rewrite every set's tokens as sorted order keys
   ``df * 2^32 + token``.  ``df`` is a window count partitioned by token,
   and the key is a total order on every int32 token, so no global
   window ranks the tokens (Vernica et al., SIGMOD 2010, use the same
   frequency order);
2. each set exposes its *prefix*: the first ``|x| - o + 1`` keys, where
   ``o`` is the smallest overlap with ``o / |x| >= lam``.  Any pair with
   ``J >= lam`` shares a token within both prefixes, given the length
   filter ``|small| / |big| >= lam``.  Both bounds use the verifier's own
   double division, so a pair with ``J`` exactly ``lam`` survives them;
3. inverted-index join: explode prefixes, self-join on the key with
   ``sid_a < sid_b`` plus the length filter -> pre-candidates, grouped
   into distinct pairs with their multiplicity -> candidates;
4. exact Jaccard verification in the JVM: ``|a ∩ b|`` is
   ``size(array_intersect)`` and a pair is kept iff
   ``inter / (|a| + |b| - inter) >= lam``, the same IEEE division
   ``verify.jaccard`` makes, so no Python worker runs.

The whole join is one Catalyst plan.  Only its result is cached: an
intermediate cache would fix its partitioning before AQE could coalesce
it, and would add an action.  The one action that materialises the
pairs also returns the counters through an ``Observation``.  Counters
follow Table IV: pre-candidates are size-feasible index hits (with
duplicates), candidates are distinct pre-candidates, results are
verified pairs.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame, Observation, SparkSession, Window
from pyspark.sql import functions as F

from ..core.cpsjoin_local import JoinStats

__all__ = ["AllPairsResult", "allpairs"]


@dataclass
class AllPairsResult:
    """Exact join output + pipeline counters."""

    pairs: DataFrame  # (sid_a, sid_b), sid_a < sid_b, distinct
    stats: JoinStats
    n_results: int


def _ranked_sets(sets_df: DataFrame) -> DataFrame:
    """Rewrite each set's tokens as sorted frequency-order keys, each once.

    A repeated token would count twice in its frequency and in the set's
    size, so tokens are deduplicated before anything reads them.
    """
    tok = sets_df.select("sid", F.explode(F.array_distinct("tokens")).alias("token"))
    freq = F.count("*").over(Window.partitionBy("token"))
    return (
        tok.select("sid", (freq * (1 << 32) + F.col("token")).alias("rank"))
        .groupBy("sid")
        .agg(F.sort_array(F.collect_list("rank")).alias("rtokens"))
        .withColumn("size", F.size("rtokens"))
    )


def _min_overlap(size, lam: float):
    """Smallest ``o`` with ``o / size >= lam`` in double arithmetic.

    ``ceil(lam * size)`` can be one off either way: the product rounds
    (``0.55 * 100`` is ``55.00000000000001``), and so does ``o / size``.
    """
    o = F.ceil(lam * size)
    return (
        F.when((o - 1) / size >= lam, o - 1)
        .when(o / size < lam, o + 1)
        .otherwise(o)
    )


def allpairs(spark: SparkSession, sets_df: DataFrame, lam: float) -> AllPairsResult:
    """Exact self-join ``{(a, b) : J >= lam}`` with prefix filtering; eager."""
    if not 0 < lam < 1:
        raise ValueError(f"lam must be in (0,1), got {lam}")
    ranked = _ranked_sets(sets_df)
    prefix_len = (F.col("size") - _min_overlap(F.col("size"), lam) + 1).cast("int")
    prefix = ranked.select(
        "sid",
        "size",
        F.explode(F.slice("rtokens", 1, prefix_len)).alias("rank"),
    )

    left = prefix.select(
        F.col("rank"),
        F.col("sid").alias("sid_a"),
        F.col("size").alias("size_a"),
    )
    right = prefix.select(
        F.col("rank"),
        F.col("sid").alias("sid_b"),
        F.col("size").alias("size_b"),
    )
    totals = Observation()
    cand = (
        left.join(right, "rank")
        .filter(F.col("sid_a") < F.col("sid_b"))
        .filter(
            F.least("size_a", "size_b") / F.greatest("size_a", "size_b") >= lam
        )
        .groupBy("sid_a", "sid_b")
        .agg(F.count("*").alias("mult"))
        .observe(
            totals,
            F.sum("mult").alias("pre_candidates"),
            F.count("*").alias("candidates"),
        )
    )

    sides = cand.join(
        ranked.select(F.col("sid").alias("sid_a"), F.col("rtokens").alias("ta")),
        "sid_a",
    ).join(
        ranked.select(F.col("sid").alias("sid_b"), F.col("rtokens").alias("tb")),
        "sid_b",
    )
    inter = F.size(F.array_intersect("ta", "tb"))
    pairs = (
        sides.filter(inter / (F.size("ta") + F.size("tb") - inter) >= lam)
        .select("sid_a", "sid_b")
        .cache()
    )
    n_res = pairs.count()
    return AllPairsResult(
        pairs=pairs,
        stats=JoinStats(
            int(totals.get["pre_candidates"] or 0),
            int(totals.get["candidates"] or 0),
            n_res,
        ),
        n_results=n_res,
    )
