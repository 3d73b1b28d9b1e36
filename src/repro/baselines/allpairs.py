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

The ranked sets feed four readers: both sides of the prefix self-join
and both record attaches of step 4.  Spark reuses none of their
shuffles, so they are a lazy local checkpoint, computed once by the
join's one action and released before ``allpairs`` returns, also when it
raises.  The result is coalesced to the session's task slots and cached
(``cpsjoin._cache_pairs``, as CPSJoin and MinHash LSH do); the one
action that materialises it also returns the counters through an
``Observation``.  Counters follow Table IV: pre-candidates are
size-feasible index hits (with duplicates), candidates are distinct
pre-candidates, results are verified pairs.
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame, Observation, SparkSession, Window
from pyspark.sql import functions as F

from ..core.cpsjoin import _cache_pairs, _release_checkpoint
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


def _verified_pairs(ranked: DataFrame, lam: float, totals: Observation) -> DataFrame:
    """Steps 2-4 over the ranked sets: the pairs with ``J >= lam``.

    ``totals`` observes the pre-candidate and candidate counts on the
    candidates with both records attached, one row per candidate: AQE
    drops an empty join's subtree from the plan, so an observation below
    the attach would never report when no candidate exists.
    """
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
    cand = (
        left.join(right, "rank")
        .filter(F.col("sid_a") < F.col("sid_b"))
        .filter(
            F.least("size_a", "size_b") / F.greatest("size_a", "size_b") >= lam
        )
        .groupBy("sid_a", "sid_b")
        .agg(F.count("*").alias("mult"))
    )

    sides = cand.join(
        ranked.select(F.col("sid").alias("sid_a"), F.col("rtokens").alias("ta")),
        "sid_a",
    ).join(
        ranked.select(F.col("sid").alias("sid_b"), F.col("rtokens").alias("tb")),
        "sid_b",
    ).observe(
        totals,
        F.sum("mult").alias("pre_candidates"),
        F.count("*").alias("candidates"),
    )
    inter = F.size(F.array_intersect("ta", "tb"))
    return (
        sides.filter(inter / (F.size("ta") + F.size("tb") - inter) >= lam)
        .select("sid_a", "sid_b")
    )


def allpairs(spark: SparkSession, sets_df: DataFrame, lam: float) -> AllPairsResult:
    """Exact self-join ``{(a, b) : J >= lam}`` with prefix filtering; eager."""
    if not 0 < lam < 1:
        raise ValueError(f"lam must be in (0,1), got {lam}")
    ranked = _ranked_sets(sets_df).localCheckpoint(eager=False)
    totals = Observation()
    try:
        pairs, n_res = _cache_pairs(_verified_pairs(ranked, lam, totals))
    finally:
        _release_checkpoint(ranked)
    return AllPairsResult(
        pairs=pairs,
        stats=JoinStats(
            int(totals.get["pre_candidates"] or 0),
            int(totals.get["candidates"] or 0),
            n_res,
        ),
        n_results=n_res,
    )
