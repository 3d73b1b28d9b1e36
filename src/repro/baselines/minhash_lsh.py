"""MinHash LSH similarity join (paper §V-B, Algorithm 3).

Each repetition buckets every set by ``k`` concatenated MinHash values
and brute-forces all pairs within a bucket through the shared
size-check -> 1-bit-sketch -> exact-Jaccard pipeline.  Buckets run
through CPSJoin's bucket runner (``core.cpsjoin._map_buckets``, many
buckets per Python call) and its dedup-and-counter tail.  ``k`` is chosen
per dataset/threshold by estimating, from the bucket-size histogram of
a probe repetition, the combined cost of hashing and in-bucket
comparisons (the Cohen et al. idea the paper implements); the number of
repetitions for the paper's recall target ``PHI`` is
``ln(1/(1-PHI)) / lam^k``.

Result pairs carry ``first_rep`` — the smallest repetition index that
discovered the pair — so harnesses can compute the repetitions (and the
prorated join time) actually needed for 90% recall, exactly as the
paper reports MINHASH.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql import types as T

from ..core.cpsjoin import _OUT_SCHEMA, _collect_pairs, _map_buckets, _with_counters
from ..core.cpsjoin_local import JoinStats, brute_force_pairs_arrays
from ..core.preprocess import preprocess

__all__ = ["PHI", "MinHashLSHResult", "minhash_lsh_join", "choose_k", "reps_for_recall"]

#: Recall target of MINHASH's repetition count (the paper's 90%).
PHI = 0.9

# ``choose_k``'s candidate ``k`` and its cost model: one hash costs five
# in-bucket comparisons.
_KS = range(2, 11)
_CMP_COST = 1.0
_HASH_COST = 5.0

# Pairs and counter rows, each tagged with the repetition that produced it.
_REP_SCHEMA = T.StructType(
    _OUT_SCHEMA.fields + [T.StructField("rep", T.IntegerType(), False)]
)


@dataclass
class MinHashLSHResult:
    """LSH join output: distinct pairs with discovery repetition + stats."""

    pairs: DataFrame  # (sid_a, sid_b, first_rep)
    stats: JoinStats
    n_results: int
    k: int
    reps: int


def reps_for_recall(lam: float, k: int, phi: float = PHI, cap: int = 64) -> int:
    """``L = ceil(ln(1/(1-phi)) / lam^k)``, capped for tractability."""
    return max(1, min(cap, math.ceil(math.log(1.0 / (1.0 - phi)) / lam**k)))


def choose_k(spark: SparkSession, pre: DataFrame, lam: float, *, seed: int = 0) -> int:
    """Pick ``k`` minimizing estimated total cost over all repetitions.

    For each candidate ``k`` the first splitting step is actually run
    (one ``groupBy`` on bucket ids) and the per-repetition comparison
    mass ``sum C(m, 2)`` is read off the bucket histogram, as in §V-B.
    """
    n = pre.count()
    best_k, best_cost = None, float("inf")
    for k in _KS:
        buckets = (
            pre.select(
                F.xxhash64(F.lit(seed), F.lit(k), F.slice("mh", 1, k)).alias("bkt")
            )
            .groupBy("bkt")
            .agg(F.count("*").alias("m"))
            .agg(F.sum(F.col("m") * (F.col("m") - 1) / 2).alias("pairs"))
            .first()
        )
        pair_mass = float(buckets["pairs"] or 0.0)
        L = reps_for_recall(lam, k)
        cost = L * (_HASH_COST * n + _CMP_COST * pair_mass)
        if cost < best_cost:
            best_k, best_cost = k, cost
    return int(best_k)


def minhash_lsh_join(
    spark: SparkSession,
    sets_df: DataFrame,
    lam: float,
    *,
    k: int | None = None,
    reps: int | None = None,
    ell: int = 8,
    delta: float = 0.05,
    seed: int = 0,
    pre: DataFrame | None = None,
) -> MinHashLSHResult:
    """MinHash LSH self-join; eager.

    ``pre`` may supply a cached ``preprocess`` output whose ``t`` is at
    least ``k * reps`` MinHash coordinates (each repetition uses its own
    disjoint slice); a shorter one raises ``ValueError``.  An embedding
    the call makes itself is released before it returns, so a call leaves
    only ``res.pairs`` persisted.
    """
    if not 0 < lam < 1:
        raise ValueError(f"lam must be in (0,1), got {lam}")
    if delta <= 0:
        raise ValueError(f"delta must be > 0, got {delta}")
    own_pre = pre is None
    if k is None:
        # Probe embedding for k selection; final embedding sized to fit.
        probe = preprocess(sets_df, t=12, ell=ell, seed=seed).cache() if own_pre else pre
        k = choose_k(spark, probe, lam, seed=seed)
        if own_pre:
            probe.unpersist()
    if reps is None:
        reps = reps_for_recall(lam, k)
    if own_pre:
        pre = preprocess(sets_df, t=k * reps, ell=ell, seed=seed + 1).cache()
    else:
        # Past its end a repetition would hash an empty slice and put every
        # set in one bucket.
        first = pre.select(F.size("mh")).first()
        if first is not None and first[0] < k * reps:
            raise ValueError(f"pre has t={first[0]} < k * reps = {k * reps}")

    reps_df = spark.range(reps).select(F.col("id").cast("int").alias("rep"))
    bucketed = (
        pre.crossJoin(reps_df)
        .withColumn(
            "bkt",
            F.xxhash64(
                "rep", F.lit(seed), F.slice("mh", F.col("rep") * k + 1, k)
            ),
        )
        .select("rep", "bkt", "sid", "tokens", "size", "sketch")
    )

    def run_bucket(key, pdf):
        sketch = np.stack(pdf["sketch"].to_numpy()).astype(np.int64).view(np.uint64)
        sids = pdf["sid"].to_numpy()
        pairs, st = brute_force_pairs_arrays(sketch, pdf["tokens"], lam, delta=delta)
        out = _with_counters(sids[pairs[:, 0]], sids[pairs[:, 1]], st)
        out["rep"] = np.int32(key[0])
        return out

    try:
        out = _map_buckets(bucketed, ["rep", "bkt"], run_bucket, _REP_SCHEMA)
        pairs, stats, n_results = _collect_pairs(out, F.min("rep").alias("first_rep"))
    finally:
        if own_pre:
            pre.unpersist()
    return MinHashLSHResult(
        pairs=pairs, stats=stats, n_results=n_results, k=int(k), reps=int(reps)
    )
