"""MinHash LSH similarity join (paper §V-B, Algorithm 3).

Each repetition buckets every set by ``k`` concatenated MinHash values
and brute-forces all pairs within a bucket through the shared
size-check -> 1-bit-sketch -> exact-Jaccard pipeline.  ``k`` is chosen
per dataset/threshold by estimating, from the bucket-size histogram of
a probe repetition, the combined cost of hashing and in-bucket
comparisons (the Cohen et al. idea the paper implements); the number of
repetitions for target recall ``phi`` is ``ln(1/(1-phi)) / lam^k``.

Result pairs carry ``first_rep`` — the smallest repetition index that
discovered the pair — so harnesses can compute the repetitions (and the
prorated join time) actually needed for 90% recall, exactly as the
paper reports MINHASH.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql import types as T

from ..core.cpsjoin_local import JoinStats, brute_force_pairs_arrays
from ..core.preprocess import preprocess

__all__ = ["MinHashLSHResult", "minhash_lsh_join", "choose_k", "reps_for_recall"]

_OUT_SCHEMA = T.StructType(
    [
        T.StructField("kind", T.IntegerType(), False),
        T.StructField("a", T.LongType(), False),
        T.StructField("b", T.LongType(), False),
        T.StructField("rep", T.IntegerType(), False),
        T.StructField("pre_candidates", T.LongType(), False),
        T.StructField("candidates", T.LongType(), False),
        T.StructField("results", T.LongType(), False),
    ]
)


@dataclass
class MinHashLSHResult:
    """LSH join output: distinct pairs with discovery repetition + stats."""

    pairs: DataFrame  # (sid_a, sid_b, first_rep)
    stats: JoinStats
    n_results: int
    k: int
    reps: int


def reps_for_recall(lam: float, k: int, phi: float = 0.9, cap: int = 64) -> int:
    """``L = ceil(ln(1/(1-phi)) / lam^k)``, capped for tractability."""
    return max(1, min(cap, math.ceil(math.log(1.0 / (1.0 - phi)) / lam**k)))


def choose_k(
    spark: SparkSession,
    pre: DataFrame,
    lam: float,
    *,
    phi: float = 0.9,
    ks=range(2, 11),
    seed: int = 0,
    cmp_cost: float = 1.0,
    hash_cost: float = 5.0,
) -> int:
    """Pick ``k`` minimizing estimated total cost over all repetitions.

    For each candidate ``k`` the first splitting step is actually run
    (one ``groupBy`` on bucket ids) and the per-repetition comparison
    mass ``sum C(m, 2)`` is read off the bucket histogram, as in §V-B.
    """
    n = pre.count()
    best_k, best_cost = None, float("inf")
    for k in ks:
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
        L = reps_for_recall(lam, k, phi)
        cost = L * (hash_cost * n + cmp_cost * pair_mass)
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
    phi: float = 0.9,
    ell: int = 8,
    delta: float = 0.05,
    seed: int = 0,
    pre: DataFrame | None = None,
) -> MinHashLSHResult:
    """MinHash LSH self-join; eager.

    ``pre`` may supply a cached ``preprocess`` output whose ``t`` is at
    least ``k * reps`` MinHash coordinates (each repetition uses its own
    disjoint slice).
    """
    if k is None or pre is None:
        # Probe embedding for k selection; final embedding sized to fit.
        probe = pre
        if probe is None:
            probe = preprocess(sets_df, t=12, ell=ell, seed=seed).cache()
        if k is None:
            k = choose_k(spark, probe, lam, phi=phi, seed=seed)
        if reps is None:
            reps = reps_for_recall(lam, k, phi)
        need = k * reps
        if pre is None or len(pre.select("mh").first()["mh"]) < need:
            if pre is None and probe is not None:
                probe.unpersist()
            pre = preprocess(sets_df, t=need, ell=ell, seed=seed + 1).cache()
    if reps is None:
        reps = reps_for_recall(lam, k, phi)

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
        rep = int(key[0])
        if len(pdf) < 2:
            return pd.DataFrame(
                columns=[f.name for f in _OUT_SCHEMA.fields]
            ).astype({"kind": np.int32, "a": np.int64, "b": np.int64,
                      "rep": np.int32, "pre_candidates": np.int64,
                      "candidates": np.int64, "results": np.int64})
        sketch = np.stack(pdf["sketch"].to_numpy()).astype(np.int64).view(np.uint64)
        tokens = [np.asarray(x, dtype=np.int64) for x in pdf["tokens"]]
        sids = pdf["sid"].to_numpy()
        pairs, st = brute_force_pairs_arrays(sketch, tokens, lam, delta=delta)
        sa = np.minimum(sids[pairs[:, 0]], sids[pairs[:, 1]])
        sb = np.maximum(sids[pairs[:, 0]], sids[pairs[:, 1]])
        out = pd.DataFrame(
            {
                "kind": np.zeros(len(sa), dtype=np.int32),
                "a": sa.astype(np.int64),
                "b": sb.astype(np.int64),
                "rep": np.full(len(sa), rep, dtype=np.int32),
                "pre_candidates": np.zeros(len(sa), dtype=np.int64),
                "candidates": np.zeros(len(sa), dtype=np.int64),
                "results": np.zeros(len(sa), dtype=np.int64),
            }
        )
        srow = pd.DataFrame(
            {
                "kind": [1], "a": [-1], "b": [-1], "rep": [rep],
                "pre_candidates": [st.pre_candidates],
                "candidates": [st.candidates],
                "results": [st.results],
            }
        )
        return pd.concat([out, srow], ignore_index=True)

    out = bucketed.groupBy("rep", "bkt").applyInPandas(
        run_bucket, schema=_OUT_SCHEMA
    ).cache()
    srow = (
        out.filter("kind = 1")
        .agg(
            F.sum("pre_candidates").alias("p"),
            F.sum("candidates").alias("c"),
            F.sum("results").alias("r"),
        )
        .first()
    )
    stats = JoinStats(
        int(srow["p"] or 0), int(srow["c"] or 0), int(srow["r"] or 0)
    )
    pairs = (
        out.filter("kind = 0")
        .groupBy(F.col("a").alias("sid_a"), F.col("b").alias("sid_b"))
        .agg(F.min("rep").alias("first_rep"))
        .cache()
    )
    n_results = pairs.count()
    return MinHashLSHResult(
        pairs=pairs, stats=stats, n_results=n_results, k=int(k), reps=int(reps)
    )
