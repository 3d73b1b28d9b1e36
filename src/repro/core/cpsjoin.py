"""Distributed CPSJoin — the paper's contribution as a Spark dataflow.

Level-by-level Chosen-Path recursion over a DataFrame of
``(rep, path, sid)`` rows (all repetitions run in one dataflow; the
root path of repetition ``r`` is ``xxhash64(r, seed)``):

1. bucket sizes as a window count over ``(rep, path)``; the level's one
   action reads the largest;
2. buckets that fit in one task (``<= local_threshold`` records) go to
   ``_map_buckets`` (many buckets per Python call) and are finished by the
   exact in-memory recursion of Algorithms 1+2 (``core.cpsjoin_local``);
3. larger buckets get the distributed BRUTEFORCE step: per-bucket
   MinHash-coordinate value counts give every record's average embedded
   similarity to its bucket; records above ``(1 - eps) * lam`` become
   BRUTEFORCEPOINT candidate pairs against their whole bucket and leave
   the recursion;
4. survivors split: coordinate ``i`` is chosen for a path iff
   ``hash(path, i) < 1/(lam * t)`` (expected ``1/lam`` coordinates per
   node, the §V-A3 heuristic) and the child bucket id is
   ``xxhash64(path, i, mh_i(x))`` — sets sharing the sampled MinHash
   value meet again one level down, which happens with probability
   ``J(x, y)`` per sampled coordinate.  ``t`` is the embedding's length.

Every repetition's root bucket holds the whole input, so the root level
runs once: its BRUTEFORCEPOINT pairs carry the weight ``reps``, and its
survivors and local rows are copied to every repetition's root path
before they split or go to the kernel.  Each level's bucket sizes and
BRUTEFORCE similarities are lazy local checkpoints, computed once and
released before ``cpsjoin`` returns.

Candidate pairs from both routes run the shared pipeline: size check,
1-bit sketch check (false-negative rate ``delta``), exact Jaccard
verification, global dedup.  Counters follow Table IV semantics
(candidates counted before dedup).

Both pandas stages emit their verified pairs plus counter rows keyed
``(-1, -1)``; they are unioned uncached and one ``groupBy(a, b)`` dedups
the pairs and folds the counters.  Only that aggregate (minus its counter
row, coalesced to the session's task slots) is cached, and the one action
that materialises it also returns the counters through an
``Observation``.  No pandas-UDF output is cached directly: AQE does not
change a cached plan's output partitioning, so a cached pandas stage
would run one Python task per shuffle partition.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, Observation, SparkSession
from pyspark.sql import functions as F
from pyspark.sql import types as T
from pyspark.sql.window import Window

from .cpsjoin_local import JoinStats, _check_pairs, cpsjoin_local_rep
from .preprocess import preprocess

__all__ = ["CPSJoinResult", "cpsjoin", "bucket_seed"]

_COUNTERS = ("pre_candidates", "candidates", "results")

# Verified pairs (a < b) and counter rows (a = b = -1); pair rows carry
# zero counters.
_OUT_SCHEMA = T.StructType(
    [T.StructField("a", T.LongType(), False), T.StructField("b", T.LongType(), False)]
    + [T.StructField(c, T.LongType(), False) for c in _COUNTERS]
)

_HASH_MOD = 1 << 31

# Distributed levels before the safety valve ships every bucket still over
# ``local_threshold`` whole to the local kernel.
_MAX_DIST_LEVELS = 8


def _unit(col):
    """Map a 64-bit hash column to a uniform-ish value in [0, 1)."""
    return F.pmod(col, F.lit(_HASH_MOD)) / F.lit(float(_HASH_MOD))


def bucket_seed(seed: int, rep: int, path: int) -> int:
    """Seed of the local kernel's run on bucket ``(rep, path)``.

    Deterministic across processes (``SeedSequence`` of the three ints),
    so a bucket's recursion does not depend on which task runs it.
    """
    return int(
        np.random.SeedSequence(
            [seed & 0x7FFFFFFF, rep, path & 0x7FFFFFFFFFFFFFFF]
        ).generate_state(1)[0]
    )


def _with_counters(a, b, stats: JoinStats) -> pd.DataFrame:
    """``_OUT_SCHEMA`` rows: the pairs ``(a, b)`` as ``a < b``, then one counter row."""
    out = pd.DataFrame({
        "a": np.append(np.minimum(a, b), -1).astype(np.int64),
        "b": np.append(np.maximum(a, b), -1).astype(np.int64),
    })
    for name, value in zip(_COUNTERS, stats.as_tuple()):
        col = np.zeros(len(out), dtype=np.int64)
        col[-1] = value
        out[name] = col
    return out


def _collect_pairs(out: DataFrame, *aggs) -> tuple[DataFrame, JoinStats, int]:
    """Dedup the pairs of ``_OUT_SCHEMA`` rows and sum their counters.

    One ``groupBy(a, b)`` dedups the pairs and folds every counter row
    into ``(-1, -1)``; ``aggs`` are further per-pair aggregates kept as
    columns.  Only the pairs ``(sid_a, sid_b, *aggs)`` are cached, in at
    most ``defaultParallelism`` partitions, and the one action that
    materialises them also returns the counters through an
    ``Observation``.  Returns ``(pairs, stats, n_results)``.
    """
    sums = [F.sum(c).alias(c) for c in _COUNTERS]
    totals = Observation()
    pairs = (
        out.groupBy("a", "b").agg(*sums, *aggs)
        .observe(totals, *sums)
        .filter(F.col("a") >= 0)
        .drop(*_COUNTERS)
        .withColumnsRenamed({"a": "sid_a", "b": "sid_b"})
        # AQE cannot coalesce a cached plan: without this the aggregate and
        # every scan of the cache run one task per shuffle partition.
        .coalesce(out.sparkSession.sparkContext.defaultParallelism)
        .cache()
    )
    n_results = pairs.count()
    return pairs, JoinStats(*(int(totals.get[c] or 0) for c in _COUNTERS)), n_results


def _map_buckets(df: DataFrame, keys: list[str], fn, schema) -> DataFrame:
    """Run ``fn(key, pdf)`` on every bucket of ``df`` (its rows of one ``keys`` value).

    The grouped-map pandas UDF does the same with one Python call per
    bucket; here one call runs many.  Rows are hash-partitioned on ``keys``
    (with no partition count, so AQE sizes the stage) and sorted within
    each partition, so every bucket is one run of equal keys.
    ``mapInPandas`` cuts each Arrow batch at key changes and carries the
    run a batch ends in into the next batch, so ``fn`` sees each bucket
    whole and once.  ``fn`` returns ``schema`` rows; the outputs of the
    buckets a batch completes are emitted together.
    """

    def run(batches):
        held, held_key = [], None  # the bucket the previous batch ended in
        for pdf in batches:
            if not len(pdf):
                continue
            key = pdf[keys].to_numpy()
            starts = np.flatnonzero(np.r_[True, (key[1:] != key[:-1]).any(axis=1)])
            ends = np.append(starts[1:], len(pdf))
            outs = []
            for s, e in zip(starts.tolist(), ends.tolist()):
                k = tuple(key[s].tolist())
                if held and k != held_key:
                    outs.append(fn(held_key, pd.concat(held, ignore_index=True)))
                    held = []
                held_key = k
                held.append(pdf.iloc[s:e])
            if outs:
                yield pd.concat(outs, ignore_index=True)
        if held:
            yield fn(held_key, pd.concat(held, ignore_index=True))

    return df.repartition(*keys).sortWithinPartitions(*keys).mapInPandas(run, schema)


def _release_checkpoint(df: DataFrame) -> None:
    """Drop the blocks of ``df``, a ``localCheckpoint`` result.

    Checkpoints are not in the session's cache, so ``unpersist`` cannot
    reach them; their RDD sits under the plan's ``LogicalRDD`` leaf.
    Call it only once every query that reads ``df`` has run.
    """
    df._jdf.queryExecution().analyzed().rdd().unpersist(False)


@dataclass
class CPSJoinResult:
    """Verified distinct pairs + pipeline counters for one join run."""

    pairs: DataFrame  # (sid_a, sid_b), sid_a < sid_b, distinct
    stats: JoinStats
    n_results: int
    levels: int  # distributed levels executed


def cpsjoin(
    spark: SparkSession,
    sets_df: DataFrame,
    lam: float,
    *,
    t: int = 128,
    ell: int = 8,
    limit: int = 250,
    eps: float = 0.1,
    delta: float = 0.05,
    reps: int = 10,
    seed: int = 0,
    local_threshold: int = 4000,
    pre: DataFrame | None = None,
) -> CPSJoinResult:
    """Run CPSJoin on ``sets_df`` (``sid``, ``tokens``); eager.

    ``pre`` optionally supplies an already-cached ``preprocess`` output
    so the embedding cost is shared across runs (the paper excludes
    preprocessing from join times for the same reason).  ``t`` and ``ell``
    size only an embedding the call makes itself; the join reads ``t``
    off the embedding it uses.
    """
    if not 0 < lam < 1:
        raise ValueError(f"lam must be in (0,1), got {lam}")
    own_pre = pre is None
    if own_pre:
        pre = preprocess(sets_df, t=t, ell=ell, seed=seed).cache()

    checkpoints: list[DataFrame] = []  # released once the pairs are cached
    try:
        reps_df = spark.range(reps).select(F.col("id").cast("int").alias("rep"))

        def per_rep(rows: DataFrame) -> DataFrame:
            """The root bucket's ``rows``, once per repetition under its root path."""
            return (
                rows.drop("rep", "path")
                .crossJoin(reps_df)
                .withColumn("path", F.xxhash64("rep", F.lit(seed)))
            )

        # Every repetition's root bucket holds every record, so the root
        # level runs once, as the one bucket (rep, path) = (-1, 0); its
        # BRUTEFORCEPOINT pairs count once per repetition (weight ``w``).
        active = pre.select(
            F.lit(-1).alias("rep"), F.lit(0).cast("long").alias("path"), "sid"
        )

        # Bucket sizes and coordinate-value counts are window counts: one
        # shuffle each, where an aggregate joined back needs two.
        by_bucket = Window.partitionBy("rep", "path")
        by_value = Window.partitionBy("rep", "path", "i", "v")
        embedding = pre.select("sid", "mh")
        local_parts: list[DataFrame] = []
        pair_parts: list[DataFrame] = []  # distributed BRUTEFORCEPOINT pairs
        level = 0
        while True:
            # A local checkpoint keeps later levels from recomputing this one
            # and keeps the partitioning AQE chose.  The level's one action
            # materialises it and sizes the largest bucket: a top-1, which
            # runs one job where a global max adds a shuffle and a second.
            tagged = active.withColumn(
                "gsize", F.count("*").over(by_bucket)
            ).localCheckpoint(eager=False)
            checkpoints.append(tagged)
            top = tagged.select("gsize").orderBy(F.desc("gsize")).first()
            largest = top[0] if top else None
            expand = per_rep if level == 0 else (lambda rows: rows)
            small = tagged.filter(
                (F.col("gsize") <= local_threshold) & (F.col("gsize") >= 2)
            )
            local_parts.append(expand(small.select("rep", "path", "sid")))
            big = tagged.filter(F.col("gsize") > local_threshold)
            if largest is None or largest <= local_threshold:
                break
            if level >= _MAX_DIST_LEVELS:
                # Safety valve: ship oversized buckets to the local kernel.
                local_parts.append(expand(big.select("rep", "path", "sid")))
                break

            # Each record's summed embedded similarity to its bucket, and
            # ``t`` (its ``mh`` length, as in the local kernel).  Read by the
            # next level's action and by the final plan, so it is a
            # checkpoint too.
            sims = (
                big.join(embedding, "sid")
                .select("rep", "path", "sid", "gsize",
                        F.posexplode("mh").alias("i", "v"))
                .withColumn("cnt", F.count("*").over(by_value))
                .groupBy("rep", "path", "sid", "gsize")
                .agg(F.sum(F.col("cnt") - 1).alias("simsum"), F.count("*").alias("t"))
                .localCheckpoint(eager=False)
            )
            checkpoints.append(sims)
            hot = (
                F.col("simsum") / (F.col("t") * (F.col("gsize") - 1))
                > (1.0 - eps) * lam
            )
            removed = sims.filter(hot).select("rep", "path", "sid")
            bfp = (
                removed.withColumnRenamed("sid", "sid_x")
                .join(big.select("rep", "path", F.col("sid").alias("sid_y")),
                      ["rep", "path"])
                .filter(F.col("sid_x") != F.col("sid_y"))
                .select(
                    F.least("sid_x", "sid_y").alias("a"),
                    F.greatest("sid_x", "sid_y").alias("b"),
                    F.lit(reps if level == 0 else 1).alias("w"),
                )
            )
            pair_parts.append(bfp)
            survivors = (
                expand(sims.filter(~hot).select("rep", "path", "sid"))
                .join(embedding, "sid")
            )

            sel = (
                _unit(F.xxhash64("path", "i", F.lit(seed), F.lit(1)))
                < 1.0 / (lam * F.col("t"))
            )
            active = (
                survivors.select(
                    "rep", "path", "sid", F.size("mh").alias("t"),
                    F.posexplode("mh").alias("i", "v"),
                )
                .filter(sel)
                .select("rep", F.xxhash64("path", "i", "v").alias("path"), "sid")
            )
            level += 1

        # --- local buckets: run the full in-memory recursion per bucket ---
        local_rows = reduce(DataFrame.unionByName, local_parts).join(pre, "sid")

        def run_bucket(key, pdf):
            rep, path = int(key[0]), int(key[1])
            mh = np.stack(pdf["mh"].to_numpy()).astype(np.int64)
            sketch = np.stack(pdf["sketch"].to_numpy()).astype(np.int64).view(np.uint64)
            tokens = [np.asarray(x, dtype=np.int64) for x in pdf["tokens"]]
            sids = pdf["sid"].to_numpy()
            pairs, st = cpsjoin_local_rep(
                mh, sketch, tokens, lam,
                limit=limit, eps=eps, delta=delta, seed=bucket_seed(seed, rep, path),
            )
            return _with_counters(sids[pairs[:, 0]], sids[pairs[:, 1]], st)

        out = _map_buckets(local_rows, ["rep", "path"], run_bucket, _OUT_SCHEMA)

        # --- distributed BRUTEFORCEPOINT pairs: shared verification path ---
        if pair_parts:
            # Verify each pair once; carry how often the candidate generator
            # produced it (a root pair once per repetition) so the
            # pre-candidate/candidate counters keep Table IV's raw
            # (duplicate-inclusive) semantics.
            bfp_all = (
                reduce(DataFrame.unionByName, pair_parts)
                .groupBy("a", "b")
                .agg(F.sum("w").alias("mult"))
            )
            out = out.unionByName(_verify_pairs_df(bfp_all, pre, lam, delta))

        pairs_df, stats, n_results = _collect_pairs(out)
        return CPSJoinResult(pairs=pairs_df, stats=stats, n_results=n_results,
                             levels=level)
    finally:
        for df in checkpoints:
            _release_checkpoint(df)
        if own_pre:
            pre.unpersist()


def _verify_pairs_df(
    pairs: DataFrame, pre: DataFrame, lam: float, delta: float
) -> DataFrame:
    """The candidate check (``_check_pairs``) for ``(a, b, mult)`` rows.

    Each distinct pair is verified once; its ``mult`` (how many times
    the candidate generator produced it) weights the pre-candidate and
    candidate counters so they keep Table IV's duplicate-inclusive
    semantics.  Emits the verified pairs and one ``(-1, -1)`` counter row
    per Arrow batch.
    """
    sides = pairs.join(
        pre.select(
            F.col("sid").alias("a"),
            F.col("tokens").alias("tokens_a"),
            F.col("size").alias("size_a"),
            F.col("sketch").alias("sketch_a"),
        ),
        "a",
    ).join(
        pre.select(
            F.col("sid").alias("b"),
            F.col("tokens").alias("tokens_b"),
            F.col("size").alias("size_b"),
            F.col("sketch").alias("sketch_b"),
        ),
        "b",
    )

    def run(batches):
        for pdf in batches:
            n = len(pdf)
            if n == 0:
                continue
            # Records 0..n-1 are the a-sides, n..2n-1 the b-sides.
            tokens = list(pdf["tokens_a"]) + list(pdf["tokens_b"])
            sizes = np.concatenate([pdf["size_a"].to_numpy(), pdf["size_b"].to_numpy()])
            sketches = np.stack(
                np.concatenate([pdf["sketch_a"].to_numpy(), pdf["sketch_b"].to_numpy()])
            ).astype(np.int64).view(np.uint64)
            ia = np.arange(n)
            cand, hit = _check_pairs(tokens, sizes, sketches, ia, ia + n, lam, delta)
            mult = pdf["mult"].to_numpy()
            yield _with_counters(
                pdf["a"].to_numpy()[hit], pdf["b"].to_numpy()[hit],
                JoinStats(int(mult.sum()), int(mult[cand].sum()), int(hit.sum())),
            )

    return sides.mapInPandas(run, schema=_OUT_SCHEMA)
