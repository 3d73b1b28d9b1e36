"""Distributed CPSJoin — the paper's contribution as a Spark dataflow.

All repetitions run in one dataflow over rows ``(rep, path, sid, tokens,
size, mh, sketch)``: each row carries its record, read once from the
embedding ``pre``, and ``(rep, path)`` names its node in repetition
``rep``'s Chosen-Path tree (the root path of repetition ``r`` is
``xxhash64(r, seed)``).  Every repetition's root holds the whole input,
so the root runs once, on ``pre`` itself, and its size is ``pre``'s row
count:

* an input of at most ``max(limit, local_threshold)`` records is copied
  to every repetition's root path and goes to ``_map_buckets`` (many
  buckets per Python call), where the exact in-memory recursion of
  Algorithms 1+2 (``core.cpsjoin_local``) runs each repetition whole;
* a larger input runs the root distributed, in one level for all
  repetitions:

  1. the BRUTEFORCE step: MinHash-coordinate value counts (one window
     over ``(i, v)`` of ``posexplode(mh)``) give every record's average
     embedded similarity to the input; records above ``(1 - eps) * lam``
     are flagged ``hot``, become BRUTEFORCEPOINT candidate pairs against
     every record and leave the recursion;
  2. one split: the survivors are copied to every repetition's root
     path; coordinate ``i`` is chosen for a path iff
     ``hash(path, i) < 1/(lam * t)`` (expected ``1/lam`` coordinates per
     node, the §V-A3 heuristic) and the child bucket id is
     ``xxhash64(path, i, mh_i(x))`` — sets sharing the sampled MinHash
     value meet again one level down, which happens with probability
     ``J(x, y)`` per sampled coordinate.  ``t`` is the embedding's length;
  3. every child bucket, whatever its size, goes to ``_map_buckets``,
     where the kernel resumes the tree at the child's path and depth 1.

The kernel computes the same three hashes in numpy (its ``xxhash64`` is
Spark's, bit for bit), so the tree of a repetition is a function of
``(seed, rep, path)`` alone.  ``local_threshold`` decides only where the
root runs: the pair set and all three counters are those of the kernel
run on the whole input at every repetition's root.

The root's BRUTEFORCEPOINT pairs are a cross join of the hot records
with all records, each pair emitted once with both records and with
``mult`` ``reps`` per finding (twice when both records are hot).  They
skip the dedup: a removed record leaves the recursion, so no other
bucket finds them.  The root's records with their ``hot`` flags are a
lazy local checkpoint, read by both routes, computed once and released
before ``cpsjoin`` returns.

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

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, Observation, SparkSession
from pyspark.sql import functions as F
from pyspark.sql import types as T
from pyspark.sql.window import Window

from .cpsjoin_local import _HASH_MOD, JoinStats, _check_pairs, cpsjoin_local_rep
from .preprocess import preprocess

__all__ = ["CPSJoinResult", "cpsjoin"]

_COUNTERS = ("pre_candidates", "candidates", "results")

# The ``preprocess`` columns each bucket row carries.
_RECORD = ("sid", "tokens", "size", "mh", "sketch")

# Verified pairs (a < b) and counter rows (a = b = -1); pair rows carry
# zero counters.
_OUT_SCHEMA = T.StructType(
    [T.StructField("a", T.LongType(), False), T.StructField("b", T.LongType(), False)]
    + [T.StructField(c, T.LongType(), False) for c in _COUNTERS]
)


def _unit(col):
    """Map a 64-bit hash column to a uniform-ish value in [0, 1).

    Numpy twin: ``cpsjoin_local._unit``.
    """
    return F.pmod(col, F.lit(_HASH_MOD)) / F.lit(float(_HASH_MOD))


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
    columns.  Only the pairs ``(sid_a, sid_b, *aggs)`` are cached
    (``_cache_pairs``), and the one action that materialises them also
    returns the counters through an ``Observation``.  Returns
    ``(pairs, stats, n_results)``.
    """
    sums = [F.sum(c).alias(c) for c in _COUNTERS]
    totals = Observation()
    pairs, n_results = _cache_pairs(
        out.groupBy("a", "b").agg(*sums, *aggs)
        .observe(totals, *sums)
        .filter(F.col("a") >= 0)
        .drop(*_COUNTERS)
        .withColumnsRenamed({"a": "sid_a", "b": "sid_b"})
    )
    return pairs, JoinStats(*(int(totals.get[c] or 0) for c in _COUNTERS)), n_results


def _cache_pairs(pairs: DataFrame) -> tuple[DataFrame, int]:
    """Cache a join's result in at most ``defaultParallelism`` partitions and count it.

    AQE cannot coalesce a cached plan: without the coalesce the last stage
    and every scan of the cache run one task per shuffle partition.  The
    count is the one action that materialises the cache; if it raises,
    nothing stays cached.  Returns ``(pairs, count)``.
    """
    pairs = pairs.coalesce(pairs.sparkSession.sparkContext.defaultParallelism).cache()
    try:
        return pairs, pairs.count()
    except BaseException:
        pairs.unpersist()
        raise


def _map_buckets(df: DataFrame, keys: list[str], fn, schema) -> DataFrame:
    """Run ``fn(key, pdf)`` on every bucket of ``df`` (its rows of one ``keys`` value).

    The grouped-map pandas UDF does the same with one Python call per
    bucket; here one call runs many.  Rows are hash-partitioned on ``keys``
    (with no partition count, so AQE sizes the stage) and sorted within
    each partition, so every bucket is one run of equal keys.
    ``mapInPandas`` cuts each Arrow batch at key changes and carries the
    run a batch ends in into the next batch, so ``fn`` sees each bucket
    whole and once.  A one-row bucket holds no pair, so ``fn`` never sees
    one.  ``fn`` returns ``schema`` rows; the outputs of the buckets a
    batch completes are emitted together.
    """

    def call(key, parts):
        if sum(map(len, parts)) < 2:
            return []
        return [fn(key, pd.concat(parts, ignore_index=True))]

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
                    outs += call(held_key, held)
                    held = []
                held_key = k
                held.append(pdf.iloc[s:e])
            if outs:
                yield pd.concat(outs, ignore_index=True)
        if held:
            yield from call(held_key, held)

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
    levels: int  # distributed levels executed: 1 if the root ran distributed, else 0


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

    An input of at most ``max(limit, local_threshold)`` records runs whole
    in the local kernel, one kernel call per repetition; a larger one runs the
    tree's root distributed and every node below it in the kernel.  Both
    walk the same Chosen-Path tree, so ``local_threshold`` decides only
    where the root runs, not the pairs or the counters.
    """
    if not 0 < lam < 1:
        raise ValueError(f"lam must be in (0,1), got {lam}")
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    if local_threshold < 1:
        # A one-record root would count as big, and the BRUTEFORCE cut
        # would divide by its size minus one.
        raise ValueError(f"local_threshold must be >= 1, got {local_threshold}")
    # A root of at most ``limit`` records is brute-forced (Alg. 2), so it
    # never runs distributed.
    cut = max(limit, local_threshold)
    own_pre = pre is None
    if own_pre:
        pre = preprocess(sets_df, t=t, ell=ell, seed=seed).cache()

    flagged = None  # the root's records with their ``hot`` flags, a checkpoint
    try:
        reps_df = spark.range(reps).select(F.col("id").cast("int").alias("rep"))

        def per_rep(rows: DataFrame) -> DataFrame:
            """The root bucket's ``rows``, once per repetition under its root path."""
            return (
                rows.crossJoin(reps_df)
                # Numpy twin: ``cpsjoin_local.root_path``.
                .withColumn("path", F.xxhash64("rep", F.lit(seed)))
            )

        # Every repetition's root bucket holds every record, so the root
        # runs once, on ``pre`` itself.  The kernel resumes the tree at
        # depth ``levels``: at the roots, or at the root's children.
        n = pre.count()
        root_pairs = None
        if n <= cut:
            levels = 0
            local = per_rep(pre.select(*_RECORD))
        else:
            levels = 1
            # Each record's summed embedded similarity to the input, and
            # ``t`` (its ``mh`` length, as in the local kernel), make the
            # BRUTEFORCE cut; the coordinate-value counts are one window
            # count, where an aggregate joined back needs two shuffles.
            # The records with their ``hot`` flag feed both the survivors
            # and the BRUTEFORCEPOINT pairs, so they are a checkpoint.
            sims = (
                pre.select("sid", F.posexplode("mh").alias("i", "v"))
                .withColumn("cnt", F.count("*").over(Window.partitionBy("i", "v")))
                .groupBy("sid")
                .agg(F.sum(F.col("cnt") - 1).alias("simsum"), F.count("*").alias("t"))
            )
            hot = F.col("simsum") / (F.col("t") * F.lit(n - 1)) > (1.0 - eps) * lam
            flagged = (
                pre.select(*_RECORD)
                .join(sims.select("sid", hot.alias("hot")), "sid")
                .localCheckpoint(eager=False)
            )
            root_pairs = _verify_pairs_df(_root_pairs(flagged, reps), lam, delta)

            # The survivors split once.  Numpy twins of the coordinate
            # choice and the child path: the split in ``cpsjoin_local._node``.
            sel = (
                _unit(F.xxhash64("path", "i", F.lit(seed), F.lit(1)))
                < 1.0 / (lam * F.col("t"))
            )
            local = (
                per_rep(flagged.filter(~F.col("hot")).drop("hot"))
                .select("rep", "path", *_RECORD, F.size("mh").alias("t"),
                        F.posexplode("mh").alias("i", "v"))
                .filter(sel)
                .select("rep", F.xxhash64("path", "i", "v").alias("path"), *_RECORD)
            )

        # --- every node below: the full in-memory recursion per bucket ---
        def run_bucket(key, pdf):
            mh = np.stack(pdf["mh"].to_numpy()).astype(np.int64)
            sketch = np.stack(pdf["sketch"].to_numpy()).astype(np.int64).view(np.uint64)
            tokens = [np.asarray(x, dtype=np.int64) for x in pdf["tokens"]]
            sids = pdf["sid"].to_numpy()
            pairs, st = cpsjoin_local_rep(
                mh, sketch, tokens, lam,
                limit=limit, eps=eps, delta=delta, seed=seed, start=(key[1], levels),
            )
            return _with_counters(sids[pairs[:, 0]], sids[pairs[:, 1]], st)

        out = _map_buckets(local, ["rep", "path"], run_bucket, _OUT_SCHEMA)
        if root_pairs is not None:
            out = out.unionByName(root_pairs)

        pairs_df, stats, n_results = _collect_pairs(out)
        return CPSJoinResult(pairs=pairs_df, stats=stats, n_results=n_results,
                             levels=levels)
    finally:
        if flagged is not None:
            _release_checkpoint(flagged)
        if own_pre:
            pre.unpersist()


def _side(records: DataFrame, side: str, *extra) -> DataFrame:
    """``records`` as the ``side`` ("a" or "b") of a candidate pair."""
    return records.select(
        F.col("sid").alias(side),
        *(F.col(c).alias(f"{c}_{side}") for c in ("tokens", "size", "sketch")),
        *extra,
    )


def _root_pairs(root: DataFrame, reps: int) -> DataFrame:
    """The root's BRUTEFORCEPOINT pairs, each once, with both records.

    ``root`` holds every record and its ``hot`` flag.  Each hot record
    pairs with every other record; a pair of two hot records is found
    twice.  Every repetition's root would find it again, so ``mult`` is
    ``reps`` per finding.  A removed record leaves the recursion, so no
    other bucket finds these pairs and they need no dedup.  The pairs are
    a cross join, not a join on the root's one bucket key, which would
    run in one task.
    """
    x = _side(root.filter("hot"), "a")
    y = _side(root, "b", F.col("hot").alias("hot_b"))
    a, b, hot_b = F.col("a"), F.col("b"), F.col("hot_b")
    return (
        x.crossJoin(y)
        .filter((a != b) & (~hot_b | (a < b)))  # two hot records: one order
        .withColumn("mult", F.when(hot_b, 2 * reps).otherwise(reps).cast("long"))
        .drop("hot_b")
    )


def _verify_pairs_df(pairs: DataFrame, lam: float, delta: float) -> DataFrame:
    """The candidate check (``_check_pairs``) for pairs with their records.

    ``pairs`` rows are ``(a, b, mult)`` plus both records (``_side``).
    Each row is verified once; its ``mult`` (how many times the candidate
    generator produced the pair) weights all three counters, so they
    count per finding, as the local kernel does (Table IV's
    duplicate-inclusive semantics).  Emits
    the verified pairs and one ``(-1, -1)`` counter row per Arrow batch.
    """

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
                JoinStats(int(mult.sum()), int(mult[cand].sum()), int(mult[hit].sum())),
            )

    return pairs.mapInPandas(run, schema=_OUT_SCHEMA)
