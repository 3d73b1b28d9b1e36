"""Synthetic set-collection generators for the CPSJoin evaluation.

The paper evaluates on 10 real datasets (AOL ... SPOTIFY, via Mann et
al.), a UNIFORM dataset, and the synthetic TOKENS{10K,15K,20K} family.
The real data is not available offline, so ``zipf_collection`` produces
*clones* that match the Table I statistics the paper's analysis rests on
(number of sets, average set size, sets-per-token density, skewed token
popularity), with planted near-duplicate pairs standing in for the
natural near-duplication of real data (DESIGN.md §4).  ``tokens_collection``
implements the paper's own TOKENS generative process exactly, at reduced
scale.

All generators are deterministic in ``seed``, return deduplicated
collections of sorted unique token arrays with >= 2 tokens per set
(matching the paper's preprocessing), and have Spark/pandas adapters.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import types as T

__all__ = [
    "zipf_collection",
    "tokens_collection",
    "plant_pair",
    "collection_to_pandas",
    "collection_to_spark",
    "dedup_collection",
]

#: Planted-pair Jaccard levels used by the real-data clones.
CLONE_LEVELS = (0.5, 0.6, 0.7, 0.8, 0.9, 0.95)

#: Expected-Jaccard levels of the TOKENS planted sets (paper §VI-1).
TOKENS_LEVELS = (0.95, 0.85, 0.75, 0.65, 0.55)

#: Background expected Jaccard of the TOKENS datasets (paper §VI-1).
TOKENS_BACKGROUND = 0.2


def _token_weights(d: int, alpha: float) -> np.ndarray:
    """Zipf(alpha) popularity over ``d`` tokens (alpha=0 -> uniform)."""
    w = 1.0 / np.arange(1, d + 1, dtype=np.float64) ** alpha
    return w / w.sum()


def _weighted_subset(
    rng: np.random.Generator, d: int, size: int, logw: np.ndarray
) -> np.ndarray:
    """Sample ``size`` distinct tokens with popularity weights.

    Gumbel-top-k: add Gumbel noise to log-weights and take the top
    ``size`` keys — an exact weighted sample without replacement.
    """
    keys = logw + rng.gumbel(size=d)
    if size >= d:
        return np.arange(d, dtype=np.int64)
    part = np.argpartition(keys, -size)[-size:]
    return np.sort(part.astype(np.int64))


def _draw_sizes(
    rng: np.random.Generator, n: int, avg_size: int | float, d: int
) -> np.ndarray:
    """Skewed set sizes with mean ~= ``avg_size``, clipped to [2, d/2]."""
    sigma = 0.6
    mu = np.log(avg_size) - sigma * sigma / 2.0
    sizes = np.rint(rng.lognormal(mu, sigma, n)).astype(np.int64)
    return np.clip(sizes, 2, max(2, d // 2))


def plant_pair(
    rng: np.random.Generator, base: np.ndarray, d: int, target_j: float
) -> np.ndarray:
    """Build a partner set of the same size with Jaccard ~= ``target_j``.

    For equal sizes ``s`` with overlap ``o``, ``J = o / (2s - o)``, so
    ``o = round(2 s J / (1 + J))`` (capped at ``s - 1`` so the partner is
    never an exact duplicate).  The ``s - o`` fresh tokens are drawn
    uniformly from outside ``base``.
    """
    s = len(base)
    o = int(round(2 * s * target_j / (1 + target_j)))
    o = min(max(o, 1), s - 1)
    shared = rng.choice(base, size=o, replace=False)
    outside = np.setdiff1d(np.arange(d, dtype=np.int64), base, assume_unique=False)
    fresh = rng.choice(outside, size=s - o, replace=False)
    return np.sort(np.concatenate([shared, fresh]))


def dedup_collection(sets: list[np.ndarray]) -> list[np.ndarray]:
    """Drop duplicate records and records with < 2 tokens (paper prep)."""
    seen: set[bytes] = set()
    out: list[np.ndarray] = []
    for x in sets:
        x = np.unique(np.asarray(x, dtype=np.int64))
        if len(x) < 2:
            continue
        key = x.tobytes()
        if key not in seen:
            seen.add(key)
            out.append(x)
    return out


def zipf_collection(
    n: int,
    avg_size: int | float,
    d: int,
    *,
    alpha: float = 0.8,
    seed: int = 0,
    planted_per_level: int = 10,
    levels: tuple[float, ...] = CLONE_LEVELS,
) -> list[np.ndarray]:
    """Clone of a real dataset: ``n`` background sets + planted pairs.

    Token popularity is Zipf(``alpha``) over a universe of ``d`` tokens;
    set sizes are lognormal around ``avg_size``.  ``planted_per_level``
    planted pairs per Jaccard level in ``levels`` stand in for natural
    near-duplicates so the exact join is non-empty at every threshold.
    """
    if d < 4:
        raise ValueError(f"universe too small: d={d}")
    rng = np.random.default_rng(seed)
    logw = np.log(_token_weights(d, alpha))
    sizes = _draw_sizes(rng, n, avg_size, d)
    sets = [_weighted_subset(rng, d, int(s), logw) for s in sizes]
    for j in levels:
        for _ in range(planted_per_level):
            base = sets[int(rng.integers(0, n))]
            if len(base) >= max(3, d // 2):
                continue
            sets.append(plant_pair(rng, base, d, j))
    return dedup_collection(sets)


def tokens_collection(
    cap: int,
    *,
    d: int = 1000,
    seed: int = 0,
    planted_per_level: int = 4,
    levels: tuple[float, ...] = TOKENS_LEVELS,
) -> list[np.ndarray]:
    """The paper's TOKENS dataset at reduced scale.

    Every token appears in at most ``cap`` sets (paper: 10,000-20,000;
    ours: 100-200).  ``planted_per_level`` random sets of size
    ``2*j*d/(1+j)`` are planted per expected-Jaccard level ``j`` — any
    two random sets of that size have expected Jaccard ``j``.  The
    remaining capacity is filled with background sets of size
    ``2*0.2*d/1.2`` (pairwise expected Jaccard 0.2).  Generation stops
    when token capacity runs out, giving ``n ~= cap * d / avg_size``.
    """
    rng = np.random.default_rng(seed)
    remaining = np.full(d, cap, dtype=np.int64)

    def draw(size: int) -> np.ndarray | None:
        avail = np.flatnonzero(remaining > 0)
        if len(avail) < size:
            return None
        pick = rng.choice(avail, size=size, replace=False)
        remaining[pick] -= 1
        return np.sort(pick.astype(np.int64))

    sets: list[np.ndarray] = []
    for j in levels:
        s = int(round(2 * j * d / (1 + j)))
        for _ in range(planted_per_level):
            x = draw(s)
            if x is not None:
                sets.append(x)
    s_bg = int(round(2 * TOKENS_BACKGROUND * d / (1 + TOKENS_BACKGROUND)))
    while (x := draw(s_bg)) is not None:
        sets.append(x)
    return dedup_collection(sets)


_SETS_SCHEMA = T.StructType(
    [
        T.StructField("sid", T.LongType(), False),
        T.StructField("tokens", T.ArrayType(T.IntegerType(), False), False),
    ]
)


def collection_to_pandas(sets: list[np.ndarray]) -> pd.DataFrame:
    """``[(sid, tokens)]`` pandas frame (tokens as python lists)."""
    return pd.DataFrame(
        {
            "sid": np.arange(len(sets), dtype=np.int64),
            "tokens": [np.asarray(x, dtype=np.int32).tolist() for x in sets],
        }
    )


def collection_to_spark(spark: SparkSession, sets: list[np.ndarray]) -> DataFrame:
    """Spark DataFrame ``(sid: long, tokens: array<int>)``."""
    return spark.createDataFrame(collection_to_pandas(sets), schema=_SETS_SCHEMA)
