"""Spark-side preprocessing: attach MinHash embedding + 1-bit sketches.

The paper's preprocessing step (§V-A1): every set gets ``t`` MinHash
values (the Chosen-Path embedding) and an ``ell``-word 1-bit minwise
sketch.  Runs as ``mapInPandas`` so the numpy kernel in
``core.minhash`` does the work per Arrow batch; the hash family is
reconstructed deterministically from ``seed`` on every executor.
Input tokens may come unsorted and with duplicates; each set is sorted
and deduplicated here, before anything reads it, so ``size`` and the
exact Jaccard (which intersects assuming unique tokens) follow set
semantics.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import types as T

from .minhash import MinHasher

__all__ = ["preprocess", "PRE_SCHEMA"]

PRE_SCHEMA = T.StructType(
    [
        T.StructField("sid", T.LongType(), False),
        T.StructField("tokens", T.ArrayType(T.IntegerType(), False), False),
        T.StructField("size", T.IntegerType(), False),
        T.StructField("mh", T.ArrayType(T.LongType(), False), False),
        T.StructField("sketch", T.ArrayType(T.LongType(), False), False),
    ]
)


def preprocess(
    df: DataFrame, *, t: int = 128, ell: int = 8, seed: int = 0
) -> DataFrame:
    """``(sid, tokens)`` -> ``(sid, tokens, size, mh, sketch)``.

    ``tokens`` is the input set sorted and deduplicated, ``size`` its
    length.  ``mh`` is the int64 MinHash embedding of length ``t``;
    ``sketch`` is the 1-bit minwise sketch as ``ell`` int64 words
    (bit-identical view of the uint64 sketch words).
    """

    def run(batches):
        hasher = MinHasher(t=t, ell=ell, seed=seed)
        for pdf in batches:
            tokens = [np.unique(np.asarray(x, dtype=np.int64)) for x in pdf["tokens"]]
            mh, sketch = hasher.embed_many(tokens)
            out = pdf[["sid"]].copy()
            out["tokens"] = [x.astype(np.int32) for x in tokens]
            out["size"] = [len(x) for x in tokens]
            out["mh"] = list(mh)
            out["sketch"] = list(sketch.view(np.int64))
            yield out

    return df.select("sid", "tokens").mapInPandas(run, schema=PRE_SCHEMA)
