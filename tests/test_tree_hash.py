"""The local kernel's ``xxhash64`` is Spark SQL's, bit for bit.

The distributed driver draws the Chosen-Path tree with three Spark
expressions: the root path ``xxhash64(rep, seed)``, the coordinate
choice ``xxhash64(path, i, seed, 1)`` and the child path
``xxhash64(path, i, v)``.  The kernel computes the same three in numpy;
if one hash differed, a bucket's tree would depend on where it runs.
"""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.cpsjoin_local import root_path, xxhash64

I32, I64 = np.iinfo(np.int32), np.iinfo(np.int64)
LONG_EDGES = [0, -1, I64.max, -I64.max, I64.min, I32.max, I32.min]
INT_EDGES = [0, -1, 1, I32.max, -I32.max, I32.min]
DTYPES = {"path": np.int64, "v": np.int64, "i": np.int32, "s": np.int32}


@pytest.fixture(scope="module")
def columns():
    """Random ``long`` and ``int`` columns; ``(path, i)`` holds every pair of edge values."""
    rng = np.random.default_rng(11)
    n = 3000
    lo, io = np.meshgrid(LONG_EDGES, INT_EDGES)
    path = np.r_[lo.ravel(), rng.integers(I64.min, I64.max, n, endpoint=True)]
    i = np.r_[io.ravel(), rng.integers(I32.min, I32.max, n, endpoint=True)]
    cols = {"path": path, "v": rng.permutation(path), "i": i, "s": rng.permutation(i)}
    return pd.DataFrame({c: x.astype(DTYPES[c]) for c, x in cols.items()})


@pytest.mark.parametrize("shape", ["rep-seed", "path-i-seed-1", "path-i-v"])
def test_xxhash64_matches_spark(spark, columns, shape):
    """The three hash shapes of the tree, on random and extreme values."""
    cols = {"rep-seed": ["i", "s"], "path-i-seed-1": ["path", "i", "s", 1],
            "path-i-v": ["path", "i", "v"]}[shape]
    df = spark.createDataFrame(columns, "path long, v long, i int, s int")
    got = df.select(
        F.xxhash64(*(F.lit(c) if c == 1 else c for c in cols)).alias("h"), *DTYPES
    ).toPandas()
    values = [c if c == 1 else got[c].to_numpy(DTYPES[c]) for c in cols]
    np.testing.assert_array_equal(xxhash64(*values), got["h"].to_numpy())


@pytest.mark.parametrize("seed", [0, 7, I32.max, I32.max + 1, 2**32 - 1, -1, I32.min, I32.min - 1])
def test_root_path_types_the_seed_as_lit(spark, seed):
    """``F.lit`` makes a Python int an int below 2^31 in size and a long
    above; ``root_path`` hashes the seed the same way."""
    rows = (
        spark.range(3).select(F.col("id").cast("int").alias("rep"))
        .select("rep", F.xxhash64("rep", F.lit(seed)).alias("path")).collect()
    )
    assert [root_path(r["rep"], seed) for r in rows] == [r["path"] for r in rows]
