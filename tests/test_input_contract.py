"""Every join reads its input tokens as sets.

A collection whose token arrays come unsorted and with duplicates must
join exactly as its cleaned copy: the same pair set and the same
counters, for CPSJoin, MinHash LSH and ALLPAIRS.  A duplicate token
would otherwise inflate a set's size, and the exact Jaccard (which
intersects assuming unique tokens) and ALLPAIRS' ``array_intersect``
would drift from set semantics.
"""
import numpy as np
import pytest
from pyspark.errors import PythonException

from repro import datasets
from repro.baselines.allpairs import allpairs
from repro.baselines.minhash_lsh import minhash_lsh_join
from repro.core.cpsjoin import cpsjoin
from repro.exact import exact_join_sql
from repro.oracle import assert_equivalent
from repro.setsynth import collection_to_pandas, collection_to_spark

from repro.core.preprocess import preprocess

from ._helpers import arrow_batch_rows, pair_set

LAM = 0.5


def dirty_copy(sets, seed: int = 0):
    """Each set shuffled; every other set also repeats a third of its tokens."""
    rng = np.random.default_rng(seed)
    out = []
    for i, x in enumerate(sets):
        x = np.asarray(x)
        if i % 2 == 0:
            x = np.concatenate([x, rng.choice(x, size=max(1, len(x) // 3))])
        out.append(rng.permutation(x))
    return out


@pytest.fixture(scope="module")
def collections(spark):
    clean = datasets.generate("DBLP", seed=0, scale=0.15)
    dirty = dirty_copy(clean)
    assert any(len(d) > len(c) for c, d in zip(clean, dirty))
    assert any(not np.array_equal(np.sort(d), d) for d in dirty)
    dfs = [collection_to_spark(spark, s).cache() for s in (clean, dirty)]
    for df in dfs:
        df.count()
    yield clean, dfs
    for df in dfs:
        df.unpersist()


def _outputs(join, dfs):
    out = []
    for df in dfs:
        res = join(df)
        out.append((pair_set(res), res.stats.as_tuple(), res.n_results))
        res.pairs.unpersist()
    return out


@pytest.mark.parametrize("local_threshold", [4000, 40])
def test_cpsjoin(spark, collections, local_threshold):
    """At the default ``limit`` and at ``limit = local_threshold = 40``,
    where the join runs its root distributed."""
    _, dfs = collections
    limit = min(250, local_threshold)
    clean, dirty = _outputs(
        lambda df: cpsjoin(spark, df, LAM, t=64, ell=8, reps=3, seed=1,
                           limit=limit, local_threshold=local_threshold),
        dfs,
    )
    assert clean[0], "the join must find pairs for the comparison to bite"
    assert dirty == clean


def test_minhash_lsh(spark, collections):
    _, dfs = collections
    clean, dirty = _outputs(
        lambda df: minhash_lsh_join(spark, df, LAM, k=3, reps=6, ell=8, seed=2),
        dfs,
    )
    assert clean[0]
    assert dirty == clean


def test_allpairs(spark, collections):
    sets, dfs = collections
    clean, dirty = _outputs(lambda df: allpairs(spark, df, LAM), dfs)
    assert clean[0]
    assert dirty == clean
    res = allpairs(spark, dfs[1], LAM)
    assert_equivalent(res.pairs, exact_join_sql(LAM), sets=collection_to_pandas(sets))
    res.pairs.unpersist()


def test_empty_set_is_named_by_sid(spark):
    """An empty set fails the embedding with its ``sid``, not its position
    in an Arrow batch."""
    sets = datasets.generate("DBLP", seed=0, scale=0.15)[:20]
    sets[10] = np.array([], dtype=np.int64)
    df = collection_to_spark(spark, sets)
    with arrow_batch_rows(spark, 7):
        with pytest.raises(PythonException, match=r"empty set at sid 10\b"):
            preprocess(df, t=16, ell=2, seed=0).collect()
