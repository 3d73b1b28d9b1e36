"""Exact set-similarity self-join references (test oracles).

Two independent ground-truth paths:

- ``brute_force_join``: O(n^2) exact Jaccard join in numpy — the truth
  for small inputs and the recall denominator for approximate methods.
- ``exact_join_sql``: a DuckDB SQL formulation over the ``(sid, tokens)``
  table, used with ``repro.oracle.assert_equivalent`` so every exact
  Spark join result (ALLPAIRS, small CPSJoin buckets forced exact, ...)
  is diffed against an engine that shares no code with the Spark path.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from .core.verify import jaccard, size_filter

__all__ = ["brute_force_join", "exact_join_sql", "recall", "precision"]


def brute_force_join(sets, lam: float) -> set[tuple[int, int]]:
    """All pairs ``(i, j), i < j`` with exact Jaccard >= ``lam``."""
    tokens = [np.asarray(x, dtype=np.int64) for x in sets]
    sizes = np.array([len(x) for x in tokens])
    out: set[tuple[int, int]] = set()
    n = len(tokens)
    for i in range(n):
        feasible = i + 1 + np.flatnonzero(size_filter(sizes[i], sizes[i + 1:], lam))
        for j in feasible.tolist():
            if jaccard(tokens[i], tokens[j]) >= lam:
                out.add((i, j))
    return out


def exact_join_sql(lam: float) -> str:
    """DuckDB SQL computing the exact self-join over table ``sets``.

    ``sets`` has columns ``sid`` and ``tokens`` (a list column).  Output
    columns are ``sid_a, sid_b`` with ``sid_a < sid_b`` — alias the
    Spark result identically before calling ``assert_equivalent``.
    """
    return f"""
    WITH tok AS (
        SELECT sid, unnest(tokens) AS token FROM sets
    ), sz AS (
        SELECT sid, len(tokens) AS size FROM sets
    ), inter AS (
        SELECT a.sid AS sa, b.sid AS sb, count(*) AS i
        FROM tok a JOIN tok b ON a.token = b.token AND a.sid < b.sid
        GROUP BY a.sid, b.sid
    )
    SELECT sa AS sid_a, sb AS sid_b
    FROM inter
    JOIN sz x ON sa = x.sid
    JOIN sz y ON sb = y.sid
    WHERE CAST(i AS DOUBLE) / (x.size + y.size - i) >= {lam!r}
    """


def _as_pairs(obj) -> set[tuple[int, int]]:
    if isinstance(obj, set):
        return obj
    if isinstance(obj, pd.DataFrame):
        return set(zip(obj["sid_a"].astype(int), obj["sid_b"].astype(int)))
    # Spark DataFrame with columns sid_a, sid_b
    return {(int(r["sid_a"]), int(r["sid_b"])) for r in obj.collect()}


def recall(result, truth) -> float:
    """|result ∩ truth| / |truth| (1.0 for an empty truth)."""
    t = _as_pairs(truth)
    if not t:
        return 1.0
    return len(_as_pairs(result) & t) / len(t)


def precision(result, truth) -> float:
    """|result ∩ truth| / |result| (1.0 for an empty result)."""
    r = _as_pairs(result)
    if not r:
        return 1.0
    return len(r & _as_pairs(truth)) / len(r)
