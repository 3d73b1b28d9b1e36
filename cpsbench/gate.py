"""Correctness gate: every join's pair set against the DuckDB exact join.

Pairs are handled as sorted int64 keys ``sid_a * 2**32 + sid_b``.  An
approximate join passes when it returns no pair outside the exact join
(100% precision) and at least ``RECALL_GATE`` of the exact pairs, both
over all of them and over the background pairs (those with no set in the
input's planted cluster, which only the recursion can find); an exact
join passes only when its pair set equals the exact one.
"""
from __future__ import annotations

import hashlib

import duckdb
import numpy as np

from repro.exact import exact_join_sql
from repro.setsynth import collection_to_pandas

__all__ = ["RECALL_GATE", "pair_keys", "pair_sha256", "exact_keys", "background",
           "check"]

RECALL_GATE = 0.9


def pair_keys(sid_a, sid_b) -> np.ndarray:
    """Sorted int64 keys of a pair list; raises on a malformed pair."""
    a = np.asarray(sid_a, dtype=np.int64)
    b = np.asarray(sid_b, dtype=np.int64)
    if np.any(a >= b) or np.any(a < 0) or np.any(b >= 1 << 32):
        raise ValueError("pairs must satisfy 0 <= sid_a < sid_b < 2**32")
    return np.sort((a << 32) | b)


def pair_sha256(keys: np.ndarray) -> str:
    """SHA-256 of the sorted pair keys, to show an unchanged output."""
    return hashlib.sha256(np.ascontiguousarray(keys, dtype="<i8").tobytes()).hexdigest()


def exact_keys(sets: list[np.ndarray], lam: float) -> np.ndarray:
    """The exact join of ``sets`` at ``lam``, computed by DuckDB."""
    con = duckdb.connect()
    try:
        con.register("sets", collection_to_pandas(sets))
        df = con.execute(exact_join_sql(lam)).fetchdf()
    finally:
        con.close()
    return pair_keys(df["sid_a"].to_numpy(), df["sid_b"].to_numpy())


def background(exact: np.ndarray, cluster: np.ndarray) -> np.ndarray:
    """The exact keys whose two sets both lie outside ``cluster`` (sids)."""
    inside = np.isin(exact >> 32, cluster) | np.isin(exact & 0xFFFFFFFF, cluster)
    return exact[~inside]


def _recall(found: np.ndarray, exact: np.ndarray) -> float:
    return np.intersect1d(found, exact).size / len(exact) if len(exact) else 1.0


def check(found: np.ndarray, exact: np.ndarray, *, approximate: bool,
          bg: np.ndarray | None = None) -> dict:
    """Gate one join's keys against ``exact`` and its background keys ``bg``
    (default: all of ``exact``).

    Returns ``ok``, ``recall``, ``recall_bg``, ``foreign`` and ``reason``.
    """
    dup = int(len(found) - len(np.unique(found)))
    foreign = int(np.setdiff1d(found, exact, assume_unique=False).size)
    hit = int(np.intersect1d(found, exact).size)
    recall = _recall(found, exact)
    recall_bg = recall if bg is None else _recall(found, bg)
    if dup:
        reason = f"{dup} duplicate pairs"
    elif foreign:
        reason = f"{foreign} pairs outside the exact join"
    elif approximate and recall < RECALL_GATE:
        reason = f"recall {recall:.4f} < {RECALL_GATE}"
    elif approximate and recall_bg < RECALL_GATE:
        reason = f"background recall {recall_bg:.4f} < {RECALL_GATE}"
    elif not approximate and hit != len(exact):
        reason = f"{len(exact) - hit} exact pairs missing"
    else:
        reason = ""
    return {"ok": not reason, "recall": recall, "recall_bg": recall_bg,
            "foreign": foreign, "reason": reason}
