"""Exact Jaccard verification and the size check of candidate pairs.

Every join shares one verification kernel, mirroring the paper (which
reuses Mann et al.'s ALLPAIRS verifier everywhere): a candidate pair is
a *result* iff the exact Jaccard similarity of the original token sets
is ``>= lam``.  The sketch-based joins (CPSJoin's kernel and its
distributed pair verification, MinHash LSH) reach it only through
``cpsjoin_local._check_pairs``; ALLPAIRS makes the same division in the
JVM.  ``jaccard`` assumes unique tokens: ``preprocess`` sorts and dedups
every input set before a sketch-based join reads it.
"""
from __future__ import annotations

import numpy as np

__all__ = ["jaccard", "size_filter"]


def jaccard(tokens_a: np.ndarray, tokens_b: np.ndarray) -> float:
    """Exact Jaccard similarity of two token arrays (treated as sets)."""
    inter = np.intersect1d(tokens_a, tokens_b, assume_unique=True).size
    union = len(tokens_a) + len(tokens_b) - inter
    return inter / union if union else 1.0


def size_filter(sizes_a: np.ndarray, sizes_b: np.ndarray, lam: float) -> np.ndarray:
    """Pairs that can possibly reach ``J >= lam``: ``|small| / |big| >= lam``.

    ``J <= |small| / |big|``, and the ratio is the same double division
    ``jaccard`` makes, so a pair with ``J`` exactly ``lam`` passes; the
    product ``lam * |big|`` can round above ``|small|``
    (``0.55 * 100 == 55.00000000000001``).
    """
    lo = np.minimum(sizes_a, sizes_b)
    hi = np.maximum(sizes_a, sizes_b)
    return lo / hi >= lam
