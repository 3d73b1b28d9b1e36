"""In-memory CPSJoin recursion — Algorithms 1 & 2 of the paper.

This numpy kernel runs one repetition of the Chosen-Path recursion on a
bucket of records.  The distributed driver (``core/cpsjoin.py``) calls
it through its bucket runner once a bucket fits in one task; standalone
it *is* the paper's single-machine algorithm, which the unit tests
exercise directly.

Recursion per node (set of records ``S``):

1. BRUTEFORCE (Alg. 2):
   - ``|S| <= limit``: compare all pairs (sketch filter then exact
     Jaccard), stop.
   - else remove every ``x`` whose average embedded similarity to ``S``
     exceeds ``(1 - eps) * lam`` and compare it against all of ``S``
     (BRUTEFORCEPOINT).  Done in one pass per node, as in §V-A4.
2. Split (Alg. 1, with the §V-A3 heuristic): sample each MinHash
   coordinate ``i`` with probability ``1/(lam * t)``; for each sampled
   coordinate partition the survivors by their value ``mh[:, i]`` and
   recurse on every part of size >= 2.

Counters follow §VI-A4: *pre-candidates* are all pairs considered by the
brute-force subroutines, *candidates* are those passing the size check
and the 1-bit sketch check (before dedup), *results* are exact-verified
pairs (possibly with duplicates; the caller dedups).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sketches import sketch_pass
from .verify import jaccard, size_filter

__all__ = ["JoinStats", "cpsjoin_local_rep", "brute_force_pairs_arrays"]


@dataclass
class JoinStats:
    """Candidate-pipeline counters (Table IV semantics)."""

    pre_candidates: int = 0
    candidates: int = 0
    results: int = 0

    def merge(self, other: "JoinStats") -> "JoinStats":
        self.pre_candidates += other.pre_candidates
        self.candidates += other.candidates
        self.results += other.results
        return self

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.pre_candidates, self.candidates, self.results)


# Tree depth at which a node brute-forces its records whatever their number.
_MAX_DEPTH = 96


class _Ctx:
    """Shared read-only record data + output accumulators for one rep."""

    __slots__ = ("mh", "sketches", "tokens", "sizes", "lam", "eps", "delta",
                 "limit", "rng", "pairs", "stats", "t")

    def __init__(self, mh, sketches, tokens, lam, eps, delta, limit, rng):
        self.mh = mh
        self.sketches = sketches
        self.tokens = [np.asarray(x, dtype=np.int64) for x in tokens]
        self.sizes = np.array([len(x) for x in self.tokens], dtype=np.int64)
        self.lam = lam
        self.eps = eps
        self.delta = delta
        self.limit = limit
        self.rng = rng
        self.pairs: list[np.ndarray] = []  # (m, 2) blocks of a < b pairs
        self.stats = JoinStats()
        self.t = mh.shape[1]


def _check_pairs(tokens, sizes, sketches, ia, ib, lam: float, delta: float):
    """Size check -> 1-bit sketch check -> exact Jaccard on pairs ``(ia, ib)``.

    The one candidate check of every sketch-based join.  ``tokens``,
    ``sizes`` and ``sketches`` are per-record; ``ia`` and ``ib`` index
    into them.  Returns boolean masks over the pairs: ``cand`` (passed the
    size and sketch checks) and ``hit`` (also ``J >= lam``; implies
    ``cand``).  The caller counts them.
    """
    cand = size_filter(sizes[ia], sizes[ib], lam)
    keep = np.flatnonzero(cand)
    if len(keep):
        cand[keep] = sketch_pass(sketches[ia[keep]], sketches[ib[keep]], lam, delta)
    hit = np.zeros(len(cand), dtype=bool)
    for k in np.flatnonzero(cand).tolist():
        hit[k] = jaccard(tokens[ia[k]], tokens[ib[k]]) >= lam
    return cand, hit


def _check(ctx: _Ctx, ia: np.ndarray, ib: np.ndarray) -> None:
    """Count pairs ``(ia, ib)`` through the candidate check; keep the hits."""
    cand, hit = _check_pairs(ctx.tokens, ctx.sizes, ctx.sketches, ia, ib,
                             ctx.lam, ctx.delta)
    ctx.stats.merge(JoinStats(len(ia), int(cand.sum()), int(hit.sum())))
    if hit.any():
        a, b = ia[hit], ib[hit]
        ctx.pairs.append(np.column_stack([np.minimum(a, b), np.maximum(a, b)]))


def _brute_force_pairs(ctx: _Ctx, idx: np.ndarray) -> None:
    ia, ib = np.triu_indices(len(idx), k=1)
    _check(ctx, idx[ia], idx[ib])


def _node(ctx: _Ctx, idx: np.ndarray, depth: int) -> None:
    """One Chosen-Path tree node on record indices ``idx``."""
    g = len(idx)
    if g < 2:
        return
    if g <= ctx.limit or depth >= _MAX_DEPTH:
        _brute_force_pairs(ctx, idx)
        return
    # Average embedded (Braun-Blanquet) similarity of each x to S\{x}:
    # sum_i (count[i, mh_x[i]] - 1) / (t * (|S| - 1)).
    sim_sum = np.zeros(g, dtype=np.int64)
    sub = ctx.mh[idx]  # (g, t)
    for i in range(ctx.t):
        _, inv, cnt = np.unique(sub[:, i], return_inverse=True, return_counts=True)
        sim_sum += cnt[inv] - 1
    avg = sim_sum / (ctx.t * (g - 1))
    removed = avg > (1.0 - ctx.eps) * ctx.lam
    if removed.any():
        rem_idx = idx[removed]
        # BRUTEFORCEPOINT: each removed x against the full current S
        # (one pass; pairs of two removed records are considered twice,
        # matching the duplicate-counting of the paper's implementation,
        # but reported once via the a<b canonical ordering + caller dedup).
        for x in rem_idx.tolist():
            others = idx[idx != x]
            _check(ctx, np.full(len(others), x, dtype=np.int64), others)
        idx = idx[~removed]
        sub = sub[~removed]
        if len(idx) < 2:
            return
    # Splitting step: each coordinate kept with probability 1/(lam*t).
    sel = np.flatnonzero(ctx.rng.random(ctx.t) < 1.0 / (ctx.lam * ctx.t))
    for i in sel.tolist():
        col = sub[:, i]
        order = np.argsort(col, kind="stable")
        col_sorted = col[order]
        cuts = np.flatnonzero(np.diff(col_sorted)) + 1
        for part in np.split(order, cuts):
            if len(part) >= 2:
                _node(ctx, idx[part], depth + 1)


def cpsjoin_local_rep(
    mh: np.ndarray,
    sketches: np.ndarray,
    tokens,
    lam: float,
    *,
    limit: int = 250,
    eps: float = 0.1,
    delta: float = 0.05,
    seed: int = 0,
) -> tuple[np.ndarray, JoinStats]:
    """One repetition of CPSJoin on an in-memory bucket.

    ``mh``: int64 ``(g, t)`` embedding, ``sketches``: uint64 ``(g, ell)``,
    ``tokens``: sequence of sorted unique token arrays.  Returns
    ``(pairs, stats)`` where ``pairs`` is an int64 ``(m, 2)`` array of
    *deduplicated* verified local index pairs (a < b) and ``stats``
    counts raw pipeline traffic (pre-dedup, Table IV semantics).
    """
    ctx = _Ctx(mh, sketches, tokens, lam, eps, delta, limit,
               np.random.default_rng(seed))
    _node(ctx, np.arange(len(tokens), dtype=np.int64), 0)
    if ctx.pairs:
        pairs = np.unique(np.concatenate(ctx.pairs), axis=0)
    else:
        pairs = np.empty((0, 2), dtype=np.int64)
    return pairs, ctx.stats


def brute_force_pairs_arrays(
    sketches: np.ndarray,
    tokens,
    lam: float,
    *,
    delta: float = 0.05,
) -> tuple[np.ndarray, JoinStats]:
    """All-pairs comparison of one bucket (MinHash LSH's in-bucket step).

    CPSJoin's BRUTEFORCEPAIRS: every pair through ``_check_pairs``.
    Returns the verified index pairs (a < b, sorted) and their counters.
    """
    tokens = [np.asarray(x, dtype=np.int64) for x in tokens]
    sizes = np.array([len(x) for x in tokens], dtype=np.int64)
    ia, ib = np.triu_indices(len(tokens), k=1)
    cand, hit = _check_pairs(tokens, sizes, sketches, ia, ib, lam, delta)
    pairs = np.column_stack([ia[hit], ib[hit]]).astype(np.int64)
    return pairs, JoinStats(len(ia), int(cand.sum()), int(hit.sum()))
