"""The benchmark's workloads: inputs made from a seed, and the join they run.

Every workload is a closed loop with one client: the next join call is
issued only after the previous one returned.  The program receives only
the generated collection (a list of sorted unique token arrays).  Why
each workload was chosen is in ``BENCHMARK.json`` and ``README.md``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro import datasets, setsynth

__all__ = ["Workload", "WORKLOADS"]

#: The paper's CPSJoin parameters; ``t`` and ``ell`` also set ``embed_s``'s
#: embedding on every workload.
CP_PARAMS = dict(t=128, ell=8, limit=250, eps=0.1, delta=0.05, reps=10)

#: A generator's output: the collection, and the sids of its planted
#: near-duplicate cluster (empty when it has none).
Input = tuple[list[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class Workload:
    name: str
    algo: str  # "cp" (core.cpsjoin.cpsjoin) | "allpairs" (baselines.allpairs)
    lam: float
    make: Callable[[int], Input]
    params: dict = field(default_factory=dict)  # cpsjoin keywords


def _aol(seed: int) -> Input:
    return datasets.generate("AOL", seed=seed, scale=0.1), np.empty(0, np.int64)


#: Skew workload shape, all sets of ``SKEW_SIZE`` tokens except the
#: background:
#:
#: - one cluster of ``SKEW_MEMBERS`` ``plant_pair`` partners of a base set
#:   at Jaccard U(0.75, 0.95) to the base.  It is ~75% of the input, so its
#:   members' average similarity to the root bucket (~0.54) passes the
#:   BRUTEFORCE cut ``(1 - eps) * lam = 0.45``: BRUTEFORCEPOINT pairs them
#:   with the whole bucket and they leave the recursion;
#: - ``SKEW_GROUPS`` groups of ``SKEW_GROUP`` sets built the same way (a
#:   base and its partners), ~150 exact pairs at J 0.5-0.95 that only the
#:   path split can bring together, so their recall is the recursion's;
#: - ``SKEW_BACKGROUND`` sets drawn like the AOL clone.
SKEW_SIZE = 24
SKEW_MEMBERS = 220
SKEW_GROUPS = 7
SKEW_GROUP = 7
SKEW_BACKGROUND = 20


def _near_duplicates(rng, d: int, n: int) -> tuple[np.ndarray, list[np.ndarray]]:
    base = np.sort(rng.choice(d, size=SKEW_SIZE, replace=False)).astype(np.int64)
    return base, [base] + [
        setsynth.plant_pair(rng, base, d, float(rng.uniform(0.75, 0.95)))
        for _ in range(n - 1)
    ]


def _skew(seed: int) -> Input:
    aol = datasets.DATASETS["AOL"]
    d = aol.d
    sets = setsynth.zipf_collection(
        SKEW_BACKGROUND, aol.avg_size, d, alpha=aol.alpha, seed=seed,
        planted_per_level=1,
    )
    rng = np.random.default_rng([seed, 1])
    for _ in range(SKEW_GROUPS):
        sets += _near_duplicates(rng, d, SKEW_GROUP)[1]
    base, cluster = _near_duplicates(rng, d, SKEW_MEMBERS + 1)
    sets = setsynth.dedup_collection(sets + cluster)
    # Partners keep the base's size and share >= 21 of its tokens; no
    # other set shares half of them.
    sids = [i for i, x in enumerate(sets)
            if len(x) == SKEW_SIZE and 2 * np.intersect1d(x, base).size >= SKEW_SIZE]
    return sets, np.asarray(sids, dtype=np.int64)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in [
        # The root bucket (~295 sets) exceeds local_threshold, so one
        # distributed level runs: BRUTEFORCEPOINT takes the cluster out and
        # the rest splits into buckets of at most limit sets, which the
        # local kernel brute-forces without recursing further.
        Workload("cp-skew", "cp", 0.5, _skew, dict(CP_PARAMS, local_threshold=250)),
        Workload("exact-aol", "allpairs", 0.5, _aol),
    ]
}
