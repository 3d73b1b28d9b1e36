"""CPSJoin's precision and recall over many embedding seeds.

The local kernel walks the driver's Chosen-Path tree, and where a node
runs changes no output (``TestPlacementInvariance``), so the kernel run
in-process at every repetition's root path *is* ``cpsjoin``'s output at
that seed.  This runs it at ``cpsjoin``'s default parameters over 20
embedding seeds.  The seed varies the embedding, not only the join: on
AOL the missed pairs are the 1-bit sketch's false negatives, which a
fixed embedding fixes, so varying only the join seed samples nothing.
At scale 0.2 only AOL (1470 sets) is larger than ``limit``; NETFLIX and
TOKENS10K fit one BRUTEFORCEPAIRS call.  About 30 s in one thread.
"""
import inspect

import numpy as np
import pytest

from repro import datasets
from repro.core.cpsjoin import cpsjoin
from repro.core.cpsjoin_local import cpsjoin_local_rep, root_path
from repro.core.minhash import MinHasher

from ._helpers import oracle_pairs

LAM = 0.5
SEEDS = range(20)
PARAMS = {
    name: p.default for name, p in inspect.signature(cpsjoin).parameters.items()
    if name in ("t", "ell", "limit", "eps", "delta", "reps")
}


def kernel_join(tokens, seed: int) -> set[tuple[int, int]]:
    """``cpsjoin``'s pair set at ``seed`` (embedding and tree), via the kernel."""
    p = PARAMS
    mh, sketch = MinHasher(t=p["t"], ell=p["ell"], seed=seed).embed_many(tokens)
    found = set()
    for rep in range(p["reps"]):
        pairs, _ = cpsjoin_local_rep(
            mh, sketch, tokens, LAM, limit=p["limit"], eps=p["eps"], delta=p["delta"],
            seed=seed, start=(root_path(rep, seed), 0),
        )
        found |= set(map(tuple, pairs.tolist()))
    return found


@pytest.mark.parametrize("name", ["AOL", "NETFLIX", "TOKENS10K"])
def test_precision_and_pooled_recall_over_seeds(name):
    sets = datasets.generate(name, seed=0, scale=0.2)
    # The join reads each set sorted and deduplicated, as ``preprocess`` does.
    tokens = [np.unique(np.asarray(x, dtype=np.int64)) for x in sets]
    truth = oracle_pairs(sets, LAM)
    assert truth, "the clone must have similar pairs"
    found = 0
    for seed in SEEDS:
        got = kernel_join(tokens, seed)
        assert got <= truth, f"seed {seed}: a reported pair is below lambda"
        found += len(got)
    assert found / (len(truth) * len(SEEDS)) >= 0.9
