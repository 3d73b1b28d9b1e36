"""The benchmark's traced kernel floor must keep seeing the candidate check.

``cpsbench/tracing.py`` counts the sketch filter and the exact
verification by wrapping ``sketch_pass`` and ``jaccard`` in the
``repro.core.cpsjoin_local`` namespace.  If the candidate check stopped
looking them up there, its per-layer ``sketches.*`` and ``verify.*``
metrics would read zero without any error.
"""
import importlib.util
from pathlib import Path

from repro import datasets
from repro.core.minhash import MinHasher


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "cpsbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("cpsbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_kernel_floor_counts_every_candidate_check():
    tracing = _load_tracing()
    sets = datasets.generate("DBLP", seed=0, scale=0.15)
    mh, sk = MinHasher(t=64, ell=8, seed=1).embed_many(sets)
    out = tracing.kernel_floor(
        tracing.Tracer("test"), mh, sk, sets, 0.5,
        seed=1, reps=2, limit=50, eps=0.1, delta=0.05, wrap=True,
    )
    st = out["stats"]
    assert out["verify"].calls == st.candidates
    assert out["verify"].hits == st.results
    assert out["sketch"].calls > 0
    # Recorded once the kernel walked the driver's xxhash64 tree (each
    # repetition seed names repetition 0's root, ``xxhash64(0, seed)``).
    assert st.as_tuple() == (8603, 140, 69)
    assert out["sketch"].calls == 59
