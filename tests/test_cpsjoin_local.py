"""Unit tests for the in-memory CPSJoin recursion (Algorithms 1 & 2)."""
import numpy as np
import pytest

from repro import datasets
from repro.core.cpsjoin_local import (
    _MAX_DEPTH,
    JoinStats,
    _check_pairs,
    _run_rep,
    _split,
    brute_force_pairs_arrays,
    cpsjoin_local_rep,
    root_path,
)
from repro.core.minhash import MinHasher
from repro.exact import brute_force_join

from ._helpers import oracle_pairs, root_cluster_sets

SMALL = ["DBLP", "UNIFORM005", "NETFLIX", "KOSARAK", "ENRON", "TOKENS10K"]


def _embed(sets, t=64, ell=8, seed=1):
    mh, sk = MinHasher(t=t, ell=ell, seed=seed).embed_many(sets)
    return mh, sk


def _run_reps(sets, lam, reps=10, seed=0, **kw):
    """Repetitions ``0..reps-1`` of the join with ``seed``, each from its root."""
    mh, sk = _embed(sets)
    found: set[tuple[int, int]] = set()
    stats = JoinStats()
    for rep in range(reps):
        pairs, st = cpsjoin_local_rep(mh, sk, sets, lam, seed=seed,
                                      start=(root_path(rep, seed), 0), **kw)
        found |= {tuple(p) for p in pairs.tolist()}
        stats.merge(st)
    return found, stats


class TestExactSmallCase:
    def test_bruteforce_path_is_exact(self):
        """limit >= n and sketching disabled: output == exact join."""
        sets = datasets.generate("DBLP", seed=0, scale=0.2)
        truth = brute_force_join(sets, 0.5)
        mh, sk = _embed(sets)
        pairs, st = cpsjoin_local_rep(
            mh, sk, sets, 0.5, limit=len(sets) + 1, delta=1.0, seed=0
        )
        assert {tuple(p) for p in pairs.tolist()} == truth
        assert st.pre_candidates == len(sets) * (len(sets) - 1) // 2

    @pytest.mark.parametrize("lam", [0.5, 0.7, 0.9])
    def test_bruteforce_path_all_thresholds(self, lam):
        sets = datasets.generate("UNIFORM005", seed=1, scale=0.2)
        truth = brute_force_join(sets, lam)
        mh, sk = _embed(sets)
        pairs, _ = cpsjoin_local_rep(
            mh, sk, sets, lam, limit=len(sets) + 1, delta=1.0, seed=0
        )
        assert {tuple(p) for p in pairs.tolist()} == truth


class TestExactThreshold:
    """J = 55/100 equals lam = 0.55 in double arithmetic, but ``0.55 * 100``
    rounds to 55.00000000000001: a size check built on that product drops
    the pair.  The sketch filter is off (``delta = 1``) so only the size
    check and the exact verification decide."""

    SETS = [np.arange(100), np.arange(45, 100)]

    def test_shared_check_keeps_pair_at_exactly_lambda(self):
        sets = self.SETS + [np.arange(10)]  # (0, 2): |small| / |big| = 0.1
        _, sk = _embed(sets)
        cand, hit = _check_pairs(
            sets, np.array([100, 55, 10]), sk, np.array([0, 0]), np.array([1, 2]),
            0.55, 1.0,
        )
        assert cand.tolist() == hit.tolist() == [True, False]

    def test_kernel_matches_oracle(self):
        mh, sk = _embed(self.SETS)
        pairs, st = cpsjoin_local_rep(mh, sk, self.SETS, 0.55, delta=1.0, seed=0)
        assert {tuple(p) for p in pairs.tolist()} == oracle_pairs(self.SETS, 0.55)
        assert st.as_tuple() == (1, 1, 1)


class TestPrecision:
    @pytest.mark.parametrize("name", SMALL)
    @pytest.mark.parametrize("lam", [0.5, 0.7])
    def test_every_reported_pair_is_correct(self, name, lam):
        sets = datasets.generate(name, seed=0, scale=0.15)
        truth = brute_force_join(sets, lam)
        found, _ = _run_reps(sets, lam, reps=3)
        assert found <= truth  # 100% precision by construction


class TestRecall:
    @pytest.mark.parametrize("name", ["DBLP", "NETFLIX", "UNIFORM005", "TOKENS10K"])
    def test_ten_reps_reach_90_percent(self, name):
        sets = datasets.generate(name, seed=0, scale=0.25)
        truth = brute_force_join(sets, 0.5)
        assert truth, "clone generator must produce similar pairs"
        found, _ = _run_reps(sets, 0.5, reps=10)
        assert len(found & truth) / len(truth) >= 0.9

    def test_more_reps_never_lose_pairs(self):
        sets = datasets.generate("DBLP", seed=0, scale=0.2)
        f3, _ = _run_reps(sets, 0.5, reps=3)
        f10, _ = _run_reps(sets, 0.5, reps=10)
        assert f3 <= f10  # rep r is seeded identically in both runs


class TestDeterminism:
    def test_same_seed_same_output(self):
        sets = datasets.generate("KOSARAK", seed=0, scale=0.2)
        mh, sk = _embed(sets)
        p1, s1 = cpsjoin_local_rep(mh, sk, sets, 0.5, seed=123)
        p2, s2 = cpsjoin_local_rep(mh, sk, sets, 0.5, seed=123)
        np.testing.assert_array_equal(p1, p2)
        assert s1.as_tuple() == s2.as_tuple()

    def test_bare_seed_starts_at_repetition_zeros_root(self):
        sets = datasets.generate("DBLP", seed=0, scale=0.2)
        mh, sk = _embed(sets)
        kw = dict(limit=20, seed=3)
        p0, s0 = cpsjoin_local_rep(mh, sk, sets, 0.5, **kw)
        p1, s1 = cpsjoin_local_rep(mh, sk, sets, 0.5, start=(root_path(0, 3), 0), **kw)
        _, s2 = cpsjoin_local_rep(mh, sk, sets, 0.5, start=(root_path(1, 3), 0), **kw)
        np.testing.assert_array_equal(p0, p1)
        assert s0.as_tuple() == s1.as_tuple()
        assert s2.as_tuple() != s0.as_tuple()  # another repetition, another tree

    def test_depth_bound_counts_from_the_start_depth(self):
        """A node ``_MAX_DEPTH`` levels below the root brute-forces its
        records, however many: the bound is on the tree, not on the call."""
        sets = datasets.generate("DBLP", seed=0, scale=0.2)
        mh, sk = _embed(sets)
        n = len(sets)
        _, st = cpsjoin_local_rep(mh, sk, sets, 0.5, limit=20, seed=3,
                                  start=(root_path(0, 3), _MAX_DEPTH))
        assert st.pre_candidates == n * (n - 1) // 2


class TestSplitEntry:
    """The distributed driver runs the root's BRUTEFORCE step once for all
    repetitions and enters the kernel at ``_split`` on the survivors; the
    two parts must add up to the kernel run from the root."""

    @pytest.mark.parametrize("make,limit", [
        (root_cluster_sets, 50),
        (lambda: datasets.generate("DBLP", seed=0, scale=0.2), 20),
    ], ids=["root_cluster", "dblp"])
    def test_root_bruteforce_plus_split_equals_root(self, make, limit):
        lam, eps, delta, seed = 0.5, 0.1, 0.05, 1
        sets = [np.asarray(x, dtype=np.int64) for x in make()]
        mh, sk = _embed(sets)
        n, t = mh.shape
        assert n > limit
        sizes = np.array([len(x) for x in sets])

        # The root's hot records: average embedded similarity to the rest.
        simsum = (mh[:, None, :] == mh[None, :, :]).sum(axis=(1, 2)) - t
        hot = simsum / (t * (n - 1)) > (1.0 - eps) * lam
        # BRUTEFORCEPOINT: each hot record against the root, the same in
        # every repetition.
        point, point_stats = set(), JoinStats()
        for x in np.flatnonzero(hot).tolist():
            others = np.delete(np.arange(n), x)
            cand, hit = _check_pairs(sets, sizes, sk, np.full(n - 1, x), others,
                                     lam, delta)
            point |= {(min(x, y), max(x, y)) for y in others[hit].tolist()}
            point_stats.merge(JoinStats(n - 1, int(cand.sum()), int(hit.sum())))
        if make is root_cluster_sets:
            assert hot.sum() > 1 and point, "BRUTEFORCEPOINT must run at the root"

        surv = np.flatnonzero(~hot)
        kw = dict(limit=limit, eps=eps, delta=delta, seed=seed)
        for rep in range(10):
            start = (root_path(rep, seed), 0)
            want, want_stats = cpsjoin_local_rep(mh, sk, sets, lam, start=start, **kw)
            pairs, st = _run_rep(_split, mh[surv], sk[surv], [sets[i] for i in surv],
                                 lam, start=start, **kw)
            got = point | {(int(surv[a]), int(surv[b])) for a, b in pairs.tolist()}
            assert got == {tuple(p) for p in want.tolist()}, rep
            assert JoinStats(*point_stats.as_tuple()).merge(st).as_tuple() == \
                want_stats.as_tuple(), rep


class TestEdgeCases:
    def test_empty_input(self):
        pairs, st = cpsjoin_local_rep(
            np.empty((0, 4), dtype=np.int64),
            np.empty((0, 1), dtype=np.uint64),
            [], 0.5, seed=0,
        )
        assert pairs.shape == (0, 2) and st.as_tuple() == (0, 0, 0)

    def test_single_record(self):
        sets = [np.array([1, 2, 3])]
        mh, sk = _embed(sets)
        pairs, st = cpsjoin_local_rep(mh, sk, sets, 0.5, seed=0)
        assert len(pairs) == 0 and st.pre_candidates == 0

    def test_two_identical_minus_one(self):
        sets = [np.array([1, 2, 3, 4]), np.array([1, 2, 3, 5])]
        mh, sk = _embed(sets)
        pairs, _ = cpsjoin_local_rep(mh, sk, sets, 0.5, delta=1.0, seed=0)
        assert {tuple(p) for p in pairs.tolist()} == {(0, 1)}

    def test_near_duplicate_heavy_group_terminates(self):
        """A group of near-identical sets must terminate via the
        BRUTEFORCEPOINT rule (avg similarity ~1), not recurse forever."""
        base = np.arange(100)
        sets = [np.sort(np.concatenate([base[:95], [200 + i, 300 + i]]))
                for i in range(60)]
        mh, sk = _embed(sets)
        pairs, st = cpsjoin_local_rep(
            mh, sk, sets, 0.5, limit=10, eps=0.1, delta=1.0, seed=0
        )
        truth = brute_force_join(sets, 0.5)
        assert {tuple(p) for p in pairs.tolist()} == truth


class TestStats:
    def test_pipeline_monotonicity(self):
        sets = datasets.generate("DBLP", seed=0, scale=0.25)
        _, st = _run_reps(sets, 0.5, reps=5)
        assert st.pre_candidates >= st.candidates >= st.results > 0

    def test_results_counter_counts_duplicates(self):
        """Raw results counter >= number of distinct verified pairs."""
        sets = datasets.generate("DBLP", seed=0, scale=0.25)
        found, st = _run_reps(sets, 0.5, reps=10)
        assert st.results >= len(found)

    def test_merge(self):
        a = JoinStats(10, 5, 2)
        a.merge(JoinStats(1, 1, 1))
        assert a.as_tuple() == (11, 6, 3)


class TestEpsilonBehavior:
    def test_large_eps_brute_forces_more(self):
        """eps -> 1 makes every point exceed the removal threshold, so
        the whole node is handled by BRUTEFORCEPOINT: full recall."""
        sets = datasets.generate("UNIFORM005", seed=2, scale=0.2)
        truth = brute_force_join(sets, 0.5)
        mh, sk = _embed(sets)
        pairs, _ = cpsjoin_local_rep(
            mh, sk, sets, 0.5, limit=2, eps=0.999, delta=1.0, seed=0
        )
        assert {tuple(p) for p in pairs.tolist()} >= truth


class TestBruteForcePairsArrays:
    def test_matches_truth_with_sketch_disabled(self):
        sets = datasets.generate("KOSARAK", seed=3, scale=0.2)
        truth = brute_force_join(sets, 0.6)
        _, sk = _embed(sets)
        pairs, st = brute_force_pairs_arrays(sk, sets, 0.6, delta=1.0)
        assert {tuple(p) for p in pairs.tolist()} == truth
        n = len(sets)
        assert st.pre_candidates == n * (n - 1) // 2

    def test_sketch_check_keeps_high_recall(self):
        sets = datasets.generate("DBLP", seed=0, scale=0.2)
        truth = brute_force_join(sets, 0.5)
        assert truth
        _, sk = _embed(sets)
        pairs, _ = brute_force_pairs_arrays(sk, sets, 0.5, delta=0.05)
        got = {tuple(p) for p in pairs.tolist()}
        assert got <= truth
        assert len(got & truth) / len(truth) >= 0.9
