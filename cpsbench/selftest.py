"""Self-test of the benchmark's own checks; no Spark needed.

    python3 cpsbench/selftest.py

- the DuckDB exact join agrees with the independent brute-force join;
- the gate flags a tampered pair set: one exact pair dropped, one
  foreign pair added, one pair duplicated, a malformed pair, the
  background pairs lost while overall recall stays above the gate;
- the pair-set hash changes with the pair set;
- every workload's generator is deterministic in its seed and changes
  with it; the skew input's cluster is found and leaves background pairs.

Exits 1 and names the failed checks when any check fails.
"""
from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import gate  # noqa: E402
from workloads import SKEW_MEMBERS, WORKLOADS  # noqa: E402

from repro import datasets  # noqa: E402
from repro.exact import brute_force_join  # noqa: E402


def main() -> int:
    failures: list[str] = []

    def check(cond: bool, what: str) -> None:
        print(f"{'ok  ' if cond else 'FAIL'} {what}")
        if not cond:
            failures.append(what)

    lam = 0.5
    sets = datasets.generate("AOL", seed=0, scale=0.02)
    exact = gate.exact_keys(sets, lam)
    brute = sorted(brute_force_join(sets, lam))
    check(len(exact) >= 20, f"tiny input has exact pairs ({len(exact)})")
    check(np.array_equal(exact, gate.pair_keys([a for a, _ in brute], [b for _, b in brute])),
          "DuckDB exact join equals the brute-force join")

    exact_set = set(exact.tolist())
    n = len(sets)
    foreign = next((a << 32) | b for a in range(n) for b in range(a + 1, n)
                   if (a << 32) | b not in exact_set)
    dropped = exact[1:]
    added = np.sort(np.append(exact, foreign))
    duplicated = np.sort(np.append(exact, exact[0]))
    most = exact[: int(0.85 * len(exact))]
    for approximate in (False, True):
        kind = "approximate" if approximate else "exact"
        check(gate.check(exact, exact, approximate=approximate)["ok"],
              f"{kind} gate passes the exact pair set")
        check(not gate.check(added, exact, approximate=approximate)["ok"],
              f"{kind} gate flags one foreign pair")
        check(not gate.check(duplicated, exact, approximate=approximate)["ok"],
              f"{kind} gate flags a duplicated pair")
    check(not gate.check(dropped, exact, approximate=False)["ok"],
          "exact gate flags one dropped pair")
    check(gate.check(dropped, exact, approximate=True)["ok"],
          "approximate gate accepts one dropped pair (recall >= 0.9)")
    check(not gate.check(most, exact, approximate=True)["ok"],
          "approximate gate flags recall 0.85")
    bg = exact[-3:]  # stand-in background: the last three exact pairs
    check(gate.check(exact, exact, approximate=True, bg=bg)["ok"],
          "approximate gate passes full background recall")
    check(not gate.check(exact[:-1], exact, approximate=True, bg=bg)["ok"],
          "approximate gate flags background recall 2/3 at overall recall >= 0.9")
    try:
        gate.pair_keys([3], [3])
        check(False, "pair_keys rejects a pair with sid_a >= sid_b")
    except ValueError:
        check(True, "pair_keys rejects a pair with sid_a >= sid_b")
    check(gate.pair_sha256(exact) == gate.pair_sha256(exact.copy())
          and gate.pair_sha256(exact) != gate.pair_sha256(dropped),
          "pair-set hash is stable and changes with the pair set")

    for name, wl in WORKLOADS.items():
        (a, ca), (b, cb), (c, _) = wl.make(7), wl.make(7), wl.make(8)
        same = len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))
        differ = len(a) != len(c) or any(not np.array_equal(x, y) for x, y in zip(a, c))
        check(same and np.array_equal(ca, cb), f"{name}: same seed, same input")
        check(differ, f"{name}: another seed, another input")

    sets, cluster = WORKLOADS["cp-skew"].make(7)
    exact = gate.exact_keys(sets, lam)
    bg = gate.background(exact, cluster)
    check(len(cluster) == SKEW_MEMBERS + 1,
          f"cp-skew: cluster of {SKEW_MEMBERS + 1} sets found ({len(cluster)})")
    check(len(bg) >= 100, f"cp-skew: >= 100 background pairs ({len(bg)})")

    if failures:
        print(f"{len(failures)} self-test check(s) failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
