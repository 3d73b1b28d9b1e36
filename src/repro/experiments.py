"""Experiment harnesses — one function per table of the paper.

Each ``tableN_rows`` function runs the corresponding experiment on the
dataset clones and returns a list of plain dicts (one per table cell
group), with the paper's published number attached so EXPERIMENTS.md and
the job scripts can print paper-vs-measured side by side.

Paper numbers are transcribed verbatim from the ICDE 2018 paper:
``PAPER_TABLE2`` (join seconds for CP / MH / ALL) and ``PAPER_TABLE4``
(pre-candidates / candidates / results for ALL and CP).
"""
from __future__ import annotations

import time
from typing import Iterable, Sequence

from pyspark.sql import SparkSession

from . import datasets
from .baselines.allpairs import allpairs
from .baselines.minhash_lsh import choose_k, minhash_lsh_join, reps_for_recall
from .core.cpsjoin import cpsjoin
from .core.preprocess import preprocess
from .exact import recall as recall_of

__all__ = [
    "PAPER_TABLE2",
    "PAPER_TABLE4",
    "table1_rows",
    "table2_rows",
    "table3_rows",
    "table4_rows",
    "format_rows",
]

ALL_DATASETS = tuple(datasets.DATASETS)
LAMBDAS = (0.5, 0.6, 0.7, 0.8, 0.9)

#: Table II of the paper: {(dataset, lam): (cp_s, mh_s, all_s)}.
_T2 = {
    "AOL": [(362.1, 1329.9, 483.5), (113.4, 444.2, 117.8), (42.2, 152.9, 13.7),
            (34.6, 100.6, 4.2), (21.0, 43.8, 1.6)],
    "BMS-POS": [(27.0, 40.0, 62.5), (7.1, 13.7, 20.9), (2.7, 5.6, 5.6),
                (2.0, 3.9, 1.3), (0.9, 1.4, 0.2)],
    "DBLP": [(9.2, 22.1, 127.9), (2.5, 10.1, 63.8), (1.1, 3.7, 27.4),
             (0.6, 1.8, 7.8), (0.3, 0.7, 0.8)],
    "ENRON": [(6.9, 16.4, 78.0), (4.4, 9.9, 23.2), (2.4, 6.3, 6.0),
              (1.6, 2.7, 1.6), (0.7, 1.7, 0.4)],
    "FLICKR": [(48.6, 68.0, 17.2), (30.9, 37.2, 6.0), (13.8, 21.3, 2.5),
               (6.3, 11.3, 1.0), (3.4, 5.2, 0.3)],
    "KOSARAK": [(377.9, 311.1, 73.1), (62.7, 89.2, 14.4), (7.2, 16.1, 1.6),
                (3.9, 9.9, 0.5), (1.2, 2.6, 0.1)],
    "LIVEJ": [(131.3, 279.4, 571.7), (48.7, 129.6, 145.3), (28.2, 52.9, 30.6),
              (16.2, 41.0, 7.1), (9.2, 12.6, 1.5)],
    "NETFLIX": [(25.3, 121.8, 1354.7), (8.2, 60.0, 520.4), (4.8, 22.6, 177.3),
                (2.4, 14.1, 46.2), (1.6, 5.8, 5.4)],
    "ORKUT": [(26.5, 115.7, 359.7), (15.4, 60.1, 106.4), (8.0, 25.1, 36.3),
              (7.4, 19.7, 12.2), (4.8, 13.3, 3.7)],
    "SPOTIFY": [(2.5, 9.3, 0.5), (1.5, 3.4, 0.3), (1.0, 2.6, 0.2),
                (1.0, 1.9, 0.1), (0.5, 0.6, 0.1)],
    "TOKENS10K": [(3.4, 4.8, 312.1), (2.9, 3.9, 236.8), (1.5, 1.7, 164.0),
                  (0.6, 1.2, 114.9), (0.2, 0.4, 63.2)],
    "TOKENS15K": [(4.4, 6.2, 688.4), (4.0, 7.1, 535.3), (1.8, 3.7, 390.4),
                  (0.7, 1.7, 258.2), (0.2, 0.7, 140.0)],
    "TOKENS20K": [(5.7, 12.0, 1264.1), (4.0, 11.4, 927.0), (2.1, 4.5, 698.4),
                  (0.8, 2.2, 494.3), (0.3, 0.8, 273.4)],
    "UNIFORM005": [(3.9, 6.6, 54.1), (1.6, 3.0, 27.6), (0.9, 1.4, 10.5),
                   (0.5, 1.0, 3.6), (0.1, 0.3, 0.4)],
}
PAPER_TABLE2 = {
    (name, lam): vals
    for name, row in _T2.items()
    for lam, vals in zip(LAMBDAS, row)
}

#: Table IV of the paper: {(dataset, lam): {"ALL"|"CP": (pre, cand, res)}}.
PAPER_TABLE4 = {
    ("AOL", 0.5): {"ALL": (8.5e9, 8.5e9, 1.3e8), "CP": (7.4e9, 1.4e9, 1.2e8)},
    ("AOL", 0.7): {"ALL": (6.2e8, 6.2e8, 1.6e6), "CP": (2.9e9, 3.1e7, 1.5e6)},
    ("BMS-POS", 0.5): {"ALL": (2.0e9, 1.8e9, 1.1e7), "CP": (9.2e8, 1.7e8, 1.0e7)},
    ("BMS-POS", 0.7): {"ALL": (2.7e8, 2.6e8, 2.0e5), "CP": (3.3e8, 4.9e6, 1.8e5)},
    ("DBLP", 0.5): {"ALL": (6.6e9, 1.9e9, 1.7e6), "CP": (4.6e8, 4.6e7, 1.6e6)},
    ("DBLP", 0.7): {"ALL": (1.2e9, 7.2e8, 9.1e3), "CP": (1.3e8, 4.3e5, 8.5e3)},
    ("ENRON", 0.5): {"ALL": (2.8e9, 1.8e9, 3.1e6), "CP": (3.7e8, 6.7e7, 2.9e6)},
    ("ENRON", 0.7): {"ALL": (2.0e8, 1.3e8, 1.2e6), "CP": (1.5e8, 2.1e7, 1.2e6)},
    ("FLICKR", 0.5): {"ALL": (5.7e8, 4.1e8, 6.6e7), "CP": (2.1e9, 1.1e9, 6.1e7)},
    ("FLICKR", 0.7): {"ALL": (9.3e7, 6.3e7, 2.5e7), "CP": (9.0e8, 3.8e8, 2.3e7)},
    ("KOSARAK", 0.5): {"ALL": (2.6e9, 2.5e9, 2.3e8), "CP": (4.7e9, 2.1e9, 2.1e8)},
    ("KOSARAK", 0.7): {"ALL": (7.4e7, 6.8e7, 4.4e5), "CP": (4.2e8, 2.1e7, 4.1e5)},
    ("LIVEJ", 0.5): {"ALL": (9.0e9, 8.3e9, 2.4e7), "CP": (2.8e9, 3.6e8, 2.2e7)},
    ("LIVEJ", 0.7): {"ALL": (5.8e8, 5.6e8, 8.1e5), "CP": (1.2e9, 1.8e7, 7.6e5)},
    ("NETFLIX", 0.5): {"ALL": (8.6e10, 1.3e10, 1.0e6), "CP": (1.3e9, 3.1e7, 9.5e5)},
    ("NETFLIX", 0.7): {"ALL": (1.0e10, 3.4e9, 2.4e4), "CP": (4.3e8, 6.4e5, 2.2e4)},
    ("ORKUT", 0.5): {"ALL": (5.1e9, 3.9e9, 9.0e4), "CP": (1.1e9, 1.3e6, 8.4e4)},
    ("ORKUT", 0.7): {"ALL": (3.0e8, 2.6e8, 5.6e3), "CP": (7.2e8, 8.1e4, 5.3e3)},
    ("SPOTIFY", 0.5): {"ALL": (5.0e6, 4.8e6, 2.0e4), "CP": (1.2e8, 3.1e5, 1.8e4)},
    ("SPOTIFY", 0.7): {"ALL": (4.7e5, 4.6e5, 2.0e2), "CP": (8.5e7, 2.7e3, 1.9e2)},
    ("TOKENS10K", 0.5): {"ALL": (1.5e10, 4.1e8, 1.3e5), "CP": (1.7e8, 5.7e6, 1.3e5)},
    ("TOKENS10K", 0.7): {"ALL": (8.1e9, 4.1e8, 7.4e4), "CP": (4.9e7, 1.9e6, 6.9e4)},
    ("TOKENS15K", 0.5): {"ALL": (3.6e10, 9.6e8, 1.4e5), "CP": (3.0e8, 7.2e6, 1.3e5)},
    ("TOKENS15K", 0.7): {"ALL": (1.9e10, 9.6e8, 7.5e4), "CP": (8.1e7, 1.9e6, 6.9e4)},
    ("TOKENS20K", 0.5): {"ALL": (6.4e10, 1.7e9, 1.4e5), "CP": (4.4e8, 8.8e6, 1.4e5)},
    ("TOKENS20K", 0.7): {"ALL": (3.4e10, 1.7e9, 7.9e4), "CP": (1.0e8, 1.9e6, 7.4e4)},
    ("UNIFORM005", 0.5): {"ALL": (2.5e9, 2.0e9, 2.6e5), "CP": (3.7e8, 9.5e6, 2.4e5)},
    ("UNIFORM005", 0.7): {"ALL": (6.5e8, 6.1e8, 1.4e3), "CP": (1.3e8, 3.9e4, 1.3e3)},
}


def table1_rows(
    spark: SparkSession,
    names: Iterable[str] = ALL_DATASETS,
    *,
    scale: float = 1.0,
    seed: int = 0,
) -> list[dict]:
    """Dataset statistics (Table I): #sets, avg set size, sets/token."""
    from pyspark.sql import functions as F

    rows = []
    for name in names:
        df = datasets.load_spark(spark, name, seed=seed, scale=scale)
        agg = df.agg(
            F.count("*").alias("n_sets"),
            F.avg(F.size("tokens")).alias("avg_size"),
        ).first()
        n_tokens = (
            df.select(F.explode("tokens").alias("tok")).select("tok").distinct()
        ).count()
        paper = datasets.paper_stats(name)
        rows.append(
            {
                "dataset": name,
                "n_sets": int(agg["n_sets"]),
                "avg_size": round(float(agg["avg_size"]), 1),
                "sets_per_token": round(
                    agg["n_sets"] * float(agg["avg_size"]) / n_tokens, 1
                ),
                "paper_n_sets": int(paper["n_millions"] * 1e6),
                "paper_avg_size": paper["avg_size"],
                "paper_sets_per_token": paper["sets_per_token"],
            }
        )
    return rows


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def table2_rows(
    spark: SparkSession,
    names: Iterable[str] = ALL_DATASETS,
    lams: Sequence[float] = LAMBDAS,
    *,
    scale: float = 1.0,
    seed: int = 0,
    t: int = 128,
    ell: int = 8,
    cp_reps: int = 10,
    mh_rep_cap: int = 32,
    phi: float = 0.9,
) -> list[dict]:
    """Join-time comparison (Table II): CP vs MH vs ALL at >=90% recall.

    Preprocessing (MinHash embedding + sketches) is excluded from join
    times, as in the paper.  MH's time is prorated to the repetitions
    actually needed for 90% recall (the paper reports actual reps too);
    CP runs a fixed 10 repetitions (the paper's setting).
    """
    rows = []
    for name in names:
        sets_df = datasets.load_spark(spark, name, seed=seed, scale=scale).cache()
        sets_df.count()
        pre_cp = preprocess(sets_df, t=t, ell=ell, seed=seed).cache()
        pre_cp.count()
        for lam in lams:
            ap, all_time = _timed(lambda: allpairs(spark, sets_df, lam))
            truth = ap.pairs
            n_truth = ap.n_results

            cp, cp_time = _timed(
                lambda: cpsjoin(
                    spark, sets_df, lam, t=t, ell=ell, reps=cp_reps,
                    seed=seed + 1, pre=pre_cp,
                )
            )
            cp_recall = recall_of(cp.pairs, truth)

            k = choose_k(spark, pre_cp, lam, phi=phi, seed=seed)
            mh_reps = reps_for_recall(lam, k, phi, cap=mh_rep_cap)
            pre_mh = preprocess(
                sets_df, t=k * mh_reps, ell=ell, seed=seed + 2
            ).cache()
            pre_mh.count()
            mh, mh_time = _timed(
                lambda: minhash_lsh_join(
                    spark, sets_df, lam, k=k, reps=mh_reps, ell=ell,
                    seed=seed + 2, pre=pre_mh,
                )
            )
            # Repetitions actually needed for 90% recall (paper's metric):
            truth_pairs = {
                (r["sid_a"], r["sid_b"]) for r in truth.collect()
            }
            found = {
                (r["sid_a"], r["sid_b"]): r["first_rep"]
                for r in mh.pairs.collect()
            }
            reps_used, mh_recall = mh_reps, (
                len(set(found) & truth_pairs) / n_truth if n_truth else 1.0
            )
            if n_truth and mh_recall >= phi:
                import numpy as np

                hits = sorted(
                    found[p] for p in truth_pairs if p in found
                )
                need = int(np.ceil(phi * n_truth))
                reps_used = hits[need - 1] + 1 if len(hits) >= need else mh_reps
            mh_time_scaled = mh_time * reps_used / mh_reps
            pre_mh.unpersist()

            paper = PAPER_TABLE2.get((name, lam))
            rows.append(
                {
                    "dataset": name,
                    "lam": lam,
                    "cp_s": round(cp_time, 2),
                    "mh_s": round(mh_time_scaled, 2),
                    "all_s": round(all_time, 2),
                    "cp_recall": round(cp_recall, 3),
                    "mh_recall": round(mh_recall, 3),
                    "mh_k": k,
                    "mh_reps": reps_used,
                    "n_results": n_truth,
                    "paper_cp_s": paper[0] if paper else None,
                    "paper_mh_s": paper[1] if paper else None,
                    "paper_all_s": paper[2] if paper else None,
                }
            )
            for res in (ap, cp, mh):
                res.pairs.unpersist()
        pre_cp.unpersist()
        sets_df.unpersist()
    return rows


def table3_rows(
    spark: SparkSession,
    names: Iterable[str] = ("DBLP", "NETFLIX", "FLICKR", "UNIFORM005"),
    *,
    lam: float = 0.5,
    scale: float = 1.0,
    seed: int = 0,
    t: int = 128,
    reps: int = 10,
) -> list[dict]:
    """CPSJoin parameter study (Table III / Fig. 3): join time and recall
    while varying ``limit``, ``eps`` and sketch length ``ell`` one at a
    time around the paper's test setting (limit=100, eps=0.0, ell=4)."""
    base = dict(limit=100, eps=0.0, ell=4)
    sweeps = [
        ("limit", [100, 250, 500]),
        ("eps", [0.0, 0.1, 0.2]),
        ("ell", [1, 2, 4, 8]),
    ]
    rows = []
    for name in names:
        sets_df = datasets.load_spark(spark, name, seed=seed, scale=scale).cache()
        sets_df.count()
        truth = allpairs(spark, sets_df, lam).pairs
        for param, values in sweeps:
            for v in values:
                cfg = dict(base)
                cfg[param] = v
                pre = preprocess(
                    sets_df, t=t, ell=cfg["ell"], seed=seed
                ).cache()
                pre.count()
                cp, cp_time = _timed(
                    lambda: cpsjoin(
                        spark, sets_df, lam, t=t, ell=cfg["ell"],
                        limit=cfg["limit"], eps=cfg["eps"], reps=reps,
                        seed=seed + 1, pre=pre,
                    )
                )
                pre.unpersist()
                rows.append(
                    {
                        "dataset": name,
                        "param": param,
                        "value": v,
                        "time_s": round(cp_time, 2),
                        "recall": round(recall_of(cp.pairs, truth), 3),
                        "n_results": cp.n_results,
                    }
                )
                cp.pairs.unpersist()
        truth.unpersist()
        sets_df.unpersist()
    return rows


def table4_rows(
    spark: SparkSession,
    names: Iterable[str] = ALL_DATASETS,
    lams: Sequence[float] = (0.5, 0.7),
    *,
    scale: float = 1.0,
    seed: int = 0,
    t: int = 128,
    ell: int = 8,
    cp_reps: int = 10,
) -> list[dict]:
    """Candidate pipeline counts (Table IV) for ALL vs CP."""
    rows = []
    for name in names:
        sets_df = datasets.load_spark(spark, name, seed=seed, scale=scale).cache()
        sets_df.count()
        pre = preprocess(sets_df, t=t, ell=ell, seed=seed).cache()
        pre.count()
        for lam in lams:
            ap = allpairs(spark, sets_df, lam)
            cp = cpsjoin(
                spark, sets_df, lam, t=t, ell=ell, reps=cp_reps,
                seed=seed + 1, pre=pre,
            )
            paper = PAPER_TABLE4.get((name, lam), {})
            rows.append(
                {
                    "dataset": name,
                    "lam": lam,
                    "all_pre": ap.stats.pre_candidates,
                    "all_cand": ap.stats.candidates,
                    "all_res": ap.n_results,
                    "cp_pre": cp.stats.pre_candidates,
                    "cp_cand": cp.stats.candidates,
                    "cp_res": cp.n_results,
                    "cp_recall": round(recall_of(cp.pairs, ap.pairs), 3),
                    "paper_all": paper.get("ALL"),
                    "paper_cp": paper.get("CP"),
                }
            )
            ap.pairs.unpersist()
            cp.pairs.unpersist()
        pre.unpersist()
        sets_df.unpersist()
    return rows


def format_rows(rows: list[dict]) -> str:
    """Render harness rows as an aligned plain-text table."""
    if not rows:
        return "(no rows)"
    cols = list(rows[0].keys())
    cells = [[str(r.get(c, "")) for c in cols] for r in rows]
    widths = [
        max(len(c), *(len(row[i]) for row in cells)) for i, c in enumerate(cols)
    ]
    lines = [
        "  ".join(c.ljust(w) for c, w in zip(cols, widths)),
        "  ".join("-" * w for w in widths),
    ]
    lines += ["  ".join(v.ljust(w) for v, w in zip(row, widths)) for row in cells]
    return "\n".join(lines)
