"""Tests for the table harnesses + the transcribed paper constants."""
import duckdb
import pytest

from repro import datasets
from repro.experiments import (
    ALL_DATASETS,
    LAMBDAS,
    PAPER_TABLE2,
    PAPER_TABLE4,
    format_rows,
    table1_rows,
    table2_rows,
    table3_rows,
    table4_rows,
)
from repro.setsynth import collection_to_pandas


class TestPaperConstants:
    def test_table2_complete(self):
        assert len(PAPER_TABLE2) == 14 * 5
        for (name, lam), (cp, mh, al) in PAPER_TABLE2.items():
            assert name in ALL_DATASETS and lam in LAMBDAS
            assert cp > 0 and mh > 0 and al > 0

    def test_table2_headline_claims(self):
        """Sanity-check the transcription against the paper's prose."""
        # CP beats MH everywhere except KOSARAK@0.5.
        worse = [
            key for key, (cp, mh, _) in PAPER_TABLE2.items() if cp > mh
        ]
        assert worse == [("KOSARAK", 0.5)]
        # TOKENS: CP is 2-3 orders of magnitude faster than ALL.
        for name in ("TOKENS10K", "TOKENS15K", "TOKENS20K"):
            cp, _, al = PAPER_TABLE2[(name, 0.5)]
            assert al / cp > 50

    def test_table4_complete(self):
        assert len(PAPER_TABLE4) == 14 * 2
        for rec in PAPER_TABLE4.values():
            for algo in ("ALL", "CP"):
                pre, cand, res = rec[algo]
                assert pre >= cand >= res > 0


class TestTable1:
    def test_rows_and_oracle(self, spark):
        rows = table1_rows(spark, ["DBLP", "TOKENS10K"], scale=0.15)
        assert len(rows) == 2
        for r in rows:
            assert r["n_sets"] > 0
            assert r["avg_size"] > 1
            assert r["sets_per_token"] > 0
            assert r["paper_n_sets"] > 0

    @pytest.mark.parametrize("name", ["DBLP", "AOL"])
    def test_stats_match_duckdb(self, spark, name):
        """Cross-check the Spark stats against DuckDB over the same data."""
        sets = datasets.generate(name, seed=0, scale=0.15)
        [row] = table1_rows(spark, [name], scale=0.15)
        con = duckdb.connect()
        try:
            con.register("sets", collection_to_pandas(sets))
            n, avg, ntok = con.execute(
                """
                SELECT count(*),
                       avg(len(tokens)),
                       (SELECT count(DISTINCT token)
                        FROM (SELECT unnest(tokens) AS token FROM sets))
                FROM sets
                """
            ).fetchone()
        finally:
            con.close()
        assert row["n_sets"] == n
        assert row["avg_size"] == pytest.approx(avg, abs=0.1)
        assert row["sets_per_token"] == pytest.approx(n * avg / ntok, abs=0.1)


class TestTable2:
    def test_single_cell(self, spark):
        rows = table2_rows(
            spark, ["DBLP"], [0.5], scale=0.15, t=32, ell=4, cp_reps=6,
        )
        [r] = rows
        assert r["cp_s"] > 0 and r["mh_s"] > 0 and r["all_s"] > 0
        assert 0 <= r["cp_recall"] <= 1 and 0 <= r["mh_recall"] <= 1
        assert r["cp_recall"] >= 0.8  # small clone, 6 reps
        assert 2 <= r["mh_k"] <= 10
        assert r["paper_cp_s"] == 9.2 and r["paper_all_s"] == 127.9
        assert r["n_results"] > 0


class TestTable3:
    def test_sweep_structure(self, spark):
        rows = table3_rows(spark, ["UNIFORM005"], scale=0.15, t=32, reps=4)
        # 3 limit + 3 eps + 4 ell settings.
        assert len(rows) == 10
        params = {(r["param"], r["value"]) for r in rows}
        assert ("limit", 250) in params and ("ell", 8) in params
        for r in rows:
            assert r["time_s"] > 0 and 0 <= r["recall"] <= 1


class TestTable4:
    def test_counts(self, spark):
        jsc = spark.sparkContext._jsc
        before = len(jsc.getPersistentRDDs())
        rows = table4_rows(
            spark, ["TOKENS10K"], [0.5], scale=0.2, t=32, ell=4, cp_reps=6,
        )
        # Every cached result is released once its row is built.
        assert len(jsc.getPersistentRDDs()) == before
        [r] = rows
        assert r["all_pre"] >= r["all_cand"] >= r["all_res"] > 0
        assert r["cp_pre"] >= r["cp_cand"] >= r["cp_res"] > 0
        assert r["cp_recall"] >= 0.8
        assert r["paper_all"] == (1.5e10, 4.1e8, 1.3e5)


class TestFormatRows:
    def test_renders(self):
        out = format_rows([{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}])
        lines = out.splitlines()
        assert len(lines) == 4
        assert "a" in lines[0] and "22" in lines[3]

    def test_empty(self):
        assert format_rows([]) == "(no rows)"
