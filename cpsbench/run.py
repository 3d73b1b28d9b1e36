"""CPSJoin benchmark: one workload per run, untraced or traced.

Run from the repository root (no ``pip install`` needed)::

    python3 cpsbench/run.py --workload cp-skew --seed 1 --seconds 5 --trace 0
    python3 cpsbench/run.py --workload all     # self-test, then every workload

A run builds its input from ``--seed``, starts a local Spark session,
computes the exact join with DuckDB, then times joins through the public
API in a closed loop with one client:

- ``setup_s``: JVM launch and SparkSession start, input generation,
  load + cache;
- ``embed_s``: ``preprocess(...)`` until cached, which also starts the
  session's Python workers (run on every workload; ALLPAIRS does not
  use it);
- ``cold_join_s``: the session's first join (its query plans and JVM
  code paths run for the first time);
- ``join_s``: median of the warm joins that follow, over ``--seconds``
  (the cached embedding is passed in, as the paper excludes it);
- ``recall``: found-and-exact pairs over exact pairs; ``recall_bg`` the
  same over the exact pairs with no set in the input's planted cluster.

``setup_s``, ``embed_s`` and ``cold_join_s`` are one sample per run; runs
with other seeds supply the rest.

Every join is gated against the exact join, and all joins of a run must
repeat their pair-set hash, counters and Spark job/stage/task counts
exactly; a join that fails either check counts in ``failed``.  ``--trace 1``
prints the per-module metrics instead and writes the spans to
``.bench_out/``.  The last stdout line is the result JSON; the exit code
is 1 when a check failed.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")

DEADLINE_S = 170  # a run must end within 180 s
MAX_CORES = 4
DRIVER_MEM = "2g"
SHUFFLE_PARTITIONS = 64


def log(msg: str) -> None:
    print(f"[cpsbench] {msg}", file=sys.stderr, flush=True)


def prepare_environment(cores: int) -> None:
    """Point Python, Spark and its JVM at this checkout; must precede pyspark."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(f"cpsbench: no repro package under {src}")
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    sys.path.insert(0, src)
    # Exported before the JVM starts, so Python workers import the same code.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = None
    # Both JVMs (spark-submit's launcher and the driver) keep their
    # temporary files in the checkout and write no /tmp/hsperfdata_*.
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master local[{cores}]",
        f"--driver-memory {DRIVER_MEM}",
        "--conf spark.driver.host=127.0.0.1",
        "--conf spark.ui.enabled=false",
        "--conf spark.ui.showConsoleProgress=false",
        "pyspark-shell",
    ])


def new_session(cores: int, event_dir: str | None):
    from pyspark.sql import SparkSession

    b = (
        SparkSession.builder.master(f"local[{cores}]").appName("cpsbench")
        .config("spark.sql.shuffle.partitions", str(SHUFFLE_PARTITIONS))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.local.dir", os.path.join(OUT, "spark-local"))
        .config("spark.sql.warehouse.dir", os.path.join(OUT, "warehouse"))
    )
    if event_dir:
        b = (b.config("spark.eventLog.enabled", "true")
             .config("spark.eventLog.dir", "file://" + event_dir)
             .config("spark.eventLog.compress", "false")
             .config("spark.eventLog.rolling.enabled", "false"))
    spark = b.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def shutdown_spark() -> None:
    """Stop the SparkContext, then the JVM, and wait for it to exit."""
    from pyspark import SparkContext

    if SparkContext._active_spark_context is not None:
        SparkContext._active_spark_context.stop()
    gw = SparkContext._gateway
    if gw is None:
        return
    proc = getattr(gw, "proc", None)
    gw.shutdown()
    SparkContext._gateway = SparkContext._jvm = None
    if proc is not None:
        proc.stdin.close()  # the JVM exits on EOF of its stdin
        proc.wait(timeout=60)


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _ratio(a, b):
    return a / b if b else 0.0


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One benchmark run; returns ``(result, detail)``."""
    cores = max(1, min(MAX_CORES, os.cpu_count() or 1))
    prepare_environment(cores)

    import numpy as np
    import pyspark

    import gate
    import tracing
    from workloads import CP_PARAMS, WORKLOADS

    from repro.baselines.allpairs import allpairs
    from repro.core.cpsjoin import cpsjoin
    from repro.core.preprocess import preprocess
    from repro.setsynth import collection_to_spark

    wl = WORKLOADS[name]
    cp = wl.algo == "cp"
    t_embed, ell_embed = CP_PARAMS["t"], CP_PARAMS["ell"]  # shared by all workloads
    run_id = f"{name}-seed{seed}-trace{int(trace)}"
    tracer = tracing.Tracer(run_id)
    event_dir = os.path.join(OUT, "eventlog") if trace else None
    if event_dir:
        os.makedirs(event_dir, exist_ok=True)
    run_t0 = time.perf_counter()

    # --- set-up: JVM and session, input, load + cache ---
    with tracer.span("setup") as sp:
        spark = new_session(cores, event_dir)
        sets, cluster = wl.make(seed)
        df = collection_to_spark(spark, sets).cache()
        df.count()
    setup_s = sp["end"] - sp["start"]
    counter = tracing.SparkCounter(spark)
    with tracer.span("oracle") as sp:
        exact = gate.exact_keys(sets, wl.lam)
        bg = gate.background(exact, cluster)
    oracle_s = sp["end"] - sp["start"]
    log(f"{name} seed={seed}: {len(sets)} sets, {len(exact)} exact pairs "
        f"({len(bg)} background), setup {setup_s:.2f} s")

    def call(pre):
        if cp:
            return cpsjoin(spark, df, wl.lam, seed=seed, pre=pre, **wl.params)
        return allpairs(spark, df, wl.lam)

    def join_once(pre, label: str) -> dict:
        """One gated join call; the timed region is the call alone."""
        rec: dict = {"ok": False}
        with tracer.span(label) as sp:
            try:
                group = counter.start(label)
                t0 = time.perf_counter()
                res = call(pre)
                rec["s"] = time.perf_counter() - t0
                rec["group"] = group
                rec["spark"] = counter.counts(group)
                counter.start("collect")
                pdf = res.pairs.toPandas()
                res.pairs.unpersist()
                keys = gate.pair_keys(pdf["sid_a"].to_numpy(), pdf["sid_b"].to_numpy())
                rec.update(
                    stats=list(res.stats.as_tuple()),
                    n_results=int(res.n_results),
                    levels=int(getattr(res, "levels", 0)),
                    sha256=gate.pair_sha256(keys),
                    gate=gate.check(keys, exact, approximate=cp, bg=bg),
                )
                rec["ok"] = rec["gate"]["ok"]
                if not rec["ok"]:
                    rec["reason"] = rec["gate"]["reason"]
            except Exception as e:  # a join that raises counts as failed
                traceback.print_exc()
                rec["reason"] = f"{type(e).__name__}: {e}"
            sp["counts"] = {k: rec[k] for k in ("spark", "stats", "n_results", "levels")
                            if k in rec}
        return rec

    # --- embedding until cached ---
    with tracer.span("preprocess"):
        group = counter.start("preprocess")
        t0 = time.perf_counter()
        pre = preprocess(df, t=t_embed, ell=ell_embed, seed=seed).cache()
        pre.count()
        embed_s = time.perf_counter() - t0
        pre_jobs = counter.counts(group)["jobs"]
    if not cp:
        pre.unpersist()
        pre = None

    # --- cold join: the session's first join ---
    cold = join_once(pre, "join.cold")
    log(f"cold join {cold.get('s', 0):.3f} s ok={cold['ok']}")

    # --- warm joins, closed loop, for `seconds` ---
    warm: list[dict] = []
    t_end = time.perf_counter() + seconds
    while True:
        warm.append(join_once(pre, "join.warm"))
        now = time.perf_counter()
        last = warm[-1].get("s", 0.0)
        if now >= t_end or now - run_t0 + 2 * last > DEADLINE_S - 30:
            break

    # Determinism: every join of the run is the same call, so each must
    # repeat the pair set, the counters and the Spark job/stage/task counts
    # of the first one that passed the gate.
    def signature(rec):
        return {k: rec.get(k) for k in ("sha256", "stats", "n_results", "levels", "spark")}

    joins = [cold] + warm
    ref = next((r for r in joins if r["ok"]), None)
    for rec in joins:
        if rec["ok"] and signature(rec) != signature(ref):
            rec["ok"], rec["reason"] = False, f"join not repeatable: {signature(rec)}"
    failed = sum(not r["ok"] for r in joins)
    warm_s = [r["s"] for r in warm if "s" in r]
    gated = [r["gate"] for r in joins if "gate" in r]
    detail = {
        "workload": name, "seed": seed, "trace": int(trace),
        "spark": pyspark.__version__, "master": f"local[{cores}]", "cores": cores,
        "nproc": os.cpu_count(), "shuffle_partitions": SHUFFLE_PARTITIONS,
        "loop": "closed, 1 client", "algo": wl.algo, "lam": wl.lam,
        "params": wl.params,
        "input": {"sets": len(sets),
                  "avg_size": round(float(np.mean([len(x) for x in sets])), 3),
                  "exact_pairs": int(len(exact)), "cluster_sets": int(len(cluster)),
                  "background_pairs": int(len(bg))},
        "samples": {"setup_s": setup_s, "embed_s": embed_s,
                    "cold_join_s": cold.get("s"), "join_s": warm_s},
        "join_samples": len(warm_s), "oracle_s": oracle_s,
        "preprocess_jobs": pre_jobs,
        "reference": signature(ref) if ref else None,
        "attempted": len(joins), "failed": failed,
        "failed_frac": failed / len(joins),
        "failures": [r.get("reason") for r in joins if not r["ok"]],
    }
    e2e = {
        "join_s": _median(warm_s),
        "cold_join_s": cold.get("s", 0.0),
        "embed_s": embed_s,
        "setup_s": setup_s,
        "recall": min((g["recall"] for g in gated), default=0.0),
        "recall_bg": min((g["recall_bg"] for g in gated), default=0.0),
    }

    layers = None
    if trace:
        layers = _per_layer(tracer, counter, wl, sets, seed, ref, e2e["join_s"], pre_jobs)
    app_id = spark.sparkContext.applicationId
    shutdown_spark()
    if trace:
        t0 = time.perf_counter()
        written = tracing.shuffle_write_bytes(event_dir, app_id)
        mb = written.get(ref["group"], 0) / 1e6 if ref else 0.0
        layers["cpsjoin.shuffle_write_mb" if cp else "allpairs.shuffle_write_mb"] = mb
        layers["trace.overhead_s"] += time.perf_counter() - t0

    if trace:
        detail["spans"] = f".bench_out/{run_id}.spans.json"
        tracer.write(os.path.join(OUT, f"{run_id}.spans.json"))
    metrics = layers if trace else e2e
    units = {m["name"]: m["unit"]
             for m in _benchmark_spec()["per_layer" if trace else "end_to_end"]}
    result = {
        "correct": failed == 0,
        "attempted": len(joins),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    with open(os.path.join(OUT, f"{run_id}.json"), "w") as f:
        json.dump({"detail": detail, "result": result}, f, indent=1)
    return result, detail


def _per_layer(tracer, counter, wl, sets, seed, ref, join_s, pre_jobs) -> dict:
    """Per-module metrics of a traced run (zero for modules it does not run).

    ``join_s`` is this run's own warm join, taken with the event log on, so
    ``cpsjoin.over_floor`` is the traced join over the floor.
    """
    import numpy as np

    import tracing
    from workloads import CP_PARAMS

    from repro.core.minhash import MinHasher

    names = [m["name"] for m in _benchmark_spec()["per_layer"]]
    m = dict.fromkeys(names, 0.0)
    overhead = counter.busy_s
    tokens = [np.asarray(x, dtype=np.int64) for x in sets]
    with tracer.span("minhash.embed_numpy") as sp:
        mh, sketch = MinHasher(t=CP_PARAMS["t"], ell=CP_PARAMS["ell"], seed=seed).embed_many(tokens)
    m["minhash.embed_numpy_s"] = sp["end"] - sp["start"]
    m["preprocess.spark_jobs"] = pre_jobs
    if ref is None:
        m["trace.overhead_s"] = overhead
        return m
    p, c, r = ref["stats"]
    sc = ref["spark"]
    if wl.algo == "cp":
        m.update({
            "cpsjoin.spark_jobs": sc["jobs"], "cpsjoin.spark_stages": sc["stages"],
            "cpsjoin.spark_tasks": sc["tasks"], "cpsjoin.levels": ref["levels"],
            "cpsjoin.pre_candidates": p, "cpsjoin.candidates": c,
            "cpsjoin.results_raw": r, "cpsjoin.n_results": ref["n_results"],
            "cpsjoin.cand_per_pre": _ratio(c, p),
            "cpsjoin.result_per_cand": _ratio(r, c),
            "cpsjoin.raw_per_result": _ratio(r, ref["n_results"]),
        })
        kw = dict(seed=seed, reps=wl.params["reps"], limit=wl.params["limit"],
                  eps=wl.params["eps"], delta=wl.params["delta"])
        plain = tracing.kernel_floor(tracer, mh, sketch, tokens, wl.lam, wrap=False, **kw)
        traced = tracing.kernel_floor(tracer, mh, sketch, tokens, wl.lam, wrap=True, **kw)
        sk, ver = traced["sketch"], traced["verify"]
        st = traced["stats"]
        m.update({
            "cpsjoin.over_floor": _ratio(join_s, plain["total_s"]),
            "cpsjoin_local.total_s": plain["total_s"],
            "cpsjoin_local.self_s": traced["total_s"] - sk.s - ver.s,
            "cpsjoin_local.pre_candidates": st.pre_candidates,
            "cpsjoin_local.candidates": st.candidates,
            "cpsjoin_local.results_raw": st.results,
            "sketches.s": sk.s, "sketches.calls": sk.calls, "sketches.pairs": sk.items,
            "sketches.pass_ratio": _ratio(sk.hits, sk.items),
            "verify.s": ver.s, "verify.calls": ver.calls,
            "verify.us_per_pair": _ratio(ver.s * 1e6, ver.calls),
            "verify.hit_ratio": _ratio(ver.hits, ver.calls),
        })
        overhead += traced["total_s"] - plain["total_s"]
    else:
        m.update({
            "allpairs.spark_jobs": sc["jobs"], "allpairs.spark_tasks": sc["tasks"],
            "allpairs.pre_candidates": p, "allpairs.candidates": c,
            "allpairs.results": r, "allpairs.hit_ratio": _ratio(r, c),
        })
    m["trace.overhead_s"] = overhead
    return m


def _benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Self-test, then every workload in its own process; prints a table."""
    code = subprocess.call([sys.executable, os.path.join(HERE, "selftest.py")])
    if code:
        log("self-test failed")
        return code
    bad = 0
    rows = []
    for name in (w["name"] for w in _benchmark_spec()["workloads"]):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        res = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
        if res is None or proc.returncode or not res["correct"]:
            bad += 1
        if res is None:
            rows.append((name, "run", f"exit {proc.returncode}", ""))
            continue
        rows.append((name, "failed_frac", f"{res['failed'] / res['attempted']:.4f}",
                     f"of {res['attempted']} joins"))
        for k, v in res["metrics"].items():
            rows.append((name, k, f"{v['value']:.6g}", v["unit"]))
    for row in rows:
        print("{:<12} {:<28} {:>14} {}".format(*row))
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, help="a workload name, or 'all'")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="warm-join measuring time (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    seconds = args.seconds if args.seconds is not None else _benchmark_spec()["run_seconds"]
    if args.workload == "all":
        return run_all(args.seed, seconds, bool(args.trace))

    def on_deadline(signum, frame):
        raise TimeoutError(f"run exceeded {DEADLINE_S} s")

    signal.signal(signal.SIGALRM, on_deadline)
    signal.alarm(DEADLINE_S)
    try:
        result, detail = run_workload(args.workload, args.seed, seconds, bool(args.trace))
    finally:
        signal.alarm(0)
        if "pyspark" in sys.modules:
            shutdown_spark()
    print("cpsbench-detail " + json.dumps(detail))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
