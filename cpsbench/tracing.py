"""Measurement from outside the program: spans, Spark job counts, kernel floor.

Nothing here changes the code under test.  Spark work is attributed to a
join through a job group (``setJobGroup``) and read back from
``statusTracker()``; shuffle bytes come from the session's event log;
the single-thread kernel floor runs ``cpsjoin_local_rep`` in-process
with ``sketch_pass`` and ``jaccard`` wrapped in the
``repro.core.cpsjoin_local`` namespace.
"""
from __future__ import annotations

import glob
import json
import os
import time
from contextlib import contextmanager

import numpy as np

__all__ = ["Tracer", "SparkCounter", "shuffle_write_bytes", "kernel_floor"]


class Tracer:
    """In-memory spans (name, start, end, parent), written once at the end."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "trace": self.trace_id,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter() - self._t0,
            "end": None,
            "counts": {},
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter() - self._t0

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.spans, f, indent=1)


class SparkCounter:
    """Per-call Spark job, stage and task counts through job groups."""

    def __init__(self, spark):
        self.sc = spark.sparkContext
        self._n = 0
        self.busy_s = 0.0  # time spent reading the counts back

    def start(self, label: str) -> str:
        """Put the calling thread's next Spark jobs into a fresh group."""
        self._n += 1
        group = f"{label}-{self._n}"
        self.sc.setJobGroup(group, label)
        return group

    def counts(self, group: str) -> dict:
        """Jobs, stages run and tasks completed in ``group``, once all are recorded."""
        t0 = time.perf_counter()
        # Job and task events reach the status store asynchronously.
        self.sc._jsc.sc().listenerBus().waitUntilEmpty()
        tracker = self.sc.statusTracker()
        jobs = sorted(tracker.getJobIdsForGroup(group))
        stages: set[int] = set()
        for j in jobs:
            info = tracker.getJobInfo(j)
            if info is not None:
                stages.update(info.stageIds)
        # Count the stages that ran: how many skipped stages a job lists
        # (shuffle output reused) varies from call to call.
        ran = tasks = 0
        for s in stages:
            info = tracker.getStageInfo(s)
            if info is not None and info.numCompletedTasks:
                ran += 1
                tasks += info.numCompletedTasks
        self.busy_s += time.perf_counter() - t0
        return {"jobs": len(jobs), "stages": ran, "tasks": tasks}


def shuffle_write_bytes(event_dir: str, app_id: str) -> dict[str, int]:
    """Shuffle bytes written per job group, from a finished event log."""
    paths = glob.glob(os.path.join(event_dir, app_id + "*"))
    if len(paths) != 1:
        raise RuntimeError(f"expected one event log for {app_id}, found {paths}")
    stage_group: dict[int, str] = {}
    out: dict[str, int] = {}
    with open(paths[0]) as f:
        for line in f:
            ev = json.loads(line)
            kind = ev.get("Event")
            if kind == "SparkListenerJobStart":
                group = (ev.get("Properties") or {}).get("spark.jobGroup.id")
                if group:
                    for s in ev["Stage IDs"]:
                        stage_group[s] = group
            elif kind == "SparkListenerTaskEnd":
                group = stage_group.get(ev["Stage ID"])
                metrics = ev.get("Task Metrics") or {}
                written = (metrics.get("Shuffle Write Metrics") or {}).get(
                    "Shuffle Bytes Written", 0
                )
                if group:
                    out[group] = out.get(group, 0) + written
    return out


class _Probe:
    """Calls, items, hits and busy time of one wrapped function."""

    def __init__(self):
        self.s = 0.0
        self.calls = 0
        self.items = 0
        self.hits = 0


def kernel_floor(tracer: Tracer, mh, sketches, tokens, lam: float, *, seed: int,
                 reps: int, limit: int, eps: float, delta: float,
                 wrap: bool) -> dict:
    """Run ``cpsjoin_local_rep`` on the whole collection once per repetition.

    With ``wrap`` the sketch filter and exact verification are timed and
    counted; the wrappers are removed again before returning.
    """
    import repro.core.cpsjoin_local as cl
    from repro.core.cpsjoin_local import JoinStats

    sk, ver = _Probe(), _Probe()
    orig_sketch, orig_jaccard = cl.sketch_pass, cl.jaccard

    def sketch_pass(a, b, lam_, delta_):
        t0 = time.perf_counter()
        mask = orig_sketch(a, b, lam_, delta_)
        sk.s += time.perf_counter() - t0
        sk.calls += 1
        sk.items += len(mask)
        sk.hits += int(np.count_nonzero(mask))
        return mask

    def jaccard(a, b):
        t0 = time.perf_counter()
        j = orig_jaccard(a, b)
        ver.s += time.perf_counter() - t0
        ver.calls += 1
        ver.hits += j >= lam
        return j

    stats = JoinStats()
    if wrap:
        cl.sketch_pass, cl.jaccard = sketch_pass, jaccard
    try:
        with tracer.span("cpsjoin_local" if wrap else "cpsjoin_local.plain") as sp:
            for rep in range(reps):
                rep_seed = int(np.random.SeedSequence([seed, rep]).generate_state(1)[0])
                with tracer.span("cpsjoin_local.rep"):
                    _, st = cl.cpsjoin_local_rep(
                        mh, sketches, tokens, lam,
                        limit=limit, eps=eps, delta=delta, seed=rep_seed,
                    )
                stats.merge(st)
    finally:
        cl.sketch_pass, cl.jaccard = orig_sketch, orig_jaccard
    total = sp["end"] - sp["start"]
    sp["counts"] = {"pre_candidates": stats.pre_candidates,
                    "candidates": stats.candidates, "results_raw": stats.results}
    return {"total_s": total, "stats": stats, "sketch": sk, "verify": ver}
