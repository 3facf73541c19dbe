"""Timed closed-loop jobs (one client, one batch job at a time) and the
checks that decide whether each job's output is correct.

Only public engine entry points are called:
``pipelines.quality_filter.quality_filter_dataset`` for the in-memory
workloads and ``pipelines.manifest.run_quality_filter`` for the durable one.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import statistics
import sys
import time
import traceback

import pyarrow.parquet as pq

from inputs import CHECKED, digest

# partitions of the timed durable run; the kill lands after PARTITIONS // 2
# commits. Each partition costs ~1 s of fixed engine overhead on one CPU, so 2
# keeps an iteration (full run, kill, resume) near 5 s.
PARTITIONS = 2


def dir_bytes(path: pathlib.Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def result_digest(result_dirs: list[pathlib.Path]) -> dict:
    files = sorted(str(f) for d in result_dirs for f in d.glob("*.parquet"))
    return digest(pq.ParquetDataset(files).read(columns=CHECKED))


def run_in_memory_job(data: pathlib.Path, out: pathlib.Path) -> None:
    """The measured operation: object-store staged filter of the whole
    input, ending when the RESULT is written as Parquet."""
    from dataquality_box_ray.pipelines.quality_filter import \
        quality_filter_dataset
    quality_filter_dataset(str(data), None).write_parquet(
        str(out), compression="zstd")


def committed_snapshot(out: pathlib.Path) -> dict:
    """Committed partitions → (inode, mtime) of their directory and files,
    so a later run that rewrote one is visible."""
    from dataquality_box_ray.pipelines.manifest import load_manifest
    snap = {}
    for pid, e in load_manifest(out)["partitions"].items():
        if e.get("status") == "committed":
            part = out / "parts" / pid
            snap[pid] = sorted((str(p.relative_to(part)), p.stat().st_ino,
                                p.stat().st_mtime_ns)
                               for p in [part, *part.rglob("*")])
    return snap


def _cpu_ticks() -> tuple[int, int]:
    """(busy, steal) clock ticks summed over all CPUs, from /proc/stat."""
    with open("/proc/stat") as f:
        v = [int(x) for x in f.readline().split()[1:9]]
    return v[0] + v[1] + v[2] + v[5] + v[6], v[7]


class Stopwatch:
    """Wall time of a block, and the same with the host's CPU steal taken
    out: ``s = wall * busy / (busy + steal)`` over the block's ticks, the
    share of wanted CPU time the guest actually got."""

    def __enter__(self) -> "Stopwatch":
        self._t0, self._c0 = time.perf_counter(), _cpu_ticks()
        return self

    def __exit__(self, *exc) -> None:
        self.wall = time.perf_counter() - self._t0
        busy, steal = (b - a for a, b in zip(self._c0, _cpu_ticks()))
        self.s = (self.wall * busy / (busy + steal) if busy + steal
                  else self.wall)


def _timed_loop(window_s: float, one, sessions) -> list:
    """Closed loop: in each Ray session that iterating ``sessions`` brings
    up, call ``one(i)`` until ``window_s`` has passed (at least once). A job
    that raises is recorded as None and counts as failed."""
    samples = []
    for _ in sessions:
        start, deadline = len(samples), time.perf_counter() + window_s
        while len(samples) == start or time.perf_counter() < deadline:
            try:
                samples.append(one(len(samples)))
            except Exception:  # one failed job must not end the run
                traceback.print_exc(file=sys.stderr)
                samples.append(None)
    return samples


def in_memory(data: pathlib.Path, expected: dict, work: pathlib.Path,
              window_s: float, sessions) -> dict:
    """content_heavy / key_heavy: repeated whole-input jobs, each checked
    against the oracle digest after the timed loop."""
    def one(i: int) -> tuple[Stopwatch, pathlib.Path]:
        out = work / f"job{i}"
        with Stopwatch() as sw:
            run_in_memory_job(data, out)
        return sw, out

    samples = _timed_loop(window_s, one, sessions)
    rss = peak_rss_mb()
    ok = [s for s in samples if s is not None]
    failed = len(samples) - len(ok)
    for _, out in ok:
        got = result_digest([out])
        if got != expected:
            print(f"wrong result in {out.name}: {got} != {expected}",
                  file=sys.stderr)
            failed += 1
    if not ok:
        raise RuntimeError("no job completed")
    job_s = statistics.median(t.s for t, _ in ok)
    return {
        "samples": {"job_s": [t.s for t, _ in ok],
                    "job_wall_s": [t.wall for t, _ in ok]},
        "attempted": len(samples),
        "failed": failed, "job_s": job_s,
        # no checkpoint on this path: finishing a killed job is a full rerun
        "resume_s": job_s,
        "write_amp": dir_bytes(ok[0][1]) / dir_bytes(data),
        "driver_peak_rss_mb": rss,
    }


def checkpointed(data: pathlib.Path, work: pathlib.Path, window_s: float,
                 sessions) -> dict:
    """checkpointed_resume: each iteration is one uninterrupted durable run,
    then a run killed after PARTITIONS // 2 commits and its resume."""
    from dataquality_box_ray.pipelines.manifest import run_quality_filter

    def one(i: int) -> dict:
        full, resumed = work / f"full{i}", work / f"resumed{i}"
        with Stopwatch() as full_s:
            run_quality_filter(str(data), str(full), partitions=PARTITIONS)
        try:
            run_quality_filter(str(data), str(resumed), partitions=PARTITIONS,
                               fail_after=PARTITIONS // 2)
        except RuntimeError as e:
            if "injected failure" not in str(e):
                raise
        else:
            raise RuntimeError("the killed run did not stop at the midpoint")
        before = committed_snapshot(resumed)
        with Stopwatch() as resume_s:
            run_quality_filter(str(data), str(resumed), partitions=PARTITIONS)
        return {"full": full, "resumed": resumed, "full_s": full_s,
                "resume_s": resume_s, "before": before}

    samples = _timed_loop(window_s, one, sessions)
    rss = peak_rss_mb()
    ok = [s for s in samples if s is not None]
    failed = len(samples) - len(ok)
    for it in ok:
        if not _resume_is_correct(data, it):
            failed += 1
    if not ok:
        raise RuntimeError("no iteration completed")
    return {
        "samples": {"job_s": [it["full_s"].s for it in ok],
                    "job_wall_s": [it["full_s"].wall for it in ok],
                    "resume_s": [it["resume_s"].s for it in ok],
                    "resume_wall_s": [it["resume_s"].wall for it in ok]},
        "attempted": len(samples),
        "failed": failed,
        "job_s": statistics.median(it["full_s"].s for it in ok),
        "resume_s": statistics.median(it["resume_s"].s for it in ok),
        "write_amp": dir_bytes(ok[0]["resumed"]) / dir_bytes(data),
        "driver_peak_rss_mb": rss,
    }


def _resume_is_correct(data: pathlib.Path, it: dict) -> bool:
    """Resumed result equals the uninterrupted one, lineage covers every
    input file exactly once, and partitions committed before the kill were
    not touched by the resume."""
    from dataquality_box_ray.pipelines.manifest import verify_lineage_coverage

    def parts(out: pathlib.Path) -> list[pathlib.Path]:
        return sorted((out / "parts").glob("p*/result"))

    problems = []
    if len(it["before"]) != PARTITIONS // 2:
        problems.append(f"{len(it['before'])} partitions committed at kill")
    if result_digest(parts(it["full"])) != result_digest(parts(it["resumed"])):
        problems.append("resumed result differs from the uninterrupted one")
    for out in (it["full"], it["resumed"]):
        if not verify_lineage_coverage(str(out), str(data)):
            problems.append(f"lineage does not cover the input in {out.name}")
    after = committed_snapshot(it["resumed"])
    touched = [p for p, s in it["before"].items() if after.get(p) != s]
    if touched:
        problems.append(f"resume rewrote committed partitions {touched}")
    for p in problems:
        print(f"{it['resumed'].name}: {p}", file=sys.stderr)
    return not problems


def load_expected(inp: pathlib.Path) -> dict | None:
    f = inp / "expected.json"
    return json.loads(f.read_text()) if f.exists() else None


def clean(work: pathlib.Path) -> None:
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work, exist_ok=True)
