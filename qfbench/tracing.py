"""Traced run: per-layer metrics from spans around public layer calls.

Spans (name, start, end, parent, run id) are kept in memory and written as
one JSON file when the run ends. Each layer is driven from outside through
its public functions on the workload's own input; the end-to-end metrics
come from untraced runs (``jobs.py``). Span times are raw wall time; only
the job pairs behind ``trace.overhead_s`` are steal-corrected
(``jobs.Stopwatch``), like the end-to-end metrics.

Which end-to-end metric each layer metric should move, and on which
workload, is recorded in ``LAYERS``.
"""

from __future__ import annotations

import contextlib
import pathlib
import statistics
import time

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import jobs

# partitions of the commit probe: enough calls to show how the commit of
# partition i grows with the committed index before it
COMMIT_PROBE_PARTITIONS = 4
# untraced/traced job pairs behind trace.overhead_s (medians of each)
OVERHEAD_PAIRS = 2

# layer metric → (end-to-end metrics it should move, workload where it shows)
LAYERS = {
    "sources.read_s": ("files_per_s", "content_heavy"),
    "sources.bytes": ("files_per_s", "content_heavy"),
    "heuristics.busy_s": ("files_per_s", "content_heavy"),
    "heuristics.rows_per_s": ("files_per_s", "content_heavy"),
    "scorers.busy_s": ("files_per_s", "content_heavy"),
    "scorers.chars_per_s": ("files_per_s", "content_heavy"),
    "scorers.build_s": ("setup_s", "all"),
    "scrubber.busy_s": ("files_per_s", "content_heavy"),
    "scrubber.hit_share": ("files_per_s", "content_heavy"),
    "decide.busy_s": ("files_per_s", "content_heavy"),
    "quality_filter.score_pass_s": ("files_per_s", "all"),
    "quality_filter.finalize_pass_s": ("files_per_s", "all"),
    "quality_filter.executor_overhead_s": ("files_per_s", "all"),
    "reconcile.labels_s": ("files_per_s,driver_peak_rss_mb", "key_heavy"),
    "reconcile.label_rows": ("files_per_s,driver_peak_rss_mb", "key_heavy"),
    "reconcile.loser_rows": ("files_per_s,driver_peak_rss_mb", "key_heavy"),
    "reconcile.label_share": ("files_per_s,driver_peak_rss_mb", "key_heavy"),
    "reconcile.max_group_rows": ("files_per_s", "key_heavy"),
    "reconcile.group_skew": ("files_per_s", "key_heavy"),
    "reconcile.apply_s": ("files_per_s,driver_peak_rss_mb", "key_heavy"),
    "reconcile.broadcast_mb": ("files_per_s,driver_peak_rss_mb", "key_heavy"),
    "manifest.commit_s.first": ("files_per_s,resume_s", "checkpointed_resume"),
    "manifest.commit_s.last": ("files_per_s,resume_s", "checkpointed_resume"),
    "manifest.commit_growth": ("files_per_s,resume_s", "checkpointed_resume"),
    "manifest.bytes_written": ("write_amp", "checkpointed_resume"),
    "manifest.index_rows": ("write_amp", "checkpointed_resume"),
    "manifest.recomputed_partitions": ("resume_s", "checkpointed_resume"),
    "trace.overhead_s": ("none: traced minus untraced job time", "all"),
}


class Tracer:
    """In-memory span recorder. Spans nest by call order; one run id."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name, "run": self.run_id,
               "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_times(self) -> dict[str, float]:
        """Per span name: duration minus the time its children cover
        (children of one span never overlap: calls are sequential)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s in self.spans:
            own = s["end"] - s["start"] - child[s["id"]]
            out[s["name"]] = out.get(s["name"], 0.0) + own
        return out


def _batches(table: pa.Table, size: int) -> list[pa.Table]:
    return [table.slice(i, size) for i in range(0, table.num_rows, size)]


def _run_kernels(tr: Tracer, table: pa.Table) -> dict:
    """Each row-local kernel over the workload's batches, in this process,
    so its busy time is its own and not the executor's."""
    from dataquality_box_ray import config
    from dataquality_box_ray.corpus import training_text
    from dataquality_box_ray.stages import ngram
    from dataquality_box_ray.stages.decide import decide_kernel
    from dataquality_box_ray.stages.heuristics import heuristics_kernel
    from dataquality_box_ray.stages.langid import build_tables
    from dataquality_box_ray.stages.scorers import FusedScorers
    from dataquality_box_ray.stages.scrubber import scrub_kernel

    import ray

    def each(name: str, fn, batches: list[pa.Table]) -> list[pa.Table]:
        out = []
        for b in batches:
            with tr.span(name):
                out.append(fn(b))
        return out

    h = each("heuristics.kernel", heuristics_kernel,
             _batches(table, config.DEFAULT_BATCH_SIZE))
    with tr.span("scorers.build"):
        scorer = FusedScorers(ray.put(build_tables()),
                              ray.put(ngram.CondTrigramLM(training_text())))
    s = each("scorers.call", scorer,
             _batches(pa.concat_tables(h), config.SCORER_BATCH_SIZE))
    scored = pa.concat_tables(s)
    c = each("scrubber.kernel", scrub_kernel,
             _batches(scored, config.DEFAULT_BATCH_SIZE))
    each("decide.kernel", decide_kernel, c)
    scrubbed = pa.concat_tables(c)
    rows = table.num_rows
    chars = pc.sum(pc.utf8_length(pc.fill_null(table["content"], ""))).as_py()
    changed = pc.sum(pc.cast(pc.greater(scrubbed["scrub_hits"], 0),
                             pa.int64())).as_py()
    return {
        "heuristics.busy_s": tr.total("heuristics.kernel"),
        "heuristics.rows_per_s": rows / tr.total("heuristics.kernel"),
        "scorers.busy_s": tr.total("scorers.call"),
        "scorers.chars_per_s": chars / tr.total("scorers.call"),
        "scorers.build_s": tr.total("scorers.build"),
        "scrubber.busy_s": tr.total("scrubber.kernel"),
        "scrubber.hit_share": changed / rows,
        "decide.busy_s": tr.total("decide.kernel"),
    }


def _reconcile(tr: Tracer, stage, rows: int, work: pathlib.Path) -> dict:
    from dataquality_box_ray.pipelines.quality_filter import (
        SLIM_COLUMNS, apply_labels_auto)
    from dataquality_box_ray.stages.reconcile import (
        compute_label_datasets, compute_label_tables, pack_labels)

    slim = stage.select_columns(SLIM_COLUMNS)
    with tr.span("reconcile.labels"):
        labels, losers = compute_label_tables(slim)
    sizes_file = work / "group_sizes.txt"
    with tr.span("reconcile.groups"):
        compute_label_datasets(slim, group_size_file=str(sizes_file))
    sizes = [int(v) for v in sizes_file.read_text().split()]
    with tr.span("reconcile.apply"):
        apply_labels_auto(slim, stage).materialize()
    packed = pack_labels(labels, losers)
    return {
        "reconcile.labels_s": tr.total("reconcile.labels"),
        "reconcile.label_rows": len(labels),
        "reconcile.loser_rows": len(losers),
        "reconcile.label_share": len(labels) / rows,
        "reconcile.max_group_rows": max(sizes),
        "reconcile.group_skew": max(sizes) / statistics.mean(sizes),
        "reconcile.apply_s": tr.total("reconcile.apply"),
        "reconcile.broadcast_mb": sum(a.nbytes for a in packed.values()) / 1e6,
    }


def _manifest(tr: Tracer, data: pathlib.Path, work: pathlib.Path) -> dict:
    """Repeated ``fail_after=1`` runs: each resumes and commits exactly one
    more partition, so call i times the commit of partition i."""
    from dataquality_box_ray.pipelines.manifest import (
        load_manifest, run_quality_filter, verify_lineage_coverage)

    out = work / "manifest"
    recomputed = 0
    prev: dict = {}
    times = []
    for _ in range(COMMIT_PROBE_PARTITIONS):
        with tr.span("manifest.commit") as sp:
            try:
                run_quality_filter(str(data), str(out),
                                   partitions=COMMIT_PROBE_PARTITIONS,
                                   fail_after=1)
            except RuntimeError as e:
                if "injected failure" not in str(e):
                    raise
        times.append(sp["end"] - sp["start"])
        snap = jobs.committed_snapshot(out)
        recomputed += sum(1 for p, s in prev.items() if snap.get(p) != s)
        prev = snap
    parts = load_manifest(out)["partitions"].values()
    committed = sum(1 for e in parts if e.get("status") == "committed")
    ok = (committed == COMMIT_PROBE_PARTITIONS
          and verify_lineage_coverage(str(out), str(data)))
    index_rows = sum(pq.read_metadata(e["index"]).num_rows for e in parts)
    return {
        "manifest.commit_s.first": times[0],
        "manifest.commit_s.last": times[-1],
        "manifest.commit_growth": times[-1] / times[0],
        "manifest.bytes_written": jobs.dir_bytes(out),
        "manifest.index_rows": index_rows,
        "manifest.recomputed_partitions": recomputed,
    }, ok


def _two_pass_job(data: pathlib.Path, out: pathlib.Path, span):
    """The in-memory job through its two public passes, each inside
    ``span(name)``. Returns the materialized score-pass stage."""
    from dataquality_box_ray.pipelines.quality_filter import (
        finalize_dataset, scored_dataset)

    with span("quality_filter.score_pass"):
        stage = scored_dataset(str(data)).materialize()
    with span("quality_filter.finalize_pass"):
        finalize_dataset(stage).write_parquet(str(out), compression="zstd")
    return stage


def _no_span(name: str):
    return contextlib.nullcontext()


def run(tr: Tracer, data: pathlib.Path, expected: dict | None,
        work: pathlib.Path) -> tuple[dict, dict, int, int]:
    """All layer probes on one input. Returns (metrics, job times,
    attempted, failed): every whole-job output and the manifest lineage are
    checked."""
    import ray

    from dataquality_box_ray.sources import read_parquet

    # untraced and traced runs of the same two-pass job in ABBA order, so
    # that trace.overhead_s is the spans' cost and not a change of plan or
    # of position in the run
    untraced, traced, outs = [], [], []
    for i in range(2 * OVERHEAD_PAIRS):
        outs.append(work / f"job{i}")
        if i % 4 in (0, 3):
            with jobs.Stopwatch() as sw:
                _two_pass_job(data, outs[-1], _no_span)
            untraced.append(sw.s)
        else:
            with jobs.Stopwatch() as sw, tr.span("job"):
                stage = _two_pass_job(data, outs[-1], tr.span)
            traced.append(sw.s)
    if expected is None:        # durable workload: the runs must agree
        expected = jobs.result_digest([outs[0]])
    failed = sum(jobs.result_digest([o]) != expected for o in outs)

    with tr.span("sources.read"):
        ds = read_parquet(str(data)).materialize()
    table = pa.concat_tables(ray.get(ds.to_arrow_refs()))
    metrics = {"sources.read_s": tr.total("sources.read"),
               "sources.bytes": ds.size_bytes()}
    metrics.update(_run_kernels(tr, table))
    score_s = statistics.median(tr.durations("quality_filter.score_pass"))
    final_s = statistics.median(tr.durations("quality_filter.finalize_pass"))
    kernels = sum(metrics[k] for k in ("heuristics.busy_s", "scorers.busy_s",
                                       "scrubber.busy_s", "decide.busy_s"))
    metrics.update({
        "quality_filter.score_pass_s": score_s,
        "quality_filter.finalize_pass_s": final_s,
        "quality_filter.executor_overhead_s": score_s + final_s - kernels,
    })
    metrics.update(_reconcile(tr, stage, table.num_rows, work))
    man, man_ok = _manifest(tr, data, work)
    metrics.update(man)
    traced_s, untraced_s = statistics.median(traced), statistics.median(untraced)
    metrics["trace.overhead_s"] = traced_s - untraced_s
    jobs_s = {"traced_job_s": traced_s, "untraced_job_s": untraced_s}
    return metrics, jobs_s, len(outs) + 1, failed + (not man_ok)
