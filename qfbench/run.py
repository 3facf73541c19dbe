"""Quality-filter benchmark: one workload, one seed, one result line.

    python3 qfbench/run.py --workload content_heavy --seed 1 --seconds 5 --trace 0

Closed loop, one client: one batch job at a time on a Ray cluster started in
this process with ``num_cpus = nproc``. The input is generated from the seed
in a separate process (qfbench/inputs.py) and never counted. The cluster is
brought up SETUP_REPEATS times; set-up is the imports plus the median
bring-up. Each bring-up ends with a small job, so timing starts on warm
workers, and the timed loop is split into equal windows, one per cluster: a
cluster that came up slow weighs on one window, not on the whole run. Every
job's output is checked after the loop; a wrong or failed job counts in
``failed``.

Every time is taken with ``jobs.Stopwatch`` (Linux): wall time with the CPU
time the hypervisor stole from this guest taken out. On a shared 4-vCPU VM
the steal share swung between ~2% and ~20% over minutes and stretched wall
times by up to 60%; without steal the two are equal. The raw wall samples
are printed too.

Every workload reports every end-to-end metric. On the in-memory workloads,
which keep no checkpoint, ``resume_s`` is the time of a full rerun and
``write_amp`` is result bytes ÷ input bytes.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (qfbench/tracing.py), whose spans are written to
``.bench_cache/traces/``. The last line of stdout is the result JSON; the
line before it records nproc, the ray/pyarrow versions, the timed samples
behind the metrics, and error_rate (failed ÷ attempted jobs), which is 0 on a
correct build and so is not one of the metrics BENCHMARK.json bounds.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent)]

from inputs import CACHE, ROOT, ROWS, input_dir  # noqa: E402

# cluster bring-ups per run, each followed by one timing window. A bring-up
# and its shutdown cost ~8 s on one CPU, so two keep a run near 30 s.
SETUP_REPEATS = 2
WARMUP_ROWS = 400
# AF_UNIX socket paths are capped at 107 bytes; Ray adds ~64 to its temp dir
MAX_RAY_TEMP_LEN = 40


def nproc() -> int:
    """CPUs as `nproc` counts them: OMP_NUM_THREADS when set, else the
    affinity mask (capped by it either way)."""
    n = len(os.sched_getaffinity(0))
    omp = os.environ.get("OMP_NUM_THREADS", "")
    return min(n, int(omp)) if omp.isdigit() and int(omp) > 0 else n


def build_input(workload: str, seed: int, rows: int | None = None
                ) -> pathlib.Path:
    cached = input_dir(workload, seed, rows)
    if (cached / "_SUCCESS").exists():
        return cached
    cmd = [sys.executable, str(HERE / "inputs.py"), "--workload", workload,
           "--seed", str(seed)]
    if rows is not None:
        cmd += ["--rows", str(rows)]
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True)
    return pathlib.Path(out.stdout.strip().splitlines()[-1])


def ray_temp_dir() -> str | None:
    temp = CACHE / "ray"
    if len(str(temp)) <= MAX_RAY_TEMP_LEN:
        return str(temp)
    print(f"checkout path too long for Ray sockets under {temp}; "
          "using Ray's default temp dir", file=sys.stderr)
    return None


def bring_up(warm: pathlib.Path, out: pathlib.Path, temp: str | None
             ) -> float:
    """Start Ray, build the langid and perplexity models, and run one tiny
    job so that every worker process exists and has imported the engine."""
    import ray

    import jobs
    from dataquality_box_ray.corpus import training_text
    from dataquality_box_ray.stages import ngram
    from dataquality_box_ray.stages.langid import build_tables

    with jobs.Stopwatch() as sw:
        ray.init(address="local", num_cpus=nproc(), include_dashboard=False,
                 logging_level="ERROR", _temp_dir=temp,
                 object_store_memory=512 * 1024 ** 2)
        build_tables()
        ngram.CondTrigramLM(training_text())
        jobs.run_in_memory_job(warm / "data", out)
    return sw.s


def imports() -> float:
    """Import Ray and the engine (timed once: Python caches modules)."""
    import jobs
    with jobs.Stopwatch() as sw:
        from ray.data import DataContext

        import dataquality_box_ray.pipelines.manifest  # noqa: F401
        import dataquality_box_ray.pipelines.quality_filter  # noqa: F401

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    return sw.s


def stop_cluster() -> None:
    """ray.shutdown(), then wait until every process the cluster started
    has ended: Ray kills its daemons without waiting for them, and workers
    exit only after their raylet."""
    import ray
    import psutil   # importable once ray is: Ray ships it

    procs = psutil.Process().children(recursive=True)
    ray.shutdown()
    _, alive = psutil.wait_procs(procs, timeout=10)
    for proc in alive:
        with contextlib.suppress(psutil.NoSuchProcess):
            proc.kill()
    psutil.wait_procs(alive, timeout=10)


def clusters(warm: pathlib.Path, work: pathlib.Path, temp: str | None,
             n: int, bring_up_s: list[float]):
    """Bring up ``n`` fresh clusters one after another, appending each
    bring-up time to ``bring_up_s``, and yield while each is up. The last
    one is left running."""
    for i in range(n):
        if i:
            stop_cluster()
        bring_up_s.append(bring_up(warm, work / f"warm{i}", temp))
        yield


def end_to_end(workload: str, inp: pathlib.Path, work: pathlib.Path,
               window_s: float, sessions) -> tuple[dict, int, int, dict]:
    import jobs

    if workload == "checkpointed_resume":
        r = jobs.checkpointed(inp / "data", work, window_s, sessions)
    else:
        r = jobs.in_memory(inp / "data", jobs.load_expected(inp), work,
                           window_s, sessions)
    metrics = {
        "files_per_s": (ROWS[workload] / r["job_s"], "files/s"),
        "resume_s": (r["resume_s"], "s"),
        "driver_peak_rss_mb": (r["driver_peak_rss_mb"], "MB"),
        "write_amp": (r["write_amp"], "ratio"),
    }
    return metrics, r["attempted"], r["failed"], r["samples"]


def traced(workload: str, seed: int, inp: pathlib.Path, work: pathlib.Path
           ) -> tuple[dict, int, int, dict]:
    import jobs
    import tracing

    tr = tracing.Tracer(f"{workload}-s{seed}-{os.getpid()}")
    layer, job_s, attempted, failed = tracing.run(
        tr, inp / "data", jobs.load_expected(inp), work)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    metrics = {k: (v, units[k]) for k, v in layer.items()}
    out = CACHE / "traces" / f"{workload}_s{seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({
        "run": tr.run_id, "spans": tr.spans, "self_s": tr.self_times(),
        "metrics": layer, "layers": tracing.LAYERS, **job_s, "env": env(),
    }, indent=1))
    print(f"trace overhead: {layer['trace.overhead_s']:.4f} s (median "
          f"traced job {job_s['traced_job_s']:.4f} s, untraced "
          f"{job_s['untraced_job_s']:.4f} s); spans in {out}",
          file=sys.stderr)
    return metrics, attempted, failed, job_s


def env() -> dict:
    import pyarrow
    import ray
    return {"nproc": nproc(), "ray": ray.__version__,
            "pyarrow": pyarrow.__version__}


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(ROWS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "dataquality_box_ray" / "__init__.py").is_file():
        print("the engine package dataquality_box_ray is not in this "
              "checkout", file=sys.stderr)
        return 2
    # Ray workers and the input process import the engine from the checkout
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT), str(HERE), os.environ.get("PYTHONPATH", "")]).rstrip(
        os.pathsep)

    import jobs
    inp = build_input(args.workload, args.seed)
    warm = build_input("content_heavy", 0, WARMUP_ROWS)
    work = CACHE / "work" / f"{args.workload}_s{args.seed}_{os.getpid()}"
    jobs.clean(work)
    temp = ray_temp_dir()
    try:
        import_s, bring_up_s = imports(), []
        if args.trace:      # no setup_s here: one bring-up is enough
            next(clusters(warm, work, temp, 1, bring_up_s))
            metrics, attempted, failed, samples = traced(
                args.workload, args.seed, inp, work)
        else:
            metrics, attempted, failed, samples = end_to_end(
                args.workload, inp, work, args.seconds / SETUP_REPEATS,
                clusters(warm, work, temp, SETUP_REPEATS, bring_up_s))
            metrics["setup_s"] = (import_s + statistics.median(bring_up_s),
                                  "s")
    finally:
        stop_cluster()
        shutil.rmtree(work, ignore_errors=True)
        if temp is not None:     # Ray's session logs, ~1 MB per bring-up
            shutil.rmtree(temp, ignore_errors=True)
    print(json.dumps({"env": env(), "error_rate": {
        "value": failed / attempted, "unit": "ratio"}, "samples": samples}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
