"""Steadiness self-check: run the benchmark once per seed on each workload
and report, per end-to-end metric, the median, quartiles, sample count and
spread (quartile distance ÷ median). A metric whose spread exceeds its bound
in BENCHMARK.json is flagged (``setup_s`` is reported, never flagged: only
its median is compared between commits). Also prints error_rate, failed ÷
attempted over all runs of a workload.

    python3 qfbench/steady.py --seeds 1 2 3 4 5 --workloads key_heavy

Exit code 1 when a metric is flagged or a run is not correct.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median), quartiles as
    statistics.quantiles(values, n=4) gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(argv: list[str]) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args(argv)

    bad = False
    for w in args.workloads:
        runs = []
        for seed in args.seeds:
            t0 = time.perf_counter()
            cmd = [*spec["command"], "--workload", w, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, check=True, text=True,
                                 stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL).stdout
            lines = out.strip().splitlines()
            runs.append(json.loads(lines[-1]))
            print(f"{w} seed {seed} ({time.perf_counter() - t0:.1f} s wall): "
                  f"{lines[-2]} {lines[-1]}", flush=True)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        bad |= failed > 0 or not all(r["correct"] for r in runs)
        print(f"{w}: error_rate {failed / attempted:.4f} ratio "
              f"({failed}/{attempted})")
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            med, q1, q3, s = spread(vals)
            over = s > m["bound"] and m["name"] != "setup_s"
            bad |= over
            print(f"{w}: {m['name']} median {med:.4f} {m['unit']} "
                  f"q1 {q1:.4f} q3 {q3:.4f} n {len(vals)} spread {s:.4f} "
                  f"bound {m['bound']}{'  OVER BOUND' if over else ''}",
                  flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
