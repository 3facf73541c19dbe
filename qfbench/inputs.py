"""Seeded inputs and expected outputs for the quality-filter benchmark.

Every input is a pure function of ``(workload, rows, seed)``: the same seed
gives byte-identical Parquet files, another seed gives other rows. Inputs and
their expected results are cached under ``<checkout>/.bench_cache/inputs`` so
that a repeated seed re-reads instead of rebuilding.

Run as a script, it builds one workload's input in its own process, so that
neither generation nor the oracle counts toward any metric or the driver's
peak RSS::

    python3 qfbench/inputs.py --workload key_heavy --seed 3

It prints the input directory as its last line.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import sys

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

ROOT = pathlib.Path(__file__).resolve().parents[1]
CACHE = ROOT / ".bench_cache"

# rows per workload. A run brings the cluster up twice and times one job or
# more on each (run.py); ~70 runs have to fit in under an hour, so a job
# takes ~2 s on one CPU. key_heavy stays under
# stages.reconcile.DRIVER_LABEL_MAX_ROWS (300k), where the oracle alone
# would take ~29 s per seed on one CPU: its label pass runs on the driver,
# and the traced run drives the bucketed-shuffle form
# (compute_label_datasets). The durable path costs ~1 s per partition
# whatever its size, so checkpointed_resume stays small.
ROWS = {"content_heavy": 12_000, "key_heavy": 50_000,
        "checkpointed_resume": 4_000}
N_FILES = 8

# the columns a run must reproduce exactly
CHECKED = ["repo", "path", "commit", "keep", "drop_reasons", "matched_status",
           "content_sha256"]


def key_heavy_table(n_rows: int, seed: int) -> pa.Table:
    """Short one-line contents, 2-4 commits (mean 3) per (repo, path), a
    small content pool so most reconciliation winners are exact duplicates,
    and one mega-repo holding ~30% of the keys. Vectorised numpy only."""
    from dataquality_box_ray.corpus import LANGS

    rng = np.random.default_rng(seed)
    n_keys = n_rows // 3 + 1
    commits = rng.integers(2, 5, size=n_keys)
    while commits.sum() < n_rows:            # mean 3, so rarely loops
        commits = np.append(commits, 3)
    n_keys = len(commits)
    row_key = np.repeat(np.arange(n_keys), commits)[:n_rows]

    mega = rng.random(n_keys) < 0.30
    org = rng.integers(1, 7, size=n_keys).astype(str)
    rep = rng.integers(0, 23, size=n_keys).astype(str)
    repos = np.where(mega, "org0/repo0",
                     np.char.add(np.char.add("org", org),
                                 np.char.add("/repo", rep)))
    keys = np.arange(n_keys)
    paths = np.char.add(
        np.char.add(np.char.add("src/m", (keys % 97).astype(str)), "/k"),
        np.char.add(keys.astype(str), ".py"))

    # at most 9 chars, e.g. "qx=40213": too short for a language guess
    n_pool = max(1, n_keys // 4)
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    pool = np.char.add(
        np.char.add(letters[rng.integers(0, 26, size=n_pool)],
                    letters[rng.integers(0, 26, size=n_pool)]),
        np.char.add("=", rng.integers(0, 100_000, size=n_pool).astype(str)))
    content = pool[rng.integers(0, n_pool, size=n_rows)].astype(object)
    content[rng.random(n_rows) < 0.01] = ""

    commit = np.char.mod("%08x", rng.integers(0, 2**32, size=n_rows))
    lang = np.array(LANGS + ("xx",))[rng.integers(0, len(LANGS) + 1,
                                                  size=n_rows)]
    return pa.table({
        "repo": pa.array(repos[row_key], type=pa.string()),
        "path": pa.array(paths[row_key], type=pa.string()),
        "commit": pa.array(commit, type=pa.string()),
        "lang": pa.array(lang, type=pa.string()),
        "content": pa.array(content, type=pa.large_string()),
    })


def generate(workload: str, n_rows: int, seed: int) -> pa.Table:
    if workload == "key_heavy":
        return key_heavy_table(n_rows, seed)
    from dataquality_box_ray.corpus import generate_corpus
    return generate_corpus(n_rows, seed=seed)


def digest(table: pa.Table) -> dict:
    """Order-free summary of a result: row count, kept count and a sha256
    over the sorted per-row fingerprints of the checked columns."""
    import hashlib

    reasons = pc.binary_join(pc.fill_null(table["drop_reasons"], []), ",")
    fp = pc.binary_join_element_wise(
        table["repo"], table["path"], table["commit"],
        pc.cast(table["keep"], pa.string()), reasons,
        pc.cast(table["matched_status"], pa.string()),
        table["content_sha256"], "\x01")
    rows = sorted(fp.to_pylist())
    h = hashlib.sha256("\n".join(rows).encode()).hexdigest()
    kept = pc.sum(pc.cast(table["keep"], pa.int64())).as_py() or 0
    return {"rows": len(rows), "kept": int(kept), "sha256": h}


def input_dir(workload: str, seed: int, n_rows: int | None = None
              ) -> pathlib.Path:
    n_rows = ROWS[workload] if n_rows is None else n_rows
    return CACHE / "inputs" / f"{workload}_n{n_rows}_s{seed}"


def build(workload: str, seed: int, n_rows: int | None = None
          ) -> pathlib.Path:
    """Write the input as N_FILES Parquet parts plus ``expected.json`` (the
    oracle's digest; checkpointed_resume is checked against its own
    uninterrupted run instead). Reuses a complete cached copy."""
    n_rows = ROWS[workload] if n_rows is None else n_rows
    out = input_dir(workload, seed, n_rows)
    if (out / "_SUCCESS").exists():
        return out
    tmp = out.with_name(out.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    (tmp / "data").mkdir(parents=True)
    table = generate(workload, n_rows, seed)
    step = (table.num_rows + N_FILES - 1) // N_FILES
    for f in range(N_FILES):
        pq.write_table(table.slice(f * step, step),
                       tmp / "data" / f"part-{f:05d}.parquet",
                       compression="zstd", row_group_size=4096)
    if workload != "checkpointed_resume":
        from dataquality_box_ray.oracle import oracle_result
        expected = pa.Table.from_pandas(oracle_result(table)[CHECKED],
                                        preserve_index=False)
        (tmp / "expected.json").write_text(json.dumps(digest(expected)))
    shutil.rmtree(out, ignore_errors=True)
    os.replace(tmp, out)
    (out / "_SUCCESS").touch()
    return out


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(ROWS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rows", type=int, default=None)
    args = ap.parse_args(argv)
    print(build(args.workload, args.seed, args.rows))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT))
    sys.exit(main(sys.argv[1:]))
