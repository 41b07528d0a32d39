"""Resumable partitioned parquet sink.

The index build already writes per-partition directories atomically with
a manifest; this is the same discipline as a GENERIC sink for any
Dataset: hash-partition rows by a key column into ``part=NNNNN/``
directories, each written tmp+atomic-rename with a ``_SUCCESS`` marker,
so a failed or re-run job skips finished partitions instead of
rewriting the world (the brief's "resumable output" requirement —
never one giant file, restartable at partition granularity).

Files are DETERMINISTIC: rows are sorted by the partition key (plus all
other columns as tie-breaks) before writing, so a resumed run that does
rewrite a partition produces byte-identical parquet — verified in
tests by SIGKILL-free delete-and-rewrite equality.
"""

from __future__ import annotations

import os
import shutil

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from coderag_ray.stages.bucket_agg import exchange, hash_buckets

SUCCESS_MARKER = "_SUCCESS"


def write_partitioned(ds, out_dir: str, key_col: str, num_partitions: int = 64,
                      skip_complete: bool = True):
    """Hash-partitioned, resumable, deterministic parquet write: one
    :func:`~coderag_ray.stages.bucket_agg.exchange` bucket per partition
    (so ``key_col`` is an integer, string or fixed-size binary column).

    → pyarrow Table (part, n_rows, skipped) — one summary row per
    partition actually present in the data.  Re-running over the same
    input is a no-op for partitions whose ``_SUCCESS`` marker exists
    (``skip_complete=False`` forces rewrite).
    """
    os.makedirs(out_dir, exist_ok=True)

    def write_group(g: pa.Table) -> pa.Table:
        part = int(hash_buckets(g.slice(0, 1), key_col, num_partitions)[0])
        part_dir = os.path.join(out_dir, f"part={part:05d}")
        done = os.path.join(part_dir, SUCCESS_MARKER)
        if skip_complete and os.path.exists(done):
            return pa.table({"part": pa.array([part], type=pa.int32()),
                             "n_rows": pa.array([g.num_rows], type=pa.int64()),
                             "skipped": pa.array([True])})
        # deterministic row order → byte-identical rewrite
        keys = [(key_col, "ascending")] + [
            (c, "ascending") for c in g.column_names if c != key_col
        ]
        try:
            g = g.take(pc.sort_indices(g, sort_keys=keys))
        except pa.ArrowNotImplementedError:
            g = g.take(pc.sort_indices(g, sort_keys=[(key_col, "ascending")]))
        tmp_dir = f"{part_dir}.tmp{os.getpid()}"
        shutil.rmtree(tmp_dir, ignore_errors=True)
        os.makedirs(tmp_dir)
        pq.write_table(g, os.path.join(tmp_dir, "data.parquet"),
                       compression="zstd", row_group_size=64 * 1024)
        open(os.path.join(tmp_dir, SUCCESS_MARKER), "w").close()
        shutil.rmtree(part_dir, ignore_errors=True)
        os.replace(tmp_dir, part_dir)
        return pa.table({"part": pa.array([part], type=pa.int32()),
                         "n_rows": pa.array([g.num_rows], type=pa.int64()),
                         "skipped": pa.array([False])})

    summary = exchange(ds, key_col, num_partitions, write_group,
                       batch_format="pyarrow").to_pandas()  # one row per partition — tiny
    return pa.Table.from_pandas(
        summary.sort_values("part").reset_index(drop=True), preserve_index=False
    ).replace_schema_metadata(None)


def read_partitioned(out_dir: str):
    """Read back a :func:`write_partitioned` layout (complete partitions
    only — incomplete ones have no ``_SUCCESS`` and are skipped with the
    assumption the producing job will be resumed)."""
    import ray.data

    files = []
    for name in sorted(os.listdir(out_dir)):
        p = os.path.join(out_dir, name)
        if name.startswith("part=") and os.path.exists(os.path.join(p, SUCCESS_MARKER)):
            files.extend(os.path.join(p, f) for f in sorted(os.listdir(p))
                         if f.endswith(".parquet"))
    return ray.data.read_parquet(files)
