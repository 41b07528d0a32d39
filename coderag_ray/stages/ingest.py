"""Ingest stage — corpus normalization, identity, routing.

Replaces the reference's filesystem scan + change-detection hashing
(``/root/reference/packages/core/src/utils.ts:175-235`` ``scanFiles``,
``utils.ts:311-319`` ``simpleHash``): the input is already a Parquet
table of ``(repo, path, commit, lang, content)``, so this stage only

- assigns the deterministic ``doc_id`` (input column passthrough when
  present, else top-63-bit sha256 of the identity triple),
- computes the per-row ``content_sha256`` (the north-rule invariant
  carried through every later stage),
- applies the max-file-size filter (``utils.ts:206-208``,
  ``indexer.ts:100``: default 1 MiB, measured in UTF-8 bytes),
- routes each doc to its index partition
  ``part_id = splitmix64(doc_id) % P`` (document-partitioned index —
  the skew answer, see :mod:`coderag_ray.config`).

A pure vectorized ``map_batches`` transform, Arrow in / Arrow out.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from coderag_ray.config import IndexConfig
from coderag_ray.functions.hashing import batch_sha256, part_for_doc, stable_doc_id

INGEST_COLUMNS = ["doc_id", "part_id", "repo", "path", "commit", "lang",
                  "content", "n_chars", "n_bytes", "content_sha256"]


def doc_ids(repos, paths, commits) -> pa.Array:
    """int64 ``doc_id`` of each ``(repo, path, commit)`` identity triple."""
    return pa.array([stable_doc_id(r, p, c) for r, p, c in zip(repos, paths, commits)],
                    type=pa.int64())


def part_ids(doc_id: pa.Array, num_parts: int) -> pa.Array:
    """int32 ``part_id = splitmix64(doc_id) % num_parts`` of each doc."""
    return pa.array(
        part_for_doc(doc_id.to_numpy(zero_copy_only=False).astype(np.uint64), num_parts).astype(np.int32)
    )


def make_ingest(config: IndexConfig):
    """Build the ingest map_batches UDF (stateless task)."""

    max_bytes = config.max_file_size
    num_parts = config.num_partitions

    def ingest(t: pa.Table) -> pa.Table:
        # chunked as it comes: one block's content may pass the 2 GiB
        # offset limit of a single string array
        content = t["content"]
        n_bytes = pc.binary_length(content)
        keep = pc.less_equal(n_bytes, max_bytes)
        if not pc.all(keep).as_py():
            t = t.filter(keep)
            content = t["content"]
            n_bytes = pc.binary_length(content)
        if t.num_rows == 0:
            return pa.table({c: pa.array([], type=pa.int64() if c in ("doc_id", "n_chars", "n_bytes") else (pa.int32() if c == "part_id" else pa.string())) for c in INGEST_COLUMNS})

        if "doc_id" in t.column_names:
            doc_id = pc.cast(t["doc_id"], pa.int64())
        else:
            doc_id = doc_ids(t["repo"].to_pylist(), t["path"].to_pylist(),
                             t["commit"].to_pylist())
        part_id = part_ids(doc_id, num_parts)
        return pa.table(
            {
                "doc_id": doc_id,
                "part_id": part_id,
                "repo": t["repo"],
                "path": t["path"],
                "commit": t["commit"],
                "lang": t["lang"],
                "content": content,
                "n_chars": pc.cast(pc.utf8_length(content), pa.int64()),
                "n_bytes": pc.cast(n_bytes, pa.int64()),
                "content_sha256": batch_sha256(content),
            }
        )

    return ingest


def make_part_filter(dirty_parts: frozenset[int]):
    """Vectorized part_id ∈ dirty filter (resume path)."""

    parts_arr = pa.array(sorted(dirty_parts), type=pa.int32())

    def flt(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_in(t["part_id"], value_set=parts_arr))

    return flt
