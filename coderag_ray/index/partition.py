"""Partition writer — one index partition from one run-shuffle merge.

Each merged group holds every tokenized chunk routed to one ``part_id``
(document-partitioned index).  The writer is the Ray-native replacement
for the reference's posting-row store + per-term SQL GROUP BY
(``/root/reference/packages/core/src/storage-persistent.ts:488-567``
``storeManyChunkVectors`` and ``:1000-1007`` ``rebuildIdfScoresFromVectors``),
re-expressed as a fully vectorized local inverted-index build:

- chunks sorted by ``(doc_id, chunk_id)`` → local ordinal (the
  deterministic docID order the north rule requires; the reference's
  autoincrement insertion order is nondeterministic across rebuilds,
  ``db/schema.ts:38``),
- postings sorted by ``(term, ordinal)``, delta + v-byte compressed:
  one row per term holding its local df and the encoded ordinal and
  frequency buffers, which is all the scorers read,
- a tiny ``termdf.parquet`` of ``(term, df_local)`` partials that the
  global IDF aggregation merges — the "salted" partial df: a hot term's
  count arrives pre-aggregated per partition, so no reducer ever sees a
  hot term's raw postings.

Output files per partition (written atomically: tmp dir + rename):
``docs.parquet`` (ordinal-aligned chunk metadata), ``chunks.parquet``
(ordinal + chunk content, for snippets), ``postings.parquet``
(term-sorted posting lists), ``termdf.parquet``.

Data files are byte-stable for a given input fingerprint (fixed sort
orders, no timestamps in data); metrics live in the manifest only.
"""

from __future__ import annotations

import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from coderag_ray.functions import varint

DOCS_COLUMNS = ["doc_id", "chunk_id", "dl", "chunk_sha256", "content_sha256",
                "start_offset", "end_offset", "n_chunk_chars", "start_line", "end_line",
                "chunk_type", "repo", "path", "commit", "lang"]

_PARQUET_OPTS = dict(compression="zstd")


def part_dirname(part_id: int) -> str:
    return f"part={part_id:05d}"


def encode_partition_postings(
    terms_flat: pa.Array,
    ordinals: np.ndarray,
    freqs: np.ndarray,
) -> pa.Table:
    """Vectorized posting-list encoding for one partition.

    Inputs are the exploded ``(term, ordinal, freq)`` rows (any order).
    Returns the postings table sorted by term.
    """
    if len(ordinals) == 0:
        return pa.table(
            {
                "term": pa.array([], type=pa.string()),
                "df_local": pa.array([], type=pa.int64()),
                "doc_buf": pa.array([], type=pa.large_binary()),
                "freq_buf": pa.array([], type=pa.large_binary()),
            }
        )

    import pyarrow.compute as pc

    dict_arr = pc.dictionary_encode(terms_flat)
    if isinstance(dict_arr, pa.ChunkedArray):
        dict_arr = dict_arr.combine_chunks()
    codes = dict_arr.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    vocab = dict_arr.dictionary
    # rank codes by term string order (postings.parquet is term-sorted for
    # parquet row-group predicate pushdown at query time)
    vocab_order = pc.sort_indices(vocab).to_numpy(zero_copy_only=False).astype(np.int64)
    rank_of_code = np.empty(len(vocab), dtype=np.int64)
    rank_of_code[vocab_order] = np.arange(len(vocab))
    order = np.lexsort((ordinals, rank_of_code[codes]))
    s_rank = rank_of_code[codes][order]
    s_ord = ordinals[order].astype(np.int64)
    s_freq = freqs[order].astype(np.int64)

    # term run boundaries over the sorted stream
    n = len(s_ord)
    is_start = np.empty(n, dtype=bool)
    is_start[0] = True
    np.not_equal(s_rank[1:], s_rank[:-1], out=is_start[1:])
    term_starts = np.flatnonzero(is_start)
    df_local = np.diff(np.append(term_starts, n)).astype(np.int64)
    n_terms = len(term_starts)

    # delta encode ordinals with reset at term starts
    deltas = np.empty(n, dtype=np.uint64)
    deltas[0] = s_ord[0]
    deltas[1:] = (s_ord[1:] - s_ord[:-1]).astype(np.uint64)
    deltas[term_starts] = s_ord[term_starts].astype(np.uint64)

    doc_big = varint.encode(deltas)
    freq_big = varint.encode(s_freq.astype(np.uint64))
    doc_lens = varint.value_byte_lengths(deltas)
    freq_lens = varint.value_byte_lengths(s_freq.astype(np.uint64))
    doc_cum = np.concatenate([[0], np.cumsum(doc_lens)])
    freq_cum = np.concatenate([[0], np.cumsum(freq_lens)])

    # per-term binary slices, zero-copy via offset buffers
    term_doc_offsets = np.append(doc_cum[term_starts], doc_cum[-1]).astype(np.int64)
    term_freq_offsets = np.append(freq_cum[term_starts], freq_cum[-1]).astype(np.int64)
    doc_buf_col = pa.LargeBinaryArray.from_buffers(
        pa.large_binary(), n_terms,
        [None, pa.py_buffer(term_doc_offsets.tobytes()), pa.py_buffer(doc_big)],
    )
    freq_buf_col = pa.LargeBinaryArray.from_buffers(
        pa.large_binary(), n_terms,
        [None, pa.py_buffer(term_freq_offsets.tobytes()), pa.py_buffer(freq_big)],
    )

    sorted_terms = vocab.take(pa.array(vocab_order))
    # keep only vocab entries that actually appear (all do, by construction
    # of dictionary_encode over the stream)
    return pa.table(
        {
            "term": sorted_terms.cast(pa.string()),
            "df_local": pa.array(df_local, type=pa.int64()),
            "doc_buf": doc_buf_col,
            "freq_buf": freq_buf_col,
        }
    )


def write_partition(group: pa.Table, index_dir: str) -> dict:
    """Build + atomically write one partition; return its manifest row.

    The partition input fingerprint is recomputed here from the group's
    distinct docs (same formula as the resume-path ingest scan,
    :func:`coderag_ray.index.manifest.fingerprint_of`), so fresh builds
    need no separate fingerprint pass over the input.
    """
    t0 = time.perf_counter()
    part_id = int(group["part_id"][0].as_py())

    import pyarrow.compute as pc

    from coderag_ray.functions.hashing import sha_prefix_u32
    from coderag_ray.index.manifest import fingerprint_of

    order = pc.sort_indices(
        group, sort_keys=[("doc_id", "ascending"), ("chunk_id", "ascending")]
    )
    g = group.take(order)
    n_chunks = g.num_rows
    dls = g["token_count"].to_numpy(zero_copy_only=False).astype(np.int64)

    doc_ids_np = g["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    first_of_doc = np.empty(n_chunks, dtype=bool)
    if n_chunks:
        first_of_doc[0] = True
        np.not_equal(doc_ids_np[1:], doc_ids_np[:-1], out=first_of_doc[1:])
    doc_shas = g["content_sha256"].filter(pa.array(first_of_doc))
    fingerprint = fingerprint_of(len(doc_shas), int(sha_prefix_u32(doc_shas).sum()))

    # explode term lists → (term, ordinal, freq)
    terms_list = g["terms"].combine_chunks() if isinstance(g["terms"], pa.ChunkedArray) else g["terms"]
    freqs_list = g["freqs"].combine_chunks() if isinstance(g["freqs"], pa.ChunkedArray) else g["freqs"]
    lengths = pc.list_value_length(terms_list).to_numpy(zero_copy_only=False).astype(np.int64)
    ordinals = np.repeat(np.arange(n_chunks, dtype=np.int64), lengths)
    terms_flat = pc.list_flatten(terms_list)
    freqs_flat = pc.list_flatten(freqs_list).to_numpy(zero_copy_only=False).astype(np.int64)

    postings = encode_partition_postings(terms_flat, ordinals, freqs_flat)

    docs_tbl = pa.table(
        {
            "doc_id": g["doc_id"],
            "chunk_id": g["chunk_id"],
            "dl": pa.array(dls),
            "chunk_sha256": g["chunk_sha256"],
            "content_sha256": g["content_sha256"],
            "start_offset": g["start_offset"],
            "end_offset": g["end_offset"],
            "n_chunk_chars": g["n_chunk_chars"],
            "start_line": g["start_line"],
            "end_line": g["end_line"],
            "chunk_type": g["chunk_type"],
            "repo": g["repo"],
            "path": g["path"],
            "commit": g["commit"],
            "lang": g["lang"],
        }
    )
    chunks_tbl = pa.table(
        {"ordinal": pa.array(np.arange(n_chunks, dtype=np.int64)), "content": g["content"]}
    )
    termdf_tbl = postings.select(["term", "df_local"])

    final_dir = os.path.join(index_dir, "parts", part_dirname(part_id))
    tmp_dir = os.path.join(index_dir, "parts", f"_tmp_{part_dirname(part_id)}_{os.getpid()}")
    os.makedirs(tmp_dir, exist_ok=True)
    pq.write_table(docs_tbl, os.path.join(tmp_dir, "docs.parquet"), **_PARQUET_OPTS)
    pq.write_table(chunks_tbl, os.path.join(tmp_dir, "chunks.parquet"), **_PARQUET_OPTS)
    # small row groups → fine-grained term-range pruning at query time
    pq.write_table(postings, os.path.join(tmp_dir, "postings.parquet"),
                   row_group_size=2048, **_PARQUET_OPTS)
    pq.write_table(termdf_tbl, os.path.join(tmp_dir, "termdf.parquet"), **_PARQUET_OPTS)
    if os.path.exists(final_dir):
        shutil.rmtree(final_dir)
    os.replace(tmp_dir, final_dir)

    wall = time.perf_counter() - t0
    n_postings = int(len(ordinals))
    n_docs = int(len(np.unique(docs_tbl["doc_id"].to_numpy(zero_copy_only=False))))
    bytes_postings = sum(
        os.path.getsize(os.path.join(final_dir, f)) for f in ("postings.parquet", "termdf.parquet")
    )
    bytes_docs = sum(
        os.path.getsize(os.path.join(final_dir, f)) for f in ("docs.parquet", "chunks.parquet")
    )
    return {
        "part_id": part_id,
        "fingerprint": fingerprint,
        "n_docs": n_docs,
        "n_chunks": int(n_chunks),
        "n_postings": n_postings,
        "n_terms": int(postings.num_rows),
        "total_tokens": int(dls.sum()),
        "bytes_postings": int(bytes_postings),
        "bytes_docs": int(bytes_docs),
        "wall_s": round(wall, 4),
        "docs_per_sec": round(n_docs / wall, 2) if wall > 0 else None,
        "postings_per_sec": round(n_postings / wall, 2) if wall > 0 else None,
    }
