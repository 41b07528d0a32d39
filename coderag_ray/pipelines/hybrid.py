"""Hybrid (vector + BM25) search — the reference's optional LanceDB path
re-expressed Ray-native.

- :func:`build_embeddings` adds an ordinal-aligned ``embeddings.parquet``
  sidecar to every index partition (:class:`MockProvider` over each
  partition's chunk content — one task per partition, no shuffle).
- :func:`vector_topk` is the one exact vector scorer: the reader holds
  every sidecar as one resident ``(n_chunks, d)`` matrix
  (:meth:`IndexReader.embeddings`), and a query is one row-wise product
  ranked by BM25's :func:`~coderag_ray.query.search.top_k` on
  ``(similarity DESC, doc_id, chunk_id)``.
- :func:`hybrid_search` merges the two top-k lists with the reference's
  weighted max-normalized fusion (``hybrid-search.ts:169-263``
  ``mergeSearchResults``): each side is normalized by its own max score
  (floor 0.01), fused = ``vw * norm_vec + (1 - vw) * norm_bm25``; chunks
  present on both sides get the summed score ("hybrid" method).
  Deterministic tie-break (fused DESC, doc_id, chunk_id) replaces the
  reference's unstable JS sort.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from coderag_ray.functions.embeddings import DEFAULT_DIMENSIONS, MockProvider, mock_embedding
from coderag_ray.index.reader import IndexReader
from coderag_ray.query.search import search, top_k


def build_embeddings(index_dir: str, dimensions: int = DEFAULT_DIMENSIONS) -> int:
    """Embed every chunk of every partition (mock provider); returns rows embedded."""
    import ray

    reader = IndexReader(index_dir)

    @ray.remote
    def embed_part(part_dir: str, dims: int) -> int:
        chunks = pq.read_table(os.path.join(part_dir, "chunks.parquet"))
        embs = MockProvider(dims)(chunks["content"].to_pylist())
        out = chunks.select(["ordinal"]).append_column(
            "embedding", pa.array(list(embs), type=pa.list_(pa.float64())))
        tmp = os.path.join(part_dir, f"_tmp_embeddings_{os.getpid()}.parquet")
        pq.write_table(out, tmp, compression="zstd")
        os.replace(tmp, os.path.join(part_dir, "embeddings.parquet"))
        return out.num_rows

    futures = [
        embed_part.remote(reader.part_dir(pid), dimensions) for pid in reader.partitions
    ]
    return int(sum(ray.get(futures)))


def vector_topk(reader: IndexReader, query: str, k: int,
                dimensions: int = DEFAULT_DIMENSIONS) -> pa.Table:
    """Exact cosine top-k over the chunk-embedding sidecars (unit
    vectors), ordered by (similarity DESC, doc_id, chunk_id).

    ``einsum`` rather than ``@``: BLAS gemv sums a row differently
    depending on the matrix it sits in, so identical chunks could score
    1 ulp apart; ``einsum`` gives every row the same bits under any
    slicing of the matrix."""
    E = reader.embeddings()
    if len(E) and E.shape[1] != dimensions:
        raise ValueError(f"embedding sidecars have {E.shape[1]} dimensions, "
                         f"the query asked for {dimensions}")
    rows = reader.ordinal_space()
    sims = np.einsum("ij,j->i", E, mock_embedding(query, dimensions)) if len(E) \
        else np.empty(0)
    top = top_k(np.arange(len(sims)), sims, rows.doc_ids, rows.chunk_ids, k)
    pids, ords = rows.locate(top)
    return pa.table({
        "doc_id": pa.array(rows.doc_ids[top], type=pa.int64()),
        "chunk_id": pa.array(rows.chunk_ids[top], type=pa.int64()),
        "similarity": pa.array(sims[top], type=pa.float64()),
        "part_id": pa.array(pids, type=pa.int64()),
        "ordinal": pa.array(ords, type=pa.int64()),
    })


def hybrid_search(index: IndexReader | str, query: str, k: int = 10,
                  vector_weight: float = 0.5,
                  dimensions: int = DEFAULT_DIMENSIONS) -> pa.Table:
    """→ (rank, doc_id, chunk_id, score, method, similarity, bm25_score)."""
    reader = index if isinstance(index, IndexReader) else IndexReader(index)
    vec = vector_topk(reader, query, k, dimensions)
    bm = search(reader, query, k, with_doc_columns=False)

    vd, vc, vs = (vec[c].to_numpy() for c in ("doc_id", "chunk_id", "similarity"))
    bd, bc, bs = (bm[c].to_numpy() for c in ("doc_id", "chunk_id", "score"))
    vn = (vs / np.max(vs, initial=0.01)) * vector_weight
    bn = (bs / np.max(bs, initial=0.01)) * (1.0 - vector_weight)

    # full outer match on (doc_id, chunk_id) over the stacked rows,
    # vector side first: the stable sort puts a key found on both sides
    # as (vector row, BM25 row) next to each other
    doc, chunk = np.concatenate((vd, bd)), np.concatenate((vc, bc))
    o = np.lexsort((chunk, doc))
    same = (doc[o[1:]] == doc[o[:-1]]) & (chunk[o[1:]] == chunk[o[:-1]])
    vi, bi = o[:-1][same], o[1:][same]
    # the matched BM25 row folds into its vector row
    has_v = np.arange(len(doc)) < len(vd)
    has_b = ~has_v
    has_b[vi] = True
    z_v, z_b = np.zeros(len(vd)), np.zeros(len(bd))
    sim, s_v = np.concatenate((vs, z_b)), np.concatenate((vn, z_b))
    b25, s_b = np.concatenate((z_v, bs)), np.concatenate((z_v, bn))
    b25[vi], s_b[vi] = b25[bi], s_b[bi]
    # a one-sided row keeps its own score (a -0.0 stays -0.0)
    score = np.where(has_v & has_b, s_v + s_b, np.where(has_v, s_v, s_b))
    method = np.where(has_v & has_b, "hybrid", np.where(has_v, "vector", "tfidf"))
    live = np.ones(len(doc), dtype=bool)
    live[bi] = False
    top = top_k(np.flatnonzero(live), score, doc, chunk, k)
    return pa.table({
        "rank": pa.array(np.arange(1, len(top) + 1), type=pa.int32()),
        "doc_id": pa.array(doc[top], type=pa.int64()),
        "chunk_id": pa.array(chunk[top], type=pa.int64()),
        "score": pa.array(score[top], type=pa.float64()),
        "method": pa.array(method[top].tolist(), type=pa.string()),
        "similarity": pa.array(sim[top], type=pa.float64(), mask=~has_v[top]),
        "bm25_score": pa.array(b25[top], type=pa.float64(), mask=~has_b[top]),
    })
