"""Hybrid vector+BM25 search tests (J8 merge semantics, ST3 mock provider)."""

import pytest

from coderag_ray.config import IndexConfig
from coderag_ray.corpus import make_corpus
from coderag_ray.index.build import build_index
from coderag_ray.index.reader import IndexReader
from coderag_ray.pipelines.hybrid import build_embeddings, hybrid_search, vector_topk
from coderag_ray.query.search import search


@pytest.fixture(scope="module")
def built(ray_session, tmp_path_factory):
    import ray.data

    d = str(tmp_path_factory.mktemp("hyidx"))
    build_index(ray.data.from_arrow(make_corpus(120, seed=9)), d,
                IndexConfig(num_partitions=3))
    n = build_embeddings(d, dimensions=32)
    return d, n


def test_embeddings_cover_all_chunks(built):
    d, n = built
    reader = IndexReader(d)
    assert n == reader.n_chunks


def test_vector_topk_shape_and_order(built):
    d, _ = built
    reader = IndexReader(d)
    out = vector_topk(reader, "database connection", 5, dimensions=32)
    assert out.num_rows == 5
    sims = out["similarity"].to_pylist()
    assert sims == sorted(sims, reverse=True)


def test_hybrid_weights(built):
    d, _ = built
    reader = IndexReader(d)
    # vw=0 → pure BM25 ranking
    h0 = hybrid_search(reader, "validate credentials", 5, vector_weight=0.0,
                       dimensions=32)
    bm = search(reader, "validate credentials", 5, with_doc_columns=False)
    assert h0["doc_id"].to_pylist() == bm["doc_id"].to_pylist()
    # vw=1 → pure vector ranking
    h1 = hybrid_search(reader, "validate credentials", 5, vector_weight=1.0,
                       dimensions=32)
    v = vector_topk(reader, "validate credentials", 5, dimensions=32)
    assert h1["doc_id"].to_pylist() == v["doc_id"].to_pylist()
    # mixed: fused score ≤ 1 (max-normalized each side), methods labeled
    h = hybrid_search(reader, "validate credentials", 10, vector_weight=0.5,
                      dimensions=32)
    assert max(h["score"].to_pylist()) <= 1.0 + 1e-12
    assert set(h["method"].to_pylist()) <= {"vector", "tfidf", "hybrid"}


# --------------------------------------------------------------------------
# the resident exact vector scorer against a brute-force ranking
# --------------------------------------------------------------------------

QUERIES = ["database connection", "validate credentials", "parse token", "zzqx"]


def _brute_topk(reader, query, k, dimensions=32):
    """Per-partition, per-row einsum over the sidecars, one full lexsort."""
    import os

    import numpy as np
    import pyarrow.parquet as pq

    from coderag_ray.functions.embeddings import emb_matrix, mock_embedding

    qv = mock_embedding(query, dimensions)
    rows = []
    for pid in reader.partitions:
        E = emb_matrix(pq.read_table(
            os.path.join(reader.part_dir(pid), "embeddings.parquet"))["embedding"])
        docs = pq.read_table(os.path.join(reader.part_dir(pid), "docs.parquet"),
                             columns=["doc_id", "chunk_id"])
        for o, (doc_id, chunk_id) in enumerate(zip(docs["doc_id"].to_pylist(),
                                                   docs["chunk_id"].to_pylist())):
            rows.append((float(np.einsum("j,j->", E[o], qv)), doc_id, chunk_id, pid, o))
    sims = np.array([r[0] for r in rows])
    order = np.lexsort(([r[2] for r in rows], [r[1] for r in rows], -sims))[:k]
    return [(rows[i][1], rows[i][2], rows[i][0], rows[i][3], rows[i][4]) for i in order]


def _rows_of(t):
    return list(zip(t["doc_id"].to_pylist(), t["chunk_id"].to_pylist(),
                    t["similarity"].to_pylist(), t["part_id"].to_pylist(),
                    t["ordinal"].to_pylist()))


def _check_bruteforce(reader, ks):
    for q in QUERIES:
        for k in ks:
            got = _rows_of(vector_topk(reader, q, k, dimensions=32))
            assert got == _brute_topk(reader, q, k), (q, k)  # bitwise similarities


def test_vector_topk_matches_bruteforce(built):
    d, _ = built
    reader = IndexReader(d)
    n = reader.n_chunks
    _check_bruteforce(reader, [1, 5, n, n + 3])
    assert vector_topk(reader, "database connection", n + 3, dimensions=32).num_rows == n


def test_vector_topk_shard_and_lazy_reader(built):
    import os

    import pyarrow.parquet as pq

    d, _ = built
    full = IndexReader(d)
    shard = IndexReader(d, partitions=full.partitions[1:])
    # a shard holds only its own rows
    assert len(shard.embeddings()) == sum(
        pq.read_metadata(os.path.join(full.part_dir(p), "docs.parquet")).num_rows
        for p in shard.partitions) < full.n_chunks
    _check_bruteforce(shard, [1, 5, len(shard.embeddings()) + 3])
    lazy = IndexReader(d)
    lazy.PRELOAD_MAX_BYTES = 0  # over the cap: never resident
    _check_bruteforce(lazy, [1, 7, lazy.n_chunks])
    assert not lazy.ensure_preloaded() and lazy.compact() is None
    # a resident reader scores from the compact index's own ordinal arrays
    res = IndexReader(d)
    assert res.ensure_preloaded()
    assert res.compact().doc_ids is res.ordinal_space().doc_ids
    _check_bruteforce(res, [5])


def test_vector_topk_ties_resolved_by_doc_and_chunk(ray_session, tmp_path):
    """Duplicate files embed identically, so their chunks tie exactly on
    similarity and must come out in (doc_id, chunk_id) order."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    base = make_corpus(40, seed=4)
    dup = base.set_column(0, "doc_id", pc.add(base["doc_id"], 1000))
    d = str(tmp_path / "dupidx")
    build_index(ray.data.from_arrow(pa.concat_tables([base, dup])), d,
                IndexConfig(num_partitions=3))
    build_embeddings(d, dimensions=32)
    reader = IndexReader(d)
    n = reader.n_chunks
    _check_bruteforce(reader, [1, 2, 6, n])
    sims = vector_topk(reader, "database connection", 10, dimensions=32)["similarity"]
    assert len(set(sims.to_pylist())) < 10  # the top 10 holds exact ties


def test_einsum_rows_are_bitwise_under_slicing():
    import numpy as np

    rng = np.random.default_rng(5)
    E = rng.standard_normal((3001, 32))
    q = rng.standard_normal(32)
    whole = np.einsum("ij,j->i", E, q)
    cuts = [0, 1, 700, 2048, 3001]
    sliced = np.concatenate([np.einsum("ij,j->i", E[a:b], q)
                             for a, b in zip(cuts, cuts[1:])])
    assert whole.tobytes() == sliced.tobytes()


def test_vector_topk_errors(built, ray_session, tmp_path):
    import ray.data

    d, _ = built
    with pytest.raises(ValueError, match="32.*16"):
        vector_topk(IndexReader(d), "database connection", 5, dimensions=16)
    bare = str(tmp_path / "bare")
    build_index(ray.data.from_arrow(make_corpus(20, seed=2)), bare,
                IndexConfig(num_partitions=2))
    with pytest.raises(FileNotFoundError):
        vector_topk(IndexReader(bare), "database connection", 5, dimensions=32)
    # a sidecar left from an earlier build of another size
    import os

    import pyarrow.parquet as pq

    build_embeddings(bare, dimensions=32)
    r = IndexReader(bare)
    path = os.path.join(r.part_dir(r.partitions[0]), "embeddings.parquet")
    pq.write_table(pq.read_table(path).slice(1), path)
    with pytest.raises(ValueError, match="rows for"):
        vector_topk(IndexReader(bare), "database connection", 5, dimensions=32)


# --------------------------------------------------------------------------
# array fusion against the dict fusion it replaced
# --------------------------------------------------------------------------

def _dict_fusion(vec, bm, k, vector_weight):
    """Reference: the per-row dict fusion of the earlier implementation."""
    import pyarrow as pa

    max_vec = max([s for s in vec["similarity"].to_pylist()] + [0.01])
    max_bm = max([s for s in bm["score"].to_pylist()] + [0.01])
    fused = {}
    for r in vec.to_pylist():
        fused[(r["doc_id"], r["chunk_id"])] = {
            "doc_id": r["doc_id"], "chunk_id": r["chunk_id"],
            "score": (r["similarity"] / max_vec) * vector_weight,
            "method": "vector", "similarity": r["similarity"], "bm25_score": None,
        }
    for r in bm.to_pylist():
        key = (r["doc_id"], r["chunk_id"])
        norm = (r["score"] / max_bm) * (1.0 - vector_weight)
        if key in fused:
            fused[key]["score"] += norm
            fused[key]["method"] = "hybrid"
            fused[key]["bm25_score"] = r["score"]
        else:
            fused[key] = {
                "doc_id": r["doc_id"], "chunk_id": r["chunk_id"], "score": norm,
                "method": "tfidf", "similarity": None, "bm25_score": r["score"],
            }
    out = sorted(fused.values(), key=lambda d: (-d["score"], d["doc_id"], d["chunk_id"]))[:k]
    return pa.table({
        "rank": pa.array(range(1, len(out) + 1), type=pa.int32()),
        "doc_id": pa.array([d["doc_id"] for d in out], type=pa.int64()),
        "chunk_id": pa.array([d["chunk_id"] for d in out], type=pa.int64()),
        "score": pa.array([d["score"] for d in out], type=pa.float64()),
        "method": pa.array([d["method"] for d in out], type=pa.string()),
        "similarity": pa.array([d["similarity"] for d in out], type=pa.float64()),
        "bm25_score": pa.array([d["bm25_score"] for d in out], type=pa.float64()),
    })


def test_hybrid_matches_dict_fusion(built):
    import math

    d, _ = built
    reader = IndexReader(d)
    n = reader.n_chunks
    neg_zeros = 0
    for q in ["validate credentials", "database connection", "zzqx nomatch"]:
        for vw in (0.0, 0.5, 1.0):
            for k in (5, 10, n):
                got = hybrid_search(reader, q, k, vector_weight=vw, dimensions=32)
                want = _dict_fusion(vector_topk(reader, q, k, dimensions=32),
                                    search(reader, q, k, with_doc_columns=False), k, vw)
                assert got.schema == want.schema
                assert got.to_pylist() == want.to_pylist(), (q, vw, k)
                # the same sign on every zero score, and the same bits
                assert ([math.copysign(1.0, s) for s in got["score"].to_pylist()]
                        == [math.copysign(1.0, s) for s in want["score"].to_pylist()])
                neg_zeros += sum(s == 0.0 and math.copysign(1.0, s) < 0
                                 for s in want["score"].to_pylist())
    assert neg_zeros > 0  # vector-only rows with negative similarity at vw=0
    empty = hybrid_search(reader, "zzqx nomatch", 5, vector_weight=0.0, dimensions=32)
    assert empty["bm25_score"].null_count == empty.num_rows == 5
