"""Non-resident vs resident BM25 parity: the per-partition exhaustive
scorer that a ``preload="never"`` reader runs must return bitwise the
same top-k as the resident compact path (champion lists with the
exhaustive scatter fallback) on every reference query.  The test names
date from the block-max WAND scorer that served non-resident readers
before the per-partition scorer replaced it."""

import pytest

from coderag_ray.config import IndexConfig
from coderag_ray.corpus import make_corpus
from coderag_ray.index.build import build_index
from coderag_ray.index.reader import IndexReader
from coderag_ray.oracle import OracleIndex
from coderag_ray.query.search import search

QUERIES = [
    "user", "user authentication", "authenticate user", "database connection",
    "getUserById", "validate credentials password", "self return function",
    "mergeSortedRuns posting_list", "const import export class",
    "nonexistent_term_xyz", "handleRequest parse query",
]


@pytest.fixture(scope="module")
def built(ray_session, tmp_path_factory):
    import ray.data

    corpus = make_corpus(n_docs=300, seed=21)
    d = str(tmp_path_factory.mktemp("wandidx"))
    build_index(ray.data.from_arrow(corpus), d, IndexConfig(num_partitions=4))
    return d


def test_wand_equals_exhaustive(built):
    reader = IndexReader(built)
    cold = IndexReader(built, preload="never")
    assert reader.ensure_preloaded() and not cold.ensure_preloaded()
    sem = ["rank", "doc_id", "chunk_id", "score", "matched_terms"]
    for q in QUERIES:
        for k in (1, 3, 10, 100):
            a = search(reader, q, k, with_doc_columns=False).select(sem)
            b = search(cold, q, k, with_doc_columns=False).select(sem)
            assert a.equals(b), f"q={q!r} k={k}"


def test_wand_min_score_equals_exhaustive(built):
    reader = IndexReader(built)
    cold = IndexReader(built, preload="never")
    sem = ["rank", "doc_id", "chunk_id", "score"]
    for ms in (0.5, 2.0, 5.0):
        a = search(reader, "self return function", 20,
                   min_score=ms, with_doc_columns=False).select(sem)
        b = search(cold, "self return function", 20,
                   min_score=ms, with_doc_columns=False).select(sem)
        assert a.equals(b), ms


def test_blockmax_flat_impacts_ties_exact(ray_session, tmp_path):
    """Adversarial for the champion lists' certify/fallback step: a
    corpus where every impact is IDENTICAL (every doc repeats the same
    words the same number of times) makes the champion bound tie with
    the kth score everywhere, so no rung certifies and the resident path
    must fall back to the scatter.  Both residencies must still return
    the oracle's (score DESC, doc_id, chunk_id) ranking bitwise."""
    import pyarrow as pa
    import ray.data

    n = 600  # > CHAMPION_C, so hot terms have non-champion postings
    docs = pa.table({
        "doc_id": pa.array(range(n), type=pa.int64()),
        "repo": pa.array(["r"] * n), "path": pa.array([f"p/{i}" for i in range(n)]),
        "commit": pa.array([""] * n), "lang": pa.array(["text"] * n),
        "content": pa.array(["alpha beta gamma " * 4] * n),  # identical docs
    })
    cfg = IndexConfig(num_partitions=2)
    idx = str(tmp_path / "flat")
    build_index(ray.data.from_arrow(docs), idx, cfg)
    oracle = OracleIndex.from_rows(docs.to_pylist(), cfg)
    warm = IndexReader(idx)
    cold = IndexReader(idx, preload="never")
    for k in (1, 5, 50, 600):
        exp = [(d, c, s) for d, c, s, _ in oracle.search("alpha beta", k)]
        for reader in (warm, cold):
            got = search(reader, "alpha beta", k, with_doc_columns=False)
            rows = list(zip(got["doc_id"].to_pylist(), got["chunk_id"].to_pylist(),
                            got["score"].to_pylist()))
            assert rows == exp, (k, reader.ensure_preloaded())
