"""Disk vs resident BM25 parity: a reader over its preload cap, whose
query terms all come from the disk source, must return bitwise the same
top-k as the resident path (champion lists with the exhaustive scatter
fallback) on every reference query.  The test names date from the
block-max WAND scorer that served non-resident readers before."""

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


def disk_reader(index_dir: str) -> IndexReader:
    reader = IndexReader(index_dir)
    reader.PRELOAD_MAX_BYTES = 0  # over the cap: the disk source
    return reader


@pytest.fixture(scope="module")
def built(ray_session, tmp_path_factory):
    import ray.data

    corpus = make_corpus(n_docs=300, seed=21)
    d = str(tmp_path_factory.mktemp("wandidx"))
    build_index(ray.data.from_arrow(corpus), d, IndexConfig(num_partitions=4))
    return d


def test_wand_equals_exhaustive(built):
    reader = IndexReader(built)
    cold = disk_reader(built)
    assert reader.ensure_preloaded() and not cold.ensure_preloaded()
    sem = ["rank", "doc_id", "chunk_id", "score", "matched_terms"]
    for q in QUERIES:
        for k in (1, 3, 10, 100):
            a = search(reader, q, k, with_doc_columns=False).select(sem)
            b = search(cold, q, k, with_doc_columns=False).select(sem)
            assert a.equals(b), f"q={q!r} k={k}"


def test_wand_min_score_equals_exhaustive(built):
    reader = IndexReader(built)
    cold = disk_reader(built)
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
    cold = disk_reader(idx)
    for k in (1, 5, 50, 600):
        exp = [(d, c, s) for d, c, s, _ in oracle.search("alpha beta", k)]
        for reader in (warm, cold):
            got = search(reader, "alpha beta", k, with_doc_columns=False)
            rows = list(zip(got["doc_id"].to_pylist(), got["chunk_id"].to_pylist(),
                            got["score"].to_pylist()))
            assert rows == exp, (k, reader.ensure_preloaded())


def test_disk_source_shared_by_threads(built):
    """Threads sharing one disk reader, whose term cache is small enough
    to evict on every query, get what one thread gets, and the cache's
    postings count stays equal to what it holds."""
    import sys
    import threading

    want = {q: search(disk_reader(built), q, 10, with_doc_columns=False) for q in QUERIES}
    shared = disk_reader(built)
    shared._TERM_CACHE_MAX_POSTINGS = 50
    errors, done = [], []

    def work(i):
        try:
            for q in (QUERIES[i:] + QUERIES[:i]) * 2:
                assert search(shared, q, 10, with_doc_columns=False).equals(want[q]), q
            done.append(i)
        except Exception as e:  # noqa: BLE001 — reported by the main thread
            errors.append(e)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    assert sorted(done) == list(range(8))
    assert shared._term_cache_postings == sum(
        len(o) + 1 for o, _ in shared._term_cache.values())
