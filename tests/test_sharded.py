"""Sharded scatter-gather query tier: exact equality with the
single-reader path at several shard counts, for resident shards and for
shards whose postings come from disk."""

import pytest

from coderag_ray.config import IndexConfig
from coderag_ray.corpus import make_corpus
from coderag_ray.index.build import build_index
from coderag_ray.index.reader import IndexReader
from coderag_ray.query.search import search
from coderag_ray.query.sharded import ShardedSearcher, merge_shard_results

QUERIES = [
    "user authentication", "database connection", "handleRequest",
    "validate credentials password", "self return function",
    "mergeSortedRuns posting_list", "nonexistent_term_xyz",
]


@pytest.fixture(scope="module")
def sharded_idx(ray_session, tmp_path_factory):
    import ray.data

    corpus = make_corpus(n_docs=200, seed=42)
    index_dir = str(tmp_path_factory.mktemp("shard_idx"))
    build_index(ray.data.from_arrow(corpus), index_dir,
                IndexConfig(tokenizer="code", num_partitions=8))
    return index_dir


def _rows(t):
    return list(zip(t["doc_id"].to_pylist(), t["chunk_id"].to_pylist(),
                    t["score"].to_pylist()))


@pytest.mark.parametrize("n_shards", [1, 3, 8])
def test_sharded_equals_single_reader(sharded_idx, n_shards):
    reader = IndexReader(sharded_idx)
    srch = ShardedSearcher(sharded_idx, n_shards=n_shards)
    try:
        for q in QUERIES:
            for k in (5, 20):
                single = search(reader, q, k, with_doc_columns=False)
                merged = srch.search(q, k)
                assert merged.equals(single), (q, k, n_shards)
    finally:
        srch.shutdown()


def test_sharded_wand_equals_single(sharded_idx):
    """Shards over their preload cap (disk source), one reader per
    round-robin partition subset as ShardedSearcher assigns them, merge
    with the searcher's own merge to the resident single-reader result."""
    reader = IndexReader(sharded_idx)
    shards = [IndexReader(sharded_idx, partitions=reader.partitions[i::4]) for i in range(4)]
    for shard in shards:
        shard.PRELOAD_MAX_BYTES = 0
    for q in QUERIES:
        single = search(reader, q, 10, with_doc_columns=False)
        merged = merge_shard_results(
            [search(s, q, 10, with_doc_columns=False) for s in shards], 10)
        assert merged.equals(single), q
    assert not any(s.ensure_preloaded() for s in shards)


def test_reader_partition_subset_scores_globally(sharded_idx):
    """A restricted reader scores with GLOBAL stats: its results are a
    subset of the full ranking with identical scores."""
    full = IndexReader(sharded_idx)
    sub = IndexReader(sharded_idx, partitions=full.partitions[:3])
    assert sub.partitions == full.partitions[:3]
    assert sub.avgdl == full.avgdl and sub.n_chunks == full.n_chunks
    # exhaustive k so the full ranking contains every matching chunk
    fr = {(d, c): s for d, c, s in _rows(search(full, "user authentication", 100000,
                                                with_doc_columns=False))}
    for d, c, s in _rows(search(sub, "user authentication", 100000,
                                with_doc_columns=False)):
        assert fr[(d, c)] == s  # bitwise-equal scores on the shard subset
