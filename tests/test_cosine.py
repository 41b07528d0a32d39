"""Cosine-similarity mode: magnitudes (A3) + rank/score parity vs oracle."""

import os

import numpy as np
import pyarrow.parquet as pq
import pytest

from coderag_ray.config import IndexConfig
from coderag_ray.corpus import make_corpus
from coderag_ray.index.build import build_index
from coderag_ray.index.reader import IndexReader
from coderag_ray.oracle import OracleIndex
from coderag_ray.query.search import search

QUERIES = [
    "user authentication", "database connection", "getUserById",
    "validate credentials password", "self return function", "nonexistent_xyz",
]


@pytest.fixture(scope="module")
def built(ray_session, tmp_path_factory):
    import ray.data

    corpus = make_corpus(n_docs=150, seed=33)
    d = str(tmp_path_factory.mktemp("cosidx"))
    cfg = IndexConfig(num_partitions=4)
    build_index(ray.data.from_arrow(corpus), d, cfg)
    oracle = OracleIndex.from_rows(corpus.to_pylist(), cfg)
    return d, oracle


def test_magnitudes_written_and_match_oracle(built):
    d, oracle = built
    reader = IndexReader(d)
    import math

    expected = {}
    for c in oracle.chunks:
        dl = max(c.token_count, 1)
        expected[(c.doc_id, c.chunk_id)] = math.sqrt(
            sum(((c.tf[t] / dl) * oracle.idf(t)) ** 2 for t in sorted(c.tf))
        )
    mags, rows = reader.magnitudes(), reader.ordinal_space()
    for o in range(rows.n_chunks):
        assert mags[o] == pytest.approx(
            expected[(int(rows.doc_ids[o]), int(rows.chunk_ids[o]))], abs=1e-12
        )
    assert len(mags) == rows.n_chunks == oracle.n_chunks


def test_cosine_rank_parity(built):
    """Cosine values always come from the disk postings; a resident
    reader and one over its preload cap both equal the oracle."""
    d, oracle = built
    resident, disk = IndexReader(d), IndexReader(d)
    disk.PRELOAD_MAX_BYTES = 0
    assert resident.ensure_preloaded() and not disk.ensure_preloaded()
    for reader in (resident, disk):
        for q in QUERIES:
            for k in (1, 5, 20):
                exp = oracle.search_cosine(q, k)
                got = search(reader, q, k, with_doc_columns=False, mode="cosine")
                got_rows = list(zip(got["doc_id"].to_pylist(), got["chunk_id"].to_pylist(),
                                    got["score"].to_pylist()))
                exp_rows = [(a, b, s) for a, b, s, _ in exp]
                assert got_rows == exp_rows, f"q={q!r} k={k}"


def test_cosine_scores_bounded(built):
    d, _ = built
    got = search(d, "user authentication function", 50,
                 with_doc_columns=False, mode="cosine")
    s = np.array(got["score"].to_pylist())
    assert ((s >= -1e-9) & (s <= 1.0 + 1e-9)).all()
