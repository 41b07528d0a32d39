"""End-to-end: distributed build → BM25 search, with exact rank/score
parity against the single-process oracle (the correctness spine,
SURVEY.md §5) and the per-row content-sha256 invariant."""

import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from coderag_ray.config import IndexConfig
from coderag_ray.corpus import make_corpus
from coderag_ray.index.build import build_index
from coderag_ray.index.reader import IndexReader
from coderag_ray.oracle import OracleIndex
from coderag_ray.query.search import SearchFilters, dedupe_query_tokens, search

# 63 distinct tokens that occur nowhere in the corpus, then 3 real
# terms: the real terms sit past the 63rd query token
LONG_QUERY = " ".join(f"fillerzq{chr(97 + i // 26)}{chr(97 + i % 26)}" for i in range(63)) \
    + " user authentication database"

QUERIES = [
    "user", "user authentication", "authenticate user", "user name",
    "database connection", "connect", "handleRequest", "async function error",
    "getUserById", "validate credentials password", "class admin permissions",
    "nonexistent_term_xyz", "", "self return function", "mergeSortedRuns posting_list",
    LONG_QUERY,
]


def disk_reader(index_dir: str) -> IndexReader:
    """A reader whose postings are over its preload cap: every query
    term comes from the disk source."""
    reader = IndexReader(index_dir)
    reader.PRELOAD_MAX_BYTES = 0
    return reader


@pytest.fixture(scope="module")
def built(ray_session, tmp_path_factory):
    corpus = make_corpus(n_docs=200, seed=42)
    index_dir = str(tmp_path_factory.mktemp("idx"))
    import ray.data

    cfg = IndexConfig(num_partitions=5)
    report = build_index(ray.data.from_arrow(corpus), index_dir, cfg)
    oracle = OracleIndex.from_rows(corpus.to_pylist(), cfg)
    return corpus, index_dir, report, oracle


def test_build_report_counts(built):
    corpus, index_dir, report, oracle = built
    assert report.n_chunks == oracle.n_chunks
    assert report.total_tokens == sum(c.token_count for c in oracle.chunks)
    assert report.n_docs == len({c.doc_id for c in oracle.chunks})
    assert report.dirty_partitions == 5
    # oversize docs filtered, empty docs chunkless
    assert report.n_docs < 200


def test_avgdl_and_idf_match_oracle(built):
    corpus, index_dir, report, oracle = built
    reader = IndexReader(index_dir)
    assert reader.avgdl == oracle.avgdl()
    assert reader.n_chunks == oracle.n_chunks
    # spot-check idf of hot + rare + missing terms
    terms = ["self", "return", "function", "getuserbyid", "zzz_never_seen"]
    got = reader.idf_for_terms(terms)
    for t in terms[:4]:
        assert t in got, t
        df, idf = got[t]
        assert df == oracle.df[t]
        assert idf == oracle.idf(t)
    assert "zzz_never_seen" not in got


def test_full_idf_table_matches_oracle(built):
    corpus, index_dir, report, oracle = built
    idf_tbl = pq.read_table(os.path.join(index_dir, "idf"))
    got = dict(zip(idf_tbl["term"].to_pylist(), idf_tbl["df"].to_pylist()))
    assert got == oracle.term_df_table()
    # sorted by term for pushdown
    terms = idf_tbl["term"].to_pylist()
    assert terms == sorted(terms)


def test_rank_parity_exact(built):
    """Both sources — the resident impacts and the disk postings of a
    reader over its preload cap — equal the oracle bitwise."""
    corpus, index_dir, report, oracle = built
    readers = {"resident": IndexReader(index_dir), "disk": disk_reader(index_dir)}
    assert oracle.search(LONG_QUERY, 10)
    for q in QUERIES:
        for k in (1, 5, 10, 50):
            exp_rows = [(d, c, s) for d, c, s, _ in oracle.search(q, k)]
            for name, reader in readers.items():
                got = search(reader, q, k, with_doc_columns=False)
                got_rows = list(
                    zip(got["doc_id"].to_pylist(), got["chunk_id"].to_pylist(),
                        got["score"].to_pylist())
                )
                assert got_rows == exp_rows, f"{name} query={q!r} k={k}"


def test_matched_terms(built):
    corpus, index_dir, report, oracle = built
    got = search(IndexReader(index_dir), "user authentication", 5, with_doc_columns=False)
    exp = oracle.search("user authentication", 5)
    for row_terms, (_, _, _, exp_terms) in zip(got["matched_terms"].to_pylist(), exp):
        assert row_terms == exp_terms


def test_sha256_invariant_through_stages(built):
    """North-rule invariant: per-row content sha256 equality at every stage."""
    corpus, index_dir, report, oracle = built
    src_sha = {
        int(d): hashlib.sha256(c.encode()).hexdigest()
        for d, c in zip(corpus["doc_id"].to_pylist(), corpus["content"].to_pylist())
    }
    seen_docs = set()
    for pdir in sorted(os.listdir(os.path.join(index_dir, "parts"))):
        docs = pq.read_table(os.path.join(index_dir, "parts", pdir, "docs.parquet"))
        chunks = pq.read_table(os.path.join(index_dir, "parts", pdir, "chunks.parquet"))
        contents = chunks["content"].to_pylist()
        for i in range(docs.num_rows):
            did = docs["doc_id"][i].as_py()
            seen_docs.add(did)
            # doc-level sha carried intact
            assert docs["content_sha256"][i].as_py() == src_sha[did]
            # chunk-level sha re-verifies stored chunk content
            assert (
                hashlib.sha256(contents[i].encode()).hexdigest()
                == docs["chunk_sha256"][i].as_py()
            )
            # offsets reassemble into the source doc
            s, e = docs["start_offset"][i].as_py(), docs["end_offset"][i].as_py()
            src = corpus["content"][corpus["doc_id"].to_pylist().index(did)].as_py()
            assert src[s:e] == contents[i]
    assert len(seen_docs) == report.n_docs


def test_search_filters(built):
    corpus, index_dir, report, oracle = built
    reader = IndexReader(index_dir)
    res = search(reader, "function", 20, filters=SearchFilters(file_extensions=[".py"]))
    assert res.num_rows > 0
    assert all(p.endswith(".py") for p in res["path"].to_pylist())
    res2 = search(reader, "function", 20, filters=SearchFilters(exclude_paths=["src/"]))
    assert res2.num_rows == 0  # every path is under src/


def test_filtered_search_equals_oracle(built):
    """Filtered rankings on both sources equal the oracle's full ranking
    filtered by path, then cut at k: scores use only global statistics,
    so filtering before ranking equals filtering the ranking."""
    corpus, index_dir, report, oracle = built
    path_of = {(c.doc_id, c.chunk_id): c.path for c in oracle.chunks}
    cases = [  # paths look like src/mod<i>/file<i>.<ext>
        (SearchFilters(file_extensions=[".ts", ".py"]), lambda p: p.endswith((".ts", ".py"))),
        (SearchFilters(path_filter="mod1"), lambda p: "mod1" in p),
        (SearchFilters(exclude_paths=["mod2", ".py"]),
         lambda p: "mod2" not in p and ".py" not in p),
        # patterns are literal: no path contains "mod1." and every path ends with ""
        (SearchFilters(exclude_paths=["mod1."]), lambda p: True),
        (SearchFilters(file_extensions=[""]), lambda p: True),
    ]
    readers = {"resident": IndexReader(index_dir), "disk": disk_reader(index_dir)}
    n = oracle.n_chunks
    for q in ("user authentication", "self return function", "database connection"):
        for min_score in (0.0, 2.0):
            full = oracle.search(q, n, min_score=min_score)
            for filters, keep in cases:
                passed = [(d, c, s) for d, c, s, _ in full if keep(path_of[(d, c)])]
                assert passed, (q, filters)
                for k in (1, 10, n):
                    for name, reader in readers.items():
                        got = search(reader, q, k, min_score=min_score, filters=filters)
                        rows = list(zip(got["doc_id"].to_pylist(), got["chunk_id"].to_pylist(),
                                        got["score"].to_pylist()))
                        assert rows == passed[:k], (name, q, filters, min_score, k)
                        assert got["path"].to_pylist() == [path_of[(d, c)] for d, c, _ in rows]


def test_doc_columns_equal_the_partition_files(built):
    """Every doc column of a hit, on the whole index and on a shard,
    equals its partition's docs.parquet row at the hit's ordinal."""
    corpus, index_dir, report, oracle = built
    full = IndexReader(index_dir)
    shard = IndexReader(index_dir, partitions=full.partitions[1::2])
    for reader in (full, shard):
        res = search(reader, "user function return database", 10_000)
        assert set(res["part_id"].to_pylist()) == set(reader.partitions)
        docs = {pid: pq.read_table(os.path.join(reader.part_dir(pid), "docs.parquet")).to_pylist()
                for pid in reader.partitions}
        for row in res.to_pylist():
            want = docs[row["part_id"]][row["ordinal"]]
            for name in ("doc_id", "chunk_id", "repo", "path", "lang", "start_offset",
                         "end_offset", "chunk_sha256", "content_sha256"):
                assert row[name] == want[name], (name, row)
            assert row["token_count"] == want["dl"]


def test_empty_results_carry_the_hit_schema(built):
    corpus, index_dir, report, oracle = built
    reader = IndexReader(index_dir)
    hit = search(reader, "user authentication", 5)
    assert hit.num_rows == 5 and len(hit.schema) == 15
    empties = [
        search(reader, "", 5),
        search(reader, "zzqxnomatchword", 5),
        search(reader, "user", 5, filters=SearchFilters(exclude_paths=["src/"])),
        search(reader, "user", 5, min_score=1e9),
        search(IndexReader(index_dir, partitions=[]), "user authentication", 5),
        search(IndexReader(index_dir, partitions=[]), "user", 5,
               filters=SearchFilters(file_extensions=[".py"])),
    ]
    for res in empties:
        assert res.num_rows == 0 and res.schema == hit.schema


def test_partition_count_invariance(ray_session, tmp_path):
    """Identical results at P=1 and P=7 — merge correctness."""
    import ray.data

    corpus = make_corpus(n_docs=60, seed=7)
    dirs = {}
    for p in (1, 7):
        d = str(tmp_path / f"idx{p}")
        build_index(ray.data.from_arrow(corpus), d, IndexConfig(num_partitions=p))
        dirs[p] = d
    sem = ["rank", "doc_id", "chunk_id", "score", "matched_terms"]
    for q in ["user authentication", "self return", "getUserById"]:
        r1 = search(dirs[1], q, 10, with_doc_columns=False).select(sem)
        r7 = search(dirs[7], q, 10, with_doc_columns=False).select(sem)
        assert r1.equals(r7), q  # part_id/ordinal legitimately differ


def test_dedupe_query_tokens():
    assert dedupe_query_tokens(["a", "b", "a", "c", "b"]) == ["a", "b", "c"]
