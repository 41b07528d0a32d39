"""Seeded input generators.  Every function is a pure function of its
arguments: the same seed gives byte-identical inputs in any process.

The document corpus comes from ``coderag_ray.corpus.make_corpus_range``
(hot terms in every file, ``getUserById{n}``-style rare identifiers,
camelCase / snake_case names, empty, whitespace-only, oversize and
duplicate files); everything else here is the benchmark's own.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

_HOT = ["self", "return", "function", "const", "import", "export", "class"]
_CAMEL = ["getUserById", "validateCredentials", "handleRequest", "parseQueryString",
          "DatabaseConnection", "HTTPServerConfig", "buildIndexPartition", "mergeSortedRuns"]
_SNAKE = ["user_id", "query_plan", "token_count", "raw_freq", "doc_length",
          "posting_list", "term_hash", "block_max"]
_VERBS = ["query", "connect", "authenticate", "validate", "merge", "encode",
          "decode", "score", "rank", "filter"]
_LETTERS = "abcdefghijklmnopqrstuvwxyz"

# salts keep the generators' random streams independent of each other
_SALT_QUERIES, _SALT_EDITS, _SALT_BATCH = 11, 13, 17


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), salt])


def _word(g: np.random.Generator, n: int) -> str:
    return "".join(_LETTERS[int(i)] for i in g.integers(0, 26, n))


def corpus(seed: int, n_docs: int, max_file_size: int = 1024 * 1024) -> pa.Table:
    """``(doc_id, repo, path, commit, lang, content)`` rows ``[0, n_docs)``."""
    from coderag_ray.corpus import make_corpus_range

    return make_corpus_range(0, n_docs, seed, max_file_size)


def write_parquet_files(tbl: pa.Table, out_dir: str, n_files: int) -> list[str]:
    """Split ``tbl`` into ``n_files`` contiguous Parquet files."""
    os.makedirs(out_dir, exist_ok=True)
    bounds = np.linspace(0, tbl.num_rows, n_files + 1).astype(int)
    paths = []
    for i in range(n_files):
        p = os.path.join(out_dir, f"part-{i:03d}.parquet")
        pq.write_table(tbl.slice(bounds[i], bounds[i + 1] - bounds[i]), p)
        paths.append(p)
    return paths


def dedup_docs(seed: int, n_docs: int) -> pa.Table:
    """``(doc_id, text)`` code docs for the dedup pipelines.  Oversize
    files are capped at 8 KiB so one run stays small; every doc still
    starts with the shared ``import { config } from './config'`` header."""
    t = corpus(seed, n_docs, max_file_size=8192)
    return pa.table({"doc_id": t["doc_id"], "text": t["content"]})


# The request mix copies the composition of the repo's own reference-style
# query list in bench.py (the list its query_p50/p95 are timed on): of
# its 43 BM25 queries, 3 combine hot terms, 4 are multi-term, 5 are
# camelCase / snake_case identifiers and 31 are rare getUserById{n}
# queries; bench.py times hybrid_search on its 12 non-rare queries.  One
# block here holds those 43 + 12 requests plus one no-match query
# (bench.py has none; one per block is an assumption that keeps them a
# small minority).  Hot queries are single hot terms with a varied limit,
# so no request repeats.  Each block is shuffled with the seed, so the
# mix of a run's first N requests barely depends on the seed.
SEARCH_BLOCK = ["hot"] * 3 + ["multi"] * 4 + ["ident"] * 5 + ["rare"] * 31 + ["none"]
HYBRID_BLOCK = ["hot"] * 3 + ["multi"] * 4 + ["ident"] * 5

# bench.py's 12 non-rare reference queries: the refresh workload's
# repeated hot set
HOT_SET = ["user authentication", "authenticate user", "database connection",
           "handleRequest", "getUserById", "validate credentials password",
           "self return function", "mergeSortedRuns posting_list", "const import",
           "buildIndexPartition", "parseQueryString token_count", "class export"]


def _query(g: np.random.Generator, kind: str) -> tuple[str, int]:
    if kind == "hot":  # hot single term; the limit keeps it distinct
        return _HOT[int(g.integers(len(_HOT)))], int(g.integers(5, 51))
    if kind == "multi":
        words = _VERBS + _HOT + [c.lower() for c in _CAMEL] + _SNAKE
        k = int(g.integers(2, 4))
        return " ".join(words[int(i)] for i in g.choice(len(words), k, replace=False)), 10
    if kind == "ident":  # camelCase / snake_case splits
        v = _VERBS[int(g.integers(len(_VERBS)))]
        c = _CAMEL[int(g.integers(len(_CAMEL)))]
        s = _SNAKE[int(g.integers(len(_SNAKE)))]
        return (f"{v}{c} {s}" if g.integers(2) else f"{s}_{v} {c}"), 10
    if kind == "rare":
        q = f"{_CAMEL[int(g.integers(len(_CAMEL)))]}{int(g.integers(997))}"
        if g.integers(2):
            q += " " + _VERBS[int(g.integers(len(_VERBS)))]
        return q, 10
    return "zq" + _word(g, 8), 10  # no match anywhere in the corpus


def _requests(seed: int, salt: int, block: list[tuple[str, str]], n: int) -> list[tuple[str, str, int]]:
    """``n`` distinct ``(call, query, limit)`` requests, ``block`` (a list
    of ``(call, kind)`` slots) shuffled once per block.  Distinct under
    the result cache's key (lowercased, trimmed text plus limit), so a
    result-cache lookup never hits."""
    g = _rng(seed, salt)
    seen: set[tuple[str, int]] = set()
    out: list[tuple[str, str, int]] = []
    while len(out) < n:
        for j in g.permutation(len(block))[: n - len(out)]:
            call, kind = block[int(j)]
            while True:
                q, limit = _query(g, kind)
                if (q.lower().strip(), limit) not in seen:
                    break
            seen.add((q.lower().strip(), limit))
            out.append((call, q, limit))
    return out


def query_texts(seed: int, n: int, salt: int = _SALT_QUERIES) -> list[tuple[str, int]]:
    """``n`` distinct ``(query, limit)`` pairs in the ``SEARCH_BLOCK``
    mix, at most 3,000 (the hot single-term slots run out of distinct
    limits beyond that)."""
    return [(q, lim) for _, q, lim in
            _requests(seed, salt, [("search", k) for k in SEARCH_BLOCK], n)]


def search_stream(seed: int, n: int) -> list[tuple[str, str, int]]:
    """``n`` client requests ``(call, query, limit)``, at most 2,500:
    ``SEARCH_BLOCK`` as ``codebase_search`` calls and ``HYBRID_BLOCK``
    as ``hybrid`` calls, 12 of every 56 requests."""
    block = [("search", k) for k in SEARCH_BLOCK] + [("hybrid", k) for k in HYBRID_BLOCK]
    return _requests(seed, _SALT_QUERIES, block, n)


def batch_queries(seed: int, n: int) -> pa.Table:
    """``(query_id, text)`` table for the batch scorer."""
    qs = query_texts(seed, n, salt=_SALT_BATCH)
    return pa.table({"query_id": pa.array(range(n), type=pa.int64()),
                     "text": pa.array([q for q, _ in qs])})


def write_tree(seed: int, root: str, n_files: int,
               max_file_size: int = 1024 * 1024) -> list[str]:
    """Write a source tree of ``n_files`` generated files.  Returns the
    relative paths of the files the scanner indexes (the oversize files
    are written too, but its size guard skips them, so edits never
    target them)."""
    t = corpus(seed, n_files, max_file_size)
    kept = []
    for rel, text in zip(t["path"].to_pylist(), t["content"].to_pylist()):
        p = os.path.join(root, rel)
        os.makedirs(os.path.dirname(p), exist_ok=True)
        with open(p, "w", encoding="utf-8") as f:
            f.write(text)
        if len(text.encode("utf-8")) <= max_file_size:
            kept.append(rel)
    return kept


def marker(seed: int, cycle: int) -> str:
    """A single-token, letters-only term that occurs nowhere else."""
    g = _rng(seed, 1000 + cycle)
    return "zqmark" + _word(g, 10)


def edit_plan(seed: int, cycle: int, files: list[str]) -> list[tuple[str, str, str]]:
    """One refresh cycle's edits as ``(op, rel_path, text)``, five files:
    three modified (the first gets the cycle's marker), one added, one
    deleted.  ``files`` is the current tree listing; ops never touch the
    same path twice."""
    g = _rng(seed, _SALT_EDITS * 1_000 + cycle)
    pick = [files[int(i)] for i in g.choice(len(files), 4, replace=False)]
    mark = marker(seed, cycle)
    v = _VERBS[int(g.integers(len(_VERBS)))]
    c = _CAMEL[int(g.integers(len(_CAMEL)))]
    s = _SNAKE[int(g.integers(len(_SNAKE)))]
    added = f"src/edits/cycle{cycle}_{_word(g, 4)}.ts"
    return [
        ("modify", pick[0], f"\nexport function {mark}() {{ return {v}{c}(); }}\n"),
        ("modify", pick[1], f"\nconst {s}_{cycle} = {c}.{v}();\n"),
        ("modify", pick[2], f"\n// {v} {s} in cycle {cycle}\n"),
        ("add", added, f"// added in cycle {cycle}\nexport const {v}_{cycle} = {c}.{v}();\n"),
        ("delete", pick[3], ""),
    ]


def apply_edits(root: str, edits: list[tuple[str, str, str]], files: list[str]) -> None:
    """Apply ``edit_plan`` output to the tree and to the ``files`` listing."""
    for op, rel, text in edits:
        p = os.path.join(root, rel)
        if op == "modify":
            with open(p, "a", encoding="utf-8") as f:
                f.write(text)
        elif op == "add":
            os.makedirs(os.path.dirname(p), exist_ok=True)
            with open(p, "w", encoding="utf-8") as f:
                f.write(text)
            files.append(rel)
        else:
            os.remove(p)
            files.remove(rel)
