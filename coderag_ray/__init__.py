"""coderag_ray — a Ray-Data-native full-text code-search engine.

A from-scratch rebuild of the capabilities of matperez/coderag
(/root/reference, a single-process TypeScript + SQLite library) as a
distributed inverted-index build + BM25 query pipeline over Parquet
tables of source code, expressed entirely in Ray Data
(``ray.data.Dataset`` → ``map_batches`` over zero-copy Arrow batches,
a map-side run-spill shuffle for the partition build).  The build's
stages, the BPE tokenizer included, run as plain task maps; only batch
query scoring, which holds a resident index, runs as an actor pool.

Layout
------
- ``functions/`` pure, deterministic kernels (tokenizer, chunker, BM25
  math, v-byte varint codec, hashing, text statistics, MinHash/SimHash).
- ``stages/``    Ray Data batch transforms (ingest, chunk, tokenize).
- ``index/``     distributed index build, partition writer, manifest
  (checkpoint/resume), index reader.
- ``query/``     exact BM25 / cosine top-k search (one scorer over
  resident or disk-read postings; champion lists for resident BM25),
  caching, sharded serving.
- ``pipelines/`` training-data operations beyond the reference: dedup
  (exact / MinHash-LSH / SimHash / n-gram Jaccard / embedding cosine),
  similarity search, text analysis, windowed event aggregation,
  multimodal stubs.
- ``oracle.py``  single-process exhaustive BM25 oracle (the parity spec).
- ``corpus.py``  deterministic synthetic source-code corpus (FIXTURES.md).

Reference semantics are cited as ``/root/reference/<file>:<line>`` in
docstrings; no reference code is copied — the execution model here is
Ray Data, not SQLite.
"""

from coderag_ray.config import IndexConfig

__all__ = ["IndexConfig"]
__version__ = "0.1.0"
