"""Index configuration — frozen reference-semantics decisions (SURVEY.md §7.0).

BM25 constants mirror the reference's Elasticsearch/Lucene defaults
(``packages/core/src/tfidf.ts:16-17``); chunker defaults mirror the
character fallback chunker (``packages/core/src/embeddings.ts:266-296``,
``ast-chunking.ts:59-68``); the 1 MiB max file size mirrors
``indexer.ts:100`` / ``utils.ts:206-208``.
"""

from __future__ import annotations

import logging
from contextlib import contextmanager
from dataclasses import dataclass, asdict
from typing import Any

# BM25 parameters — packages/core/src/tfidf.ts:16-17
BM25_K1 = 1.2
BM25_B = 0.75

SCHEMA_VERSION = 2


class _SchemaHashWarningFilter(logging.Filter):
    """Drops the cosmetic "Failed to hash the schemas" WARNING Ray's
    metadata probes emit whenever a parquet schema carries pandas
    metadata (an unhashable dict inside Ray's schema-dedup).  A FILTER,
    not a ``setLevel`` — level mutation raced concurrent callers and
    suppressed unrelated messages (ADVICE r4)."""

    def filter(self, record: logging.LogRecord) -> bool:
        return "Failed to hash the schemas" not in record.getMessage()


@contextmanager
def _schema_hash_warning_silenced():
    lg = logging.getLogger("ray.data._internal.arrow_ops.transform_pyarrow")
    f = _SchemaHashWarningFilter()
    lg.addFilter(f)
    try:
        yield
    finally:
        lg.removeFilter(f)


def dataset_rows_estimate(ds, allow_execute: bool = True) -> int:
    """Row count for sizing heuristics, cheapest source first (ADVICE
    r4: the old unconditional ``ds.count()`` fallback executed the
    entire upstream pipeline once just to pick a bucket count, then the
    pipeline ran again for real).  Resolution order:

    1. the plan's snapshot metadata (``from_arrow``/``from_pandas``/
       materialized datasets and bare reads — free);
    2. the source ``Read`` op's lazy file metadata (works for DERIVED
       datasets too; returns the PRE-transform size, conservative for
       bucket sizing where overcounting is safe);
    3. parquet footers via ``input_files()``;
    4. ``count()`` — executes the plan once.  Expensive for a derived
       dataset, but UNDER-sizing a bucketed group-by is the one failure
       mode that OOMs workers at scale (a JSONL/CSV-sourced corpus that
       silently fell back to ``lo`` buckets would put rows/lo rows in
       ONE pandas group) — correctness of the size beats the extra
       pass, and hot callers avoid it by passing a precomputed row
       count to :func:`auto_buckets`.  ``allow_execute=False`` skips
       this step and returns 0 instead — for callers that only want a
       cheap bound and have a safe fallback for "unknown"."""
    with _schema_hash_warning_silenced():
        try:
            mc = ds._meta_count()
            if mc:
                return int(mc)
        except Exception:
            pass
        try:
            op = ds._logical_plan.dag
            while op.input_dependencies:
                op = op.input_dependencies[0]
            m = op.infer_metadata()  # metadata-only, no execution
            if m.num_rows:
                return int(m.num_rows)
        except Exception:
            pass
        try:
            files = [f for f in ds.input_files() if f.endswith(".parquet")]
            if files:
                import pyarrow.parquet as pq

                return sum(pq.ParquetFile(f).metadata.num_rows for f in files)
        except Exception:
            pass
        if allow_execute:
            try:
                return int(ds.count())
            except Exception:
                pass
        return 0


def auto_buckets(rows_or_ds, target_rows: int = 2_000_000,
                 lo: int = 64, hi: int = 65_536) -> int:
    """Bucket count for bucketed group-bys, derived from input size
    (VERDICT r3 item 3 — a fixed 64/256 is a scale constant that stops
    holding at 100×).

    Each bucket becomes ONE in-memory pandas group under ``map_groups``,
    so buckets ≈ ``ceil(rows / target_rows)``, rounded up to a power of
    two and clamped to ``[lo, hi]``.  ``target_rows`` is per-operator:
    it bounds the rows a single group may hold (narrow numeric rows
    tolerate millions; text-carrying rows want 10⁵).

    Accepts a row count or a Dataset, sized by
    :func:`dataset_rows_estimate`: metadata-cheap for in-memory and
    parquet-sourced datasets, but a DERIVED dataset whose source has no
    row metadata (JSONL, CSV) falls through to ``count()``, which
    executes the upstream, so callers holding such a dataset should
    pass the pre-transform row count instead.  Unknown size →
    ``lo`` (the historical constant at test scale).
    """
    if hasattr(rows_or_ds, "count"):
        n = dataset_rows_estimate(rows_or_ds)
    else:
        n = int(rows_or_ds or 0)
    if n <= 0:
        return lo
    need = -(-n // target_rows)  # ceil
    return max(lo, min(hi, 1 << max(0, need - 1).bit_length()))


@dataclass(frozen=True)
class IndexConfig:
    """Build-time knobs for the distributed index.

    ``num_partitions`` is the document-partitioning fan-out: every chunk
    is routed to ``part_id = splitmix64(doc_id) % num_partitions`` and
    each partition holds a complete local inverted index for its own
    docs.  This is the engine's skew answer: a Zipfian-hot term
    (``self``, ``return``) never lands on a single reducer — its
    postings are split across all partitions (the per-partition df is
    the "salted" partial) and only tiny ``(term, df_local)`` rows meet
    in the global IDF aggregation.  Size partitions so one partition's
    chunk+posting data fits a worker's heap (~1-2 GB at 100 TB scale ⇒
    num_partitions ~ 10^5; tests use small values).
    """

    tokenizer: str = "code"  # "code" (camelCase/snake split) | "simple" (tfidf fallback regex) | "bpe" (deterministic mini-BPE model tokenizer)
    chunker: str = "chars"  # "chars" (reference fallback windows) | "lines" (AST stand-in) | "ast" (stdlib-ast semantic chunks for python, char fallback otherwise)
    max_chunk_size: int = 1000  # chars — embeddings.ts:266
    chunk_overlap: int = 100  # chars — embeddings.ts:267
    max_file_size: int = 1024 * 1024  # bytes — indexer.ts:100
    num_partitions: int = 16
    k1: float = BM25_K1
    b: float = BM25_B
    store_magnitudes: bool = True  # per-chunk TF-IDF magnitudes (cosine mode, A3)
    # External BPE merge table (JSON {"merges": [[a, b], ...]}) for the
    # "bpe" tokenizer — the offline stand-in for the reference's 4.7 MB
    # StarCoder2 vocab download (code-tokenizer.ts:87-118).  None = the
    # deterministic built-in seed vocabulary.  Participates in to_dict(),
    # so changing the vocab invalidates the manifest and forces a rebuild.
    bpe_vocab_path: str | None = None
    # rows per batch when the stage functions are driven batch by batch
    # outside Ray; the build maps whole blocks (batch_size=None)
    batch_size: int = 1024

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict[str, Any]) -> "IndexConfig":
        return IndexConfig(**{k: v for k, v in d.items() if k in IndexConfig.__dataclass_fields__})
