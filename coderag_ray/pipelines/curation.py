"""End-to-end training-data curation — the composite pipeline a corpus
actually runs before training: quality filter → exact-dedup keeper →
benchmark decontamination → keep/drop verdict with a reason.

Shape: ONE wide exchange.  A single ``map_batches`` pass computes every
per-doc signal (quality stats, content sha, benchmark-overlap flag —
the benchmark shingle set rides along as a broadcast object), then one
hash exchange on ``content_sha256`` marks the keeper per duplicate group (min
doc_id, the frozen policy from :func:`coderag_ray.pipelines.dedup.exact_dedup`)
and emits the verdict.  Nothing corpus-sized touches the driver; reason
precedence is frozen (low_quality → duplicate → contaminated → kept)
and mirrored in the SQL oracle.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from coderag_ray.functions.rounding import round6
from coderag_ray.stages.bucket_agg import exchange

REASONS = ("kept", "low_quality", "duplicate", "contaminated")

CURATE_SCHEMA = pa.schema([
    ("doc_id", pa.int64()), ("n_words", pa.int64()),
    ("stopword_ratio", pa.float64()), ("is_keeper", pa.bool_()),
    ("contaminated", pa.bool_()), ("kept", pa.bool_()),
    ("reason", pa.string()),
])


def curate(docs_ds, *, min_words: int = 10, max_stopword_ratio: float = 0.7,
           benchmark_max_id: int = 10, ngram: int = 8):
    """→ Dataset (doc_id, n_words, stopword_ratio, is_keeper,
    contaminated, kept, reason)."""
    import ray

    from coderag_ray.pipelines.dedup import _word_shingles
    from coderag_ray.pipelines.text_analysis import benchmark_shingles, quality_batch
    from coderag_ray.functions.hashing import batch_sha256

    from coderag_ray.config import auto_buckets

    nb = auto_buckets(docs_ds, target_rows=2_000_000)

    bench_ref = ray.put(benchmark_shingles(docs_ds, benchmark_max_id, ngram))

    def signals(t: pa.Table) -> pa.Table:
        bs = ray.get(bench_ref)
        q = quality_batch(t)
        overlap = []
        for text in t["text"].to_pylist():
            overlap.append(len(_word_shingles(text, ngram) & bs) > 0)
        return pa.table(
            {
                "doc_id": q["doc_id"],
                "n_words": q["n_words"],
                "stopword_ratio": q["stopword_ratio"],
                "content_sha256": batch_sha256(t["text"]),
                "contaminated": pa.array(overlap),
            }
        )

    def verdict_bucket(g: pd.DataFrame) -> pa.Table:
        """All duplicate groups of one sha bucket, vectorized: keeper =
        per-sha min doc_id via a C-speed transform."""
        keeper = g.groupby("content_sha256", sort=False)["doc_id"].transform("min")
        doc_id = g["doc_id"].to_numpy(dtype=np.int64)
        is_keeper = doc_id == keeper.to_numpy(dtype=np.int64)
        low_q = (g["n_words"].to_numpy(dtype=np.int64) < min_words) | (
            g["stopword_ratio"].to_numpy(dtype=np.float64) > max_stopword_ratio
        )
        contaminated = g["contaminated"].to_numpy(dtype=bool)
        reason = np.where(
            low_q, "low_quality",
            np.where(~is_keeper, "duplicate",
                     np.where(contaminated, "contaminated", "kept")),
        )
        return pa.table(
            {
                "doc_id": pa.array(doc_id, type=pa.int64()),
                "n_words": pa.array(g["n_words"].to_numpy(dtype=np.int64), type=pa.int64()),
                "stopword_ratio": pa.array(
                    round6(g["stopword_ratio"].to_numpy(dtype=np.float64)), type=pa.float64()),
                "is_keeper": pa.array(is_keeper),
                "contaminated": pa.array(contaminated),
                "kept": pa.array(reason == "kept"),
                "reason": pa.array(reason.tolist(), type=pa.string()),
            }
        )

    # exchange on the sha: distinct-sha cardinality grows with the
    # corpus, so the keeper resolution runs per hash bucket and resolves
    # all sha groups inside vectorized
    return exchange(docs_ds.map_batches(signals, batch_format="pyarrow"), "content_sha256",
                    nb, verdict_bucket, batch_format="pandas", schema=CURATE_SCHEMA)
