"""Deterministic sampling operators — reproducible corpus subsetting
for ablations and curriculum mixes.

- :func:`hash_sample` — keep ~``rate`` percent of docs by a Knuth
  multiplicative hash of ``doc_id``: same subset on every run, any
  engine (pure arithmetic mod 2³², mirrored exactly in the SQL
  oracle) — unlike ``Dataset.random_sample``, which is seed- and
  partitioning-dependent.
- :func:`lang_quota_sample` — cap documents per (predicted) language:
  the mixture-balancing step of a multilingual pipeline.  Language
  cardinality is bounded, so the per-language group step is a tiny
  groupby; selection = the ``quota`` smallest doc_ids per language
  (deterministic, SQL row_number-mirrored).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from coderag_ray.functions.datasets import schema_stable

KNUTH = 2654435761  # golden-ratio multiplicative constant

# declared output schemas — every sampler is filter-shaped (can drop all
# rows), so each ends in schema_stable() to keep the documented columns
# on empty results (Ray drops empty blocks; see functions/datasets.py)
SAMPLE_SCHEMA = pa.schema([("doc_id", pa.int64()), ("bucket", pa.int64())])
SPLIT_SCHEMA = pa.schema([("doc_id", pa.int64()), ("bucket", pa.int64()),
                          ("split", pa.string())])
MIXTURE_SCHEMA = pa.schema([("doc_id", pa.int64()), ("group", pa.string()),
                            ("bucket", pa.int64())])
LANG_QUOTA_SCHEMA = pa.schema([("doc_id", pa.int64()), ("lang_pred", pa.string())])


def hash_sample(docs_ds, rate: int = 10):
    """Keep docs with ``(doc_id · 2654435761) mod 2³² mod 100 < rate``.

    → Dataset (doc_id, bucket) for kept docs (``bucket`` = the 0-99
    value, exposed so stratified splits can reuse the same hash).
    numpy uint64 wraparound is exact mod-2⁶⁴ arithmetic, and
    2³² | 2⁶⁴, so the mod-2³² result equals the full-precision value
    the SQL oracle computes with HUGEINT.
    """

    def keep(t: pa.Table) -> pa.Table:
        d = pc.cast(t["doc_id"], pa.int64()).to_numpy(zero_copy_only=False)
        h = (d.astype(np.uint64) * np.uint64(KNUTH)) % np.uint64(1 << 32)
        bucket = (h % np.uint64(100)).astype(np.int64)
        mask = bucket < rate
        return pa.table({
            "doc_id": pa.array(d[mask], type=pa.int64()),
            "bucket": pa.array(bucket[mask], type=pa.int64()),
        })

    return schema_stable(docs_ds.map_batches(keep, batch_format="pyarrow"),
                         SAMPLE_SCHEMA)


def train_val_test_split(docs_ds, val_pct: int = 10, test_pct: int = 10):
    """Deterministic stratified corpus split by the Knuth hash bucket:
    bucket < test_pct → ``test``, < test_pct+val_pct → ``val``, else
    ``train``.  Same hash as :func:`hash_sample`, so the split is stable
    across runs, engines and corpus growth (a doc never migrates between
    splits when new docs arrive) — the ablation/holdout split a training
    pipeline needs.  → Dataset (doc_id, bucket, split); pure per-batch
    arithmetic, no shuffle.
    """

    def assign(t: pa.Table) -> pa.Table:
        d = pc.cast(t["doc_id"], pa.int64()).to_numpy(zero_copy_only=False)
        h = (d.astype(np.uint64) * np.uint64(KNUTH)) % np.uint64(1 << 32)
        bucket = (h % np.uint64(100)).astype(np.int64)
        split = np.where(bucket < test_pct, "test",
                         np.where(bucket < test_pct + val_pct, "val", "train"))
        return pa.table({
            "doc_id": pa.array(d, type=pa.int64()),
            "bucket": pa.array(bucket, type=pa.int64()),
            "split": pa.array(split.tolist(), type=pa.string()),
        })

    return schema_stable(docs_ds.map_batches(assign, batch_format="pyarrow"),
                         SPLIT_SCHEMA)


def mixture_sample(docs_ds, group_col: str = "source"):
    """Mixture rebalancing: downsample every group to the SMALLEST
    group's size (uniform target mix), deterministically.

    Two passes: a tiny groupby counts each group (group cardinality is
    bounded — sources/domains, not docs); each group's keep-rate
    ``floor(100 · min_count / count)`` percent is then applied with the
    same Knuth hash-bucket arithmetic as :func:`hash_sample` (stable:
    a kept doc stays kept as unrelated groups grow).  → Dataset
    (doc_id, group, bucket) of kept docs.  Integer percent rates keep
    the SQL oracle exact.
    """
    from ray.data.aggregate import Count

    counts = {r[group_col]: r["count()"]
              for r in docs_ds.groupby(group_col).aggregate(Count()).take_all()}
    if not counts:
        return schema_stable(docs_ds.map_batches(
            lambda t: MIXTURE_SCHEMA.empty_table(), batch_format="pyarrow"),
            MIXTURE_SCHEMA)
    m = min(counts.values())
    rates = {g: (100 * m) // c for g, c in counts.items()}  # percent, floor

    def keep(t: pa.Table) -> pa.Table:
        d = pc.cast(t["doc_id"], pa.int64()).to_numpy(zero_copy_only=False)
        h = (d.astype(np.uint64) * np.uint64(KNUTH)) % np.uint64(1 << 32)
        bucket = (h % np.uint64(100)).astype(np.int64)
        grp = t[group_col].to_pylist()
        r = np.array([rates.get(g, 0) for g in grp], dtype=np.int64)
        mask = bucket < r
        return pa.table({
            "doc_id": pa.array(d[mask], type=pa.int64()),
            "group": pa.array([g for g, k in zip(grp, mask) if k], type=pa.string()),
            "bucket": pa.array(bucket[mask], type=pa.int64()),
        })

    return schema_stable(docs_ds.map_batches(keep, batch_format="pyarrow"),
                         MIXTURE_SCHEMA)


def lang_quota_sample(docs_ds, quota: int = 20):
    """Per-language doc cap over the predicted language.

    → Dataset (doc_id, lang_pred) with at most ``quota`` docs per
    language (the smallest doc_ids — deterministic).

    Scale shape: a bare ``groupby(lang).map_groups`` would concentrate
    *every document of a language* into one group task — at corpus
    scale the dominant language IS most of the corpus.  Instead a
    shuffle-free per-batch combiner first keeps the ``quota`` smallest
    doc_ids per language per batch (monotone selection, so the global
    winners always survive it), and only those ≤ quota×n_langs summary
    rows per batch reach the language-keyed merge.
    """
    from coderag_ray.pipelines.text_analysis import lang_id_batch

    def local_quota(t: pa.Table) -> pa.Table:
        import pandas as pd

        df = pd.DataFrame({
            "doc_id": pc.cast(t["doc_id"], pa.int64()).to_numpy(zero_copy_only=False),
            "lang_pred": t["lang_pred"].to_pylist(),
        })
        df = df.sort_values("doc_id", kind="stable").groupby(
            "lang_pred", sort=False).head(quota)
        return pa.table({
            "doc_id": pa.array(df["doc_id"].to_numpy(dtype=np.int64), type=pa.int64()),
            "lang_pred": pa.array(df["lang_pred"].tolist(), type=pa.string()),
        })

    def head_quota(g) -> pa.Table:
        g = g.sort_values("doc_id").head(quota)
        return pa.table({
            "doc_id": pa.array(g["doc_id"].to_numpy(dtype=np.int64), type=pa.int64()),
            "lang_pred": pa.array(g["lang_pred"].tolist(), type=pa.string()),
        })

    return schema_stable(
        docs_ds.map_batches(lang_id_batch, batch_format="pyarrow")
        .map_batches(local_quota, batch_format="pyarrow")
        .groupby("lang_pred")
        .map_groups(head_quota, batch_format="pandas"),
        LANG_QUOTA_SCHEMA,
    )
