"""Distributed index build — the flagship Ray Data pipeline.

Ray-native replacement for ``CodebaseIndexer.index()``
(``/root/reference/packages/core/src/indexer.ts:360-702``).  The
reference's per-50-file loop + 4 global SQL finalize passes
(``indexer.ts:488-632``, ``:639-655``) collapse into:

    read_parquet(docs)
      → map_batches(ingest)                 # sha256, size filter, doc_id, part routing
      → [fingerprint pass: tiny groupby → resume decision]
      → map_batches(chunk)                  # 1 doc → N chunk rows
      → map_batches(tokenize)               # vectorized term lists
      → run shuffle: spill runs by part_id, one write_partition task per
        partition (index/run_shuffle.py)            # the one wide shuffle
    + groupby(term) over per-partition (term, df_local) partials → global IDF

Scale notes (the parts that must survive 100 TB / 256 nodes):

- The only all-to-all exchange moves *tokenized chunk rows* once,
  keyed by ``part_id`` — a uniform hash of doc_id, so no key skew.
  Term-keyed skew (Zipfian ``self``/``return``) never reaches a
  shuffle: hot terms are pre-aggregated into per-partition
  ``(term, df_local)`` partials, and the global IDF groupby only moves
  those tiny partial rows (the salt = partition id).
- The fingerprint pass re-reads the input (IO only, no tokenize) to
  decide which partitions are dirty; the expensive chunk/tokenize/
  encode work then runs *only* over dirty partitions — checkpointed
  resume at partition granularity.  A caller that already knows the
  dirty partitions (the directory watcher) hands them in with only
  their docs and skips that pass.
- ``content`` is dropped from the doc stream after chunking (chunks
  carry their own text into ``chunks.parquet`` but the full-file string
  never crosses the shuffle twice).
- Global scalars (N, Σ tokens, avgdl) come from exact integer sums in
  the manifest — float-deterministic regardless of partition order.
"""

from __future__ import annotations

import os
import shutil
import time
from collections.abc import Collection
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data
from ray.data.aggregate import Count, Sum

from coderag_ray.config import SCHEMA_VERSION, IndexConfig
from coderag_ray.functions.bm25 import avg_doc_length, idf_smoothed
from coderag_ray.functions.hashing import sha_prefix_u32
from coderag_ray.index import manifest as mf
from coderag_ray.index.run_shuffle import run_shuffle_build
from coderag_ray.stages.chunk import make_chunker
from coderag_ray.stages.ingest import make_ingest, make_part_filter
from coderag_ray.stages.tokenize import make_tokenizer_stage


@dataclass
class BuildReport:
    index_dir: str
    n_docs: int
    n_chunks: int
    n_postings: int
    total_tokens: int
    avgdl: float
    n_partitions: int
    dirty_partitions: int
    wall_s: float
    docs_per_sec: float
    phases: dict | None = None  # phase → seconds
    # how the dirty set was decided: "fresh" (no manifest), "file"
    # (tier-1 stat sweep, no corpus read), "content" (tier-2 sha scan) or
    # "paths" (handed in by the caller, no scan)
    fingerprint_mode: str = "fresh"


def _input_file_meta(ds) -> dict[str, list] | None:
    """Tier-1 (file-level) input fingerprint: {path: [size, mtime_ns]}
    for every input file backing ``ds``.

    Costs a handful of ``stat`` calls — no data read.  Returns None when
    the dataset has no file-backed inputs (e.g. ``from_items`` in tests)
    or a file vanished, in which case resume falls back to the tier-2
    content-sha scan.  This is what makes a no-op resume O(#files), not
    O(corpus): the reference's warm startup is <100 ms
    (``/root/reference/README.md:373``) because SQLite *is* its state;
    ours is a stat sweep over the input parquet files.
    """
    try:
        files = ds.input_files()
    except Exception:
        return None
    if not files:
        return None
    out: dict[str, list] = {}
    for f in files:
        p = f[len("local://"):] if f.startswith("local://") else f
        try:
            st = os.stat(p)
        except OSError:
            return None
        out[p] = [st.st_size, st.st_mtime_ns]
    return out


def _fingerprints(ingest_ds, num_partitions: int) -> dict[int, str]:
    """Cheap pass: per-partition input fingerprint from ingest rows
    (non-empty docs only — matches the writer-side recomputation)."""

    def project(t: pa.Table):
        # generator: yield nothing for an all-filtered batch — empty
        # output blocks are useless work for the downstream aggregate.
        # (Ray's Aggregate op itself still emits one empty block when a
        # hash partition holds no groups, which logs a cosmetic
        # schema-mismatch WARNING on the driver; that one is internal
        # to Ray and harmless.)
        t = t.filter(pc.greater(t["n_chars"], 0))
        if t.num_rows == 0:
            return
        yield pa.table(
            {
                "part_id": t["part_id"],
                "sha32": pa.array(sha_prefix_u32(t["content_sha256"])),
            }
        )

    agg = (
        ingest_ds.map_batches(project, batch_format="pyarrow", batch_size=None)
        .groupby("part_id")
        .aggregate(Count(alias_name="n_docs"), Sum("sha32", alias_name="sha_sum"))
    )
    out: dict[int, str] = {p: mf.fingerprint_of(0, 0) for p in range(num_partitions)}
    for row in agg.take_all():
        out[int(row["part_id"])] = mf.fingerprint_of(
            int(row["n_docs"]), int(row["sha_sum"])
        )
    return out


def _build_idf(index_dir: str, part_rows: dict[int, dict], n_chunks_total: int) -> None:
    """Global IDF from per-partition (term, df_local) partials.

    ``groupby(term).sum(df_local)`` over pre-aggregated partials — the
    merge step of the salted df aggregation (A1/A2 in SURVEY.md §2.5);
    idf = ln((N+1)/(df+1))+1 with N = total chunk count
    (storage-persistent.ts:1013-1019).
    """
    files = [
        os.path.join(index_dir, "parts", f"part={p:05d}", "termdf.parquet")
        for p, row in sorted(part_rows.items())
        if row.get("n_chunks", 0) > 0
    ]
    files = [f for f in files if os.path.exists(f)]
    idf_dir = os.path.join(index_dir, "idf")
    tmp_dir = os.path.join(index_dir, f"_tmp_idf_{os.getpid()}")
    shutil.rmtree(tmp_dir, ignore_errors=True)
    if not files:
        os.makedirs(tmp_dir, exist_ok=True)
        import pyarrow.parquet as pq

        pq.write_table(
            pa.table({"term": pa.array([], type=pa.string()),
                      "df": pa.array([], type=pa.int64()),
                      "idf": pa.array([], type=pa.float64())}),
            os.path.join(tmp_dir, "idf.parquet"),
        )
    elif sum(os.path.getsize(f) for f in files) <= 256 << 20:
        # small-vocabulary fast path: the partials fit the driver — one
        # arrow concat + group + sort beats scheduling a 3-stage Ray job
        import pyarrow.parquet as pq

        tbl = pa.concat_tables([pq.read_table(f) for f in files])
        import pandas as pd

        pdf = tbl.to_pandas().groupby("term", sort=True)["df_local"].sum().reset_index()
        out = pa.table(
            {
                "term": pa.array(pdf["term"], type=pa.string()),
                "df": pa.array(pdf["df_local"].to_numpy().astype("int64")),
                "idf": pa.array(idf_smoothed(pdf["df_local"].to_numpy(), n_chunks_total)),
            }
        )
        os.makedirs(tmp_dir, exist_ok=True)
        pq.write_table(out, os.path.join(tmp_dir, "idf.parquet"),
                       row_group_size=16384, compression="zstd")
    else:
        from coderag_ray.stages.bucket_agg import bucketed_groupby_sum

        from coderag_ray.config import auto_buckets

        ds = ray.data.read_parquet(files)
        # bucketed merge: vocabulary cardinality grows with the corpus, so
        # the declarative per-group aggregate would be Python-bound; the
        # bucket count is derived from the partials' parquet row estimate
        # (at 100 TB vocab is billions of terms — a fixed 64 would make
        # each bucket group vocabulary/64-sized; VERDICT r4 item 5)
        agg = bucketed_groupby_sum(ds, "term", "df_local", "df",
                                   num_buckets=auto_buckets(
                                       ds, target_rows=2_000_000, lo=64))

        def add_idf(t: pa.Table) -> pa.Table:
            df = t["df"].to_numpy(zero_copy_only=False)
            return t.append_column("idf", pa.array(idf_smoothed(df, n_chunks_total)))

        # sort by term: deterministic file contents + parquet row-group
        # stats enable per-query predicate pushdown on term
        agg.map_batches(add_idf, batch_format="pyarrow").sort("term").write_parquet(tmp_dir)
    if os.path.exists(idf_dir):
        shutil.rmtree(idf_dir)
    os.replace(tmp_dir, idf_dir)


def _usable_manifest(index_dir: str, config: IndexConfig) -> dict | None:
    """The manifest at ``index_dir``, or None when there is none or a
    config or index-format change invalidates everything it records."""
    m = mf.load_manifest(index_dir)
    if m is None or m.get("config") != config.to_dict() \
            or m.get("schema_version") != SCHEMA_VERSION:
        return None
    return m


def _on_disk(parts_root: str, old: dict[int, dict], p: int) -> bool:
    """Partition ``p`` is recorded, and on disk unless it is empty."""
    row = old.get(p)
    return row is not None and (
        row.get("n_chunks", 0) == 0
        or os.path.isdir(os.path.join(parts_root, f"part={p:05d}"))
    )


def _only_dirty_stale(old: dict[int, dict], parts_root: str,
                      dirty: Collection[int], num_partitions: int) -> bool:
    """Every partition outside ``dirty`` is recorded and on disk."""
    return bool(old) and all(p in dirty or _on_disk(parts_root, old, p)
                             for p in range(num_partitions))


def can_rebuild_only(index_dir: str, config: IndexConfig,
                     dirty: Collection[int]) -> bool:
    """True when rebuilding just the ``dirty`` partitions brings the index
    at ``index_dir`` up to date, given that no other partition's input
    changed since its last build: the index has a manifest written with
    ``config`` and this ``SCHEMA_VERSION``, and every other partition is
    recorded and on disk.  Otherwise only a full scan can."""
    return _only_dirty_stale(mf.manifest_partitions(_usable_manifest(index_dir, config)),
                             os.path.join(index_dir, "parts"), dirty,
                             config.num_partitions)


def build_index(
    docs,
    index_dir: str,
    config: IndexConfig | None = None,
    *,
    resume: bool = True,
    dirty: Collection[int] | None = None,
) -> BuildReport:
    """Build (or incrementally refresh) the inverted index at ``index_dir``.

    ``docs``: a ray Dataset with columns (repo, path, commit, lang,
    content[, doc_id]) or a parquet path/list of paths.

    ``dirty``: set by a caller that knows which partitions' inputs
    changed since the last build (a watcher that saw the edited paths).
    ``docs`` then needs only those partitions' docs; the build skips the
    fingerprint pass and rebuilds just them (``fingerprint_mode`` is
    ``"paths"``).  Raises ``ValueError`` unless
    :func:`can_rebuild_only` holds.
    """
    t0 = time.perf_counter()
    config = config or IndexConfig()
    if isinstance(docs, (str, list)):
        docs = ray.data.read_parquet(docs)

    os.makedirs(os.path.join(index_dir, "parts"), exist_ok=True)
    # clear stale tmp dirs from a previous crashed run
    parts_root = os.path.join(index_dir, "parts")
    for d in os.listdir(parts_root):
        if d.startswith("_tmp_"):
            shutil.rmtree(os.path.join(parts_root, d), ignore_errors=True)

    ingest = make_ingest(config)
    ingest_ds = docs.map_batches(ingest, batch_format="pyarrow", batch_size=None)

    # ---- pass 1 (resume only): fingerprints → dirty set ----------------
    # Fresh builds skip this input scan entirely; partition writers
    # self-compute the identical fingerprints for the manifest.
    phases: dict[str, float] = {}
    t_ph = time.perf_counter()

    def _phase(name: str) -> None:
        nonlocal t_ph
        now = time.perf_counter()
        phases[name] = round(now - t_ph, 3)
        t_ph = now

    manifest_obj = _usable_manifest(index_dir, config) if resume else None
    old = mf.manifest_partitions(manifest_obj)
    # tier-1 fingerprint of the input files; none when ``docs`` holds only
    # the dirty partitions, so a pending edit in a clean partition still
    # shows at the next resume
    input_meta = None if dirty is not None else _input_file_meta(docs)
    if dirty is not None:
        # the caller knows which partitions' inputs changed and hands in
        # only their docs; the others stay as the manifest records them
        if not _only_dirty_stale(old, parts_root, dirty, config.num_partitions):
            raise ValueError(f"{index_dir}: a rebuild of partitions {sorted(dirty)} "
                             "alone cannot bring this index up to date")
        fp_mode = "paths"
        fps = None
        dirty = sorted(dirty)
    elif old:
        fp_mode = "content"
        if input_meta is not None and manifest_obj.get("input_files") == input_meta:
            fp_mode = "file"
        if fp_mode == "file":
            # tier 1: every input file is byte-identical (path/size/mtime)
            # to what the manifest was built from → skip the corpus scan
            # entirely.  Only partitions whose on-disk data went missing
            # are dirty; their fingerprints are recomputed by the writer.
            fps = None
            dirty = [
                p for p in range(config.num_partitions)
                if not _on_disk(parts_root, old, p)
            ]
        else:
            # tier 2: input changed (or isn't file-backed) → per-partition
            # content-sha fingerprints decide the dirty set.
            fps = _fingerprints(ingest_ds, config.num_partitions)
            dirty = [
                p for p in range(config.num_partitions)
                if not _on_disk(parts_root, old, p)
                or old[p].get("fingerprint") != fps[p]
            ]
    else:
        fp_mode = "fresh"
        fps = None
        dirty = list(range(config.num_partitions))
    _phase("fingerprints")

    part_rows: dict[int, dict] = {p: old[p] for p in old if p not in dirty}

    # ---- pass 2: full build over dirty partitions ----------------------
    if dirty:
        dirty_set = frozenset(dirty)
        pipeline = ingest_ds
        if len(dirty) < config.num_partitions:
            pipeline = pipeline.map_batches(make_part_filter(dirty_set), batch_format="pyarrow", batch_size=None)
        chunked = pipeline.map_batches(make_chunker(config), batch_format="pyarrow", batch_size=None)
        tokenized = chunked.map_batches(make_tokenizer_stage(config), batch_format="pyarrow", batch_size=None)

        try:
            # metadata-based estimate (cheap for a parquet read);
            # engages the /dev/shm capacity guard in the spill path
            est_bytes = docs.size_bytes()
        except Exception:
            est_bytes = None
        results = run_shuffle_build(tokenized, index_dir, estimated_bytes=est_bytes)
        _phase("tokenize_shuffle_write")
        for row in results:
            part_rows[int(row["part_id"])] = {k: v for k, v in row.items() if k != "part_id"}
        # dirty partitions that ended up with zero chunks (only empty/filtered
        # docs): record them so resume doesn't re-run them forever
        for p in dirty:
            if p not in part_rows:
                part_rows[p] = {
                    "fingerprint": fps[p] if fps else mf.fingerprint_of(0, 0),
                    "n_docs": 0, "n_chunks": 0, "n_postings": 0,
                    "n_terms": 0, "total_tokens": 0, "bytes_postings": 0, "bytes_docs": 0,
                    "wall_s": 0.0, "docs_per_sec": None, "postings_per_sec": None,
                }
                stale = os.path.join(parts_root, f"part={p:05d}")
                if os.path.exists(stale):
                    shutil.rmtree(stale)

    # ---- global stats + idf -------------------------------------------
    n_chunks = sum(r.get("n_chunks", 0) for r in part_rows.values())
    n_postings = sum(r.get("n_postings", 0) for r in part_rows.values())
    n_docs = sum(r.get("n_docs", 0) for r in part_rows.values())
    total_tokens = sum(r.get("total_tokens", 0) for r in part_rows.values())
    avgdl = avg_doc_length(total_tokens, n_chunks)

    idf_rebuilt = dirty or not os.path.exists(os.path.join(index_dir, "idf"))
    if idf_rebuilt:
        _build_idf(index_dir, part_rows, n_chunks)
    _phase("idf")


    mf.save_manifest(index_dir, SCHEMA_VERSION, config.to_dict(), part_rows,
                     input_files=input_meta)
    mf.save_meta(
        index_dir,
        {
            "schema_version": SCHEMA_VERSION,
            "config": config.to_dict(),
            "n_docs": n_docs,
            "n_chunks": n_chunks,
            "n_postings": n_postings,
            "total_tokens": total_tokens,
            "avgdl": avgdl,
        },
    )
    if config.store_magnitudes and n_chunks > 0:
        from coderag_ray.index.magnitudes import MAGNITUDES_FILE, build_magnitudes

        missing = any(
            row.get("n_chunks", 0) > 0
            and not os.path.exists(os.path.join(parts_root, f"part={p:05d}", MAGNITUDES_FILE))
            for p, row in part_rows.items()
        )
        if idf_rebuilt or missing:
            # global idf changed → every partition's magnitudes are stale
            # (the reference's incremental path also recalculates TF-IDF
            # globally, storage-persistent.ts:1033-1062); one task per partition
            build_magnitudes(index_dir)
    _phase("magnitudes")
    wall = time.perf_counter() - t0
    return BuildReport(
        index_dir=index_dir,
        n_docs=n_docs,
        n_chunks=n_chunks,
        n_postings=n_postings,
        total_tokens=total_tokens,
        avgdl=avgdl,
        n_partitions=config.num_partitions,
        dirty_partitions=len(dirty),
        wall_s=round(wall, 3),
        docs_per_sec=round(n_docs / wall, 2) if wall > 0 else 0.0,
        phases=phases,
        fingerprint_mode=fp_mode,
    )
