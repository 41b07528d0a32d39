"""Cosine top-k over an embedding column: one exact scan, four sources.

- :func:`knn_bruteforce` — exact: every vector is scored.
- :func:`lsh_knn` — random-hyperplane LSH buckets (fixed seed); each
  query probes its ``multiprobe + 1`` most promising buckets.
- :func:`ivf_knn` — the default ANN: a spherical k-means coarse
  quantizer, each query probes its ``n_probe`` nearest centroids.
- :func:`ivfpq_knn` — IVF buckets that store product-quantized codes
  only, scored with ADC lookup tables, then an exact-cosine refine of
  the shortlist.

The ANN layouts are bucket-partitioned parquet (``bucket=N/``) read
with partition pruning, so a probe reads only its buckets' files.
Approximate by construction → recall floors, not SQL oracles.

Every operator runs the same three steps, ordered everywhere by
``(query_id, score DESC, vec_id ASC)``:

1. :func:`_scan` — the query side is broadcast once (``ray.put``); a
   per-batch scorer returns the ``[n_q, n_batch]`` score matrix (exact
   cosine, or ADC), self-matches and rows outside a query's probe set
   are masked, and each query keeps its per-batch top-k (boundary ties
   resolved by ``vec_id``) plus one sentinel row (``vec_id = -1``)
   carrying the rows it scored.
2. :func:`_reduce` — a per-query top-k hash exchange, vec_id-salted
   into two levels when the scanned-rows estimate is large, so the
   driver collects O((k+1)·|Q|) rows whatever the corpus size.  Brute
   force always reduces; probes only above ``PROBE_REDUCE_THRESHOLD``
   candidate rows (below it the extra exchange costs more than it
   saves).
3. :func:`_merge` — the driver's lexsort + run-rank head-k
   (:func:`_head_k`, which the IVF-PQ refine also uses).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from coderag_ray.functions.embeddings import emb_matrix
from coderag_ray.functions.rounding import round6
from coderag_ray.functions.staging import sweep_stale_staging

LSH_PLANES = 12           # maximum hyperplanes (2^12 buckets)
LSH_TARGET_BUCKET = 64    # aim for ~this many vectors per bucket
_PLANES_CACHE: dict[tuple[int, int], np.ndarray] = {}

SCAN_BATCH = 4096  # rows per scan batch; the reduce's salt assumes it

# candidate rows a probe may merge on the driver directly; above this
# the stream is reduced distributed first.  Per-batch top-k emission
# makes candidate rows ≈ (k+1)·|Q|·n_probed_batches — linear in the
# probed fraction of the corpus, so at scale the reduce is mandatory
# while small layouts (tests, single-node benches) skip the exchange.
PROBE_REDUCE_THRESHOLD = 200_000


def derive_lsh_planes(n_vectors: int, target_bucket: int = LSH_TARGET_BUCKET,
                      lo: int = 2, hi: int = LSH_PLANES) -> int:
    """Hyperplane count sized to the corpus: ~``target_bucket`` vectors
    per bucket (2^planes ≈ n/target).  A fixed plane count is a recall
    trap in both directions — 12 planes over a 500-vector test corpus
    makes 4096 near-empty buckets (neighbors never share one, recall
    ≈ 0), while 4 planes over 10^9 vectors makes buckets that defeat
    the pruning.  Clamped to [lo, hi]."""
    import math

    if n_vectors <= 0:
        return lo
    return max(lo, min(hi, round(math.log2(max(1.0, n_vectors / target_bucket)))))


def _planes(dim: int, n_planes: int = LSH_PLANES) -> np.ndarray:
    """First ``n_planes`` rows of the frozen-seed hyperplane matrix —
    a prefix, so a larger layout's planes extend a smaller one's."""
    key = (dim, n_planes)
    p = _PLANES_CACHE.get(key)
    if p is None:
        p = np.random.default_rng(777).standard_normal((LSH_PLANES, dim))[:n_planes]
        _PLANES_CACHE[key] = p
    return p


def _normalize(E: np.ndarray) -> np.ndarray:
    return E / np.maximum(np.linalg.norm(E, axis=1, keepdims=True), 1e-30)


def _query_vectors(emb_ds, query_ids: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """``(vec_ids, float64 vectors)`` of the query rows, in vec_id order.

    Raises ``KeyError`` when any requested id is absent — silently
    dropping ids would return fewer result groups than asked for, and an
    empty query set would later crash opaquely inside ``np.stack``.
    """
    import pyarrow.compute as pc

    qset = pa.array(sorted(set(query_ids)), type=pa.int64())

    def grab(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_in(pc.cast(t["vec_id"], pa.int64()), value_set=qset))

    q = (emb_ds.map_batches(grab, batch_format="pyarrow")
         .to_pandas().sort_values("vec_id"))
    missing = sorted(set(int(i) for i in query_ids) - set(int(v) for v in q["vec_id"]))
    if missing:
        raise KeyError(
            f"query_ids not present in embedding dataset: {missing[:10]}"
            + (f" (+{len(missing) - 10} more)" if len(missing) > 10 else "")
        )
    return (q["vec_id"].to_numpy(dtype=np.int64),
            np.stack(q["embedding"].to_numpy()).astype(np.float64))


# ---------------------------------------------------------------------------
# the shared top-k engine: scan → (reduce) → merge
# ---------------------------------------------------------------------------


def _result(q, v, s, n, score_col: str = "cos_sim") -> pa.Table:
    """The operators' output table; scores rounded like the SQL oracle
    (``+ 0.0`` turns a rounded ``-0.0`` into ``0.0``)."""
    return pa.table({
        "query_id": pa.array(q, type=pa.int64()),
        "vec_id": pa.array(v, type=pa.int64()),
        score_col: pa.array(round6(np.asarray(s, dtype=np.float64)) + 0.0,
                            type=pa.float64()),
        "n_scanned": pa.array(n, type=pa.int64()),
    })


def _empty_result(score_col: str = "cos_sim") -> pa.Table:
    e = np.zeros(0, dtype=np.int64)
    return _result(e, e, e, e, score_col)


def _head_k(q: np.ndarray, v: np.ndarray, s: np.ndarray, k: int) -> np.ndarray:
    """Positions of each query's ``k`` best rows under (score DESC,
    vec_id ASC), ordered (query_id, score DESC, vec_id): one lexsort,
    then a rank within each query's run."""
    order = np.lexsort((v, -s, q))
    qo = q[order]
    new_run = np.r_[True, qo[1:] != qo[:-1]]
    run_start = np.maximum.accumulate(np.where(new_run, np.arange(len(qo)), 0))
    return order[np.arange(len(qo)) - run_start < k]


def _fold(g, k: int):
    """Candidate columns (``g[name]`` arrays) → ``(q, v, s)`` of each
    query's k best real rows in result order, plus the sorted ids of
    the queries with sentinel rows and their summed scan counts."""
    q = np.asarray(g["query_id"], dtype=np.int64)
    v = np.asarray(g["vec_id"], dtype=np.int64)
    s = np.asarray(g["score"], dtype=np.float64)
    n = np.asarray(g["n_scanned"], dtype=np.int64)
    sent = v < 0
    sq, inv = np.unique(q[sent], return_inverse=True)
    scans = np.zeros(len(sq), dtype=np.int64)
    np.add.at(scans, inv, n[sent])
    real = np.flatnonzero(~sent)
    top = real[_head_k(q[real], v[real], s[real], k)]
    return q[top], v[top], s[top], sq, scans


_CANDIDATES = pa.schema([("query_id", pa.int64()), ("vec_id", pa.int64()),
                         ("score", pa.float64()), ("n_scanned", pa.int64())])


def _scan(ds, qids: np.ndarray, scorer, payload, k: int, probe=None):
    """Candidate rows ``(query_id, vec_id, score, n_scanned)`` of ``ds``.

    ``scorer(t, payload)`` → the ``[n_q, n_batch]`` score matrix of one
    batch; ``payload`` and ``probe`` (bool ``[n_q, n_buckets]``: which
    ``bucket_id`` each query reads) are broadcast once.  Per query and
    batch: the exact top-k among its unmasked rows — every row tied
    with the k-th is kept until the ``vec_id`` tie-break — then one
    sentinel row (``vec_id = -1``) with the number of rows scored."""
    import ray

    ref = ray.put((qids, payload, probe))

    def batch_topk(t: pa.Table) -> pa.Table:
        ids_b, pl, pr = ray.get(ref)
        S = scorer(t, pl)
        vids = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = vids[None, :] != ids_b[:, None]  # never a query's own vector
        if pr is not None:
            keep &= pr[:, t["bucket_id"].to_numpy(zero_copy_only=False).astype(np.int64)]
        out_q, out_v, out_s, out_n = [], [], [], []
        for qi in range(len(ids_b)):
            cols = np.flatnonzero(keep[qi])
            n = len(cols)
            if n == 0:
                continue
            s = S[qi, cols]
            kk = min(k, n)
            boundary = np.partition(s, n - kk)[n - kk]
            cand = np.flatnonzero(s >= boundary)
            idx = cand[np.lexsort((vids[cols[cand]], -s[cand]))[:kk]]
            out_q.append(np.full(kk + 1, ids_b[qi], dtype=np.int64))
            out_v.append(np.r_[vids[cols[idx]], -1])
            out_s.append(np.r_[s[idx], 0.0])
            out_n.append(np.r_[np.zeros(kk, dtype=np.int64), n])
        if not out_q:
            return _CANDIDATES.empty_table()
        return pa.table([np.concatenate(c) for c in (out_q, out_v, out_s, out_n)],
                        schema=_CANDIDATES)

    return ds.map_batches(batch_topk, batch_format="pyarrow", batch_size=SCAN_BATCH)


def _reduce(cand, scanned_ds, n_queries: int, k: int):
    """Distributed per-query top-k of the candidate stream: each query
    keeps its k best real rows and one sentinel with the summed scan
    count, so ≤ (k+1)·|Q| rows leave it.  Exact: a dropped row ranks
    below k kept rows of its own query, and sums are associative.

    One query's candidates come from EVERY scanned batch, so a single
    per-query group would hold n_batches·(k+1) rows — corpus-linear
    worker memory.  When the scanned-rows estimate says so, level 1
    keys on (query, vec_id-hash lane), ``n_salt`` lanes per query of
    ≤ ~500k rows each, and level 2 merges the lanes' survivors."""
    from coderag_ray.config import auto_buckets, dataset_rows_estimate
    from coderag_ray.stages.bucket_agg import exchange, hash_buckets

    nb = auto_buckets(n_queries * (k + 1), target_rows=500_000)
    # allow_execute=False: n_salt only needs an upper bound, and the
    # count() backstop would execute a derived plan once just to size
    # it.  Unknown size → a moderate fixed salt: bounded lanes either
    # way, one extra tiny exchange at worst.
    n_rows_est = dataset_rows_estimate(scanned_ds, allow_execute=False)
    if n_rows_est > 0:
        n_batches_est = max(1, -(-n_rows_est // SCAN_BATCH))
        n_salt = max(1, min(65_536, -(-n_batches_est * (k + 1) // 500_000)))
    else:
        n_salt = 16

    def topk(g) -> pa.Table:
        q, v, s, sq, scans = _fold(g, k)
        return pa.table([np.r_[q, sq], np.r_[v, np.full(len(sq), -1)],
                         np.r_[s, np.zeros(len(sq))],
                         np.r_[np.zeros(len(q), dtype=np.int64), scans]],
                        schema=_CANDIDATES)

    def add_lane(t: pa.Table) -> pa.Table:
        return t.append_column("lane", pa.array(hash_buckets(t, "vec_id", n_salt)))

    if n_salt > 1:  # level 1: each (query, lane) → its top-k
        cand = exchange(cand.map_batches(add_lane, batch_format="pyarrow"),
                        ("query_id", "lane"), nb * n_salt, topk)
    return exchange(cand, "query_id", nb, topk)


def _merge(cand, k: int, score_col: str = "cos_sim") -> pa.Table:
    """Driver merge of (reduced) candidates → the result table, each
    row carrying its query's total scan count."""
    df = cand.to_pandas()  # O((k+1)·|Q|) rows once reduced
    if len(df) == 0:
        return _empty_result(score_col)
    q, v, s, sq, scans = _fold(df, k)
    return _result(q, v, s, scans[np.searchsorted(sq, q)], score_col)


def _topk(scanned_ds, qids, scorer, payload, k: int, probe=None,
          score_col: str = "cos_sim") -> pa.Table:
    """Scan → reduce → merge.  Brute force (no ``probe``) always
    reduces; a probe materializes its candidates (``count()`` is then
    free) and reduces only above ``PROBE_REDUCE_THRESHOLD`` rows."""
    cand = _scan(scanned_ds, qids, scorer, payload, k, probe)
    if probe is not None:
        cand = cand.materialize()
    if probe is None or cand.count() > PROBE_REDUCE_THRESHOLD:
        cand = _reduce(cand, scanned_ds, len(qids), k)
    return _merge(cand, k, score_col)


def _cosine(t: pa.Table, Qn: np.ndarray) -> np.ndarray:
    """Exact cosine scorer: unit queries × the batch's unit vectors."""
    return Qn @ _normalize(emb_matrix(t["embedding"])).T


def knn_bruteforce(emb_ds, query_ids: list[int], k: int = 5):
    """Exact cosine top-k for each query vector id.

    → pyarrow Table (query_id, vec_id, cos_sim round6), per query the k
    nearest (self excluded), ordered (query_id, cos_sim DESC, vec_id).
    The per-batch candidates always reduce distributed, so the driver
    sees O(k·|Q|) rows independent of the corpus block count.
    """
    qids, Q = _query_vectors(emb_ds, query_ids)
    return _topk(emb_ds, qids, _cosine, _normalize(Q), k).drop_columns(["n_scanned"])


def _layout_knn(emb_ds, query_ids, index_dir: str | None, build, probe):
    """Build-or-reuse + probe for the bucketed layouts: build into
    ``index_dir`` unless it already holds ``bucket=*`` partitions (a
    temporary directory, removed afterwards, when None), then call
    ``probe(index_dir, qids, Q)``."""
    import os
    import shutil
    import tempfile

    own = index_dir is None
    if own:
        index_dir = tempfile.mkdtemp(prefix="coderag_ann_")
    try:
        os.makedirs(index_dir, exist_ok=True)
        if not any(n.startswith("bucket=") for n in os.listdir(index_dir)):
            build(emb_ds, index_dir)
        return probe(index_dir, *_query_vectors(emb_ds, query_ids))
    finally:
        if own:
            shutil.rmtree(index_dir, ignore_errors=True)


def _probe(index_dir: str, qids: np.ndarray, probes: list, scorer, payload,
           k: int, score_col: str = "cos_sim") -> pa.Table:
    """Read only the probed buckets' files and run the shared top-k
    with each query masked to its own probe set."""
    import ray.data

    paths = probe_paths(index_dir, set().union(*probes))
    if not paths or not len(qids):
        return _empty_result(score_col)
    mask = np.zeros((len(probes), 1 + max(max(p, default=0) for p in probes)), dtype=bool)
    for qi, p in enumerate(probes):
        mask[qi, list(p)] = True
    return _topk(ray.data.read_parquet(paths), qids, scorer, payload, k, mask, score_col)


# ---------------------------------------------------------------------------
# bucketed layouts and random-hyperplane LSH
# ---------------------------------------------------------------------------


def _bucket_of(En: np.ndarray, P: np.ndarray) -> np.ndarray:
    bits = ((En @ P.T) > 0).astype(np.uint32)
    return (bits << np.arange(P.shape[0], dtype=np.uint32)).sum(axis=1).astype(np.int32)


def _bucket_table(t: pa.Table, b: np.ndarray, payload: str, values) -> pa.Table:
    """One layout row per vector; ``bucket`` is the partition key,
    ``bucket_id`` the same value kept in the files (``partition_cols``
    strips the key)."""
    import pyarrow.compute as pc

    return pa.table({
        "vec_id": pc.cast(t["vec_id"], pa.int64()),
        payload: values,
        "bucket_id": pa.array(b, type=pa.int32()),
        "bucket": pa.array(b, type=pa.int32()),
    })


def build_lsh_index(emb_ds, index_dir: str, n_planes: int | None = None) -> int:
    """Write the bucket-partitioned LSH layout: vectors are assigned a
    random-hyperplane bucket in ``map_batches`` and land in one parquet
    partition per bucket (``bucket=NNNN/``).  Probes then read ONLY the
    partitions they need — nothing corpus-sized ever reaches the
    driver, and on a cluster each partition is written/read by workers
    near the data.

    ``n_planes=None`` derives the hyperplane count from the corpus size
    (:func:`derive_lsh_planes`) and persists it in ``_lsh.json`` so
    probes always use the layout's own geometry.  Returns the plane
    count used."""
    import json

    if n_planes is None:
        n_planes = derive_lsh_planes(emb_ds.count())
    np_local = n_planes

    def assign(t: pa.Table) -> pa.Table:
        E = emb_matrix(t["embedding"])
        b = _bucket_of(_normalize(E), _planes(E.shape[1], np_local))
        return _bucket_table(t, b, "embedding", t["embedding"])

    _write_bucketed(emb_ds.map_batches(assign, batch_format="pyarrow"), index_dir,
                    extra_files={"_lsh.json": json.dumps(
                        {"n_planes": n_planes}).encode()})
    return n_planes


def layout_lsh_planes(index_dir: str) -> int:
    """Plane count a layout was built with (``_lsh.json``; pre-metadata
    layouts default to the legacy fixed ``LSH_PLANES``)."""
    import json
    import os

    p = os.path.join(index_dir, "_lsh.json")
    if os.path.exists(p):
        with open(p) as f:
            return int(json.load(f)["n_planes"])
    return LSH_PLANES


def _write_bucketed(ds, index_dir: str, extra_files: dict[str, bytes] | None = None) -> None:
    """Write a bucket-partitioned layout into a FRESH directory and
    atomically swap it in — appending into an existing ``bucket=*``
    layout would leave stale files from a previous build (old / deleted
    / re-bucketed vectors) that probes would then concatenate into
    results."""
    import os
    import shutil

    recover_dir_from_bak(index_dir)
    sweep_stale_staging(os.path.dirname(index_dir.rstrip("/")) or ".",
                        os.path.basename(index_dir.rstrip("/")) + "._tmp")
    tmp = index_dir.rstrip("/") + f"._tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    ds.write_parquet(tmp, partition_cols=["bucket"])
    for name, payload in (extra_files or {}).items():
        with open(os.path.join(tmp, name), "wb") as f:
            f.write(payload)
    swap_dir_crash_safe(tmp, index_dir)


def swap_dir_crash_safe(tmp: str, final: str) -> None:
    """Promote a fully-built staging dir over the live layout.  POSIX
    rename(2) cannot atomically exchange two non-empty directories, so
    the guarantee is: a crash at any point leaves a usable layout ON
    DISK — under ``final`` or under ``final + ".bak"`` (the one window
    between the two renames).  :func:`recover_dir_from_bak` restores
    the ``.bak`` copy and runs at every subsequent build/probe entry
    point, so the window is self-healing rather than permanent (ADVICE
    r3: a plain rmtree(final)+replace(tmp) left NO copy at all)."""
    import os
    import shutil

    bak = final.rstrip("/") + ".bak"
    shutil.rmtree(bak, ignore_errors=True)
    if os.path.isdir(final):
        os.replace(final, bak)
    os.replace(tmp, final)
    shutil.rmtree(bak, ignore_errors=True)


def recover_dir_from_bak(final: str) -> None:
    """Heal the swap_dir_crash_safe crash window: if only the ``.bak``
    copy survived, promote it back."""
    import os

    bak = final.rstrip("/") + ".bak"
    if not os.path.isdir(final) and os.path.isdir(bak):
        os.replace(bak, final)


def _probe_buckets(Qn: np.ndarray, multiprobe: int,
                   n_planes: int = LSH_PLANES) -> list[set[int]]:
    """Per-query probe set: the ``multiprobe + 1`` most promising
    buckets by RANKED multi-bit perturbation (multi-probe LSH, Lv et
    al. 2007 — public literature): a candidate bucket's penalty is the
    sum of squared margins of the hyperplanes it flips, so near-boundary
    multi-plane flips outrank far single-plane ones.  Single-bit-only
    probing (the r3 version) capped the probe set at ``n_planes + 1``
    buckets, which froze recall once multiprobe exceeded the plane
    count.  All ``2^p`` candidates are ranked vectorized (p ≤ 12 →
    ≤ 4096 rows per query)."""
    P = _planes(Qn.shape[1], n_planes)
    proj = Qn @ P.T
    own = _bucket_of(Qn, P)
    masks = np.arange(1 << n_planes, dtype=np.int64)
    bits = ((masks[:, None] >> np.arange(n_planes)[None, :]) & 1).astype(np.float64)
    m2 = proj ** 2  # [nq, p] squared margins
    out = []
    n_probe = min(multiprobe + 1, 1 << n_planes)
    for qi in range(len(Qn)):
        penalty = bits @ m2[qi]  # penalty[m] = Σ flipped margins² (own = 0)
        top = np.argpartition(penalty, n_probe - 1)[:n_probe]
        out.append({int(own[qi]) ^ int(m) for m in masks[top]})
    return out


def probe_paths(index_dir: str, buckets: set[int]) -> list[str]:
    """Parquet files a probe of ``buckets`` actually reads (expanded —
    ``read_parquet`` does not expand directories inside a path list);
    exposed so tests can assert pruning (probed ⊂ all partitions)."""
    import os

    files = []
    for b in sorted(buckets):
        p = os.path.join(index_dir, f"bucket={b}")
        if os.path.isdir(p):
            files.extend(os.path.join(p, f) for f in sorted(os.listdir(p))
                         if f.endswith(".parquet"))
    return files


def lsh_probe(index_dir: str, query_ids: np.ndarray, Q: np.ndarray,
              k: int = 5, multiprobe: int = 5) -> pa.Table:
    """Probe the bucket-partitioned layout for each query vector.

    Reads ONLY the probed bucket partitions (partition-pruned
    ``read_parquet``) and scores them with exact cosine in the shared
    scan; self-matches are excluded.
    → (query_id, vec_id, cos_sim round6, n_scanned), ordered
    (query_id, cos_sim DESC, vec_id).
    """
    Qn = _normalize(np.asarray(Q, dtype=np.float64))
    probes = _probe_buckets(Qn, multiprobe, layout_lsh_planes(index_dir))
    return _probe(index_dir, np.asarray(query_ids, dtype=np.int64), probes,
                  _cosine, Qn, k)


def lsh_knn(emb_ds, query_ids: list[int], k: int = 5, multiprobe: int = 5,
            index_dir: str | None = None):
    """Approximate cosine top-k via random-hyperplane LSH buckets.

    Builds (or reuses, when ``index_dir`` is given and populated) the
    bucket-partitioned layout, then probes it — see
    :func:`build_lsh_index` / :func:`lsh_probe`.  → same schema as
    :func:`knn_bruteforce` plus ``n_scanned``.
    """
    return _layout_knn(emb_ds, query_ids, index_dir, build_lsh_index,
                       lambda d, qids, Q: lsh_probe(d, qids, Q, k=k, multiprobe=multiprobe))


# ---------------------------------------------------------------------------
# IVF (inverted-file) ANN — coarse k-means quantizer + bucket layout
# ---------------------------------------------------------------------------

IVF_CENTROIDS = 64


def _kmeans_cosine(E: np.ndarray, n_centroids: int, n_iters: int = 10) -> np.ndarray:
    """Deterministic spherical k-means: init = the ``n_centroids``
    sample vectors with smallest vec_id (caller passes E in vec_id
    order), Lloyd iterations with cosine assignment, empty clusters
    keep their previous centroid.  Unit-normalized output."""
    k = min(n_centroids, len(E))
    C = E[:k].copy()
    for _ in range(n_iters):
        assign = np.argmax(E @ C.T, axis=1)
        for c in range(k):
            members = E[assign == c]
            if len(members):
                C[c] = members.sum(axis=0)
        C = _normalize(C)
    return C


IVF_TRAIN_TARGET = 65536  # max k-means training vectors by default


def derive_sample_mod(n_vectors: int, target: int = IVF_TRAIN_TARGET) -> int:
    """Smallest modulus that bounds the deterministic hash sample
    (``splitmix64(vec_id) % mod == 0``) at ≈``target`` training vectors.
    Resolves to 1 (use every vector, today's exact outputs) whenever the
    corpus already fits the target."""
    return max(1, -(-int(n_vectors) // int(target)))


def _training_sample(emb_ds, sample_mod: int | None) -> np.ndarray:
    """Unit vectors of the deterministic hash sample
    ``splitmix64(vec_id) % sample_mod == 0``, in vec_id order (the
    k-means init depends on it).  ``None`` derives the modulus from the
    corpus size, so the sample — collected on the driver — stays near
    ``IVF_TRAIN_TARGET`` vectors however large the corpus."""
    from coderag_ray.config import dataset_rows_estimate
    from coderag_ray.functions.hashing import splitmix64

    if sample_mod is None:
        sample_mod = derive_sample_mod(dataset_rows_estimate(emb_ds))

    def grab_sample(t: pa.Table) -> pa.Table:
        v = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        return t.filter(pa.array((splitmix64(v) % np.uint64(sample_mod)) == 0))

    sample = (emb_ds.map_batches(grab_sample, batch_format="pyarrow")
              .to_pandas().sort_values("vec_id"))
    return _normalize(emb_matrix(pa.array(list(sample["embedding"]))))


def build_ivf_index(emb_ds, index_dir: str, n_centroids: int = IVF_CENTROIDS,
                    n_iters: int = 10, sample_mod: int | None = None) -> np.ndarray:
    """IVF layout: train a coarse quantizer on a deterministic hash
    sample (:func:`_training_sample`), then assign every vector to its
    nearest centroid in ``map_batches`` and write one parquet partition
    per centroid — the same probe machinery as the LSH layout.  Pass
    ``sample_mod=1`` to force training on everything.  Returns the
    centroid matrix (also persisted as ``centroids.npy``)."""
    import io

    C = _kmeans_cosine(_training_sample(emb_ds, sample_mod), n_centroids, n_iters)
    buf = io.BytesIO()
    np.save(buf, C)

    def assign(t: pa.Table) -> pa.Table:
        En = _normalize(emb_matrix(t["embedding"]))
        b = np.argmax(En @ C.T, axis=1).astype(np.int32)
        return _bucket_table(t, b, "embedding", t["embedding"])

    _write_bucketed(emb_ds.map_batches(assign, batch_format="pyarrow"), index_dir,
                    extra_files={"centroids.npy": buf.getvalue()})
    return C


def _nearest_centroids(index_dir: str, Qn: np.ndarray, n_probe: int):
    """(``Qn·Cᵀ`` against the layout's centroids, per-query probe set
    of the ``n_probe`` most similar centroids — ties by centroid id)."""
    import os

    sims = Qn @ np.load(os.path.join(index_dir, "centroids.npy")).T
    order = np.argsort(-sims, axis=1, kind="stable")[:, :n_probe]
    return sims, [set(int(b) for b in row) for row in order]


def ivf_probe(index_dir: str, query_ids: np.ndarray, Q: np.ndarray,
              k: int = 5, n_probe: int = 4) -> pa.Table:
    """Probe the ``n_probe`` nearest centroids per query — same output
    contract as :func:`lsh_probe`."""
    Qn = _normalize(np.asarray(Q, dtype=np.float64))
    _, probes = _nearest_centroids(index_dir, Qn, n_probe)
    return _probe(index_dir, np.asarray(query_ids, dtype=np.int64), probes,
                  _cosine, Qn, k)


def ivf_knn(emb_ds, query_ids: list[int], k: int = 5, n_probe: int = 4,
            index_dir: str | None = None):
    """Approximate cosine top-k via IVF buckets (build-or-reuse +
    probe), mirroring :func:`lsh_knn`."""
    return _layout_knn(emb_ds, query_ids, index_dir, build_ivf_index,
                       lambda d, qids, Q: ivf_probe(d, qids, Q, k=k, n_probe=n_probe))


# ---------------------------------------------------------------------------
# IVF-PQ — product-quantized residuals (the embedding MEMORY scale path)
# ---------------------------------------------------------------------------
# At 100-TB corpus scale the embedding store itself dominates (float32
# vectors at dim 512+ are KBs per row); IVF-PQ stores m uint8 codes per
# vector (32-256× smaller) and scores candidates with per-query ADC
# lookup tables (Jégou et al. 2011, "Product Quantization for Nearest
# Neighbor Search" — public literature).  Approximate by construction →
# pytest recall-floor coverage (no driver row: the 50-query artifact is
# full; COVERAGE.md documents it).

PQ_SUBSPACES = 8
PQ_KS = 64  # codebook entries per subspace (uint8 codes; ≤256)


def _kmeans_l2(X: np.ndarray, k: int, n_iters: int = 8) -> np.ndarray:
    """Deterministic Lloyd k-means under L2 (residuals are not unit
    vectors): init = first ``k`` rows (caller passes vec_id order),
    empty clusters keep their previous centroid."""
    k = max(1, min(k, len(X)))
    C = X[:k].copy()
    for _ in range(n_iters):
        d = ((X[:, None, :] - C[None, :, :]) ** 2).sum(axis=2) if len(X) * k * X.shape[1] < 5e7 \
            else (X ** 2).sum(1)[:, None] - 2.0 * (X @ C.T) + (C ** 2).sum(1)[None, :]
        assign = np.argmin(d, axis=1)
        for c in range(k):
            members = X[assign == c]
            if len(members):
                C[c] = members.mean(axis=0)
    return C


def _pq_encode(R: np.ndarray, codebooks: np.ndarray) -> np.ndarray:
    """Residuals [n, d] → codes [n, m] uint8 (nearest codebook entry per
    subspace, vectorized)."""
    m, ks, dsub = codebooks.shape
    codes = np.empty((len(R), m), dtype=np.uint8)
    for j in range(m):
        sub = R[:, j * dsub:(j + 1) * dsub]
        cb = codebooks[j]
        d = (sub ** 2).sum(1)[:, None] - 2.0 * (sub @ cb.T) + (cb ** 2).sum(1)[None, :]
        codes[:, j] = np.argmin(d, axis=1).astype(np.uint8)
    return codes


def build_ivfpq_index(emb_ds, index_dir: str, n_centroids: int = IVF_CENTROIDS,
                      m: int = PQ_SUBSPACES, ks: int = PQ_KS,
                      n_iters: int = 8, sample_mod: int | None = None) -> None:
    """IVF-PQ layout: coarse spherical-k-means quantizer (same training
    sample as :func:`build_ivf_index`), per-subspace L2 codebooks
    trained on the SAMPLE's residuals, then every vector is assigned +
    PQ-encoded in ``map_batches`` and lands in one parquet partition per
    coarse bucket storing ONLY ``(vec_id, codes)`` — the original
    embedding column never enters the layout, which is the memory
    point.  Layout extras: ``centroids.npy``, ``codebooks.npy``.
    """
    import io

    E = _training_sample(emb_ds, sample_mod)
    d = E.shape[1]
    if d % m != 0:
        raise ValueError(f"dim {d} not divisible by m={m} subspaces")
    if ks > 256:
        raise ValueError(f"ks={ks} exceeds uint8 code range (max 256)")
    C = _kmeans_cosine(E, n_centroids, n_iters)
    R = E - C[np.argmax(E @ C.T, axis=1)]
    dsub = d // m
    codebooks = np.stack([
        _kmeans_l2(np.ascontiguousarray(R[:, j * dsub:(j + 1) * dsub]), ks, n_iters)
        for j in range(m)
    ])  # [m, ks', dsub] — ks' may clamp to sample size
    if codebooks.shape[1] < ks:  # pad so codes stay valid uint8 indices
        pad = np.repeat(codebooks[:, :1, :], ks - codebooks.shape[1], axis=1)
        codebooks = np.concatenate([codebooks, pad], axis=1)
    cbuf, bbuf = io.BytesIO(), io.BytesIO()
    np.save(cbuf, C)
    np.save(bbuf, codebooks)

    def assign(t: pa.Table) -> pa.Table:
        En = _normalize(emb_matrix(t["embedding"]))
        b = np.argmax(En @ C.T, axis=1).astype(np.int32)
        codes = _pq_encode(En - C[b], codebooks)
        # fixed-size binary → zero-copy np.frombuffer at probe time
        return _bucket_table(t, b, "codes", pa.Array.from_buffers(
            pa.binary(codes.shape[1]), len(codes), [None, pa.py_buffer(codes.tobytes())]))

    _write_bucketed(emb_ds.map_batches(assign, batch_format="pyarrow"), index_dir,
                    extra_files={"centroids.npy": cbuf.getvalue(),
                                 "codebooks.npy": bbuf.getvalue()})


def _adc(t: pa.Table, payload) -> np.ndarray:
    """ADC scorer: ``q·c_bucket + Σ_j LUT[j, code_j]`` per row — uint8
    gathers from the broadcast lookup tables, no float vectors read."""
    luts, base = payload  # [n_q, m, ks], [n_q, n_centroids]
    m = luts.shape[1]
    bids = t["bucket_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    col = t["codes"].combine_chunks()
    codes = np.frombuffer(col.buffers()[1], dtype=np.uint8, count=len(col) * m,
                          offset=col.offset * m).reshape(-1, m)
    S = base[:, bids]
    for j in range(m):
        S = S + luts[:, j, codes[:, j]]
    return S


def ivfpq_probe(index_dir: str, query_ids: np.ndarray, Q: np.ndarray,
                k: int = 5, n_probe: int = 4) -> pa.Table:
    """Distributed ADC probe: the per-query LUTs
    (``LUT[j] = q_sub_j · codebook_j^T``) and centroid base scores are
    broadcast once and the shared scan reads only the pruned bucket
    partitions.
    → (query_id, vec_id, adc_score round6, n_scanned), ordered
    (query_id, adc_score DESC, vec_id); self-matches excluded."""
    import os

    codebooks = np.load(os.path.join(index_dir, "codebooks.npy"))
    m, _, dsub = codebooks.shape
    Qn = _normalize(np.asarray(Q, dtype=np.float64))
    sims, probes = _nearest_centroids(index_dir, Qn, n_probe)
    luts = np.einsum("qjd,jkd->qjk", Qn.reshape(len(Qn), m, dsub), codebooks)
    return _probe(index_dir, np.asarray(query_ids, dtype=np.int64), probes,
                  _adc, (luts, sims), k, "adc_score")


def _row_of(keys: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Position in ``keys`` of each of ``values`` (the last one when a
    key repeats), -1 when absent."""
    order = np.argsort(keys, kind="stable")
    sk = keys[order]
    j = np.maximum(np.searchsorted(sk, values, side="right") - 1, 0)
    return np.where(sk[j] == values, order[j], -1)


def _refine(emb_ds, short: pa.Table, qids: np.ndarray, Qn: np.ndarray,
            k: int) -> pa.Table:
    """Exact-cosine re-rank of an ADC shortlist: one broadcast-id
    semi-join scan of the source embeddings, then :func:`_head_k`."""
    import pyarrow.compute as pc
    import ray

    sq, sv, sn = (short[c].to_numpy() for c in ("query_id", "vec_id", "n_scanned"))
    if not len(sv):  # e.g. every query alone in its probed buckets
        return _empty_result()
    need_ref = ray.put(pa.array(np.unique(sv), type=pa.int64()))

    def grab(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_in(pc.cast(t["vec_id"], pa.int64()),
                                 value_set=ray.get(need_ref)))

    cand = emb_ds.map_batches(grab, batch_format="pyarrow").to_pandas()
    if not len(cand):
        return _empty_result()
    # a reused layout may hold vec_ids no longer in emb_ds (dropped, like
    # lsh/ivf reuse); a duplicated vec_id resolves to its last row
    vp = _row_of(cand["vec_id"].to_numpy(dtype=np.int64), sv)
    ok = vp >= 0
    if not ok.any():
        return _empty_result()
    sq, sv, sn, vp = sq[ok], sv[ok], sn[ok], vp[ok]
    CE = _normalize(np.stack(cand["embedding"].to_numpy()).astype(np.float64))
    s = np.einsum("ij,ij->i", CE[vp], Qn[_row_of(qids, sq)])
    i = _head_k(sq, sv, s, k)
    return _result(sq[i], sv[i], s[i], sn[i])


def ivfpq_knn(emb_ds, query_ids: list[int], k: int = 5, n_probe: int = 4,
              refine: int = 4, index_dir: str | None = None):
    """Approximate cosine top-k over the PQ-coded layout (build-or-reuse
    + ADC probe), mirroring :func:`ivf_knn` — the embedding-memory scale
    path (codes only, no float vectors in the layout).

    ``refine > 0`` re-ranks the ADC shortlist (``refine × k`` per query)
    with EXACT cosine via one broadcast-id semi-join scan of the source
    embeddings — the standard IVF-PQ refinement step: the PQ layout
    stays 32-256× smaller than the vectors, and the refine pass touches
    only shortlist rows.  ``refine=0`` returns raw ADC ranking
    (adc_score column instead of cos_sim)."""
    def probe(d, qids, Q):
        short = ivfpq_probe(d, qids, Q, k=(k * refine if refine else k), n_probe=n_probe)
        return _refine(emb_ds, short, qids, _normalize(Q), k) if refine else short

    return _layout_knn(emb_ds, query_ids, index_dir, build_ivfpq_index, probe)
