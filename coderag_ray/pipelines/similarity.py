"""Similarity search over an embedding column.

- :func:`knn_bruteforce` — exact cosine top-k: the query matrix is
  broadcast once (``ray.put``) and every ``map_batches`` task does one
  numpy matmul against its batch, emitting per-batch top-k candidates;
  the tiny candidate set merges on the driver.  No shuffle, no
  per-batch re-serialization of the queries — the broadcast-small-side
  pattern from the Ray guide.
- :func:`lsh_knn` — the scale path: random-hyperplane LSH buckets
  (fixed seed), queries probe only their bucket (+ optional multiprobe
  by flipping the lowest-margin bits).  Approximate by construction →
  rows-only correctness check (no SQL oracle).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from coderag_ray.functions.embeddings import emb_matrix
from coderag_ray.functions.rounding import round6
from coderag_ray.functions.staging import sweep_stale_staging

# ds.stats() of the last ANN probe scan — per-operator wall/CPU audit;
# printed by CODERAG_BENCH_STATS=1 bench.py
LAST_PROBE_STATS: str | None = None

LSH_PLANES = 12           # maximum hyperplanes (2^12 buckets)
LSH_TARGET_BUCKET = 64    # aim for ~this many vectors per bucket
_rng = np.random.default_rng(777)
_PLANES_CACHE: dict[tuple[int, int], np.ndarray] = {}


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


def _grab_queries(emb_ds, query_ids: list[int]) -> pd.DataFrame:
    """Pull the query rows out of the (distributed) embedding dataset.

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
    return q


def knn_bruteforce(emb_ds, query_ids: list[int], k: int = 5):
    """Exact cosine top-k for each query vector id.

    → pyarrow Table (query_id, vec_id, cos_sim round6), per query the k
    nearest (self excluded), ordered (query_id, cos_sim DESC, vec_id).

    Scale shape (VERDICT r4 item 2): per-batch top-k candidates are
    REDUCED DISTRIBUTED first — a ``groupby(query-hash bucket)``
    ``map_groups`` collapses every query's candidates to its global
    top-k — so the driver merge sees O(k·|Q|) rows, independent of the
    corpus block count (the old direct ``to_pandas`` collected
    O(k·|Q|·n_blocks) rows — linear in corpus size).
    """
    import ray

    from coderag_ray.config import auto_buckets
    from coderag_ray.stages.bucket_agg import exchange, hash_buckets

    q = _grab_queries(emb_ds, query_ids)
    Q = _normalize(np.stack(q["embedding"].to_numpy()).astype(np.float64))
    qids = q["vec_id"].to_numpy().astype(np.int64)
    q_ref = ray.put((qids, Q))

    def batch_topk(t: pa.Table) -> pa.Table:
        ids_b, Qb = ray.get(q_ref)
        E = emb_matrix(t["embedding"])
        vids = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        S = Qb @ _normalize(E).T  # [n_q, n_batch]
        out_q, out_v, out_s = [], [], []
        kk = min(k + 1, S.shape[1])  # +1 in case self is in this batch
        for qi in range(S.shape[0]):
            # exact per-batch top-kk under the GLOBAL ordering
            # (sim DESC, vec_id ASC): argpartition alone keeps an
            # arbitrary subset of candidates tied at the boundary, which
            # can drop a tied smaller-vec_id winner (e.g. duplicate
            # embeddings) — include all boundary ties, then order them
            # by the real tie-break before truncating
            part = np.argpartition(-S[qi], kk - 1)
            boundary = S[qi][part[kk - 1]]
            cand = np.flatnonzero(S[qi] >= boundary)
            order = np.lexsort((vids[cand], -S[qi][cand]))[:kk]
            idx = cand[order]
            out_q.extend([ids_b[qi]] * len(idx))
            out_v.extend(vids[idx].tolist())
            out_s.extend(S[qi, idx].tolist())
        return pa.table(
            {
                "query_id": pa.array(out_q, type=pa.int64()),
                "vec_id": pa.array(out_v, type=pa.int64()),
                "cos_sim": pa.array(out_s, type=pa.float64()),
            }
        )

    # distributed top-k reduction, TWO-LEVEL when the candidate stream
    # is large: one query's candidates come from EVERY batch, so a
    # single per-query group would hold n_batches·(k+1) rows — corpus-
    # linear worker memory (the r4 driver-collect bug moved one hop
    # upstream).  Level 1 keys on (query, vec_id-hash lane) with
    # ``n_salt`` lanes per query (each lane ≤ ~target rows) and reduces
    # each lane to its top-k; level 2 merges the k·n_salt survivors per
    # query.  Small corpora keep n_salt=1 → one level.
    from coderag_ray.config import dataset_rows_estimate

    nb = auto_buckets(len(qids) * (k + 1), target_rows=500_000)
    # allow_execute=False: n_salt only needs an upper bound, and the
    # count() backstop would execute a derived (non-parquet) plan once
    # just to size it.  Unknown size → a moderate fixed salt: bounded
    # lanes either way, one extra tiny exchange at worst.
    n_rows_est = dataset_rows_estimate(emb_ds, allow_execute=False)
    if n_rows_est > 0:
        n_batches_est = max(1, -(-n_rows_est // 4096))
        n_salt = max(1, min(65_536, -(-n_batches_est * (k + 1) // 500_000)))
    else:
        n_salt = 16

    def add_lane(t: pa.Table) -> pa.Table:
        return t.append_column("lane", pa.array(hash_buckets(t, "vec_id", n_salt)))

    def reduce_topk(g: pd.DataFrame) -> pa.Table:
        g = g[g["query_id"] != g["vec_id"]]  # exclude self
        g = g.sort_values(["query_id", "cos_sim", "vec_id"],
                          ascending=[True, False, True])
        top_g = g.groupby("query_id", sort=False).head(k)
        return pa.table({
            "query_id": pa.array(top_g["query_id"].to_numpy(dtype=np.int64), type=pa.int64()),
            "vec_id": pa.array(top_g["vec_id"].to_numpy(dtype=np.int64), type=pa.int64()),
            "cos_sim": pa.array(top_g["cos_sim"].to_numpy(dtype=np.float64), type=pa.float64()),
        })

    cand = emb_ds.map_batches(batch_topk, batch_format="pyarrow", batch_size=4096)
    if n_salt > 1:  # level 1: each (query, lane) → its top-k
        cand = exchange(cand.map_batches(add_lane, batch_format="pyarrow"),
                        ("query_id", "lane"), nb * n_salt, reduce_topk, batch_format="pandas")
    # O(k·|Q|) rows reach the driver — bounded, corpus-independent
    cand = exchange(cand, "query_id", nb, reduce_topk, batch_format="pandas").to_pandas()
    if cand.shape[1] == 0:  # every candidate was a self-match
        return pa.table({"query_id": pa.array([], type=pa.int64()),
                         "vec_id": pa.array([], type=pa.int64()),
                         "cos_sim": pa.array([], type=pa.float64())})
    cand = cand.sort_values(["query_id", "cos_sim", "vec_id"], ascending=[True, False, True])
    top = cand.reset_index(drop=True)
    top["cos_sim"] = round6(top["cos_sim"].to_numpy())
    return pa.Table.from_pandas(top, preserve_index=False)


def _bucket_of(En: np.ndarray, P: np.ndarray) -> np.ndarray:
    bits = ((En @ P.T) > 0).astype(np.uint32)
    return (bits << np.arange(P.shape[0], dtype=np.uint32)).sum(axis=1).astype(np.int32)


def build_lsh_index(emb_ds, index_dir: str, n_planes: int | None = None) -> int:
    """Write the bucket-partitioned LSH layout: vectors are assigned a
    random-hyperplane bucket in ``map_batches`` and land in one parquet
    partition per bucket (``bucket=NNNN/``).  Probes then read ONLY the
    partitions they need — nothing corpus-sized ever reaches the
    driver, and on a cluster each partition is written/read by workers
    near the data.  ``bucket_id`` is duplicated as a data column because
    ``partition_cols`` strips the partition key from the files.

    ``n_planes=None`` derives the hyperplane count from the corpus size
    (:func:`derive_lsh_planes`) and persists it in ``_lsh.json`` so
    probes always use the layout's own geometry.  Returns the plane
    count used."""
    import json

    import pyarrow.compute as pc

    if n_planes is None:
        n_planes = derive_lsh_planes(emb_ds.count())
    np_local = n_planes

    def assign(t: pa.Table) -> pa.Table:
        E = emb_matrix(t["embedding"])
        b = _bucket_of(_normalize(E), _planes(E.shape[1], np_local))
        return pa.table(
            {
                "vec_id": pc.cast(t["vec_id"], pa.int64()),
                "embedding": t["embedding"],
                "bucket_id": pa.array(b, type=pa.int32()),
                "bucket": pa.array(b, type=pa.int32()),
            }
        )

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
    ``read_parquet``); scoring is a per-batch matmul against the
    broadcast query matrix with per-batch top-k (boundary ties kept),
    and only top-k candidate rows + per-batch scan counts reach the
    driver.  Self-matches (same vec_id as the query id) are excluded.
    → (query_id, vec_id, cos_sim round6, n_scanned), ordered
    (query_id, cos_sim DESC, vec_id).
    """
    Qn = _normalize(np.asarray(Q, dtype=np.float64))
    qids = np.asarray(query_ids, dtype=np.int64)
    probes = _probe_buckets(Qn, multiprobe, layout_lsh_planes(index_dir))
    paths = probe_paths(index_dir, set().union(*probes) if probes else set())
    return _probe_scan(paths, qids, Qn, probes, k)


# candidate rows a probe merge may collect on the driver directly; above
# this the stream is reduced distributed first.  The per-batch top-k
# emission means candidate rows ≈ (k+1)·|Q|·n_probed_batches — linear in
# the probed fraction of the corpus, so at scale the reduce is mandatory
# while small layouts (tests, single-node benches) skip the extra
# exchange entirely.  count() is free: callers count a materialized ds.
PROBE_REDUCE_THRESHOLD = 200_000


def _reduce_candidates(cand_ds, k: int, score_col: str):
    """Distributed per-query reduction of probe-candidate rows: keeps
    each query's top-k REAL rows (score DESC, vec_id ASC) plus ONE
    sentinel row (vec_id = -1) carrying the summed scan count, so the
    driver merge sees O((k+1)·|Q|) rows regardless of how many probed
    batches produced candidates (the same bound knn_bruteforce's reduce
    provides).  Exact: every dropped row ranks below its query's kept
    k-th within its group, and sentinel sums are associative — the
    driver merge re-sorts/heads-k the union unchanged."""
    from coderag_ray.config import auto_buckets
    from coderag_ray.stages.bucket_agg import exchange

    def reduce_g(g: pd.DataFrame) -> pa.Table:
        sent = g[g["vec_id"] < 0].groupby("query_id", sort=True)["n_scanned"].sum()
        real = g[g["vec_id"] >= 0].sort_values(
            ["query_id", score_col, "vec_id"], ascending=[True, False, True])
        top = real.groupby("query_id", sort=False).head(k)
        sq = sent.index.to_numpy(dtype=np.int64)
        return pa.table({
            "query_id": pa.array(
                np.r_[top["query_id"].to_numpy(dtype=np.int64), sq], type=pa.int64()),
            "vec_id": pa.array(
                np.r_[top["vec_id"].to_numpy(dtype=np.int64),
                      np.full(len(sq), -1, dtype=np.int64)], type=pa.int64()),
            score_col: pa.array(
                np.r_[top[score_col].to_numpy(dtype=np.float64),
                      np.zeros(len(sq))], type=pa.float64()),
            "n_scanned": pa.array(
                np.r_[top["n_scanned"].to_numpy(dtype=np.int64),
                      sent.to_numpy(dtype=np.int64)], type=pa.int64()),
        })

    return exchange(cand_ds, "query_id", auto_buckets(cand_ds, target_rows=500_000),
                    reduce_g, batch_format="pandas")


def _probe_scan(paths: list[str], qids: np.ndarray, Qn: np.ndarray,
                probes: list[set[int]], k: int) -> pa.Table:
    """Shared candidate scan for bucketed ANN layouts (LSH and IVF):
    pruned read of ``paths``, per-batch exact-cosine top-k per query
    restricted to its probe set, tiny driver merge.  Above
    ``PROBE_REDUCE_THRESHOLD`` candidate rows the stream is first
    reduced distributed (:func:`_reduce_candidates`) so the driver
    collect is O((k+1)·|Q|) however many probed batches exist."""
    import ray
    import ray.data

    empty = pa.table({"query_id": pa.array([], type=pa.int64()),
                      "vec_id": pa.array([], type=pa.int64()),
                      "cos_sim": pa.array([], type=pa.float64()),
                      "n_scanned": pa.array([], type=pa.int64())})
    if not paths or not len(qids):
        return empty
    q_ref = ray.put((qids, Qn, probes))

    def batch_score(t: pa.Table) -> pa.Table:
        ids_b, Qb, probes_b = ray.get(q_ref)
        En = _normalize(emb_matrix(t["embedding"]))
        vids = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        bks = t["bucket_id"].to_numpy(zero_copy_only=False).astype(np.int32)
        out_q, out_v, out_s, out_n = [], [], [], []
        for qi in range(len(ids_b)):
            pset = np.fromiter(probes_b[qi], dtype=np.int32)
            mask = np.isin(bks, pset) & (vids != ids_b[qi])
            n = int(mask.sum())
            if n == 0:
                continue
            sims = En[mask] @ Qb[qi]
            mvids = vids[mask]
            kk = min(k, n)
            part = np.argpartition(-sims, kk - 1)
            boundary = sims[part[kk - 1]]
            cand = np.flatnonzero(sims >= boundary)
            order = np.lexsort((mvids[cand], -sims[cand]))[:kk]
            idx = cand[order]
            out_q.extend([ids_b[qi]] * (len(idx) + 1))
            out_v.extend(mvids[idx].tolist() + [-1])  # -1 row carries the scan count
            out_s.extend(sims[idx].tolist() + [0.0])
            out_n.extend([0] * len(idx) + [n])
        return pa.table({"query_id": pa.array(out_q, type=pa.int64()),
                         "vec_id": pa.array(out_v, type=pa.int64()),
                         "cos_sim": pa.array(out_s, type=pa.float64()),
                         "n_scanned": pa.array(out_n, type=pa.int64())})

    cand_ds = (ray.data.read_parquet(paths)
               .map_batches(batch_score, batch_format="pyarrow", batch_size=4096)
               .materialize())
    global LAST_PROBE_STATS
    LAST_PROBE_STATS = cand_ds.stats()  # per-operator audit (bench)
    if cand_ds.count() > PROBE_REDUCE_THRESHOLD:  # count is free: materialized
        cand_ds = _reduce_candidates(cand_ds, k, "cos_sim")
    cand = cand_ds.to_pandas()  # O((k+1)·|Q|) rows post-reduce
    if len(cand) == 0:
        return empty
    scans = cand[cand.vec_id < 0].groupby("query_id")["n_scanned"].sum()
    rows = cand[cand.vec_id >= 0]
    rows = rows.sort_values(["query_id", "cos_sim", "vec_id"],
                            ascending=[True, False, True])
    top = rows.groupby("query_id", sort=True).head(k).reset_index(drop=True)
    return pa.table(
        {
            "query_id": pa.array(top["query_id"].to_numpy(dtype=np.int64), type=pa.int64()),
            "vec_id": pa.array(top["vec_id"].to_numpy(dtype=np.int64), type=pa.int64()),
            "cos_sim": pa.array(round6(top["cos_sim"].to_numpy()), type=pa.float64()),
            "n_scanned": pa.array(top["query_id"].map(scans).to_numpy(dtype=np.int64), type=pa.int64()),
        }
    )


def lsh_knn(emb_ds, query_ids: list[int], k: int = 5, multiprobe: int = 5,
            index_dir: str | None = None):
    """Approximate cosine top-k via random-hyperplane LSH buckets.

    Builds (or reuses, when ``index_dir`` is given and populated) the
    bucket-partitioned layout, then probes it — see
    :func:`build_lsh_index` / :func:`lsh_probe`.  → same schema as
    :func:`knn_bruteforce` plus ``n_scanned``.
    """
    import os
    import shutil
    import tempfile

    own = index_dir is None
    if own:
        index_dir = tempfile.mkdtemp(prefix="coderag_lsh_")
    try:
        os.makedirs(index_dir, exist_ok=True)
        if not any(n.startswith("bucket=") for n in os.listdir(index_dir)):
            build_lsh_index(emb_ds, index_dir)
        q = _grab_queries(emb_ds, query_ids)
        Q = np.stack(q["embedding"].to_numpy()).astype(np.float64)
        return lsh_probe(index_dir, q["vec_id"].to_numpy(dtype=np.int64), Q,
                         k=k, multiprobe=multiprobe)
    finally:
        if own:
            shutil.rmtree(index_dir, ignore_errors=True)


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


def build_ivf_index(emb_ds, index_dir: str, n_centroids: int = IVF_CENTROIDS,
                    n_iters: int = 10, sample_mod: int | None = None) -> np.ndarray:
    """IVF layout: train a coarse quantizer on a deterministic hash
    sample (``splitmix64(vec_id) % sample_mod == 0``), then assign every
    vector to its nearest centroid in ``map_batches`` and write one
    parquet partition per centroid — identical probe machinery to the
    LSH layout.  ``sample_mod=None`` derives the modulus from the corpus
    size so the training sample never exceeds ~64 k vectors — k-means
    training must stay bounded no matter the corpus; pass 1 explicitly
    to force training on everything.  Returns the centroid matrix (also
    persisted as ``centroids.npy``)."""
    import io

    import pyarrow.compute as pc

    from coderag_ray.functions.hashing import splitmix64

    if sample_mod is None:
        sample_mod = derive_sample_mod(emb_ds.count())

    def grab_sample(t: pa.Table) -> pa.Table:
        v = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        keep = (splitmix64(v) % np.uint64(sample_mod)) == 0
        return t.filter(pa.array(keep))

    sample = (emb_ds.map_batches(grab_sample, batch_format="pyarrow")
              .to_pandas().sort_values("vec_id"))  # bounded by sample_mod
    E = _normalize(emb_matrix(pa.table({
        "embedding": pa.array(list(sample["embedding"]))})["embedding"]))
    C = _kmeans_cosine(E, n_centroids, n_iters)
    buf = io.BytesIO()
    np.save(buf, C)

    def assign(t: pa.Table) -> pa.Table:
        En = _normalize(emb_matrix(t["embedding"]))
        b = np.argmax(En @ C.T, axis=1).astype(np.int32)
        return pa.table(
            {
                "vec_id": pc.cast(t["vec_id"], pa.int64()),
                "embedding": t["embedding"],
                "bucket_id": pa.array(b, type=pa.int32()),
                "bucket": pa.array(b, type=pa.int32()),
            }
        )

    _write_bucketed(emb_ds.map_batches(assign, batch_format="pyarrow"), index_dir,
                    extra_files={"centroids.npy": buf.getvalue()})
    return C


def ivf_probe(index_dir: str, query_ids: np.ndarray, Q: np.ndarray,
              k: int = 5, n_probe: int = 4) -> pa.Table:
    """Probe the ``n_probe`` nearest centroids per query — same output
    contract as :func:`lsh_probe`."""
    import os

    C = np.load(os.path.join(index_dir, "centroids.npy"))
    Qn = _normalize(np.asarray(Q, dtype=np.float64))
    qids = np.asarray(query_ids, dtype=np.int64)
    sims = Qn @ C.T
    order = np.argsort(-sims, axis=1, kind="stable")[:, :n_probe]
    probes = [set(int(b) for b in row) for row in order]
    paths = probe_paths(index_dir, set().union(*probes) if probes else set())
    return _probe_scan(paths, qids, Qn, probes, k)


def ivf_knn(emb_ds, query_ids: list[int], k: int = 5, n_probe: int = 4,
            index_dir: str | None = None):
    """Approximate cosine top-k via IVF buckets (build-or-reuse +
    probe), mirroring :func:`lsh_knn`."""
    import os
    import shutil
    import tempfile

    own = index_dir is None
    if own:
        index_dir = tempfile.mkdtemp(prefix="coderag_ivf_")
    try:
        os.makedirs(index_dir, exist_ok=True)
        if not any(n.startswith("bucket=") for n in os.listdir(index_dir)):
            build_ivf_index(emb_ds, index_dir)
        q = _grab_queries(emb_ds, query_ids)
        Q = np.stack(q["embedding"].to_numpy()).astype(np.float64)
        return ivf_probe(index_dir, q["vec_id"].to_numpy(dtype=np.int64), Q,
                         k=k, n_probe=n_probe)
    finally:
        if own:
            shutil.rmtree(index_dir, ignore_errors=True)


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
    sample discipline as :func:`build_ivf_index`), per-subspace L2
    codebooks trained on the SAMPLE's residuals, then every vector is
    assigned + PQ-encoded in ``map_batches`` and lands in one parquet
    partition per coarse bucket storing ONLY ``(vec_id, codes)`` — the
    original embedding column never enters the layout, which is the
    memory point.  Layout extras: ``centroids.npy``, ``codebooks.npy``.
    """
    import io

    import pyarrow.compute as pc

    from coderag_ray.functions.hashing import splitmix64

    if sample_mod is None:
        from coderag_ray.config import dataset_rows_estimate

        sample_mod = derive_sample_mod(dataset_rows_estimate(emb_ds))

    def grab_sample(t: pa.Table) -> pa.Table:
        v = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
        keep = (splitmix64(v) % np.uint64(sample_mod)) == 0
        return t.filter(pa.array(keep))

    sample = (emb_ds.map_batches(grab_sample, batch_format="pyarrow")
              .to_pandas().sort_values("vec_id"))
    E = _normalize(emb_matrix(pa.table({
        "embedding": pa.array(list(sample["embedding"]))})["embedding"]))
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
        return pa.table(
            {
                "vec_id": pc.cast(t["vec_id"], pa.int64()),
                # fixed-size binary → zero-copy np.frombuffer at probe time
                "codes": pa.Array.from_buffers(
                    pa.binary(codes.shape[1]), len(codes),
                    [None, pa.py_buffer(codes.tobytes())]),
                "bucket_id": pa.array(b, type=pa.int32()),
                "bucket": pa.array(b, type=pa.int32()),
            }
        )

    _write_bucketed(emb_ds.map_batches(assign, batch_format="pyarrow"), index_dir,
                    extra_files={"centroids.npy": cbuf.getvalue(),
                                 "codebooks.npy": bbuf.getvalue()})


def ivfpq_probe(index_dir: str, query_ids: np.ndarray, Q: np.ndarray,
                k: int = 5, n_probe: int = 4) -> pa.Table:
    """Distributed ADC probe (same shape as :func:`_probe_scan`): the
    per-query LUTs (``LUT[j] = q_sub_j · codebook_j^T``) and centroid
    base scores are broadcast once; each ``map_batches`` task over the
    PRUNED bucket partitions scores its rows with
    ``q·c_bucket + Σ_j LUT[j, code_j]`` — pure uint8 gathers, no float
    vectors read — and emits per-batch top-k candidates.  Only candidate
    rows + scan counts reach the driver.
    → (query_id, vec_id, adc_score round6, n_scanned), ordered
    (query_id, adc_score DESC, vec_id); self-matches excluded."""
    import os

    import ray
    import ray.data

    C = np.load(os.path.join(index_dir, "centroids.npy"))
    codebooks = np.load(os.path.join(index_dir, "codebooks.npy"))
    m, ks, dsub = codebooks.shape
    Qn = _normalize(np.asarray(Q, dtype=np.float64))
    qids = np.asarray(query_ids, dtype=np.int64)
    sims = Qn @ C.T  # [nq, nlist] — base scores q·c
    order = np.argsort(-sims, axis=1, kind="stable")[:, :n_probe]
    probe_sets = [frozenset(int(b) for b in row) for row in order]
    all_buckets = set().union(*probe_sets) if probe_sets else set()
    paths = probe_paths(index_dir, all_buckets)
    if not paths:
        return pa.table({
            "query_id": pa.array([], type=pa.int64()),
            "vec_id": pa.array([], type=pa.int64()),
            "adc_score": pa.array([], type=pa.float64()),
            "n_scanned": pa.array([], type=pa.int64()),
        })
    # [nq, m, ks] LUTs, built once and broadcast
    luts = np.einsum("qjd,jkd->qjk",
                     Qn.reshape(len(Qn), m, dsub), codebooks)
    bc = ray.put((qids, luts, sims, probe_sets))

    def score_batch(t: pa.Table) -> pa.Table:
        q_ids, q_luts, q_sims, q_probes = ray.get(bc)
        vids = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        bids = t["bucket_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        col = t["codes"].combine_chunks()
        codes = np.frombuffer(col.buffers()[1], dtype=np.uint8,
                              count=len(col) * m,
                              offset=col.offset * m).reshape(-1, m)
        out_q, out_v, out_s, out_n = [], [], [], []
        for qi in range(len(q_ids)):
            mask = np.isin(bids, list(q_probes[qi])) & (vids != q_ids[qi])
            n = int(mask.sum())  # rows this query actually scored here
            if n == 0:
                continue
            s = q_sims[qi, bids[mask]]
            cm = codes[mask]
            for j in range(m):
                s = s + q_luts[qi, j][cm[:, j]]
            v = vids[mask]
            kk = min(k, n)
            sel = np.lexsort((v, -s))[:kk]
            # _probe_scan's sentinel convention: a vec_id=-1 row carries
            # the per-(query, batch) scan count; the driver sums those
            out_q.extend([int(q_ids[qi])] * (kk + 1))
            out_v.extend(v[sel].tolist() + [-1])
            out_s.extend(s[sel].tolist() + [0.0])
            out_n.extend([0] * kk + [n])
        return pa.table({
            "query_id": pa.array(out_q, type=pa.int64()),
            "vec_id": pa.array(out_v, type=pa.int64()),
            "adc_score": pa.array(out_s, type=pa.float64()),
            "n_scanned": pa.array(out_n, type=pa.int64()),
        })

    cand_ds = (ray.data.read_parquet(paths)
               .map_batches(score_batch, batch_format="pyarrow").materialize())
    if cand_ds.count() > PROBE_REDUCE_THRESHOLD:  # same bound as _probe_scan
        cand_ds = _reduce_candidates(cand_ds, k, "adc_score")
    cand = cand_ds.to_pandas()
    if not len(cand) or cand.shape[1] == 0:
        return pa.table({
            "query_id": pa.array([], type=pa.int64()),
            "vec_id": pa.array([], type=pa.int64()),
            "adc_score": pa.array([], type=pa.float64()),
            "n_scanned": pa.array([], type=pa.int64()),
        })
    # groupby-free vectorized merge (VERDICT r4 item 7): one lexsort over
    # the whole candidate frame, then per-query head-k via run ranks
    scans = cand[cand["vec_id"] < 0].groupby("query_id")["n_scanned"].sum()
    rows_df = cand[cand["vec_id"] >= 0]
    q = rows_df["query_id"].to_numpy(dtype=np.int64)
    v = rows_df["vec_id"].to_numpy(dtype=np.int64)
    s = rows_df["adc_score"].to_numpy(dtype=np.float64)
    order = np.lexsort((v, -s, q))
    q, v, s = q[order], v[order], s[order]
    new_run = np.r_[True, q[1:] != q[:-1]]
    run_start = np.maximum.accumulate(np.where(new_run, np.arange(len(q)), 0))
    rank = np.arange(len(q)) - run_start
    keep = rank < k
    q, v, s = q[keep], v[keep], s[keep]
    scan_arr = pd.Series(q).map(scans).fillna(0).to_numpy(dtype=np.int64)
    return pa.table({
        "query_id": pa.array(q, type=pa.int64()),
        "vec_id": pa.array(v, type=pa.int64()),
        "adc_score": pa.array(round6(s) + 0.0, type=pa.float64()),
        "n_scanned": pa.array(scan_arr, type=pa.int64()),
    })


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
    import os
    import shutil
    import tempfile

    import pyarrow.compute as pc
    import ray

    own = index_dir is None
    if own:
        index_dir = tempfile.mkdtemp(prefix="coderag_ivfpq_")
    try:
        os.makedirs(index_dir, exist_ok=True)
        if not any(n.startswith("bucket=") for n in os.listdir(index_dir)):
            build_ivfpq_index(emb_ds, index_dir)
        q = _grab_queries(emb_ds, query_ids)
        Q = np.stack(q["embedding"].to_numpy()).astype(np.float64)
        qids = q["vec_id"].to_numpy(dtype=np.int64)
        short = ivfpq_probe(index_dir, qids, Q,
                            k=(k * refine if refine else k), n_probe=n_probe)
        if not refine:
            return short
        sdf = short.to_pandas()
        if not len(sdf):  # e.g. every query alone in its probed buckets
            return pa.table({
                "query_id": pa.array([], type=pa.int64()),
                "vec_id": pa.array([], type=pa.int64()),
                "cos_sim": pa.array([], type=pa.float64()),
                "n_scanned": pa.array([], type=pa.int64()),
            })
        need = np.unique(sdf["vec_id"].to_numpy(dtype=np.int64))
        need_ref = ray.put(need)

        def grab(t: pa.Table) -> pa.Table:
            ids = ray.get(need_ref)
            return t.filter(pc.is_in(pc.cast(t["vec_id"], pa.int64()),
                                     value_set=pa.array(ids, type=pa.int64())))

        cand = (emb_ds.map_batches(grab, batch_format="pyarrow").to_pandas())
        empty = pa.table({
            "query_id": pa.array([], type=pa.int64()),
            "vec_id": pa.array([], type=pa.int64()),
            "cos_sim": pa.array([], type=pa.float64()),
            "n_scanned": pa.array([], type=pa.int64()),
        })
        if not len(cand) or cand.shape[1] == 0:
            # every shortlist vec_id is stale (reused layout after the
            # embedding dataset changed) — np.stack on zero rows raises
            return empty
        cid = cand["vec_id"].to_numpy(dtype=np.int64)
        CE = _normalize(np.stack(cand["embedding"].to_numpy()).astype(np.float64))
        Qn = _normalize(Q)
        # vectorized refine: map shortlist rows to candidate/query rows,
        # exact-cosine per row, one lexsort + run-rank head-k (no loop)
        # keep="last" matches the old dict-comprehension mapping: a
        # reused/dirty layout can hold a duplicated vec_id, and
        # Series.map raises InvalidIndexError on a duplicated index
        pos = pd.Series(np.arange(len(cid), dtype=np.int64), index=cid)
        pos = pos[~pos.index.duplicated(keep="last")]
        qrow = pd.Series(np.arange(len(qids), dtype=np.int64), index=qids)
        qrow = qrow[~qrow.index.duplicated(keep="last")]
        sq = sdf["query_id"].to_numpy(dtype=np.int64)
        sv = sdf["vec_id"].to_numpy(dtype=np.int64)
        sn = sdf["n_scanned"].to_numpy(dtype=np.int64)
        vpos = pd.Series(sv).map(pos)
        # a reused layout may hold vec_ids no longer in emb_ds — drop
        # them from the refine (stale rows, like lsh/ivf reuse)
        present = vpos.notna().to_numpy()
        if not present.any():
            return empty
        sq, sv, sn = sq[present], sv[present], sn[present]
        vp = vpos.to_numpy()[present].astype(np.int64)
        qp = pd.Series(sq).map(qrow).to_numpy().astype(np.int64)
        s = np.einsum("ij,ij->i", CE[vp], Qn[qp])
        order = np.lexsort((sv, -s, sq))
        sq, sv, s, sn = sq[order], sv[order], s[order], sn[order]
        new_run = np.r_[True, sq[1:] != sq[:-1]]
        run_start = np.maximum.accumulate(np.where(new_run, np.arange(len(sq)), 0))
        keep = (np.arange(len(sq)) - run_start) < k
        return pa.table({
            "query_id": pa.array(sq[keep], type=pa.int64()),
            "vec_id": pa.array(sv[keep], type=pa.int64()),
            "cos_sim": pa.array(round6(s[keep]) + 0.0, type=pa.float64()),
            "n_scanned": pa.array(sn[keep], type=pa.int64()),
        })
    finally:
        if own:
            shutil.rmtree(index_dir, ignore_errors=True)
