"""Deduplication pipelines — exact, n-gram Jaccard, MinHash-LSH, SimHash,
embedding-cosine.

The reference has only exact per-file replacement (SURVEY.md §2.7 "no
near-dedup"); these are the training-data-scale operations a 100 TB
corpus pipeline needs.

Every keyed step is one hash exchange
(:func:`coderag_ray.stages.bucket_agg.exchange`): rows go to their
key's bucket and one vectorized function runs per bucket; an
intermediate that several exchanges read is routed once
(:func:`~coderag_ray.stages.bucket_agg.routed`).  The functions here
see plain rows, never a bucket column.  Shapes:

- **exact**: content-hash exchange → group size + keeper (min doc_id).
  One tiny shuffle over (sha256, doc_id) pairs.
- **n-gram Jaccard**: one exact, prefix-filtered similarity join
  (:func:`_similar_pairs`) serves the top-k pairs (threshold descent)
  and the ≥t near-dup clusters.  Each doc is shingled once into 64-bit
  shingle hashes (:func:`doc_shingle_hashes`); a shingle-keyed exchange
  counts df and a doc-keyed one orders every doc's shingles rarest
  first.  Each doc emits only its prefix (|s| − ⌈t·|s|⌉ + 1 rarest
  shingles); docs meet per prefix token, and a meeting survives the
  length filter and the PPJoin positional filter.  Survivors are
  verified exactly by a doc-keyed join on flat (doc_id, hash) rows.  A
  hot shingle pairs only the docs whose prefix holds it, so no df cap
  exists.  At low t (always at t = 0) the prefix is most of the set and
  verifying would move more rows than counting every shared shingle of
  whole sets (Σ df·(df−1)/2 meetings, known from the df exchange); the
  join then counts instead — the all-pairs plan, taken only when it is
  the smaller one.
  Hash sets stand in for shingle-string sets: a false "shared" shingle
  needs a 64-bit collision, probability ≤ m²/2^65 for m distinct
  shingles corpus-wide (~3·10^-8 at m = 10^6).
- **MinHash-LSH**: per-doc 64-perm MinHash signature (vectorized
  universal hashing over the same shingle hashes), banded into 16
  band hashes → candidate pairs from a band-hash exchange → the same
  exact verify join.  Deterministic: all hash seeds are fixed constants.
- **SimHash**: 64-bit weighted sign-hash per doc; near-dups = hamming
  distance ≤ t among banded candidates.
- **embedding cosine**: within-block (label) pairwise cosine via
  ``groupby(label).map_groups`` numpy matmul.
"""

from __future__ import annotations

import hashlib
from collections import Counter

import numpy as np
import pandas as pd

from coderag_ray.functions.datasets import schema_stable
from coderag_ray.functions.rounding import round6
from coderag_ray.functions.tokenizer import ascii_ws_words
from coderag_ray.stages.bucket_agg import bucket_count, exchange, routed
import pyarrow as pa
import pyarrow.compute as pc

WS_SPLIT = r"\s+"
MINHASH_PERMS = 64

# declared output schemas for the Dataset-returning pipelines — each
# ends in schema_stable() so empty/degenerate inputs keep the documented
# columns (Ray drops empty map_groups blocks; see functions/datasets.py)
EXACT_DEDUP_SCHEMA = pa.schema([
    ("content_sha256", pa.string()), ("n_copies", pa.int64()),
    ("keeper_doc_id", pa.int64()),
])
PAIR_SCORE_SCHEMA = pa.schema([
    ("doc_a", pa.int64()), ("doc_b", pa.int64()), ("n_common", pa.int64()),
    ("n_a", pa.int64()), ("n_b", pa.int64()), ("jaccard", pa.float64()),
])
SIMHASH_SCHEMA = pa.schema([("doc_id", pa.int64()), ("simhash", pa.int64())])
EMB_DUP_SCHEMA = pa.schema([
    ("label", pa.int64()), ("vec_a", pa.int64()), ("vec_b", pa.int64()),
    ("cos_sim", pa.float64()),
])
CLUSTER_SCHEMA = pa.schema([("doc_id", pa.int64()), ("cluster_id", pa.int64())])

MINHASH_BANDS = 16
_MERS_P = (1 << 61) - 1


def _word_shingles(text: str, n: int = 3) -> set[str]:
    """Distinct word n-grams of the lowercased, ws-split text (frozen spec,
    mirrored in the SQL oracle)."""
    words = ascii_ws_words(text.lower())
    if len(words) < n:
        return {" ".join(words)} if words else set()
    return {" ".join(words[i : i + n]) for i in range(len(words) - n + 1)}


# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------


def exact_dedup(docs_ds):
    """→ Dataset (content_sha256, n_copies, keeper_doc_id). Groups with
    n_copies > 1 are duplicates; keeper = min doc_id (frozen policy).

    Distinct-sha cardinality grows with the corpus, so the aggregation
    is BUCKETED (hash sha → auto_buckets(input) groups, one vectorized
    pandas groupby per bucket) rather than per-sha declarative — the
    bucket_agg pattern; exact integer results either way."""
    from coderag_ray.config import auto_buckets
    from coderag_ray.functions.hashing import batch_sha256

    nb = auto_buckets(docs_ds, target_rows=2_000_000)  # narrow sha rows

    def add_sha(t: pa.Table) -> pa.Table:
        return pa.table({"doc_id": pc.cast(t["doc_id"], pa.int64()),
                         "content_sha256": batch_sha256(t["text"])})

    def agg_bucket(g: pd.DataFrame) -> pa.Table:
        a = (g.groupby("content_sha256", sort=False)["doc_id"]
               .agg(n_copies="size", keeper_doc_id="min").reset_index())
        return pa.table({
            "content_sha256": pa.array(a["content_sha256"].tolist(), type=pa.string()),
            "n_copies": pa.array(a["n_copies"].to_numpy(dtype=np.int64), type=pa.int64()),
            "keeper_doc_id": pa.array(a["keeper_doc_id"].to_numpy(dtype=np.int64), type=pa.int64()),
        })

    return exchange(docs_ds.map_batches(add_sha, batch_format="pyarrow"), "content_sha256",
                    nb, agg_bucket, batch_format="pandas", schema=EXACT_DEDUP_SCHEMA)


# ---------------------------------------------------------------------------
# n-gram Jaccard: one exact, prefix-filtered similarity join
# ---------------------------------------------------------------------------

# Every union-join exchange below carries this one row shape.  A doc row
# (``pos`` ≥ 0) is one distinct shingle hash of ``doc_id``: ``n`` is the
# doc's shingle-set size, ``pos`` the shingle's rank in the doc's
# rarest-first order (its df, on the way into the ranking exchange), and
# ``other`` the shingle's df once ranked (0 on MinHash's verify side).  A
# pair row (``pos`` < 0) stands for the candidate pair (doc_id, other) in
# the exchange keyed on ``doc_id``.
SIDE_SCHEMA = pa.schema([
    ("doc_id", pa.int64()), ("other", pa.int64()), ("hash", pa.uint64()),
    ("n", pa.int64()), ("pos", pa.int64()),
])
# Thresholds ngram_jaccard_pairs(top=k) tries, highest first; the last
# (0: every pair sharing a shingle) makes the descent total.
TOPK_DESCENT = (0.875, 0.5, 0.25, 0.0)
# Slack on every ⌈x⌉ of a filter bound: float error in t·|s| (e.g.
# 0.55 * 100 = 55.00000000000001) may only loosen a bound, never tighten it.
_BOUND_EPS = 1e-6


def _ceil_lo(x: np.ndarray) -> np.ndarray:
    return np.ceil(x - _BOUND_EPS)


def _run_bounds(*sorted_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(starts, lengths) of the equal-key runs of lexsorted key columns."""
    m = len(sorted_keys[0])
    new = np.zeros(m, dtype=bool)
    new[:1] = True
    for k in sorted_keys:
        new[1:] |= k[1:] != k[:-1]
    starts = np.flatnonzero(new)
    return starts, np.diff(np.r_[starts, m])


def _run_pairs(starts: np.ndarray, lens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i < j) inside every run ``[start, start+len)`` —
    batched by run length, numpy only."""
    ia, ib = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    for ln in np.unique(lens[lens >= 2]):
        runs = starts[lens == ln][:, None]
        ai, bi = np.triu_indices(int(ln), k=1)
        ia.append((runs + ai).ravel())
        ib.append((runs + bi).ravel())
    return np.concatenate(ia), np.concatenate(ib)


def _side(doc_id, hash_, n, pos, other=None) -> pa.Table:
    if other is None:
        other = np.zeros(len(doc_id), np.int64)
    cols = (doc_id, other, hash_, n, pos)
    return pa.Table.from_arrays([pa.array(c, type=f.type) for c, f in zip(cols, SIDE_SCHEMA)],
                                schema=SIDE_SCHEMA)


def _doc_rows(t: pa.Table, n: int) -> pa.Table:
    """Docs → one doc row per distinct shingle hash (:func:`doc_shingle_hashes`)."""
    ids = pc.cast(t["doc_id"], pa.int64()).to_numpy(zero_copy_only=False)
    hs = [doc_shingle_hashes(text, n) for text in t["text"].to_pylist()]
    sizes = np.fromiter(map(len, hs), np.int64, len(hs))
    h = np.concatenate(hs) if hs else np.empty(0, np.uint64)
    d = np.repeat(ids, sizes)
    return _side(d, h, np.repeat(sizes, sizes), np.zeros(len(h), np.int64))


def _pair_rows(a: np.ndarray, b: np.ndarray, n_a=None) -> pa.Table:
    """Candidate pairs (doc_a < doc_b) → pair rows keyed on doc_a; ``n``
    holds |doc_a| where the caller knows it (0 otherwise)."""
    z = np.zeros(len(a), np.int64)
    return _side(a, np.zeros(len(a), np.uint64), z if n_a is None else n_a,
                 np.full(len(a), -1, np.int64), other=b)


def _attach_a(g: dict) -> pa.Table:
    """Verify round 1, keyed on doc_a: every distinct pair picks up
    doc_a's hashes, re-keyed on doc_b."""
    is_pair = g["pos"] < 0
    d, h, n = g["doc_id"][~is_pair], g["hash"][~is_pair], g["n"][~is_pair]
    o = np.argsort(d, kind="stable")
    d, h, n = d[o], h[o], n[o]
    a, b = g["doc_id"][is_pair], g["other"][is_pair]
    o = np.lexsort((b, a))
    starts, _ = _run_bounds(a[o], b[o])
    a, b = a[o][starts], b[o][starts]
    lo = np.searchsorted(d, a, "left")
    cnt = np.searchsorted(d, a, "right") - lo
    idx = np.repeat(lo - (np.cumsum(cnt) - cnt), cnt) + np.arange(int(cnt.sum()))
    bb = np.repeat(b, cnt)
    return _side(bb, h[idx], n[idx], np.full(len(idx), -1, np.int64), other=np.repeat(a, cnt))


def _score_b(g: dict, t: float) -> pa.Table:
    """Verify round 2, keyed on doc_b: count doc_a's hashes that doc_b
    also holds, then keep pairs with ``jaccard >= t``."""
    is_doc = g["pos"] >= 0
    o = np.lexsort((~is_doc, g["hash"], g["doc_id"]))  # doc row heads its (doc, hash) run
    d, h, doc_row = g["doc_id"][o], g["hash"][o], is_doc[o]
    other, n = g["other"][o], g["n"][o]
    starts, lens = _run_bounds(d, h)
    head = np.repeat(starts, lens)
    hit = ~doc_row & doc_row[head]
    a, b, n_a, n_b = other[hit], d[hit], n[hit], n[head[hit]]
    o = np.lexsort((b, a))
    starts, common = _run_bounds(a[o], b[o])
    return _pair_scores(a[o][starts], b[o][starts], common, n_a[o][starts], n_b[o][starts], t)


def _pair_scores(a, b, common, n_a, n_b, t: float) -> pa.Table:
    """PAIR_SCORE rows of the pairs with ``jaccard >= t``."""
    jac = common / (n_a + n_b - common)
    keep = jac >= t
    cols = (a, b, common, n_a, n_b, jac)
    return pa.Table.from_arrays([pa.array(c[keep], type=f.type) for c, f in zip(cols, PAIR_SCORE_SCHEMA)],
                                schema=PAIR_SCORE_SCHEMA)


def _verify_pairs(pairs, doc_rows, t: float):
    """Exact Jaccard of candidate pairs → PAIR_SCORE rows with
    ``jaccard >= t`` (and at least one shared shingle).

    ``pairs`` holds :func:`_pair_rows` candidates, duplicates allowed;
    ``pairs`` and ``doc_rows`` (the doc-row Dataset) are both
    :func:`routed` on doc id with one bucket count.  Two doc-keyed
    union-joins on flat (doc_id, hash) rows: round 1 dedups each pair and
    sends doc_a's hashes to doc_b's bucket, round 2 counts the ones doc_b
    also holds with one sort — no per-pair Python.  Each union input is
    materialized first: a lazy branch unioned into the exchange stalls
    under a small object store."""
    nb = bucket_count(doc_rows)
    a_side = routed(exchange([doc_rows, pairs], "doc_id", nb, _attach_a), "doc_id", nb)
    return exchange([doc_rows, a_side], "doc_id", nb, lambda g: _score_b(g, t),
                    schema=PAIR_SCORE_SCHEMA)


def _ranked_doc_rows(docs_ds, n: int):
    """→ (doc rows with each shingle's rarest-first rank in ``pos`` and
    its df in ``other``, :func:`routed` on doc id; shingle meetings
    Σ df·(df−1)/2 over all shingles).

    Two exchanges: shingle-keyed to count df, doc-keyed to order each
    doc's shingles by (df, hash) — one global order, so prefixes of any
    two docs are comparable.  The ranked rows (~one per distinct shingle
    of every doc, 48 B each) are MATERIALIZED for the whole call: every
    descent step and the verify join's doc side read them again, so at
    scale this corpus-sized intermediate is pinned or spilled."""
    from coderag_ray.config import auto_buckets, dataset_rows_estimate

    # ~160 narrow rows per doc: 10k docs per bucket keeps groups ~10^6 rows
    nb = auto_buckets(dataset_rows_estimate(docs_ds), target_rows=10_000)

    def add_df(g: dict) -> pa.Table:
        _, inv, df = np.unique(g["hash"], return_inverse=True, return_counts=True)
        return _side(g["doc_id"], g["hash"], g["n"], df[inv])

    def rank(g: dict) -> pa.Table:
        d, h = g["doc_id"], g["hash"]
        o = np.lexsort((h, g["pos"], d))  # pos holds df here: rarest first
        d, h, n, df = d[o], h[o], g["n"][o], g["pos"][o]
        starts, lens = _run_bounds(d)
        pos = np.arange(len(d)) - np.repeat(starts, lens)
        return _side(d, h, n, pos, other=df)

    rows = docs_ds.map_batches(lambda t: _doc_rows(t, n), batch_format="pyarrow")
    ranked = routed(exchange(exchange(rows, "hash", nb, add_df), "doc_id", nb, rank),
                    "doc_id", nb)
    # each shingle contributes df rows, so Σ_rows (df − 1) = Σ df·(df − 1)
    n_meet = ((ranked.sum("other") or 0) - ranked.count()) // 2
    return ranked, n_meet


def _prefix(b: pa.Table, t: float) -> pa.Table:
    """Each doc's prefix of ``|s| − ⌈t·|s|⌉ + 1`` rarest shingles."""
    s = b["n"].to_numpy()
    return b.filter(b["pos"].to_numpy() < s - _ceil_lo(t * s) + 1)


def _candidates(ranked, t: float, n_meet: int):
    """Materialized candidate pair rows (:func:`_pair_rows`, ``n`` =
    |doc_a|) of the prefix filter at ``t`` — or None when counting every
    shared shingle (:func:`_count_pairs`) moves fewer rows than
    verifying them would.

    A pair with J ≥ t shares ≥ ⌈t·s⌉ shingles, so its rarest common
    shingle lies inside both prefixes.  Docs meet per prefix token; a
    meeting survives the length filter (min ≥ ⌈t·max⌉) and the PPJoin
    positional filter: at the first meeting (positions i₀, j₀) every
    shared shingle lies at or after both, so
    ``min(|a|−i₀, |b|−j₀) ≥ ⌈t/(1+t)·(|a|+|b|)⌉``.  Later meetings have
    larger positions, so a pair passes at some meeting iff it passes at
    its first — each meeting is tested alone.

    Verifying costs |doc_a| rows per distinct candidate, counting one row
    per shingle meeting of whole sets (``n_meet``); at low t candidates
    pile up and counting wins, at t = 0 always.  Both plans are exact, so
    the choice never changes a result (docs/PERF_NOTES.md)."""
    if t <= 0:
        return None

    def meet(g: dict) -> pa.Table:
        o = np.lexsort((g["doc_id"], g["hash"]))
        h, d, s, p = g["hash"][o], g["doc_id"][o], g["n"][o], g["pos"][o]
        ia, ib = _run_pairs(*_run_bounds(h))
        sa, sb = s[ia], s[ib]
        keep = ((np.minimum(sa, sb) >= _ceil_lo(t * np.maximum(sa, sb)))
                & (np.minimum(sa - p[ia], sb - p[ib]) >= _ceil_lo(t / (1 + t) * (sa + sb))))
        a, b, sa = d[ia][keep], d[ib][keep], sa[keep]
        o = np.lexsort((b, a))
        first = o[_run_bounds(a[o], b[o])[0]]  # one row per pair in this bucket
        return _pair_rows(a[first], b[first], sa[first])

    nb = bucket_count(ranked)
    prefixes = ranked.map_batches(lambda b: _prefix(b, t), batch_format="pyarrow")
    cand = routed(exchange(prefixes, "hash", nb, meet), "doc_id", nb)
    return None if (cand.sum("n") or 0) >= n_meet else cand


def _count_pairs(ranked, t: float, n_meet: int):
    """PAIR_SCORE rows with ``jaccard >= t`` by counting shared shingles:
    whole sets meet per shingle, each bucket pre-aggregates its meetings
    per pair, and a doc-keyed exchange sums them — no verify join.
    Shingle buckets are sized by meetings (~4M per bucket), so a pair's
    meetings mostly collapse to one row before the exchange."""
    from coderag_ray.config import auto_buckets

    nb_meet = auto_buckets(n_meet, target_rows=4_000_000, lo=1)

    def count(g: dict) -> pa.Table:
        o = np.lexsort((g["doc_id"], g["hash"]))
        h, d, s = g["hash"][o], g["doc_id"][o], g["n"][o]
        ia, ib = _run_pairs(*_run_bounds(h))  # d[ia] < d[ib]: ids are sorted in a run
        ids, dense = np.unique(d, return_inverse=True)
        key, cnt = np.unique(dense[ia] * len(ids) + dense[ib], return_counts=True)
        ka, kb = key // len(ids), key % len(ids)
        size = np.zeros(len(ids), np.int64)
        size[dense] = s
        return pa.table({
            "doc_a": pa.array(ids[ka], type=pa.int64()),
            "doc_b": pa.array(ids[kb], type=pa.int64()),
            "n_common": pa.array(cnt, type=pa.int64()),
            "n_a": pa.array(size[ka], type=pa.int64()), "n_b": pa.array(size[kb], type=pa.int64()),
        })

    def merge(g: dict) -> pa.Table:
        o = np.lexsort((g["doc_b"], g["doc_a"]))
        a, b = g["doc_a"][o], g["doc_b"][o]
        starts, _ = _run_bounds(a, b)
        common = np.add.reduceat(g["n_common"][o], starts) if len(a) else np.empty(0, np.int64)
        return _pair_scores(a[starts], b[starts], common, g["n_a"][o][starts],
                            g["n_b"][o][starts], t)

    return exchange(exchange(ranked, "hash", nb_meet, count), "doc_a", bucket_count(ranked),
                    merge, schema=PAIR_SCORE_SCHEMA)


def _similar_pairs(docs_ds, n: int, t: float):
    """Distributed Dataset of PAIR_SCORE rows (doc_a < doc_b, n_common,
    n_a, n_b, jaccard) for every pair with ``jaccard >= t`` over the
    docs' word-n-gram shingle sets — the shared engine of
    :func:`ngram_jaccard_pairs`, :func:`near_dup_clusters` and the
    MinHash recall check.  ``t = 0`` gives every pair sharing a shingle.
    Prefix-filtered candidates are verified (:func:`_verify_pairs`)
    unless counting all shared shingles is cheaper."""
    ranked, n_meet = _ranked_doc_rows(docs_ds, n)
    cand = _candidates(ranked, t, n_meet)
    if cand is None:
        return _count_pairs(ranked, t, n_meet)
    return _verify_pairs(cand, ranked, t)


def _no_cap(max_shingle_df) -> None:
    if max_shingle_df is not None:
        raise ValueError(
            "max_shingle_df is no longer supported: the prefix-filtered join "
            "is exact and bounds hot-shingle pairs itself; pass None")


def ngram_jaccard_pairs(docs_ds, n: int = 3, top: int = 50,
                        max_shingle_df: int | None = None):
    """Top-``top`` doc pairs by exact word-n-gram Jaccard.

    Returns a pyarrow Table (doc_a, doc_b, n_common, n_a, n_b, jaccard)
    ordered by (jaccard DESC, doc_a, doc_b) — jaccard is an exact
    integer ratio evaluated in float64, so ordering is reproducible
    bit-for-bit in any engine.

    Threshold descent over :data:`TOPK_DESCENT`: the prefix-filtered
    join (:func:`_candidates` + :func:`_verify_pairs`) runs at each t in
    turn over one shingling pass, and stops at the first t with at least
    ``top`` pairs.  That is exact — every top-``top`` pair has
    ``jaccard >= t``.  Once counting all shared shingles is the cheaper
    plan (always by t = 0), one :func:`_count_pairs` pass scores every
    pair and ends the descent.  The distributed ``sort().limit()`` tail
    brings only ``top`` rows to the driver.  Pairs key on the (doc_a,
    doc_b) column pair throughout, so 63-bit doc ids survive.
    ``max_shingle_df`` must be None (the hot-shingle cap is gone; the
    join is exact without it).
    """
    _no_cap(max_shingle_df)
    ranked, n_meet = _ranked_doc_rows(docs_ds, n)
    for t in TOPK_DESCENT:
        cand = _candidates(ranked, t, n_meet)
        if cand is None:  # counted pairs are all pairs: exact for any top
            scored = _count_pairs(ranked, 0.0, n_meet)
            break
        scored = _verify_pairs(cand, ranked, t).materialize()
        if scored.count() >= top:
            break
    pdf = (
        scored.sort(["jaccard", "doc_a", "doc_b"], descending=[True, False, False])
        .limit(top)
        .to_pandas()
    )
    if len(pdf) == 0:
        return PAIR_SCORE_SCHEMA.empty_table()
    pdf["jaccard"] = round6(pdf["jaccard"].to_numpy())
    return pa.Table.from_pandas(pdf.reset_index(drop=True), preserve_index=False)


def clusters_from_pairs(pairs: pa.Table) -> pa.Table:
    """Connected components over an edge table with ``doc_a``/``doc_b``
    columns (the output shape of :func:`minhash_lsh_pairs` or of
    :func:`_similar_pairs`): min-label union-find →
    (doc_id, cluster_id) sorted by doc_id.  Edges are duplicate-rate-
    sized by construction, so the driver-side union-find is appropriate;
    see :func:`near_dup_clusters` for the scale note."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(pairs["doc_a"].to_pylist(), pairs["doc_b"].to_pylist()):
        a, b = int(a), int(b)
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        ra, rb = find(a), find(b)
        if ra != rb:
            if ra < rb:  # union by smaller root id → canonical min label
                parent[rb] = ra
            else:
                parent[ra] = rb
    ids = sorted(parent)
    return pa.table({
        "doc_id": pa.array(ids, type=pa.int64()),
        "cluster_id": pa.array([find(i) for i in ids], type=pa.int64()),
    })


def _cc_star_rounds(edges_ds, num_buckets: int = 256, max_rounds: int = 64):
    """Distributed connected components over a canonical (doc_a < doc_b)
    edge Dataset: the alternating large-star / small-star algorithm from
    the MapReduce-CC literature (Kiveris et al., "Connected Components
    in MapReduce and Beyond") — every step is a bucketed groupby over
    the edge list, so no corpus- or component-sized state ever exists in
    one place.  Converges (O(log n) rounds in practice) to star graphs
    whose centers are each component's minimum id; returns the final
    star-edge Dataset (doc_a = min label, doc_b = member).

    Per round: large-star connects every node's larger neighbors to the
    min of its neighborhood, small-star re-points the smaller neighbors
    (plus the node itself); each groupby is hash-bucketed (node-keyed
    group cardinality grows with the graph) with vectorized
    ``minimum.reduceat`` segment minima inside.  A (count, hash-sum)
    fixed-point check on the deduped edge set detects convergence;
    reaching ``max_rounds`` without it raises ``RuntimeError``.
    """
    from coderag_ray.functions.hashing import splitmix64

    def _segments(keys: np.ndarray) -> np.ndarray:
        return np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])

    def _star(g: pd.DataFrame, large: bool) -> pa.Table:
        # rows: (u = group key node, v = neighbor); large-star sees the
        # full symmetric neighborhood, small-star only smaller neighbors
        u = g["u"].to_numpy(dtype=np.int64)
        v = g["v"].to_numpy(dtype=np.int64)
        order = np.lexsort((v, u))
        u, v = u[order], v[order]
        starts = _segments(u)
        ends = np.r_[starts[1:], len(u)]
        neigh_min = np.minimum.reduceat(v, starts)
        m = np.minimum(neigh_min, u[starts])  # min(N(u) ∪ {u})
        reps = ends - starts
        m_row = np.repeat(m, reps)
        if large:
            keep = v > u  # connect larger neighbors to m
            a, b = m_row[keep], v[keep]
        else:
            # connect smaller neighbors ∪ {u} to m (skip m itself)
            keep = v != m_row
            a = np.r_[m_row[keep], m]
            b = np.r_[v[keep], u[starts]]
            sk = a != b
            a, b = a[sk], b[sk]
        e = np.unique(np.stack([a, b], axis=1), axis=0)
        return pa.table({"doc_a": pa.array(e[:, 0], type=pa.int64()),
                         "doc_b": pa.array(e[:, 1], type=pa.int64())})

    def _large_star_input(t: pa.Table) -> pa.Table:
        a = t["doc_a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = t["doc_b"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"u": pa.array(np.r_[a, b]), "v": pa.array(np.r_[b, a])})

    def _small_star_input(t: pa.Table) -> pa.Table:
        # group by the LARGER endpoint; neighbors are the smaller ends
        return pa.table({"u": pc.cast(t["doc_b"], pa.int64()),
                         "v": pc.cast(t["doc_a"], pa.int64())})

    def _dedupe(g: pd.DataFrame) -> pa.Table:
        e = np.unique(np.stack([g["doc_a"].to_numpy(dtype=np.int64),
                                g["doc_b"].to_numpy(dtype=np.int64)], axis=1), axis=0)
        return pa.table({"doc_a": pa.array(e[:, 0], type=pa.int64()),
                         "doc_b": pa.array(e[:, 1], type=pa.int64())})

    def _fingerprint(ds) -> tuple[int, int]:
        def h(t: pa.Table) -> pa.Table:
            a = t["doc_a"].to_numpy(zero_copy_only=False).astype(np.uint64)
            b = t["doc_b"].to_numpy(zero_copy_only=False).astype(np.uint64)
            hv = splitmix64(a * np.uint64(1000003) + b)
            return pa.table({"n": pa.array([len(a)], type=pa.int64()),
                             "s": pa.array([int(hv.sum() & np.uint64(0x7FFFFFFFFFFFFFFF))],
                                           type=pa.int64())})

        from ray.data.aggregate import Sum

        agg = ds.map_batches(h, batch_format="pyarrow").aggregate(
            Sum("n", alias_name="n"), Sum("s", alias_name="s"))
        return (int(agg["n"] or 0), int(agg["s"] or 0))

    cur = edges_ds
    prev_fp = None
    for _ in range(max_rounds):
        cur = exchange(cur.map_batches(_large_star_input, batch_format="pyarrow"), "u",
                       num_buckets, lambda g: _star(g, True), batch_format="pandas")
        cur = exchange(cur.map_batches(_small_star_input, batch_format="pyarrow"), "u",
                       num_buckets, lambda g: _star(g, False), batch_format="pandas")
        cur = exchange(cur, ("doc_a", "doc_b"), num_buckets, _dedupe,
                       batch_format="pandas").materialize()
        fp = _fingerprint(cur)
        if fp == prev_fp:
            return cur
        prev_fp = fp
    # unconverged stars still give some docs several roots; a label
    # picked from them would be silently wrong
    raise RuntimeError(
        f"connected components did not converge in {max_rounds} star rounds")


def clusters_from_edges_ds(edges_ds, edge_budget: int = 5_000_000):
    """(doc_id, cluster_id) connected components for a canonical edge
    Dataset — driver union-find below ``edge_budget`` edges (returns a
    pyarrow Table), the distributed star-contraction loop
    (:func:`_cc_star_rounds`) above it (returns a sorted DATASET — the
    label set is dup-rate-sized, unbounded at 100 TB, so it never
    materializes on the driver; VERDICT r4 item 3).  Identical values
    either way: cluster_id = min reachable id, rows sorted by doc_id."""
    edges_ds = edges_ds.materialize()  # duplicate-rate-sized, reused twice
    n_edges = edges_ds.count()
    if n_edges == 0:  # to_pandas drops columns on 0-row datasets
        return CLUSTER_SCHEMA.empty_table()
    if n_edges <= edge_budget:
        edges = edges_ds.to_pandas()
        return clusters_from_pairs(pa.table({
            "doc_a": pa.array(edges["doc_a"].to_numpy(dtype=np.int64), type=pa.int64()),
            "doc_b": pa.array(edges["doc_b"].to_numpy(dtype=np.int64), type=pa.int64()),
        }))
    from coderag_ray.config import auto_buckets

    stars = _cc_star_rounds(
        edges_ds, num_buckets=auto_buckets(n_edges, target_rows=1_000_000, lo=256))

    def to_labels(t: pa.Table) -> pa.Table:
        a = t["doc_a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = t["doc_b"].to_numpy(zero_copy_only=False).astype(np.int64)
        # star edges: (root=min label, member); roots label themselves
        return pa.table({
            "doc_id": pa.array(np.r_[b, a], type=pa.int64()),
            "cluster_id": pa.array(np.r_[a, a], type=pa.int64()),
        })

    # dedup the (doc, root) labels with one more exchange (a doc appears
    # once per incident star edge) and sort DISTRIBUTED — the driver
    # never holds the label table
    def dedup_labels(g: pd.DataFrame) -> pa.Table:
        u = g.drop_duplicates("doc_id")  # one root per doc post-convergence
        return pa.table({
            "doc_id": pa.array(u["doc_id"].to_numpy(dtype=np.int64), type=pa.int64()),
            "cluster_id": pa.array(u["cluster_id"].to_numpy(dtype=np.int64), type=pa.int64()),
        })

    return exchange(stars.map_batches(to_labels, batch_format="pyarrow"), "doc_id",
                    auto_buckets(n_edges, target_rows=2_000_000), dedup_labels,
                    batch_format="pandas", schema=CLUSTER_SCHEMA, sort_key="doc_id")


def near_dup_clusters(docs_ds, threshold: float = 0.5, n: int = 3,
                      max_shingle_df: int | None = None,
                      edge_budget: int = 5_000_000):
    """Connected components of the ≥-threshold n-gram-Jaccard pair graph
    — the "keep one per cluster" step after near-dup detection.

    → (doc_id, cluster_id) for every doc with at least one qualifying
    pair, ``cluster_id`` = the smallest doc_id reachable (deterministic
    canonical label), sorted by doc_id.  A pyarrow Table below
    ``edge_budget`` edges; a sorted Ray DATASET above it (the label set
    is dup-rate-sized — unbounded at 100 TB, so it never materializes
    on the driver).  Consume with ``.to_pandas()`` / ``to_arrow_refs``
    accordingly; values are identical either way.

    Scale shape: the exact threshold join (:func:`_similar_pairs` at
    ``t = threshold``) runs distributed and only EDGES at or above the
    threshold leave it — the near-dup edge set scales with the duplicate
    rate, not the corpus.  Below ``edge_budget`` edges the components come
    from a driver union-find; above it the distributed large-star /
    small-star contraction (:func:`_cc_star_rounds`) runs entirely as
    bucketed groupbys over the edge Dataset, so no edge- or
    component-sized state ever reaches the driver.  Same output either
    way (tests force the low-budget path and assert equality).
    ``max_shingle_df`` must be None.
    """
    _no_cap(max_shingle_df)
    return clusters_from_edges_ds(_similar_pairs(docs_ds, n, threshold), edge_budget)


# ---------------------------------------------------------------------------
# MinHash + LSH
# ---------------------------------------------------------------------------


def _hash64(s: str) -> int:
    return int.from_bytes(hashlib.blake2b(s.encode("utf-8"), digest_size=8).digest(), "big")


# vectorized shingle hashing (round 3): rolling splitmix64 fold over
# per-word blake2b hashes replaces per-shingle string joins + blake2b —
# the shingling stage was the single most expensive bench pipeline.
# The SAME function feeds the signature stage and the exact-Jaccard
# verify, so candidate and verify sets stay hash-consistent; distinct
# hash sets ≡ distinct shingle-string sets modulo 2^-64 collisions.
_SH_SEED = np.uint64(0x243F6A8885A308D3)
_SH_PHI = np.uint64(0x9E3779B97F4A7C15)
_WORD_HASH_CACHE: dict[str, int] = {}  # per-process; vocab is Zipfian


def doc_shingle_hashes(text: str, n: int) -> np.ndarray:
    """Distinct uint64 hashes of the doc's word n-gram shingles
    (window = min(n, n_words), matching :func:`_word_shingles`'s
    short-doc behavior)."""
    from coderag_ray.functions.hashing import splitmix64

    ws = ascii_ws_words(text.lower())
    m = len(ws)
    if m == 0:
        return np.empty(0, dtype=np.uint64)
    cache = _WORD_HASH_CACHE
    h = np.empty(m, dtype=np.uint64)
    for i, w in enumerate(ws):
        v = cache.get(w)
        if v is None:
            v = _hash64(w)
            if len(cache) < 2_000_000:
                cache[w] = v
        h[i] = v
    w_len = min(n, m)
    L = m - w_len + 1
    acc = np.full(L, _SH_SEED, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for j in range(w_len):
            acc = splitmix64(acc ^ (h[j:j + L] * _SH_PHI))
    return np.unique(acc)


_rng = np.random.default_rng(12345)
_MH_A = (_rng.integers(1, _MERS_P, size=MINHASH_PERMS, dtype=np.int64)).astype(np.uint64)
_MH_B = (_rng.integers(0, _MERS_P, size=MINHASH_PERMS, dtype=np.int64)).astype(np.uint64)

_M61 = np.uint64(_MERS_P)
_U = np.uint64  # shorthand for shift constants


def _mod61(x: np.ndarray) -> np.ndarray:
    """x (uint64, any value) mod 2^61-1, exact.  2^61 ≡ 1 (mod p), so
    fold the top bits down once; one conditional subtract finishes."""
    r = (x & _M61) + (x >> _U(61))
    return np.where(r >= _M61, r - _M61, r)


def _mulmod61(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a * b) mod 2^61-1 for a, b < 2^61, fully vectorized in uint64.

    Schoolbook 32-bit limb split; every partial product fits uint64:
    a·b = hi·2^64 + mid·2^32 + lo with hi = a₁b₁ < 2^58,
    mid = a₁b₀ + a₀b₁ < 2^62, lo = a₀b₀ < 2^64.  Reductions use
    2^61 ≡ 1: 2^64 ≡ 8, and mid·2^32 = (mid≫29) + (mid mod 2^29)·2^32.
    """
    a_hi, a_lo = a >> _U(32), a & _U(0xFFFFFFFF)
    b_hi, b_lo = b >> _U(32), b & _U(0xFFFFFFFF)
    lo = a_lo * b_lo
    mid = a_hi * b_lo + a_lo * b_hi
    hi = a_hi * b_hi
    r = (lo & _M61) + (lo >> _U(61))                    # < 2^61 + 8
    r = r + (mid >> _U(29)) + ((mid & _U((1 << 29) - 1)) << _U(32))  # + <2^33 + <2^61
    r = r + (hi << _U(3))                               # + < 2^61 → total < 2^63, no overflow
    r = (r & _M61) + (r >> _U(61))
    r = (r & _M61) + (r >> _U(61))
    return np.where(r >= _M61, r - _M61, r)


def minhash_signature(shingle_hashes: np.ndarray) -> np.ndarray:
    """64-perm MinHash of a set of 64-bit shingle hashes (uint64[perms]).

    One (perms × shingles) uint64 Mersenne-61 mulmod matrix — bitwise
    identical to exact big-int ``(a·h + b) mod p`` (asserted in tests)
    at numpy speed instead of 64 sequential object-dtype passes.
    """
    if len(shingle_hashes) == 0:
        return np.full(MINHASH_PERMS, np.iinfo(np.uint64).max, dtype=np.uint64)
    h = _mod61(np.ascontiguousarray(shingle_hashes, dtype=np.uint64))  # (a·h)%p == (a·(h%p))%p
    vals = _mulmod61(_MH_A[:, None], h[None, :]) + _MH_B[:, None]  # < 2p < 2^62
    vals = np.where(vals >= _M61, vals - _M61, vals)
    return vals.min(axis=1)


def minhash_signatures_batch(hash_lists: list[np.ndarray],
                             max_shingles_per_block: int = 16384) -> np.ndarray:
    """Signatures for a whole batch of docs in one (perms × shingles)
    matrix per block, with per-doc segment minima via
    ``np.minimum.reduceat``.  Block size 16k keeps the ~15 uint64
    temporaries cache-resident (64k blocks are 3× slower — DRAM-bound;
    measured sweep in docs/PERF_NOTES.md).  ~11× vs the round-1
    object-dtype loop at ~125 shingles/doc, more on bigger docs.
    → (n_docs, perms) uint64; empty docs get the all-max sentinel."""
    n = len(hash_lists)
    out = np.full((n, MINHASH_PERMS), np.iinfo(np.uint64).max, dtype=np.uint64)
    idx = [i for i in range(n) if len(hash_lists[i])]
    pos = 0
    while pos < len(idx):
        # take docs until the shingle budget is hit (≥1 doc per block)
        blk, total = [], 0
        while pos < len(idx) and (not blk or total + len(hash_lists[idx[pos]]) <= max_shingles_per_block):
            blk.append(idx[pos])
            total += len(hash_lists[idx[pos]])
            pos += 1
        H = _mod61(np.concatenate([hash_lists[i] for i in blk]).astype(np.uint64))
        lens = np.array([len(hash_lists[i]) for i in blk], dtype=np.int64)
        starts = np.r_[0, np.cumsum(lens)[:-1]]
        vals = _mulmod61(_MH_A[:, None], H[None, :]) + _MH_B[:, None]
        vals = np.where(vals >= _M61, vals - _M61, vals)
        out[blk, :] = np.minimum.reduceat(vals, starts, axis=1).T
    return out


def minhash_band_rows(t: pa.Table, n: int = 3) -> pa.Table:
    """map_batches stage: doc → (doc_id, band_id, band_hash) rows.  A
    plain task, not an actor pool: the word-hash cache is per worker
    process either way, and an actor pool pays its start-up on every
    call.  Shingle hashing and band hashing are vectorized
    (:func:`doc_shingle_hashes` + a splitmix64 fold over each band's
    signature rows)."""
    from coderag_ray.functions.hashing import splitmix64

    rpb = MINHASH_PERMS // MINHASH_BANDS
    dids = np.asarray(t["doc_id"].to_numpy(zero_copy_only=False), dtype=np.int64)
    hash_lists = [doc_shingle_hashes(text, n) for text in t["text"].to_pylist()]
    sigs = minhash_signatures_batch(hash_lists)  # (n_docs, perms)
    n_docs = len(dids)
    # band hash = splitmix64 fold over the band's rpb signature
    # values — vectorized over (docs × bands) at once
    bands = sigs.reshape(n_docs, MINHASH_BANDS, rpb)
    acc = np.full((n_docs, MINHASH_BANDS), _SH_SEED, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for j in range(rpb):
            acc = splitmix64(acc ^ (bands[:, :, j] * _SH_PHI))
    bh = (acc >> np.uint64(1)).astype(np.int64)  # fits int64, positive
    return pa.table(
        {
            "doc_id": pa.array(np.repeat(dids, MINHASH_BANDS), type=pa.int64()),
            "band_id": pa.array(np.tile(np.arange(MINHASH_BANDS, dtype=np.int32), n_docs)),
            "band_hash": pa.array(bh.reshape(-1), type=pa.int64()),
        }
    )


def minhash_lsh_pairs(docs_ds, n: int = 3, jaccard_threshold: float = 0.5,
                      max_bucket_docs: int = 1024):
    """Near-dup pairs via MinHash-LSH candidates + exact-Jaccard verify.

    → pyarrow Table (doc_a, doc_b, jaccard) sorted (doc_a, doc_b);
    deterministic (fixed seeds).  Only pairs sharing at least one
    shingle are reported.

    Every corpus-growing intermediate stays distributed:

    1. candidate pairs come from a ``groupby(band_id, band_hash)`` with a
       per-bucket doc cap (``max_bucket_docs``, logged when it trims —
       one hot band hash, e.g. many near-empty docs, would otherwise
       emit O(df²) pairs);
    2. exact-Jaccard verify is :func:`_verify_pairs`, the doc-keyed
       join the n-gram threshold join uses: it dedups the pairs the
       bands repeat and counts shared shingle hashes (the same 64-bit
       hash family the signatures use) with one sort per bucket.  Its
       doc side is a semi-join: only candidate docs are shingled, via a
       broadcast of the distinct candidate doc IDs (bounded by the bucket
       cap).  Only those IDs and the final verified pairs touch the
       driver.
    """
    import logging

    import ray

    from coderag_ray.config import auto_buckets, dataset_rows_estimate

    n_rows = dataset_rows_estimate(docs_ds)
    # band rows = docs × MINHASH_BANDS narrow rows; the verify join holds
    # ~160 shingle rows per doc — both derived from the input size
    nb_band = auto_buckets(n_rows * MINHASH_BANDS, target_rows=2_000_000, lo=256)
    nb_join = auto_buckets(n_rows, target_rows=10_000)

    # distinct (band_id, band_hash) cardinality grows with the corpus →
    # exchange band hashes into nb_band coarse buckets so pair expansion
    # pays Python overhead per COARSE bucket only, with vectorized run
    # detection inside
    bands = docs_ds.map_batches(lambda t: minhash_band_rows(t, n), batch_format="pyarrow")

    def pairs_of_bucket(g: dict) -> pa.Table:
        """All (band_id, band_hash) runs of one coarse bucket, pair-
        expanded vectorized; runs over ``max_bucket_docs`` are capped
        (logged)."""
        order = np.lexsort((g["doc_id"], g["band_hash"], g["band_id"]))
        ids = g["doc_id"][order]
        starts, lens = _run_bounds(g["band_id"][order], g["band_hash"][order])
        if max_bucket_docs is not None:
            over = lens > max_bucket_docs
            if over.any():
                logging.getLogger(__name__).warning(
                    "minhash_lsh: %d band buckets over %d docs capped",
                    int(over.sum()), max_bucket_docs)
                lens = np.minimum(lens, max_bucket_docs)
        ia, ib = _run_pairs(starts, lens)
        return _pair_rows(ids[ia], ids[ib])

    # read twice: candidate ids, then the verify join
    cand = routed(exchange(bands, "band_hash", nb_band, pairs_of_bucket), "doc_id", nb_join)
    # distinct candidate doc IDs — ints only, bounded by the bucket cap
    id_chunks = [np.unique(np.r_[b["doc_id"].to_numpy(), b["other"].to_numpy()])
                 for b in cand.iter_batches(batch_format="pyarrow") if b.num_rows]
    if not id_chunks:
        return PAIR_SCORE_SCHEMA.empty_table().select(["doc_a", "doc_b", "jaccard"])
    need_ref = ray.put(pa.array(np.unique(np.concatenate(id_chunks)), type=pa.int64()))

    def candidate_doc_rows(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_in(pc.cast(t["doc_id"], pa.int64()), value_set=ray.get(need_ref)))
        return _doc_rows(t, n)

    doc_rows = routed(docs_ds.map_batches(candidate_doc_rows, batch_format="pyarrow"),
                      "doc_id", nb_join)
    # final verified pairs only — small
    verified = _verify_pairs(cand, doc_rows, jaccard_threshold).to_pandas()
    if len(verified) == 0:
        return PAIR_SCORE_SCHEMA.empty_table().select(["doc_a", "doc_b", "jaccard"])
    verified = verified.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    verified["jaccard"] = round6(verified["jaccard"].to_numpy())
    return pa.Table.from_pandas(verified[["doc_a", "doc_b", "jaccard"]], preserve_index=False)


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------


def simhash_batch(t: pa.Table) -> pa.Table:
    """(doc_id, simhash) — 64-bit weighted sign hash over word frequencies."""
    ids, sims = [], []
    shifts = np.arange(64, dtype=np.uint64)
    for did, text in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
        tf = Counter(ascii_ws_words(text.lower()))
        if tf:
            hs = np.array([_hash64(w) for w in tf], dtype=np.uint64)
            f = np.fromiter(tf.values(), dtype=np.int64, count=len(tf))
            # one (words × 64) matrix op per doc instead of a per-word loop
            bits = ((hs[:, None] >> shifts[None, :]) & np.uint64(1)).astype(bool)
            acc = np.where(bits, f[:, None], -f[:, None]).sum(axis=0)
        else:
            acc = np.zeros(64, dtype=np.int64)
        sim = int(((acc > 0).astype(np.uint64) << shifts).sum(dtype=np.uint64))
        ids.append(did)
        sims.append(sim >> 1 if sim >= (1 << 63) else sim)  # keep int64-positive
    return pa.table(
        {"doc_id": pa.array(ids, type=pa.int64()), "simhash": pa.array(sims, type=pa.int64())}
    )


def simhash_table(docs_ds):
    return schema_stable(docs_ds.map_batches(simhash_batch, batch_format="pyarrow"),
                         SIMHASH_SCHEMA)


# ---------------------------------------------------------------------------
# embedding-cosine near-dup
# ---------------------------------------------------------------------------


def embedding_dup_pairs(emb_ds, threshold: float = 0.25):
    """Within-label pairwise cosine ≥ threshold.

    ``groupby(label).map_groups`` with a numpy matmul per block — the
    blocked (rather than all-pairs) design is the scale decision: at
    10^9 vectors the block key comes from coarse quantization/LSH; here
    the provided ``label`` plays that role.
    → Dataset (label, vec_a, vec_b, cos_sim round6) sorted within group.
    """

    def project(t: pa.Table) -> pa.Table:
        # rebuild schema before the label shuffle: drops extra columns
        # and the unhashable b'pandas' schema metadata
        return pa.table({"label": t["label"], "vec_id": t["vec_id"],
                         "embedding": t["embedding"]})

    emb_ds = emb_ds.map_batches(project, batch_format="pyarrow")

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("vec_id")
        ids = g["vec_id"].to_numpy()
        E = np.stack(g["embedding"].to_numpy()).astype(np.float64)
        En = E / np.maximum(np.linalg.norm(E, axis=1, keepdims=True), 1e-30)
        S = En @ En.T
        a, b = np.triu_indices(len(ids), k=1)
        keep = S[a, b] >= threshold
        return pa.table(
            {
                "label": pa.array(np.repeat(int(g["label"].iloc[0]), keep.sum()), type=pa.int64()),
                "vec_a": pa.array(ids[a[keep]].astype(np.int64), type=pa.int64()),
                "vec_b": pa.array(ids[b[keep]].astype(np.int64), type=pa.int64()),
                "cos_sim": pa.array(np.atleast_1d(round6(S[a[keep], b[keep]])), type=pa.float64()),
            }
        )

    return schema_stable(
        emb_ds.groupby("label").map_groups(pairs, batch_format="pandas"),
        EMB_DUP_SCHEMA)


# ---------------------------------------------------------------------------
# windowed substring duplication (exact-substring dedup profile)
# ---------------------------------------------------------------------------


SPAN_DUP_SCHEMA = pa.schema([
    ("doc_id", pa.int64()),
    ("n_windows", pa.int64()),
    ("n_dup_windows", pa.int64()),
    ("dup_fraction", pa.float64()),
])


def duplicated_spans(docs_ds, window: int = 32, stride: int = 8,
                     min_dup: int = 2):
    """Per-document substring-duplication profile — the windowed
    distributed stand-in for suffix-array exact-substring dedup (Lee et
    al. 2022, "Deduplicating Training Data Makes Language Models
    Better"): every ``window``-byte window taken at ``stride`` offsets
    is exchanged by window-hash bucket; a window whose TEXT occurs in
    ≥ ``min_dup`` distinct documents marks every occurrence duplicated.

    → Dataset ``(doc_id, n_windows, n_dup_windows, dup_fraction
    round6)`` for docs with ≥ 1 window (``len(text) ≥ window`` bytes),
    sorted by doc_id.

    Scale shape: the window exchange ships ≈ corpus_bytes·window/stride
    bytes ONCE (the irreducible cost of substring-level dedup in any
    shuffle formulation); bucket count is auto-derived from input docs
    with a window-expansion-aware target.  Within a bucket, duplicate
    detection is one vectorized pandas groupby on the exact window
    BYTES — the routing hash only co-locates, so a hash collision can
    never create a false duplicate.  Per-doc counts leave each bucket
    as PARTIALS (≤ docs-touching-bucket rows) and meet in a second,
    doc-keyed bucketed sum, so nothing window-count-sized ever
    concentrates.  Windows are byte offsets of the utf-8 encoding
    (== character offsets for ASCII corpora, which is what the SQL
    oracle's ``substr`` view checks)."""
    from numpy.lib.stride_tricks import sliding_window_view

    from coderag_ray.config import auto_buckets, dataset_rows_estimate

    # each doc expands to ~len/stride window rows of ~window bytes: use
    # a doc-count target small enough that one bucket's window rows stay
    # ~10^6 at typical document sizes.  One row estimate feeds both
    # bucket counts (the estimate's count() backstop may execute a
    # derived plan — pay it at most once).
    n_docs_est = dataset_rows_estimate(docs_ds)
    nb_win = auto_buckets(n_docs_est, target_rows=10_000)
    nb_doc = auto_buckets(n_docs_est, target_rows=2_000_000)
    _empty_win = pa.table({"doc_id": pa.array([], type=pa.int64()),
                           "win": pa.array([], type=pa.binary(window))})

    def win_batch(t: pa.Table) -> pa.Table:
        docs, wins = [], []
        for did, text in zip(pc.cast(t["doc_id"], pa.int64()).to_pylist(),
                             t["text"].to_pylist()):
            b = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
            if len(b) < window:
                continue
            sw = np.ascontiguousarray(sliding_window_view(b, window)[::stride])
            docs.append(np.full(len(sw), did, dtype=np.int64))
            wins.append(sw)
        if not docs:
            return _empty_win
        d = np.concatenate(docs)
        W = np.concatenate(wins)  # [n, window] uint8 — kept raw:
        # numpy S-dtype items strip trailing NUL bytes, which would make
        # two windows differing only in trailing NULs compare equal; a
        # fixed-size-binary array built straight from the byte buffer
        # preserves every byte
        win_arr = pa.FixedSizeBinaryArray.from_buffers(
            pa.binary(window), len(W), [None, pa.py_buffer(W.tobytes())])
        return pa.table({"doc_id": pa.array(d, type=pa.int64()), "win": win_arr})

    def dup_bucket(g: pd.DataFrame) -> pa.Table:
        dup = (g.groupby("win", sort=False)["doc_id"].transform("nunique")
               >= min_dup)
        a = (g.assign(dup=dup.to_numpy())
             .groupby("doc_id", sort=False)["dup"]
             .agg(n_windows="size", n_dup_windows="sum").reset_index())
        return pa.table({
            "doc_id": pa.array(a["doc_id"].to_numpy(dtype=np.int64), type=pa.int64()),
            "n_windows": pa.array(a["n_windows"].to_numpy(dtype=np.int64), type=pa.int64()),
            "n_dup_windows": pa.array(a["n_dup_windows"].to_numpy(dtype=np.int64), type=pa.int64()),
        })

    def sum_doc(g: pd.DataFrame) -> pa.Table:
        a = (g.groupby("doc_id", sort=True)[["n_windows", "n_dup_windows"]]
             .sum().reset_index())
        nw = a["n_windows"].to_numpy(dtype=np.int64)
        nd = a["n_dup_windows"].to_numpy(dtype=np.int64)
        return pa.table({
            "doc_id": pa.array(a["doc_id"].to_numpy(dtype=np.int64), type=pa.int64()),
            "n_windows": pa.array(nw, type=pa.int64()),
            "n_dup_windows": pa.array(nd, type=pa.int64()),
            "dup_fraction": pa.array(
                np.atleast_1d(round6(nd / np.maximum(nw, 1))), type=pa.float64()),
        })

    wins = docs_ds.map_batches(win_batch, batch_format="pyarrow")
    return exchange(exchange(wins, "win", nb_win, dup_bucket, batch_format="pandas"),
                    "doc_id", nb_doc, sum_doc, batch_format="pandas",
                    schema=SPAN_DUP_SCHEMA, sort_key="doc_id")
