"""BM25 top-k search over the partitioned index.

Ray-native replacement for ``CodebaseIndexer.search()``
(``/root/reference/packages/core/src/indexer.ts:1165-1389``) and the
in-memory ``searchDocuments`` (``tfidf.ts:354-427``):

- query tokens deduped preserving first occurrence (``tfidf.ts:28``),
- **exhaustive** scoring of every matching posting — unlike the
  reference's SQL path, which caps candidates at ≤6·limit ranked by
  distinct-term count (``storage-persistent.ts:738-739``,
  ``indexer.ts:1298``) and can miss true top-k members (documented
  deviation, SURVEY.md §7.0.5; the in-memory reference path is
  exhaustive and is the parity target),
- per-doc score = Σ over matched terms *in query order* of the shared
  BM25 kernel — float64-deterministic across partitionings,
- frozen tie-break ``(score DESC, doc_id ASC, chunk_id ASC)`` (the
  reference's JS stable sort over retrieval order is nondeterministic
  across rebuilds, SURVEY.md §4),
- result filters (fileExtensions / pathFilter / excludePaths,
  ``indexer.ts:1318-1333``) applied *pre-ranking* (superset of the
  reference's post-retrieval filtering — documented deviation M15),
- partitions scored independently (embarrassingly parallel — each
  holds a complete local index) and merged by the same tie-break, so
  results are identical at any partition count.

Three exact scorers, chosen from what the call can see, return the
same top-k bitwise:

- :func:`_search_compact` — resident reader, ``mode="bm25"``, no
  filters: champion lists with the exhaustive scatter as fallback over
  the merged preloaded index (the serving path);
- :func:`_partition_scores` — result filters, or a reader that is not
  resident (``preload="never"`` or postings over the preload cap):
  exhaustive scoring of each partition's posting lists, read from disk;
- :func:`_partition_scores_cosine` — ``mode="cosine"``.

Per-query execution is a driver-side loop over O(P) partitions — at
256-node scale this becomes one scatter-gather RPC per scorer actor
holding its partition shard (:mod:`coderag_ray.query.sharded`), which
:class:`BatchScorer` models for batch evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa

from coderag_ray.functions import varint
from coderag_ray.functions.bm25 import bm25_term_score
from coderag_ray.functions.tokenizer import tokenize
from coderag_ray.index.reader import IndexReader


@dataclass
class SearchFilters:
    """indexer.ts:1228-1242 result filters."""

    file_extensions: list[str] | None = None  # path endswith any
    path_filter: str | None = None            # path contains
    exclude_paths: list[str] | None = None    # path contains any → drop


def dedupe_query_tokens(tokens: list[str]) -> list[str]:
    """[...new Set(tokens)] preserving first occurrence — tfidf.ts:28."""
    return list(dict.fromkeys(tokens))


def _decoded(rec: dict) -> tuple[np.ndarray, np.ndarray]:
    """(ordinals, freqs) of one posting record, decoded once and kept on
    the cached record."""
    ords = rec.get("_ords")
    if ords is None:
        ords = rec["_ords"] = varint.decode_deltas(rec["doc_buf"]).astype(np.int64)
        rec["_freqs"] = varint.decode(rec["freq_buf"]).astype(np.float64)
    return ords, rec["_freqs"]


def _filter_keep(reader: IndexReader, part_id: int, cand: np.ndarray,
                 filters: SearchFilters) -> np.ndarray:
    """Boolean mask over ``cand`` of the chunks whose path passes the
    result filters (indexer.ts:1318-1333)."""
    paths = reader.partition_paths(part_id)[cand]
    keep = np.ones(len(cand), dtype=bool)
    if filters.file_extensions:
        keep &= np.array([any(p.endswith(e) for e in filters.file_extensions) for p in paths])
    if filters.path_filter:
        keep &= np.array([filters.path_filter in p for p in paths])
    if filters.exclude_paths:
        keep &= np.array([not any(x in p for x in filters.exclude_paths) for p in paths])
    return keep


def _partition_scores(
    reader: IndexReader,
    part_id: int,
    tokens: list[str],
    contribution: dict,
    filters: SearchFilters | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exhaustive scoring of one partition: each query term with a
    ``contribution[tok](freqs, dls)`` adds it to the chunks of its
    posting list (``dls`` = their lengths, floored at 1 — tfidf.ts:400),
    in query order.

    Returns (candidate_ordinals, scores, matched_bitmask) for ordinals
    with ≥1 matched term (after filters).
    """
    h = reader.partition(part_id)
    postings = reader.postings_for_terms(part_id, [t for t in tokens if t in contribution])
    scores = np.zeros(h.n_chunks, dtype=np.float64)
    matched = np.zeros(h.n_chunks, dtype=np.int64)
    dls = np.maximum(h.dls, 1).astype(np.float64)
    for qi, tok in enumerate(tokens):
        rec = postings.get(tok)
        if rec is None:
            continue
        ords, freqs = _decoded(rec)
        scores[ords] += contribution[tok](freqs, dls[ords])
        matched[ords] |= 1 << qi

    cand = np.flatnonzero(matched)
    if len(cand) and filters is not None:
        cand = cand[_filter_keep(reader, part_id, cand, filters)]
    return cand, scores[cand], matched[cand]


def _bm25_contribution(reader: IndexReader, idf_map: dict[str, tuple[int, float]]) -> dict:
    return {tok: (lambda freqs, dls, idf=idf: bm25_term_score(freqs, idf, dls, reader.avgdl))
            for tok, (_, idf) in idf_map.items()}


def build_query_vector(
    query: str, reader: IndexReader
) -> tuple[list[str], dict[str, float], float]:
    """Query TF-IDF vector + magnitude — tfidf.ts:160-175 semantics:
    tf = rawFreq / totalQueryTokens, tfidf = tf * idf (missing idf → 0),
    magnitude over all query terms.  Returns (unique_tokens_in_order,
    q_tfidf, q_magnitude)."""
    all_toks = tokenize(query, reader.config.tokenizer,
                        getattr(reader.config, "bpe_vocab_path", None))
    uniq = dedupe_query_tokens(all_toks)
    if not uniq:
        return [], {}, 0.0
    total = float(len(all_toks))
    idf_map = reader.idf_for_terms(uniq)
    counts: dict[str, int] = {}
    for t in all_toks:
        counts[t] = counts.get(t, 0) + 1
    q_tfidf = {
        t: (counts[t] / total) * (idf_map[t][1] if t in idf_map else 0.0) for t in uniq
    }
    qmag = float(np.sqrt(np.sum(np.array([q_tfidf[t] for t in uniq]) ** 2)))
    return uniq, q_tfidf, qmag


def _partition_scores_cosine(
    reader: IndexReader,
    part_id: int,
    tokens: list[str],
    q_tfidf: dict[str, float],
    qmag: float,
    filters: SearchFilters | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cosine-similarity scoring of one partition — tfidf.ts:191-212:
    cos = Σ_t q_tfidf[t] * doc_tfidf[t] / (|q| * |d|), 0 when either
    magnitude is 0; doc_tfidf = (rawFreq/dl) * idf."""
    idf_map = reader.idf_for_terms(tokens)
    contribution = {
        tok: (lambda freqs, dls, w=q_tfidf[tok], idf=idf: w * ((freqs / dls) * idf))
        for tok, (_, idf) in idf_map.items() if q_tfidf.get(tok, 0.0) != 0.0
    }
    cand, dot, matched = _partition_scores(reader, part_id, tokens, contribution, filters)
    denom = qmag * reader.partition_magnitudes(part_id)[cand]
    scores = np.where(denom > 0, dot / np.where(denom > 0, denom, 1.0), 0.0)
    return cand, scores, matched


def _topk_merge(
    parts: list[tuple[int, np.ndarray, np.ndarray, np.ndarray]],
    reader: IndexReader,
    tokens: list[str],
    k: int,
    min_score: float,
) -> pa.Table:
    """Merge per-partition candidates with the frozen tie-break."""
    rows = []
    for part_id, cand, scores, matched in parts:
        if len(cand) == 0:
            continue
        h = reader.partition(part_id)
        keep = scores >= min_score  # reference keeps score == minScore (tfidf.ts:414)
        rows.append(
            (
                np.full(keep.sum(), part_id, dtype=np.int64),
                cand[keep],
                scores[keep],
                matched[keep],
                h.doc_ids[cand[keep]],
                h.chunk_ids[cand[keep]],
            )
        )
    if not rows:
        return _empty_result()
    part_ids = np.concatenate([r[0] for r in rows])
    ordinals = np.concatenate([r[1] for r in rows])
    scores = np.concatenate([r[2] for r in rows])
    matched = np.concatenate([r[3] for r in rows])
    doc_ids = np.concatenate([r[4] for r in rows])
    chunk_ids = np.concatenate([r[5] for r in rows])

    order = np.lexsort((chunk_ids, doc_ids, -scores))[:k]
    matched_terms = [
        [tokens[qi] for qi in range(len(tokens)) if m & (1 << qi)] for m in matched[order]
    ]
    return pa.table(
        {
            "rank": pa.array(np.arange(1, len(order) + 1, dtype=np.int32)),
            "doc_id": pa.array(doc_ids[order]),
            "chunk_id": pa.array(chunk_ids[order]),
            "score": pa.array(scores[order]),
            "matched_terms": pa.array(matched_terms, type=pa.list_(pa.string())),
            "part_id": pa.array(part_ids[order]),
            "ordinal": pa.array(ordinals[order]),
        }
    )


def _empty_result() -> pa.Table:
    return pa.table(
        {
            "rank": pa.array([], type=pa.int32()),
            "doc_id": pa.array([], type=pa.int64()),
            "chunk_id": pa.array([], type=pa.int64()),
            "score": pa.array([], type=pa.float64()),
            "matched_terms": pa.array([], type=pa.list_(pa.string())),
            "part_id": pa.array([], type=pa.int64()),
            "ordinal": pa.array([], type=pa.int64()),
        }
    )


def attach_doc_columns(result: pa.Table, reader: IndexReader) -> pa.Table:
    """Join doc metadata (repo/path/lang/offsets/sha) onto a top-k result
    — the chunks ⋈ files denormalized join (J4)."""
    import pyarrow.parquet as pq
    import os

    cols = {c: [] for c in ("repo", "path", "lang", "start_offset", "end_offset",
                            "chunk_sha256", "content_sha256", "token_count")}
    cache: dict[int, pa.Table] = {}
    for pid, ordn in zip(result["part_id"].to_pylist(), result["ordinal"].to_pylist()):
        tbl = cache.get(pid)
        if tbl is None:
            tbl = pq.read_table(
                os.path.join(reader.part_dir(pid), "docs.parquet"),
                columns=["repo", "path", "lang", "start_offset", "end_offset",
                         "chunk_sha256", "content_sha256", "dl"],
            )
            cache[pid] = tbl
        for c in cols:
            src = "dl" if c == "token_count" else c
            cols[c].append(tbl[src][ordn].as_py())
    for c, vals in cols.items():
        result = result.append_column(c, pa.array(vals))
    return result


def make_snippets(result: pa.Table, reader: IndexReader) -> list[str]:
    """Chunk content with line numbers — indexer.ts:1379-1382 semantics
    (lines numbered from start_line; fallback chunks start at 0)."""
    out = []
    for pid, ordn in zip(result["part_id"].to_pylist(), result["ordinal"].to_pylist()):
        content = reader.chunk_contents(pid, np.array([ordn]))[0]
        out.append("\n".join(f"{i}: {ln}" for i, ln in enumerate(content.split("\n"))))
    return out


def search(
    index: IndexReader | str,
    query: str,
    k: int = 10,
    *,
    min_score: float = 0.0,
    filters: SearchFilters | None = None,
    with_doc_columns: bool = True,
    mode: str = "bm25",
    candidate_cap: int | None = None,
) -> pa.Table:
    """Top-k BM25 (or ``mode="cosine"``) search; returns an Arrow table
    of ranked results.  The scorer follows from the reader and the call
    (module docstring); every one is exact.

    ``candidate_cap`` reproduces the reference's T3 recall
    approximation (``storage-persistent.ts:738-739``): only the top
    ``candidate_cap`` chunks by DISTINCT matched-term count (the
    reference passes ``limit * 2``) are BM25-scored.  OFF by default —
    the engine is exhaustive; ties break (count DESC, doc_id,
    chunk_id) where the reference's SQLite ordering is unspecified.
    Compact-path only (resident reader, plain bm25, no filters)."""
    reader = index if isinstance(index, IndexReader) else IndexReader(index)
    tokens = dedupe_query_tokens(tokenize(
        query, reader.config.tokenizer,
        getattr(reader.config, "bpe_vocab_path", None)))
    if not tokens or reader.n_chunks == 0:
        return _empty_result()
    if len(tokens) > 63:
        tokens = tokens[:63]  # bitmask bound; queries are human-sized
    idf_map = reader.idf_for_terms(tokens)
    if not idf_map:
        return _empty_result()
    reader.ensure_preloaded()

    # resident + unfiltered bm25 → the compact path's champion-list
    # early termination (impact-ordered pruning, exact) over preloaded
    # postings and impacts; everything else scores partitions
    # exhaustively — on a non-resident reader that beat block-max
    # skipping at every measured size (docs/PERF_NOTES.md)
    compact = reader.compact() if (filters is None and mode == "bm25") else None
    if compact is not None:
        return _search_compact(compact, reader, tokens, idf_map, k, min_score,
                               with_doc_columns, candidate_cap)
    if candidate_cap is not None:
        raise ValueError("candidate_cap requires the compact bm25 path "
                         "(resident reader, no filters, mode='bm25')")
    if mode == "cosine":
        uniq, q_tfidf, qmag = build_query_vector(query, reader)
        parts = [
            (pid, *_partition_scores_cosine(reader, pid, uniq, q_tfidf, qmag, filters))
            for pid in reader.partitions
        ]
        return _finish(parts, reader, uniq, k, min_score, with_doc_columns)
    if mode != "bm25":
        raise ValueError(f"unknown mode {mode!r}")
    contribution = _bm25_contribution(reader, idf_map)
    parts = [
        (pid, *_partition_scores(reader, pid, tokens, contribution, filters))
        for pid in reader.partitions
    ]
    return _finish(parts, reader, tokens, k, min_score, with_doc_columns)


CHAMPION_C = 256        # first-rung impact-ordered prefix length per term
CHAMPION_LADDER = (1, 16)  # C multipliers tried before the exhaustive fallback
# LRU bound on cached per-term champion prefixes (~64 KB per hot term at
# C_MAX=4096): a long-lived query server with a wide vocabulary must not
# accumulate unbounded memory (ADVICE r3 item 5) — same discipline as
# the reader's posting LRU
CHAMPION_CACHE_TERMS = 1024


def _champion_select(compact, tokens, recs, k):
    """Exact impact-ordered early termination (champion lists — the
    vectorized cousin of MaxScore/WAND pruning): candidates = the union
    of each query term's ``CHAMPION_C`` highest-impact postings (full
    posting lists for short terms), fully scored against the REAL
    posting lists.  A doc outside the candidate set can only match
    terms at non-champion postings, so its score is bounded by
    Σ per-term (C+1)-th-largest impact; when the candidate k-th score
    strictly beats that bound the candidate top-k IS the exhaustive
    top-k (ties can't cross the bound — non-candidates are strictly
    below).  Returns (sel, sel_scores) or None → caller falls back to
    the exhaustive scatter.  Champion prefixes are argpartitioned once
    per term per process (cached on the CompactIndex).

    Cost discipline: a hot term pays exactly ONE O(n) pass over its
    posting list regardless of how far the ladder escalates — the
    shared top-``C_MAX`` prefix is partitioned once per term and every
    smaller rung is derived from that subset (the (C+1)-th largest
    impact of the full list lies inside the top-C_MAX for any
    C < C_MAX).  Before this, a query that escalated to the exhaustive
    fallback re-partitioned every hot term at each rung, and the failed
    ladder was ~70% of cold tail latency.  Champion membership among
    impact-TIED postings at the pivot may differ from a direct
    partition at C, but certification is selection-invariant: the bound
    is the tied pivot VALUE either way, and a certified candidate top-k
    equals the unique exhaustive top-k (non-candidates are strictly
    below the bound; the final tie-break is deterministic) — asserted
    bitwise by the champion-vs-exhaustive regression tests."""
    champs = getattr(compact, "_champions", None)
    if champs is None:
        from collections import OrderedDict

        champs = compact._champions = OrderedDict()  # tok → {"top", "rungs"}
    C_MAX = CHAMPION_C * CHAMPION_LADDER[-1]
    prev_kth = None
    for mult in CHAMPION_LADDER:
        C = CHAMPION_C * mult
        cand_parts = []
        bound = 0.0
        complete = True  # every term contributed its FULL posting list
        for tok, rec in recs:
            if rec is None:
                continue
            ords, imps = rec
            if len(ords) <= C:
                cand_parts.append(ords)
                continue
            complete = False
            ent = champs.get(tok)
            if ent is None:
                ent = champs[tok] = {"top": None, "rungs": {}}
                if len(champs) > CHAMPION_CACHE_TERMS:
                    champs.popitem(last=False)  # LRU eviction
            else:
                champs.move_to_end(tok)
            entry = ent["rungs"].get(C)
            if entry is None:
                if len(ords) > C_MAX:
                    top = ent["top"]
                    if top is None:  # the term's single O(n) pass
                        part = np.argpartition(-imps, C_MAX)
                        top = ent["top"] = (ords[part[:C_MAX]],
                                            imps[part[:C_MAX]],
                                            float(imps[part[C_MAX]]))
                    t_ords, t_imps, t_bound = top
                    if C >= C_MAX:
                        entry = (t_ords, t_bound)
                    else:  # O(C_MAX) derivation, not O(n)
                        sub = np.argpartition(-t_imps, C)
                        entry = (t_ords[sub[:C]], float(t_imps[sub[C]]))
                else:  # C < len(ords) ≤ C_MAX: direct cost is O(C_MAX)
                    part = np.argpartition(-imps, C)
                    entry = (ords[part[:C]], float(imps[part[C]]))
                ent["rungs"][C] = entry
            cand_parts.append(entry[0])
            bound += entry[1]
        if not cand_parts:
            return None
        if prev_kth is not None and not (prev_kth > bound):
            # Escalation feasibility (exact for the 2-rung ladder):
            # this rung is C_MAX, so every hot term contributes its
            # FULL shared prefix and cand ⊇ the previous rung's cand
            # (smaller rungs are derived subsets of the same prefix) —
            # kth can only be ≥ the previous kth.  If the previous kth
            # already beats this rung's bound, certification here is
            # GUARANTEED — score and return.  Otherwise the attempt
            # almost never certifies in practice (all-hot-term queries
            # have flat impact tails: measured 0/43 rung-2 certs on
            # the bench mix) and costs a full scoring pass over a 16×
            # candidate set — skip straight to the exhaustive scatter.
            # With 3+ rungs, argpartition tie-breaks at a middle rung
            # could break nesting and this gate becomes a heuristic;
            # results stay exact because kth > bound is re-checked
            # after scoring before anything is returned.
            return None
        cand = np.unique(np.concatenate(cand_parts))
        scores = np.zeros(len(cand), dtype=np.float64)
        for tok, rec in recs:  # query order — float determinism
            if rec is None:
                continue
            ords, imps = rec
            j = np.searchsorted(ords, cand)
            j[j >= len(ords)] = len(ords) - 1
            m = ords[j] == cand
            scores[m] += imps[j[m]]
        if not complete:
            if len(cand) < k:
                continue  # a larger rung may surface more candidates
            kth = np.partition(scores, len(scores) - k)[len(scores) - k]
            if not kth > bound:
                prev_kth = kth
                continue  # bound can't certify at this rung — escalate
        order = np.lexsort((compact.chunk_ids[cand], compact.doc_ids[cand],
                            -scores))[:k]
        return cand[order], scores[order]
    return None  # no rung certified → exhaustive scatter


def _search_compact(compact, reader, tokens, idf_map, k, min_score,
                    with_doc_columns, candidate_cap=None) -> pa.Table:
    """One numpy pass per query term over the merged resident index —
    bitwise-identical to the per-partition path (see CompactIndex)."""
    recs = [(tok, compact.postings.get(tok)) for tok in tokens]
    term_ords: list[np.ndarray | None] = [r[0] if r is not None else None
                                          for _, r in recs]
    sel = None
    if candidate_cap is None and min_score <= 0.0 and k > 0:
        fast = _champion_select(compact, tokens, recs, k)
        if fast is not None:
            sel, sel_scores = fast
    if sel is None:
        scores = np.zeros(compact.n_chunks, dtype=np.float64)
        for _, rec in recs:
            if rec is None:
                continue
            ords, impacts = rec  # impacts precomputed at preload (same floats)
            scores[ords] += impacts
        # BM25 impacts are strictly positive, so score > 0 ⟺ ≥1 term
        # matched — one scatter pass instead of two (the per-chunk
        # matched bitmask scatter was ~half the hot-query cost at 930k
        # chunks); per-winner matched_terms are recovered below by
        # binary search in each term's ordinal-sorted posting list.
        cand = np.flatnonzero(scores > 0.0 if min_score <= 0.0
                              else scores >= min_score)
        if len(cand) == 0:
            return _empty_result()
        if candidate_cap is not None and len(cand) > candidate_cap:
            # T3 (opt-in): keep only the top-cap candidates by distinct
            # matched-term count before ranking — the reference's recall
            # approximation; the count scatter is paid only on this path
            counts = np.zeros(compact.n_chunks, dtype=np.int32)
            for ords in term_ords:
                if ords is not None:
                    counts[ords] += 1
            pre = np.lexsort((compact.chunk_ids[cand], compact.doc_ids[cand],
                              -counts[cand]))[:candidate_cap]
            cand = np.sort(cand[pre])
        sc = scores[cand]
        if k > 0 and len(cand) > 4 * k:
            # exact top-k preselection: keep everything >= the k-th
            # largest score (ties included), then tie-break-sort the
            # small survivor set
            kth = np.partition(sc, len(sc) - k)[len(sc) - k]
            m = sc >= kth
            cand, sc = cand[m], sc[m]
        order = np.lexsort((compact.chunk_ids[cand], compact.doc_ids[cand], -sc))[:k]
        sel = cand[order]
        sel_scores = scores[sel]
    if len(sel) == 0:
        return _empty_result()
    pids, local = compact.locate(sel)

    def _terms_of(o: int) -> list[str]:
        out = []
        for qi, ords in enumerate(term_ords):
            if ords is None or not len(ords):
                continue
            j = int(np.searchsorted(ords, o))
            if j < len(ords) and ords[j] == o:
                out.append(tokens[qi])
        return out

    matched_terms = [_terms_of(int(o)) for o in sel]
    result = pa.table(
        {
            "rank": pa.array(np.arange(1, len(sel) + 1, dtype=np.int32)),
            "doc_id": pa.array(compact.doc_ids[sel]),
            "chunk_id": pa.array(compact.chunk_ids[sel]),
            "score": pa.array(sel_scores),
            "matched_terms": pa.array(matched_terms, type=pa.list_(pa.string())),
            "part_id": pa.array(pids),
            "ordinal": pa.array(local),
        }
    )
    if with_doc_columns and result.num_rows:
        result = attach_doc_columns(result, reader)
    return result


def _finish(parts, reader, tokens, k, min_score, with_doc_columns) -> pa.Table:
    result = _topk_merge(parts, reader, tokens, k, min_score)
    if with_doc_columns and result.num_rows:
        result = attach_doc_columns(result, reader)
    return result


class BatchScorer:
    """Actor-pool stage for batch query evaluation (M3 in SURVEY.md §7.2).

    ``queries_ds.map_batches(BatchScorer, fn_constructor_args=(index_dir,),
    batch_size=B)`` on a pool of N actors — the reader (idf cache + partition
    doc arrays) is loaded once per actor in ``__init__``, batches of
    queries are scored per ``__call__``.  At multi-node scale each actor
    would hold a partition shard and a driver-side merge combines
    shard-local top-k; single-node actors hold the whole (small) index.
    """

    def __init__(self, index_dir: str, k: int = 10, preload: str = "auto"):
        # short-lived pool actors default to lazy reads unless the caller
        # opts into the resident preload ("auto"/"never" per IndexReader)
        self.reader = IndexReader(index_dir, preload=preload)
        # overlap the resident preload with pool spin-up / first feed —
        # the first query blocks on the preload lock only for whatever
        # build time remains (VERDICT r4 item 6)
        self.reader.preload_async()
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        qids, ranks, doc_ids, chunk_ids, scores = [], [], [], [], []
        for qid, text in zip(batch["query_id"].to_pylist(), batch["text"].to_pylist()):
            res = search(self.reader, text, self.k, with_doc_columns=False)
            n = res.num_rows
            qids.extend([qid] * n)
            ranks.extend(res["rank"].to_pylist())
            doc_ids.extend(res["doc_id"].to_pylist())
            chunk_ids.extend(res["chunk_id"].to_pylist())
            scores.extend(res["score"].to_pylist())
        return pa.table(
            {
                "query_id": pa.array(qids, type=pa.int64()),
                "rank": pa.array(ranks, type=pa.int32()),
                "doc_id": pa.array(doc_ids, type=pa.int64()),
                "chunk_id": pa.array(chunk_ids, type=pa.int64()),
                "score": pa.array(scores, type=pa.float64()),
            }
        )
