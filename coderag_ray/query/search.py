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
  across rebuilds, SURVEY.md §4), applied by :func:`top_k` — the one
  ordering every ranked result in the engine goes through,
- result filters (fileExtensions / pathFilter / excludePaths,
  ``indexer.ts:1318-1333``) applied *pre-ranking* (superset of the
  reference's post-retrieval filtering — documented deviation M15).

One exact scorer over the reader's global ordinal space
(:meth:`IndexReader.ordinal_space`).  Each query term, in query order,
supplies its ascending global ordinals and one value per posting from
one of two sources:

- resident: the preloaded :class:`CompactIndex`'s BM25 impacts — BM25
  on a reader whose postings fit ``IndexReader.PRELOAD_MAX_BYTES``;
- disk: :meth:`IndexReader.term_postings` (row-group-pruned reads,
  decoded and cached per term) valued by ``bm25_term_score`` or by the
  cosine dot term — cosine queries, and BM25 on a reader over the cap.

The values scatter into one float64 score per chunk of the reader.
Every BM25 and cosine contribution is strictly positive, so
``score > 0`` marks the candidates; then come the cosine division by
``|q| * |d|``, the result filters, ``min_score`` and :func:`top_k`.
Resident, unfiltered BM25 first tries the champion lists
(:func:`_champion_select`), which certify the exact top-k without the
scatter or fall back to it.

A sharded deployment (:mod:`coderag_ray.query.sharded`) runs this
scorer per partition shard and merges the shards with :func:`top_k`;
:class:`BatchScorer` runs it per actor for batch evaluation.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

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


def _matches(paths: pa.Array, match, patterns: list[str]) -> np.ndarray:
    """Whether each path matches any of the literal ``patterns`` under
    ``match`` (``pc.ends_with`` or ``pc.match_substring``); a null path
    matches none."""
    hit = np.zeros(len(paths), dtype=bool)
    for p in patterns:
        hit |= match(paths, pattern=p).fill_null(False).to_numpy(zero_copy_only=False)
    return hit


def _filter_keep(paths: pa.Array, filters: SearchFilters) -> np.ndarray:
    """Boolean mask over ``paths`` of the chunks that pass the result
    filters (indexer.ts:1318-1333)."""
    keep = np.ones(len(paths), dtype=bool)
    if filters.file_extensions:
        keep &= _matches(paths, pc.ends_with, filters.file_extensions)
    if filters.path_filter:
        keep &= _matches(paths, pc.match_substring, [filters.path_filter])
    if filters.exclude_paths:
        keep &= ~_matches(paths, pc.match_substring, filters.exclude_paths)
    return keep


def top_k(rows: np.ndarray, score: np.ndarray, doc_ids: np.ndarray,
          chunk_ids: np.ndarray, k: int) -> np.ndarray:
    """The best ``k`` of ``rows`` under the frozen tie-break
    ``(score DESC, doc_id, chunk_id)``, best first; ``score``,
    ``doc_ids`` and ``chunk_ids`` are indexed by row.  An exact
    preselect keeps every row at or above the k-th largest score (ties
    included), so only the survivors are sorted."""
    s = score[rows]
    if 0 < k < len(rows):
        keep = s >= np.partition(s, len(s) - k)[len(s) - k]
        rows, s = rows[keep], s[keep]
    return rows[np.lexsort((chunk_ids[rows], doc_ids[rows], -s))][:k]


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


# the doc-store columns a hit carries, with their result types
_DOC_COLUMNS = {"repo": pa.string(), "path": pa.string(), "lang": pa.string(),
                "start_offset": pa.int64(), "end_offset": pa.int64(),
                "chunk_sha256": pa.string(), "content_sha256": pa.string()}


def attach_doc_columns(result: pa.Table, reader: IndexReader) -> pa.Table:
    """Join doc metadata (repo/path/lang/offsets/sha) onto a top-k result
    — the chunks ⋈ files denormalized join (J4): one take per column
    from the reader's doc store at each hit's global ordinal;
    ``token_count`` is the chunk's ``dl``."""
    rows = reader.ordinal_space()
    ords = np.array([rows.part_offsets[p] for p in result["part_id"].to_pylist()],
                    dtype=np.int64) + result["ordinal"].to_numpy()
    take = pa.array(ords)
    for (name, typ), col in zip(_DOC_COLUMNS.items(), reader.doc_columns(list(_DOC_COLUMNS))):
        result = result.append_column(name, col.take(take).cast(typ))
    return result.append_column("token_count", pa.array(rows.dls[ords]))


def _disk_values(reader: IndexReader, tokens: list[str], idf_map: dict,
                 weights: dict[str, float] | None) -> list:
    """Per query term, in query order: (ascending global ordinals, one
    value per posting) from the reader's disk postings, or None for a
    term without idf.  The value is the BM25 contribution, or with query
    ``weights`` the cosine dot term ``w * ((tf / dl) * idf)``
    (tfidf.ts:191-212); ``dl`` is floored at 1 (tfidf.ts:400)."""
    postings = reader.term_postings([t for t in tokens if t in idf_map])
    all_dls = reader.ordinal_space().dls
    out = []
    for tok in tokens:
        if tok not in postings:
            out.append(None)
            continue
        ords, freqs = postings[tok]
        dls = np.maximum(all_dls[ords], 1).astype(np.float64)
        idf = idf_map[tok][1]
        out.append((ords, bm25_term_score(freqs, idf, dls, reader.avgdl) if weights is None
                    else weights[tok] * ((freqs / dls) * idf)))
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
) -> pa.Table:
    """Top-k BM25 (or ``mode="cosine"``) search; returns an Arrow table
    of ranked results (module docstring), with the doc columns on every
    path when ``with_doc_columns``."""
    if mode not in ("bm25", "cosine"):
        raise ValueError(f"unknown mode {mode!r}")
    reader = index if isinstance(index, IndexReader) else IndexReader(index)
    result = _ranked(reader, query, k, min_score, filters, mode)
    return attach_doc_columns(result, reader) if with_doc_columns else result


def _ranked(reader: IndexReader, query: str, k: int, min_score: float,
            filters: SearchFilters | None, mode: str) -> pa.Table:
    """:func:`search`'s ranked table, before the doc columns."""
    all_toks = tokenize(query, reader.config.tokenizer,
                        getattr(reader.config, "bpe_vocab_path", None))
    tokens = dedupe_query_tokens(all_toks)
    if not tokens or reader.n_chunks == 0:
        return _empty_result()
    idf_map = reader.idf_for_terms(tokens)
    if not idf_map:
        return _empty_result()
    reader.ensure_preloaded()

    compact = reader.compact() if mode == "bm25" else None
    if compact is not None:
        rows = compact
        recs = [compact.postings.get(tok) for tok in tokens]
    else:
        rows = reader.ordinal_space()
        weights = None
        if mode == "cosine":
            # query TF-IDF vector, tfidf.ts:160-175: tf = rawFreq /
            # totalQueryTokens, tfidf = tf * idf (missing idf → 0)
            counts, total = Counter(all_toks), float(len(all_toks))
            weights = {t: (counts[t] / total) * (idf_map[t][1] if t in idf_map else 0.0)
                       for t in tokens}
            qmag = float(np.sqrt(np.sum(np.array([weights[t] for t in tokens]) ** 2)))
        recs = _disk_values(reader, tokens, idf_map, weights)

    sel = None
    if compact is not None and filters is None and min_score <= 0.0 and k > 0:
        fast = _champion_select(compact, tokens, list(zip(tokens, recs)), k)
        if fast is not None:
            sel, sel_scores = fast
    if sel is None:
        scores = np.zeros(rows.n_chunks, dtype=np.float64)
        for rec in recs:  # query order — float determinism
            if rec is not None:
                scores[rec[0]] += rec[1]
        # every contribution is strictly positive, so score > 0 ⟺ ≥1
        # term matched — one scatter pass (a per-chunk matched mask
        # scatter was ~half the hot-query cost at 930k chunks); the
        # winners' matched_terms are recovered below from the postings
        cand = np.flatnonzero(scores > 0.0)
        if mode == "cosine":
            # cos = dot / (|q| * |d|), 0 when either magnitude is 0
            denom = qmag * reader.magnitudes()[cand]
            scores[cand] = np.where(denom > 0, scores[cand] / np.where(denom > 0, denom, 1.0),
                                    0.0)
        if filters is not None and len(cand):
            paths, = reader.doc_columns(["path"])
            cand = cand[_filter_keep(paths.take(pa.array(cand)), filters)]
        if min_score > 0.0:
            # the reference keeps score == minScore (tfidf.ts:414)
            cand = cand[scores[cand] >= min_score]
        sel = top_k(cand, scores, rows.doc_ids, rows.chunk_ids, k)
        sel_scores = scores[sel]
    if len(sel) == 0:
        return _empty_result()

    hits = []  # per term: which winners are in its ordinal-sorted postings
    for rec in recs:
        if rec is None or not len(rec[0]):
            hits.append(np.zeros(len(sel), dtype=bool))
            continue
        j = np.minimum(np.searchsorted(rec[0], sel), len(rec[0]) - 1)
        hits.append(rec[0][j] == sel)
    matched_terms = [[tok for tok, h in zip(tokens, row) if h] for row in zip(*hits)]
    pids, local = rows.locate(sel)
    return pa.table(
        {
            "rank": pa.array(np.arange(1, len(sel) + 1, dtype=np.int32)),
            "doc_id": pa.array(rows.doc_ids[sel]),
            "chunk_id": pa.array(rows.chunk_ids[sel]),
            "score": pa.array(sel_scores),
            "matched_terms": pa.array(matched_terms, type=pa.list_(pa.string())),
            "part_id": pa.array(pids),
            "ordinal": pa.array(local),
        }
    )


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
        order = top_k(np.arange(len(cand)), scores, compact.doc_ids[cand],
                      compact.chunk_ids[cand], k)
        return cand[order], scores[order]
    return None  # no rung certified → exhaustive scatter


class BatchScorer:
    """Actor-pool stage for batch query evaluation (M3 in SURVEY.md §7.2).

    ``queries_ds.map_batches(BatchScorer, fn_constructor_args=(index_dir,),
    batch_size=B)`` on a pool of N actors — the reader (idf cache + partition
    doc arrays) is loaded once per actor in ``__init__``, batches of
    queries are scored per ``__call__``.  At multi-node scale each actor
    would hold a partition shard and a driver-side merge combines
    shard-local top-k; single-node actors hold the whole (small) index.
    """

    def __init__(self, index_dir: str, k: int = 10):
        self.reader = IndexReader(index_dir)
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
