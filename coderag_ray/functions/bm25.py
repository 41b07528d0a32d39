"""BM25 / smoothed-IDF math — the frozen scoring spec (SURVEY.md §7.0.4).

Formulas (identical expression trees in scalar and vectorized form so
float64 results are bitwise-stable across the oracle and the Ray engine):

- ``idf = ln((N + 1) / (df + 1)) + 1``  — never 0; N = total chunk count
  including zero-token chunks
  (``/root/reference/packages/core/src/storage-persistent.ts:1013-1019``,
  ``tfidf.ts:95-103``).
- per-term score ``idf * (tf * (k1+1)) / (tf + k1 * (1 - b + b * dl/avgdl))``
  with k1 = 1.2, b = 0.75 (``tfidf.ts:16-17``, ``tfidf.ts:256``,
  ``tfidf.ts:316-322``).
- ``dl = max(token_count, 1)`` (``tfidf.ts:400``, ``indexer.ts:1336``);
  ``avgdl = total_tokens / N`` (in-memory semantics ``tfidf.ts:371-378``;
  N includes empty chunks, ``storage-persistent.ts:973``), 1.0 when N = 0.
- a document's score sums its matched query terms **in query order**
  (``tfidf.ts:405-412``) — partition-order-independent by construction.
"""

from __future__ import annotations

import numpy as np

from coderag_ray.config import BM25_B, BM25_K1


def idf_smoothed(df, n_docs: int):
    """Smoothed IDF; works on scalars or numpy arrays (float64)."""
    df = np.asarray(df, dtype=np.float64)
    out = np.log((np.float64(n_docs) + 1.0) / (df + 1.0)) + 1.0
    return out if out.ndim else float(out)


def avg_doc_length(total_tokens: int, n_docs: int) -> float:
    """avgdl over ALL chunks (zero-token chunks count) — tfidf.ts:371-378."""
    return (float(total_tokens) / float(n_docs)) if n_docs > 0 else 1.0


def bm25_term_score(tf, idf, dl, avgdl: float, k1: float = BM25_K1, b: float = BM25_B):
    """Per-(doc, term) BM25 contribution; scalar or vectorized.

    ``dl`` must already be clamped to >= 1 by the caller if raw token
    counts can be 0 (use :func:`effective_dl`).
    """
    tf = np.asarray(tf, dtype=np.float64)
    dl = np.asarray(dl, dtype=np.float64)
    num = tf * (k1 + 1.0)
    den = tf + k1 * (1.0 - b + (b * dl) / avgdl)
    out = np.asarray(idf, dtype=np.float64) * (num / den)
    return out if out.ndim else float(out)


def effective_dl(token_count):
    """docLen floor of 1 — tfidf.ts:400 ``Math.max(docLen, 1)``."""
    arr = np.maximum(np.asarray(token_count, dtype=np.float64), 1.0)
    return arr if arr.ndim else float(arr)

