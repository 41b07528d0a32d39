"""Tokenize stage — per-chunk term frequencies as list columns.

Ray-native replacement for the reference's per-chunk tokenize +
term-frequency step (``/root/reference/packages/core/src/indexer.ts:591-615``,
``tfidf.ts:134-143``): a stateless vectorized ``map_batches`` transform
(Arrow kernels end to end, see
:func:`coderag_ray.functions.tokenizer.batch_term_counts`).

Output = the chunk row plus ``terms: list<string>``,
``freqs: list<int32>`` and ``token_count`` (Σ freqs — the BM25 document
length, ``tfidf.ts:395-400``).  Chunks with zero tokens keep empty
lists but remain rows — they count toward N and avgdl
(``storage-persistent.ts:973``, ``indexer.ts:604-605``).

The reference's StarCoder2 tokenizer is a per-worker singleton
(``code-tokenizer.ts:37-153``).  :func:`make_tokenizer_stage` returns a
plain task function for every tokenizer, so the stage fuses with ingest
and chunking: the regex lexers are stateless, and the model tokenizer
(``tokenizer="bpe"``) is a per-process singleton
(:func:`coderag_ray.functions.bpe.default_tokenizer` /
:func:`~coderag_ray.functions.bpe.loaded_tokenizer`), loaded once per
worker process.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pyarrow as pa

from coderag_ray.config import IndexConfig
from coderag_ray.functions.tokenizer import batch_term_counts, tokenize as tokenize_text


def bpe_term_counts(texts: pa.Array | pa.ChunkedArray, vocab_path: str | None
                    ) -> tuple[np.ndarray, pa.Array, np.ndarray, np.ndarray]:
    """:func:`~coderag_ray.functions.tokenizer.batch_term_counts` for the
    model tokenizer (ST1, ``code-tokenizer.ts:37-153``).  BPE merges have
    no Arrow kernel, so rows are encoded one at a time through the query
    side's :func:`coderag_ray.functions.tokenizer.tokenize`: the build
    and the query load a vocabulary through the same per-process
    ``lru_cache``d chokepoint, and its word→pieces cache lives as long
    as the worker."""
    rows: list[int] = []
    terms: list[str] = []
    freqs: list[int] = []
    token_count = np.zeros(len(texts), dtype=np.int64)
    for i, text in enumerate(texts.to_pylist()):
        tf = Counter(tokenize_text(text or "", "bpe", vocab_path))
        token_count[i] = sum(tf.values())
        for term, freq in sorted(tf.items()):  # deterministic term order per chunk
            rows.append(i)
            terms.append(term)
            freqs.append(freq)
    return (np.array(rows, dtype=np.int64), pa.array(terms, type=pa.string()),
            np.array(freqs, dtype=np.int64), token_count)


def append_term_lists(t: pa.Table, tokenizer: str, bpe_vocab_path: str | None = None) -> pa.Table:
    """Add terms/freqs/token_count columns to a table with ``content``."""
    if tokenizer == "bpe":
        rows, terms, freqs, token_count = bpe_term_counts(t["content"], bpe_vocab_path)
    else:
        rows, terms, freqs, token_count = batch_term_counts(t["content"], tokenizer)
    n = t.num_rows
    # rows is sorted ascending → offsets by bincount cumsum
    counts = np.bincount(rows, minlength=n).astype(np.int32) if len(rows) else np.zeros(n, dtype=np.int32)
    offsets = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(counts, out=offsets[1:])
    terms_list = pa.ListArray.from_arrays(pa.array(offsets), terms)
    freqs_list = pa.ListArray.from_arrays(pa.array(offsets), pa.array(freqs.astype(np.int32)))
    t = t.append_column("terms", terms_list)
    t = t.append_column("freqs", freqs_list)
    return t.append_column("token_count", pa.array(token_count, type=pa.int64()))


def make_tokenizer_stage(config: IndexConfig):
    tok, vocab_path = config.tokenizer, config.bpe_vocab_path

    def tokenize(t: pa.Table) -> pa.Table:
        return append_term_lists(t, tok, vocab_path)

    return tokenize
