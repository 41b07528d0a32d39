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
(``code-tokenizer.ts:37-153``); our deterministic lexer is regex-only, so
:func:`make_tokenizer_stage` returns a stateless task function.  The
model tokenizer (``tokenizer="bpe"``) is :class:`BpeTokenizeStage`, an
actor stage that loads its merge table once per actor; the index build
picks it itself.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from coderag_ray.config import IndexConfig
from coderag_ray.functions.tokenizer import batch_term_counts


def append_term_lists(t: pa.Table, tokenizer: str) -> pa.Table:
    """Add terms/freqs/token_count columns to a table with ``content``."""
    rows, terms, freqs, token_count = batch_term_counts(t["content"], tokenizer)
    n = t.num_rows
    # rows is sorted ascending (np.unique) → offsets by bincount cumsum
    counts = np.bincount(rows, minlength=n).astype(np.int32) if len(rows) else np.zeros(n, dtype=np.int32)
    offsets = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(counts, out=offsets[1:])
    terms_list = pa.ListArray.from_arrays(pa.array(offsets), terms)
    freqs_list = pa.ListArray.from_arrays(pa.array(offsets), pa.array(freqs.astype(np.int32)))
    t = t.append_column("terms", terms_list)
    t = t.append_column("freqs", freqs_list)
    return t.append_column("token_count", pa.array(token_count, type=pa.int64()))


class BpeTokenizeStage:
    """Model-tokenizer actor stage (ST1, ``code-tokenizer.ts:37-153``):
    the BPE merge table is built/loaded ONCE per actor in ``__init__``
    (the singleton-per-worker pattern — a real model load drops in
    here), then ``__call__`` encodes batches row-wise with a per-actor
    word→pieces cache.  Used via
    ``map_batches(BpeTokenizeStage, fn_constructor_args=(config,),
    concurrency=N)`` — an actor pool, deliberately NOT fused with the
    task chain (stateful stages can't fuse; the build pays one extra
    object-store hop only on this tokenizer)."""

    def __init__(self, config: IndexConfig, vocab_path: str | None = None):
        # loaded_tokenizer is the SHARED build/query chokepoint: it
        # sniffs HF tokenizer.json vs the offline merge-table format, so
        # an index built from a real HF vocab tokenizes queries with the
        # same vocabulary (ADVICE r4: loading BPETokenizer.load here
        # while the query side sniffed formats split the two paths)
        from coderag_ray.functions.bpe import default_tokenizer, loaded_tokenizer

        vocab_path = vocab_path or config.bpe_vocab_path
        self.tok = (loaded_tokenizer(vocab_path) if vocab_path
                    else default_tokenizer())

    def __call__(self, t: pa.Table) -> pa.Table:
        from collections import Counter

        n = t.num_rows
        offsets = np.zeros(n + 1, dtype=np.int32)
        all_terms: list[str] = []
        all_freqs: list[int] = []
        token_count = np.zeros(n, dtype=np.int64)
        for i, text in enumerate(t["content"].to_pylist()):
            tf = Counter(self.tok.tokenize(text or ""))
            token_count[i] = sum(tf.values())
            items = sorted(tf.items())  # deterministic term order per chunk
            offsets[i + 1] = offsets[i] + len(items)
            all_terms.extend(k for k, _ in items)
            all_freqs.extend(v for _, v in items)
        terms_list = pa.ListArray.from_arrays(pa.array(offsets),
                                              pa.array(all_terms, type=pa.string()))
        freqs_list = pa.ListArray.from_arrays(pa.array(offsets),
                                              pa.array(np.array(all_freqs, dtype=np.int32)))
        t = t.append_column("terms", terms_list)
        t = t.append_column("freqs", freqs_list)
        return t.append_column("token_count", pa.array(token_count))


def make_tokenizer_stage(config: IndexConfig):
    tok = config.tokenizer

    def tokenize(t: pa.Table) -> pa.Table:
        return append_term_lists(t, tok)

    return tokenize
