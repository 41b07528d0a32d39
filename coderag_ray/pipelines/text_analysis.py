"""Text-analysis pipelines over a document table.

Large-scale training-data operations beyond the reference's scope:
language ID (stopword-profile heuristic), quality scoring
(length/punct/stopword ratios), whitespace token counting, and document
fingerprinting.  All are single vectorized ``map_batches`` passes
(Arrow kernels; no shuffle), and each has an exactly matching DuckDB
oracle in ``__ray_entry__.oracle_sql`` — floats are rounded to 6
decimals on both sides.
"""

from __future__ import annotations

import hashlib

import numpy as np

from coderag_ray.functions.rounding import round6
import pyarrow as pa
import pyarrow.compute as pc

# frozen specs shared with the SQL oracles ---------------------------------
STOPWORDS = ["the", "a", "of", "and", "to", "in", "is", "it"]
PUNCT_PATTERN = r"[a-zA-Z0-9_\s]"  # removed → what's left is "punctuation"
WS_SPLIT = r"\s+"

LANG_PROFILES: dict[str, list[str]] = {
    "de": ["der", "die", "das", "und", "nicht", "ist"],
    "en": ["the", "a", "of", "and", "to", "is"],
    "es": ["el", "la", "de", "que", "y", "es"],
    "fr": ["le", "la", "de", "et", "est", "les"],
}
CJK_PATTERN = r"[一-鿿]"
# lang_id_batch's profiles, alphabetical (the argmax tie order)
_LANGS = np.array(sorted(LANG_PROFILES), dtype=object)
_LANG_WORDS = [pa.array(sorted(set(LANG_PROFILES[lang]))) for lang in _LANGS]


def _nonempty_counts(split_list: pa.ListArray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(n_words, total_word_chars, parents) of non-empty split pieces."""
    flat = pc.list_flatten(split_list)
    lens = pc.list_value_length(split_list).to_numpy(zero_copy_only=False).astype(np.int64)
    parents = np.repeat(np.arange(len(split_list), dtype=np.int64), lens)
    wlen = pc.utf8_length(flat).to_numpy(zero_copy_only=False).astype(np.int64)
    keep = wlen > 0
    n_rows = len(split_list)
    n_words = np.bincount(parents[keep], minlength=n_rows).astype(np.int64)
    total_chars = np.bincount(parents[keep], weights=wlen[keep], minlength=n_rows).astype(np.int64)
    return n_words, total_chars, parents


def text_stats_batch(t: pa.Table) -> pa.Table:
    """doc_id, n_chars, n_words, avg_word_len, punct_ratio."""
    text = t["text"].combine_chunks() if isinstance(t["text"], pa.ChunkedArray) else t["text"]
    n_chars = pc.utf8_length(text).to_numpy(zero_copy_only=False).astype(np.int64)
    words = pc.split_pattern_regex(text, pattern=WS_SPLIT)
    n_words, total_wchars, _ = _nonempty_counts(words)
    stripped = pc.replace_substring_regex(text, pattern=PUNCT_PATTERN, replacement="")
    n_punct = pc.utf8_length(stripped).to_numpy(zero_copy_only=False).astype(np.int64)
    with np.errstate(divide="ignore", invalid="ignore"):
        awl = np.where(n_words > 0, round6(total_wchars / np.maximum(n_words, 1)), 0.0)
        pr = np.where(n_chars > 0, round6(n_punct / np.maximum(n_chars, 1)), 0.0)
    return pa.table(
        {
            "doc_id": pc.cast(t["doc_id"], pa.int64()),
            "n_chars": pa.array(n_chars),
            "n_words": pa.array(n_words),
            "avg_word_len": pa.array(awl),
            "punct_ratio": pa.array(pr),
        }
    )


def repetition_batch(t: pa.Table) -> pa.Table:
    """doc_id, n_lines, n_distinct_lines, top_line_count, rep_ratio —
    duplicate-line repetition (the boilerplate/log-spam signal a
    pretraining quality filter thresholds on).  Lines = nonempty
    ``\n``-split segments; rep_ratio = top_line_count / n_lines
    (round6), 0 for line-less docs.  Vectorized: one Arrow split +
    flatten, one pandas groupby over (doc, line) per batch — per-batch
    state only, no shuffle."""
    import pandas as pd

    text = t["text"].combine_chunks() if isinstance(t["text"], pa.ChunkedArray) else t["text"]
    lines = pc.split_pattern(text, pattern="\n")
    flat = pc.list_flatten(lines)
    lens = pc.list_value_length(lines).to_numpy(zero_copy_only=False).astype(np.int64)
    parents = np.repeat(np.arange(len(lines), dtype=np.int64), lens)
    keep = pc.greater(pc.utf8_length(flat), 0).to_numpy(zero_copy_only=False)
    parents = parents[keep]
    vals = flat.filter(pa.array(keep)).to_pylist()
    df = pd.DataFrame({"p": parents, "line": vals})
    n = t.num_rows
    n_lines = np.bincount(parents, minlength=n).astype(np.int64)
    if len(df):
        per = df.groupby(["p", "line"], sort=False).size().reset_index(name="c")
        gp = per.groupby("p")["c"]
        nd = gp.size()
        tc = gp.max()
        n_distinct = np.zeros(n, dtype=np.int64)
        top = np.zeros(n, dtype=np.int64)
        n_distinct[nd.index.to_numpy()] = nd.to_numpy()
        top[tc.index.to_numpy()] = tc.to_numpy()
    else:
        n_distinct = np.zeros(n, dtype=np.int64)
        top = np.zeros(n, dtype=np.int64)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(n_lines > 0, round6(top / np.maximum(n_lines, 1)), 0.0)
    return pa.table(
        {
            "doc_id": pc.cast(t["doc_id"], pa.int64()),
            "n_lines": pa.array(n_lines),
            "n_distinct_lines": pa.array(n_distinct),
            "top_line_count": pa.array(top),
            "rep_ratio": pa.array(ratio, type=pa.float64()),
        }
    )


def quality_batch(t: pa.Table) -> pa.Table:
    """doc_id, n_words, stopword_ratio, alpha_ratio, quality_score.

    quality_score = round(0.5*clip(n_words/100) + 0.3*(1-stopword_ratio)
                          + 0.2*alpha_ratio, 6) — an explicit, frozen
    heuristic mirrored in SQL.
    """
    text = t["text"].combine_chunks() if isinstance(t["text"], pa.ChunkedArray) else t["text"]
    lowered = pc.utf8_lower(text)
    words = pc.split_pattern_regex(lowered, pattern=WS_SPLIT)
    flat = pc.list_flatten(words)
    lens = pc.list_value_length(words).to_numpy(zero_copy_only=False).astype(np.int64)
    parents = np.repeat(np.arange(len(words), dtype=np.int64), lens)
    wl = pc.utf8_length(flat).to_numpy(zero_copy_only=False).astype(np.int64)
    keep = wl > 0
    n_rows = t.num_rows
    n_words = np.bincount(parents[keep], minlength=n_rows).astype(np.int64)
    is_stop = pc.is_in(flat, value_set=pa.array(STOPWORDS)).to_numpy(zero_copy_only=False)
    n_stop = np.bincount(parents[keep & is_stop], minlength=n_rows).astype(np.int64)

    n_chars = pc.utf8_length(text).to_numpy(zero_copy_only=False).astype(np.int64)
    alpha_only = pc.replace_substring_regex(text, pattern=r"[^a-zA-Z]", replacement="")
    n_alpha = pc.utf8_length(alpha_only).to_numpy(zero_copy_only=False).astype(np.int64)

    with np.errstate(divide="ignore", invalid="ignore"):
        swr = np.where(n_words > 0, n_stop / np.maximum(n_words, 1), 0.0)
        ar = np.where(n_chars > 0, n_alpha / np.maximum(n_chars, 1), 0.0)
        score = 0.5 * np.minimum(n_words / 100.0, 1.0) + 0.3 * (1.0 - swr) + 0.2 * ar
    return pa.table(
        {
            "doc_id": pc.cast(t["doc_id"], pa.int64()),
            "n_words": pa.array(n_words),
            "stopword_ratio": pa.array(round6(swr)),
            "alpha_ratio": pa.array(round6(ar)),
            "quality_score": pa.array(round6(score)),
        }
    )


def lang_id_batch(t: pa.Table) -> pa.Table:
    """doc_id, lang_pred: stopword-profile language ID.  The language
    with the most profile-word hits wins, ties going to the first in
    alphabetical order (frozen); any CJK character → ``zh``; no hit →
    ``und``."""
    text = t["text"].combine_chunks() if isinstance(t["text"], pa.ChunkedArray) else t["text"]
    words = pc.split_pattern_regex(pc.utf8_lower(text), pattern=WS_SPLIT)
    flat = pc.list_flatten(words)
    lens = pc.list_value_length(words).to_numpy(zero_copy_only=False).astype(np.int64)
    parents = np.repeat(np.arange(len(words), dtype=np.int64), lens)
    n_rows = t.num_rows
    has_cjk = pc.match_substring_regex(text, CJK_PATTERN).to_numpy(zero_copy_only=False)
    scores = np.zeros((len(_LANGS), n_rows), dtype=np.int64)
    for li, words_of_lang in enumerate(_LANG_WORDS):
        hit = pc.is_in(flat, value_set=words_of_lang).to_numpy(zero_copy_only=False)
        scores[li] = np.bincount(parents[hit], minlength=n_rows)
    best = np.argmax(scores, axis=0)  # ties → first (alphabetical) — frozen
    best_score = scores[best, np.arange(n_rows)]
    out = np.where(has_cjk, "zh", np.where(best_score > 0, _LANGS[best], "und"))
    return pa.table(
        {
            "doc_id": pc.cast(t["doc_id"], pa.int64()),
            "lang_pred": pa.array(out.tolist(), type=pa.string()),
        }
    )


def fingerprint_batch(t: pa.Table) -> pa.Table:
    """doc_id, fp = sha256 of whitespace-normalized lowercased text."""
    text = t["text"].combine_chunks() if isinstance(t["text"], pa.ChunkedArray) else t["text"]
    norm = pc.utf8_trim_whitespace(
        pc.replace_substring_regex(pc.utf8_lower(text), pattern=WS_SPLIT, replacement=" ")
    )
    fps = [hashlib.sha256(s.encode("utf-8")).hexdigest() for s in norm.to_pylist()]
    return pa.table(
        {"doc_id": pc.cast(t["doc_id"], pa.int64()), "fp": pa.array(fps, type=pa.string())}
    )


EMAIL_PATTERN = r"[A-Za-z0-9._%+\-]+@[A-Za-z0-9.\-]+\.[A-Za-z]{2,}"
URL_PATTERN = r"https?://[^\s]+"
NUMBER_PATTERN = r"[0-9]+"


def redact_batch(t: pa.Table) -> pa.Table:
    """PII redaction transform: emails → ``<EMAIL>``, URLs → ``<URL>``
    (applied in that order — an email inside a URL is already consumed
    by the URL's greedy non-space run only when the URL match comes
    FIRST, so the order is part of the frozen spec).  Emits
    (doc_id, n_redactions, redacted_sha256) — the sha proves the full
    transformed text byte-for-byte against the SQL oracle's identical
    RE2 ``regexp_replace`` chain without shipping the text."""
    from coderag_ray.functions.hashing import batch_sha256

    text = t["text"].combine_chunks() if isinstance(t["text"], pa.ChunkedArray) else t["text"]
    n_e = pc.count_substring_regex(text, EMAIL_PATTERN)
    red = pc.replace_substring_regex(text, pattern=EMAIL_PATTERN,
                                     replacement="<EMAIL>")
    n_u = pc.count_substring_regex(red, URL_PATTERN)
    red = pc.replace_substring_regex(red, pattern=URL_PATTERN,
                                     replacement="<URL>")
    n = pc.add(pc.cast(n_e, pa.int64()), pc.cast(n_u, pa.int64()))
    return pa.table(
        {
            "doc_id": pc.cast(t["doc_id"], pa.int64()),
            "n_redactions": n,
            "redacted_sha256": batch_sha256(red),
        }
    )


def pattern_stats_batch(t: pa.Table) -> pa.Table:
    """Per-doc pattern counts for PII-scrub / filtering signals:
    emails, URLs, integer runs — the regex-count stage every large-scale
    text pipeline runs before training.  Fully vectorized with Arrow's
    RE2 kernels; the DuckDB oracle uses the identical RE2 patterns
    (`regexp_extract_all`), so counts match exactly (non-overlapping
    leftmost semantics on both sides)."""
    text = t["text"].combine_chunks() if isinstance(t["text"], pa.ChunkedArray) else t["text"]
    return pa.table(
        {
            "doc_id": pc.cast(t["doc_id"], pa.int64()),
            "n_emails": pc.cast(pc.count_substring_regex(text, EMAIL_PATTERN), pa.int64()),
            "n_urls": pc.cast(pc.count_substring_regex(text, URL_PATTERN), pa.int64()),
            "n_numbers": pc.cast(pc.count_substring_regex(text, NUMBER_PATTERN), pa.int64()),
        }
    )


def benchmark_shingles(docs_ds, benchmark_max_id: int, n: int) -> set[str]:
    """Word n-gram shingles of the benchmark set: here the docs with
    ``doc_id < benchmark_max_id``, collected on the driver (an eval
    suite is tiny next to the corpus)."""
    from coderag_ray.pipelines.dedup import _word_shingles

    bench = docs_ds.map_batches(
        lambda t: t.filter(pc.less(pc.cast(t["doc_id"], pa.int64()), benchmark_max_id)),
        batch_format="pyarrow",
    ).to_pandas()
    out: set[str] = set()
    if "text" in bench.columns:  # empty corpus → column-less frame
        for text in bench["text"]:
            out |= _word_shingles(text, n)
    return out


def decontaminate(docs_ds, benchmark_max_id: int = 10, n: int = 8):
    """Benchmark decontamination: flag documents sharing word n-grams
    with a benchmark set (here: docs with ``doc_id < benchmark_max_id``
    — in production the benchmark shingle set comes from the eval
    suites).

    The benchmark shingle-hash set is built once (it is SMALL by
    definition — eval suites are tiny next to the corpus), broadcast
    via ``ray.put``, and every batch counts distinct-shingle overlap
    locally — no shuffle, no corpus-sized driver state.

    → Dataset (doc_id, n_shingles, n_overlap, contaminated:bool).
    """
    import ray

    from coderag_ray.pipelines.dedup import _word_shingles

    bench_ref = ray.put(benchmark_shingles(docs_ds, benchmark_max_id, n))

    def flag(t: pa.Table) -> pa.Table:
        bs = ray.get(bench_ref)
        ids, n_sh, n_ov = [], [], []
        for did, text in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            sh = _word_shingles(text, n)
            ids.append(did)
            n_sh.append(len(sh))
            n_ov.append(len(sh & bs))
        ov = np.array(n_ov, dtype=np.int64)
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "n_shingles": pa.array(n_sh, type=pa.int64()),
                "n_overlap": pa.array(ov, type=pa.int64()),
                "contaminated": pa.array(ov > 0),
            }
        )

    from coderag_ray.functions.datasets import schema_stable

    return schema_stable(
        docs_ds.map_batches(flag, batch_format="pyarrow"),
        pa.schema([("doc_id", pa.int64()), ("n_shingles", pa.int64()),
                   ("n_overlap", pa.int64()), ("contaminated", pa.bool_())]),
    )
