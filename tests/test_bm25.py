"""BM25 math tests mirroring tfidf.test.ts (IDF values, monotonic
ordering) against the frozen formulas."""

import math

import numpy as np

from coderag_ray.functions.bm25 import (
    avg_doc_length,
    bm25_term_score,
    effective_dl,
    idf_smoothed,
)


def test_idf_smoothed_never_zero():
    # storage-persistent.ts:1013-1019: ln((N+1)/(df+1)) + 1
    assert idf_smoothed(0, 0) == 1.0
    assert idf_smoothed(10, 10) == math.log(11 / 11) + 1 == 1.0
    # np.log, not math.log: the two differ in the last ulp; np.log is the
    # engine-wide standard (oracle parity is exact, DuckDB parity rounded).
    assert idf_smoothed(1, 100) == float(np.log(101 / 2) + 1)
    assert abs(idf_smoothed(1, 100) - (math.log(101 / 2) + 1)) < 1e-12
    assert (np.asarray(idf_smoothed(np.arange(100), 100)) > 0).all()


def test_idf_monotone_decreasing_in_df():
    v = idf_smoothed(np.arange(0, 50), 50)
    assert (np.diff(v) < 0).all()


def test_bm25_term_score_saturation_and_length_norm():
    idf, avgdl = 2.0, 100.0
    # increasing tf → increasing score with diminishing returns
    s = [bm25_term_score(tf, idf, 100, avgdl) for tf in (1, 2, 4, 8)]
    assert s == sorted(s)
    assert (s[1] - s[0]) > (s[3] - s[2])
    # longer doc → lower score
    assert bm25_term_score(2, idf, 50, avgdl) > bm25_term_score(2, idf, 200, avgdl)


def test_exact_value():
    # hand-computed: tf=3, idf=1.5, dl=120, avgdl=100, k1=1.2, b=0.75
    num = 3 * 2.2
    den = 3 + 1.2 * (1 - 0.75 + 0.75 * 120 / 100.0)
    assert bm25_term_score(3, 1.5, 120, 100.0) == 1.5 * (num / den)


def test_effective_dl_and_avgdl():
    assert effective_dl(0) == 1.0  # tfidf.ts:400
    assert effective_dl(7) == 7.0
    assert avg_doc_length(0, 0) == 1.0  # tfidf.ts:378
    assert avg_doc_length(10, 4) == 2.5  # zero-token chunks included in n

