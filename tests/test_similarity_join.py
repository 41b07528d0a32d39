"""The exact prefix-filtered similarity join behind ngram_jaccard_pairs
and near_dup_clusters: equality with a pure-Python all-pairs Jaccard,
bounded driver collects, no hot-shingle blow-up, and the connected-
components contracts (loud non-convergence, doc_id order on many
blocks)."""

import itertools

import pyarrow as pa
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coderag_ray.pipelines.dedup import _word_shingles

BIG = 2**62


def _table(texts, ids=None):
    ids = list(range(len(texts))) if ids is None else ids
    return pa.table({"doc_id": pa.array(ids, type=pa.int64()),
                     "text": pa.array(texts, type=pa.string())})


def _brute_pairs(texts, ids):
    """(doc_a, doc_b, n_common, n_a, n_b, jaccard) for every pair sharing
    a shingle, by pure-Python set intersection."""
    sh = {i: _word_shingles(t, 3) for i, t in zip(ids, texts)}
    out = []
    for a, b in itertools.combinations(sorted(ids), 2):
        c = len(sh[a] & sh[b])
        if c:
            out.append((a, b, c, len(sh[a]), len(sh[b]),
                        c / (len(sh[a]) + len(sh[b]) - c)))
    return out


def _brute_top(texts, ids, k):
    pairs = sorted(_brute_pairs(texts, ids), key=lambda r: (-r[5], r[0], r[1]))
    return [r[:5] + (round(r[5], 6),) for r in pairs[:k]]


def _brute_clusters(texts, ids, t):
    parent = {}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for a, b, *_, j in _brute_pairs(texts, ids):
        if j >= t:
            parent.setdefault(a, a)
            parent.setdefault(b, b)
            ra, rb = find(a), find(b)
            parent[max(ra, rb)] = min(ra, rb)
    return {d: find(d) for d in parent}


def _rows(tbl):
    return [(int(a), int(b), int(c), int(na), int(nb), float(j))
            for a, b, c, na, nb, j in tbl.to_pandas().itertuples(index=False)]


def _labels(out):
    df = out.to_pandas()
    return dict(zip(df.doc_id.astype(int), df.cluster_id.astype(int)))


_WORDS = st.sampled_from(["a", "b", "c", "d", "e"])
_HEADER = "h1 h2 h3 "
# pairs at exactly J = t for a non-dyadic t, where the float filter
# bounds round up past an integer: 0.55 * 100 = 55.00000000000001 (b's
# 55 shingles are a subset of a's 100), and 0.2 / 1.2 * 18 =
# 3.0000000000000004 (a and b share 3 of 9 shingles each)
_W = [f"w{i}" for i in range(102)]
_AT_055 = [" ".join(_W), " ".join(_W[:57]), "z y x w"]
_AT_02 = ["x1 x2 x3 x4 x5 x6 s1 s2 s3 s4 s5", "y1 y2 y3 y4 y5 y6 s1 s2 s3 s4 s5", "z y x w"]


@settings(max_examples=6, deadline=None)
@given(
    texts=st.lists(st.lists(_WORDS, max_size=9).map(" ".join), min_size=2, max_size=10),
    big_ids=st.booleans(),
    k=st.integers(1, 8),
    t=st.sampled_from([0.5, 0.7, 0.3, 0.2]),
)
# a shingle present in every doc
@example(texts=[_HEADER + "a b", _HEADER + "c d", _HEADER + "a b", _HEADER + "e",
                _HEADER + "a b c d"], big_ids=False, k=3, t=0.5)
# empty and one-word docs
@example(texts=["", "a", "a", "a b", "", "b"], big_ids=True, k=4, t=0.5)
# J exactly at t = 0.5 (2 shared of 4), at t = 0.55 and at t = 0.2
@example(texts=["w0 w1 w2 w3 w4", "w1 w2 w3 w4 w5", "q r s"], big_ids=False, k=1, t=0.5)
@example(texts=_AT_055, big_ids=True, k=1, t=0.55)
@example(texts=_AT_02, big_ids=False, k=2, t=0.2)
# ties at the k-th pair: four identical docs give six pairs at J = 1
@example(texts=["a b c d"] * 4 + ["a b c e"], big_ids=True, k=3, t=0.7)
def test_join_matches_bruteforce(ray_session, texts, big_ids, k, t):
    import ray.data

    from coderag_ray.pipelines.dedup import near_dup_clusters, ngram_jaccard_pairs

    ids = [BIG + 3 * i + 1 for i in range(len(texts))] if big_ids else list(range(len(texts)))
    tbl = _table(texts, ids)
    top = ngram_jaccard_pairs(ray.data.from_arrow(tbl), n=3, top=k)
    assert _rows(top) == _brute_top(texts, ids, k)
    got = _labels(near_dup_clusters(ray.data.from_arrow(tbl), threshold=t))
    assert got == _brute_clusters(texts, ids, t)


def test_threshold_join_keeps_exact_boundary_pairs(ray_session):
    """The prefix, length and positional bounds are computed in floats;
    a pair at exactly J = t must survive where t·|s| or t/(1+t)·(|a|+|b|)
    rounds up past an integer."""
    import ray.data

    from coderag_ray.pipelines.dedup import _similar_pairs

    for texts, t, n_common in ((_AT_055, 0.55, 55), (_AT_02, 0.2, 3)):
        got = _similar_pairs(ray.data.from_arrow(_table(texts)), 3, t).to_pandas()
        assert [tuple(r) for r in got[["doc_a", "doc_b", "n_common"]].itertuples(index=False)] \
            == [(0, 1, n_common)]
        assert [r[:3] for r in _brute_pairs(texts, range(3)) if r[5] >= t] == [(0, 1, n_common)]


def test_verify_and_count_plans_agree(ray_session, monkeypatch):
    """The join verifies prefix candidates or counts every shared
    shingle, whichever moves fewer rows; both plans are exact, so each
    must give the brute-force rows at any t, also when a pair's
    meetings fall into several shingle buckets and are summed later."""
    import ray.data

    import coderag_ray.config
    from coderag_ray.pipelines.dedup import (_candidates, _count_pairs, _ranked_doc_rows,
                                             _verify_pairs)

    texts = [_HEADER + "p q r s t u"] * 3 + [_HEADER + "p q r s t v", _HEADER + "p q x"]
    texts += [_HEADER + f"x{i} y{i} z{i}" for i in range(6)] + ["", "solo"]
    ranked, n_meet = _ranked_doc_rows(ray.data.from_arrow(_table(texts)), 3)
    # a pair of docs meets once per shared shingle
    assert n_meet == sum(r[2] for r in _brute_pairs(texts, range(len(texts))))
    for t in (0.2, 0.5, 0.7, 1.0):
        want = [r for r in _brute_pairs(texts, range(len(texts))) if r[5] >= t]
        cand = _candidates(ranked, t, n_meet=2**62)  # never cheaper to count
        verified = sorted(_rows(_verify_pairs(cand, ranked, t)))
        counted = sorted(_rows(_count_pairs(ranked, t, n_meet)))
        assert verified == counted == want, t
    assert _candidates(ranked, 0.0, n_meet) is None  # t = 0 always counts
    # a corpus this small counts in one shingle bucket; force eight
    monkeypatch.setattr(coderag_ray.config, "auto_buckets", lambda *a, **kw: 8)
    want = [r for r in _brute_pairs(texts, range(len(texts))) if r[5] >= 0.2]
    assert sorted(_rows(_count_pairs(ranked, 0.2, n_meet))) == want


def test_minhash_without_candidates_is_typed_empty(ray_session):
    import ray.data

    from coderag_ray.pipelines.dedup import minhash_lsh_pairs

    texts = [f"a{i} b{i} c{i} d{i} e{i}" for i in range(20)]
    out = minhash_lsh_pairs(ray.data.from_arrow(_table(texts)))
    assert out.num_rows == 0
    assert out.schema == pa.schema([("doc_a", pa.int64()), ("doc_b", pa.int64()),
                                    ("jaccard", pa.float64())])


def test_driver_collects_are_bounded(ray_session, monkeypatch):
    """ngram_jaccard_pairs brings at most ``top`` rows to the driver at
    any descent step; near_dup_clusters below ``edge_budget`` brings only
    the ≥t edges."""
    import ray.data
    from ray.data import Dataset

    from coderag_ray.pipelines.dedup import near_dup_clusters, ngram_jaccard_pairs

    # 10 near-identical docs (45 pairs at J ≥ 0.5) plus 30 that share
    # only a header shingle: top=60 has to descend to t = 0
    texts = [_HEADER + "p q r s t u"] * 5 + [_HEADER + "p q r s t v"] * 5
    texts += [_HEADER + f"x{i} y{i} z{i}" for i in range(30)]
    ids = list(range(len(texts)))
    pulled = []
    orig = Dataset.to_pandas

    def spy(self, *a, **kw):
        df = orig(self, *a, **kw)
        pulled.append(len(df))
        return df

    monkeypatch.setattr(Dataset, "to_pandas", spy)
    for top in (5, 60):
        pulled.clear()
        out = ngram_jaccard_pairs(ray.data.from_arrow(_table(texts)), top=top)
        assert out.num_rows == top and pulled and max(pulled) <= top, pulled
    pulled.clear()
    out = near_dup_clusters(ray.data.from_arrow(_table(texts)), threshold=0.5)
    n_edges = sum(1 for r in _brute_pairs(texts, ids) if r[5] >= 0.5)
    assert pulled == [n_edges], pulled
    monkeypatch.setattr(Dataset, "to_pandas", orig)
    assert _labels(out) == _brute_clusters(texts, ids, 0.5)


def test_one_shingle_in_every_doc_needs_no_cap(ray_session):
    """A few hundred docs share one header shingle and are otherwise
    distinct: the exact result comes back with no df cap."""
    import ray.data

    from coderag_ray.pipelines.dedup import near_dup_clusters, ngram_jaccard_pairs

    texts = [_HEADER + f"u{i} v{i} w{i} x{i}" for i in range(300)]
    texts[7] = texts[8] = _HEADER + "same tail words here"
    ids = list(range(len(texts)))
    top = ngram_jaccard_pairs(ray.data.from_arrow(_table(texts)), top=20)
    assert _rows(top) == _brute_top(texts, ids, 20)
    got = _labels(near_dup_clusters(ray.data.from_arrow(_table(texts)), threshold=0.5))
    assert got == _brute_clusters(texts, ids, 0.5) == {7: 7, 8: 7}


def test_cc_star_rounds_raises_without_convergence(ray_session):
    import ray.data

    from coderag_ray.pipelines.dedup import _cc_star_rounds

    chain = pa.table({"doc_a": pa.array(range(50), type=pa.int64()),
                      "doc_b": pa.array(range(1, 51), type=pa.int64())})
    with pytest.raises(RuntimeError, match="did not converge"):
        _cc_star_rounds(ray.data.from_arrow(chain), num_buckets=8, max_rounds=1)


def test_distributed_outputs_sorted_on_many_blocks(ray_session):
    """``sorted by doc_id`` holds on many blocks because the sort is the
    last operator; empty results still come back typed."""
    import ray.data

    from coderag_ray.pipelines.dedup import clusters_from_edges_ds, duplicated_spans

    edges = [(i, i + 1) for i in range(0, 400, 2)] + [(1000 + i, 999 - i) for i in range(50)]
    tbl = pa.table({"doc_a": pa.array([min(e) for e in edges], type=pa.int64()),
                    "doc_b": pa.array([max(e) for e in edges], type=pa.int64())})
    out = clusters_from_edges_ds(
        ray.data.from_items(tbl.to_pylist(), override_num_blocks=16), edge_budget=0).to_pandas()
    assert out["doc_id"].is_monotonic_increasing and len(out) == 2 * len(edges)
    texts = [("abcdefgh" * 8)[i % 8:] + f"-{i}-" + "0123456789" * 4 for i in range(64)]
    spans = duplicated_spans(ray.data.from_items(
        [{"doc_id": 63 - i, "text": t} for i, t in enumerate(texts)], override_num_blocks=16),
        window=16, stride=4).to_pandas()
    assert spans["doc_id"].is_monotonic_increasing and len(spans) == 64
    empty = duplicated_spans(ray.data.from_arrow(_table(["short"])), window=32)
    assert list(empty.to_pandas().columns) == ["doc_id", "n_windows", "n_dup_windows",
                                               "dup_fraction"]
