"""Pipeline tests over the driver's sf0.001 tables: dedup family,
similarity, events windows, multimodal stub, text analysis."""

import numpy as np
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"


def _docs(ray_session):
    import ray.data

    return ray.data.read_parquet(f"{SF}/documents.parquet")


def test_exact_dedup_finds_injected_dups(ray_session):
    import ray.data

    from coderag_ray.pipelines.dedup import exact_dedup

    tbl = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], type=pa.int64()),
            "text": ["same text", "same text", "other", "same text"],
        }
    )
    out = exact_dedup(ray.data.from_arrow(tbl)).to_pandas()
    assert len(out) == 2
    dup = out[out.n_copies == 3].iloc[0]
    assert dup.keeper_doc_id == 1


def test_ngram_jaccard_identical_docs_score_one(ray_session):
    import ray.data

    from coderag_ray.pipelines.dedup import ngram_jaccard_pairs

    tbl = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], type=pa.int64()),
            "text": ["a b c d e f", "a b c d e f", "x y z w q r"],
        }
    )
    out = ngram_jaccard_pairs(ray.data.from_arrow(tbl), top=10).to_pandas()
    assert len(out) == 1
    assert (out.iloc[0].doc_a, out.iloc[0].doc_b, out.iloc[0].jaccard) == (1, 2, 1.0)


def test_minhash_finds_near_duplicates(ray_session):
    import ray.data

    from coderag_ray.pipelines.dedup import minhash_lsh_pairs

    base = " ".join(f"w{i}" for i in range(60))
    near = " ".join(f"w{i}" for i in range(58)) + " zz1 zz2"
    other = " ".join(f"v{i}" for i in range(60))
    tbl = pa.table(
        {"doc_id": pa.array([10, 20, 30], type=pa.int64()),
         "text": [base, near, other]}
    )
    out = minhash_lsh_pairs(ray.data.from_arrow(tbl), jaccard_threshold=0.5).to_pandas()
    assert (10, 20) in set(zip(out.doc_a, out.doc_b))
    assert not any(30 in p for p in zip(out.doc_a, out.doc_b))


def test_simhash_similar_docs_close_hamming(ray_session):
    import ray.data

    from coderag_ray.pipelines.dedup import simhash_table

    base = " ".join(f"w{i}" for i in range(100))
    near = " ".join(f"w{i}" for i in range(99)) + " different"
    other = " ".join(f"v{i}" for i in range(100))
    tbl = pa.table(
        {"doc_id": pa.array([1, 2, 3], type=pa.int64()), "text": [base, near, other]}
    )
    out = simhash_table(ray.data.from_arrow(tbl)).to_pandas().set_index("doc_id")

    def ham(a, b):
        return bin(int(a) ^ int(b)).count("1")

    assert ham(out.loc[1].simhash, out.loc[2].simhash) < ham(out.loc[1].simhash, out.loc[3].simhash)
    # determinism
    out2 = simhash_table(ray.data.from_arrow(tbl)).to_pandas().set_index("doc_id")
    assert (out.simhash == out2.simhash).all()


def test_knn_self_similarity_excluded_and_sorted(ray_session):
    import ray.data

    from coderag_ray.pipelines.similarity import knn_bruteforce

    emb = ray.data.read_parquet(f"{SF}/embeddings.parquet")
    out = knn_bruteforce(emb, [0, 1, 2], k=4).to_pandas()
    assert set(out.query_id) == {0, 1, 2}
    for q, grp in out.groupby("query_id"):
        assert len(grp) == 4
        assert q not in set(grp.vec_id)
        sims = grp.cos_sim.to_numpy()
        assert (np.diff(sims) <= 1e-12).all()


def test_lsh_knn_subset_of_bruteforce_space(ray_session):
    import ray.data

    from coderag_ray.pipelines.similarity import lsh_knn

    emb = ray.data.read_parquet(f"{SF}/embeddings.parquet")
    out = lsh_knn(emb, [0, 1, 2, 3, 4], k=3).to_pandas()
    # approximate: returns plausible neighbors with fewer scans than N
    if len(out):
        assert (out.n_scanned < 500).all()


def test_tumbling_window_totals(ray_session):
    import ray.data

    from coderag_ray.pipelines.events import tumbling_window

    ev = ray.data.read_parquet(f"{SF}/events.parquet")
    out = tumbling_window(ev).to_pandas()
    assert out.n_events.sum() == 1000  # every event in exactly one window
    assert (out.window_start % 3600 == 0).all()


def test_session_windows_gap_semantics(ray_session):
    import pandas as pd
    import ray.data

    from coderag_ray.pipelines.events import session_windows

    ts = pd.to_datetime(
        ["2024-01-01 00:00:00", "2024-01-01 00:10:00",  # same session
         "2024-01-01 01:30:00",  # gap > 30min → new session
         "2024-01-01 01:40:00"]
    ).astype("datetime64[us]")
    tbl = pa.table(
        {
            "event_id": pa.array([1, 2, 3, 4], type=pa.int64()),
            "ts": pa.array(ts),
            "user_id": pa.array([7, 7, 7, 7], type=pa.int64()),
        }
    )
    out = session_windows(ray.data.from_arrow(tbl)).to_pandas().sort_values("session_id")
    assert list(out.n_events) == [2, 2]
    assert list(out.session_id) == [0, 1]


def _synthetic_events(n=400, seed=11):
    """Adversarial temporal-join fixture: coarse second-resolution
    timestamps force plenty of exact ties (probe==ref ts, ref==ref ts),
    user 0 is hot (~half the rows), and some probes precede any ref."""
    rng = np.random.default_rng(seed)
    users = np.where(rng.random(n) < 0.5, 0, rng.integers(1, 9, n))
    ts_s = rng.integers(0, 120, n) * 1_000_000  # µs, 120 distinct seconds
    types = rng.choice(["purchase", "view", "click"], n, p=[0.4, 0.4, 0.2])
    import pandas as pd
    return pa.table({
        "event_id": pa.array(np.arange(n, dtype=np.int64)),
        "ts": pa.array(pd.to_datetime(ts_s, unit="us").astype("datetime64[us]")),
        "user_id": pa.array(users.astype(np.int64)),
        "event_type": pa.array(types),
        "value": pa.array(np.round(rng.random(n) * 100, 2)),
    })


def test_asof_join_matches_bruteforce(ray_session):
    import ray.data

    from coderag_ray.pipelines.events import asof_join

    tbl = _synthetic_events()
    out = (asof_join(ray.data.from_arrow(tbl), n_buckets=4)
           .to_pandas().set_index("event_id").sort_index())
    df = tbl.to_pandas()
    df["ts_us"] = df["ts"].astype("int64")
    probes = df[df.event_type == "purchase"]
    refs = df[df.event_type == "view"]
    assert len(out) == len(probes) and len(probes) > 50
    for _, p in probes.iterrows():
        cand = refs[(refs.user_id == p.user_id) & (refs.ts_us <= p.ts_us)]
        got = out.loc[p.event_id]
        if cand.empty:
            assert got.ref_event_id == -1 and got.lag_us == -1
        else:
            best = cand.sort_values(["ts_us", "event_id"]).iloc[-1]
            assert got.ref_event_id == best.event_id
            assert got.lag_us == p.ts_us - best.ts_us
        assert got.value == p.value


def test_range_join_matches_bruteforce(ray_session):
    import ray.data

    from coderag_ray.pipelines.events import range_join_agg

    W = 30  # seconds — small enough that windows are partial
    tbl = _synthetic_events(seed=13)
    out = (range_join_agg(ray.data.from_arrow(tbl), window_seconds=W, n_buckets=4)
           .to_pandas().set_index("event_id").sort_index())
    df = tbl.to_pandas()
    df["ts_us"] = df["ts"].astype("int64")
    probes = df[df.event_type == "purchase"]
    refs = df[df.event_type == "view"]
    assert len(out) == len(probes)
    for _, p in probes.iterrows():
        lo, hi = p.ts_us - W * 1_000_000, p.ts_us
        cand = refs[(refs.user_id == p.user_id)
                    & (refs.ts_us >= lo) & (refs.ts_us < hi)]
        got = out.loc[p.event_id]
        assert got.n_ref == len(cand)
        assert abs(got.sum_ref_value - round(float(cand.value.sum()), 6)) < 1e-6


def test_range_join_null_ref_value_matches_sql_sum(ray_session):
    """A NULL reference value must not poison later windows in the
    bucket: SQL sum() skips NULLs (count(r.ts_us) still counts the
    row); the segmented-sum path treats NaN as 0, which is the same
    contract."""
    import pandas as pd
    import ray.data

    from coderag_ray.pipelines.events import range_join_agg

    ts = pd.to_datetime([0, 10, 20, 30], unit="s").astype("datetime64[us]")
    tbl = pa.table({
        "event_id": pa.array([0, 1, 2, 3], type=pa.int64()),
        "ts": pa.array(ts),
        "user_id": pa.array([5, 5, 5, 5], type=pa.int64()),
        "event_type": pa.array(["view", "view", "purchase", "purchase"]),
        "value": pa.array([2.5, None, 1.0, 1.0], type=pa.float64()),
    })
    out = (range_join_agg(ray.data.from_arrow(tbl), window_seconds=3600)
           .to_pandas().set_index("event_id").sort_index())
    # both probes see both views; the NULL view contributes 0 to the
    # sum but still counts as a row
    assert list(out.n_ref) == [2, 2]
    assert list(out.sum_ref_value) == [2.5, 2.5]


def test_temporal_join_equals_asof_plus_range(ray_session):
    """The single-exchange combined operator must equal the two
    standalone operators joined on the (unique) probe event id."""
    import ray.data

    from coderag_ray.pipelines.events import asof_join, range_join_agg, temporal_join

    W = 30
    tbl = _synthetic_events(seed=17)
    ds = lambda: ray.data.from_arrow(tbl)  # noqa: E731
    combined = (temporal_join(ds(), window_seconds=W, n_buckets=4)
                .to_pandas().set_index("event_id").sort_index())
    a = asof_join(ds(), n_buckets=4).to_pandas().set_index("event_id").sort_index()
    r = (range_join_agg(ds(), window_seconds=W, n_buckets=4)
         .to_pandas().set_index("event_id").sort_index())
    assert len(combined) == len(a) == len(r) and len(combined) > 50
    for col in ("user_id", "ts_us", "value", "ref_event_id", "lag_us"):
        assert (combined[col] == a[col]).all()
    assert (combined["n_ref"] == r["n_ref"]).all()
    assert (combined["sum_ref_value"] == r["sum_ref_value"]).all()


def test_media_features_deterministic_fake(ray_session):
    from coderag_ray.pipelines.multimodal import decode_image, media_feature_batch

    t = pa.table(
        {"doc_id": pa.array([1], type=pa.int64()), "payload": pa.array([b"hello world"])}
    )
    out = media_feature_batch(t)
    assert out["n_bytes"][0].as_py() == 11
    assert out["fake_width"][0].as_py() == 12
    import hashlib

    assert out["payload_sha256"][0].as_py() == hashlib.sha256(b"hello world").hexdigest()
    with pytest.raises(NotImplementedError):
        decode_image(b"\x89PNG")


def test_langid_cjk_and_profiles(ray_session):
    from coderag_ray.pipelines.text_analysis import lang_id_batch

    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], type=pa.int64()),
            "text": ["the cat and the dog is here", "der hund und die katze ist",
                     "你好世界", "qwerty zxcvb"],
        }
    )
    out = lang_id_batch(t)
    assert out["lang_pred"].to_pylist() == ["en", "de", "zh", "und"]


def test_mock_embedding_matches_reference_semantics():
    from coderag_ray.functions.embeddings import js_string_hash, mock_embedding

    # JS parity: hash("abc") = 96354 (31*31*97 + 31*98 + 99)
    assert js_string_hash("abc") == 96354
    assert js_string_hash("") == 0
    v = mock_embedding("hello", 64)
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12
    assert np.array_equal(v, mock_embedding("hello", 64))  # deterministic


def test_embedding_provider_registry_and_compose():
    import numpy as np

    from coderag_ray.functions.embeddings import EmbeddingProviderRegistry, registry

    mock = registry.create("mock", dimensions=16)
    out = mock(["a", "b"])
    assert out.shape == (2, 16)
    with pytest.raises(KeyError):
        registry.create("openai")

    calls = []

    def failing(texts):
        calls.append("primary")
        raise RuntimeError("provider down")

    composed = EmbeddingProviderRegistry.compose(failing, mock)
    out2 = composed(["x"])
    assert calls == ["primary"] and out2.shape == (1, 16)  # fell back


def test_js_string_hash_vectorized_parity():
    """The vectorized rolling hash must reproduce the scalar JS loop
    (Math.imul(31,h)+code | 0) bit-for-bit."""
    import random

    from coderag_ray.functions.embeddings import js_string_hash

    def scalar(text):
        h = 0
        units = np.frombuffer(text.encode("utf-16-le"), dtype="<u2")
        for c in units.tolist():
            h = (31 * h + c) & 0xFFFFFFFF
        return h - 0x100000000 if h >= 0x80000000 else h

    random.seed(4)
    cases = ["", "a", "Hello World", "☃ unicode ü", "x" * 5000] + [
        "".join(chr(random.randint(32, 0x2FFF)) for _ in range(random.randint(1, 300)))
        for _ in range(100)
    ]
    for t in cases:
        assert js_string_hash(t) == scalar(t)


def test_ivfpq_layout_codes_only_and_recall_floor(ray_session, tmp_path):
    """IVF-PQ (the embedding MEMORY scale path): the layout stores only
    (vec_id, codes, bucket) — no float vectors — and ADC + exact-refine
    recall@5 vs the brute-force scan stays above the frozen floor."""
    import os

    import pyarrow.parquet as pq_
    import ray.data

    from coderag_ray.pipelines.similarity import (
        PQ_SUBSPACES, build_ivfpq_index, ivfpq_knn, knn_bruteforce)

    src = f"{SF}/embeddings.parquet"
    ds = lambda: ray.data.read_parquet(src)  # noqa: E731
    idx = str(tmp_path / "ivfpq")
    build_ivfpq_index(ds(), idx)
    # layout holds codes, never the embedding column
    bucket_files = [os.path.join(r, f) for r, _, fs in os.walk(idx)
                    for f in fs if f.endswith(".parquet")]
    assert bucket_files
    schema = pq_.ParquetFile(bucket_files[0]).schema_arrow
    assert "embedding" not in schema.names
    assert schema.field("codes").type == pa.binary(PQ_SUBSPACES)
    # recall floor (measured 0.82 at this scale; frozen with margin)
    qids = list(range(10))
    ex = knn_bruteforce(ds(), qids, 5).to_pandas()
    exact = {q: set(g["vec_id"]) for q, g in ex.groupby("query_id")}
    ap = ivfpq_knn(ds(), qids, 5, n_probe=4, index_dir=idx).to_pandas()
    rec = np.mean([len(set(g["vec_id"]) & exact[q]) / len(exact[q])
                   for q, g in ap.groupby("query_id")])
    assert rec >= 0.6, rec
    # self excluded, exact-refined scores sorted per query
    assert not (ap["query_id"] == ap["vec_id"]).any()
    for _, g in ap.groupby("query_id"):
        s = g["cos_sim"].to_numpy()
        assert (np.diff(s) <= 1e-12).all()
    # deterministic: a rebuild returns identical results
    idx2 = str(tmp_path / "ivfpq2")
    ap2 = ivfpq_knn(ds(), qids, 5, n_probe=4, index_dir=idx2).to_pandas()
    assert ap.equals(ap2)
