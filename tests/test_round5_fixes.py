"""Round-5 verdict items: schema stability on empty/degenerate inputs
(every map_groups / filter-heavy pipeline keeps its documented columns —
Ray drops empty blocks, see functions/datasets.py), the distributed
top-k reduction in knn_bruteforce, and the Dataset-returning distributed
CC labeling branch."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _events_table(rows=()):
    """(event_id, ts, user_id, event_type, value) — the events shape."""
    n = len(rows)
    return pa.table({
        "event_id": pa.array([r[0] for r in rows], type=pa.int64()),
        "ts": pa.array(pd.to_datetime([r[1] * 1_000_000 for r in rows],
                                      unit="us").astype("datetime64[us]")),
        "user_id": pa.array([r[2] for r in rows], type=pa.int64()),
        "event_type": pa.array([r[3] for r in rows], type=pa.string()),
        "value": pa.array([r[4] for r in rows], type=pa.float64()),
    }) if n else pa.table({
        "event_id": pa.array([], type=pa.int64()),
        "ts": pa.array([], type=pa.timestamp("us")),
        "user_id": pa.array([], type=pa.int64()),
        "event_type": pa.array([], type=pa.string()),
        "value": pa.array([], type=pa.float64()),
    })


def _docs_table(texts=()):
    return pa.table({
        "doc_id": pa.array(range(len(texts)), type=pa.int64()),
        "text": pa.array(list(texts), type=pa.string()),
    })


def _emb_table(n=0, d=4):
    return pa.table({
        "vec_id": pa.array(range(n), type=pa.int64()),
        "label": pa.array([0] * n, type=pa.int64()),
        "embedding": pa.array([[float(i + j) for j in range(d)] for i in range(n)],
                              type=pa.list_(pa.float32())),
    })


# the judge's round-4 falsifying input: zero probe events
VIEWS_ONLY = [(i, i, 0, "view", 1.0) for i in range(7)]


def test_temporal_join_views_only_has_documented_columns(ray_session):
    """Round-4 judge counterexample, pinned deterministic: a zero-probe
    stream returns an EMPTY result with the 8 documented columns."""
    import ray.data

    from coderag_ray.pipelines.events import TEMPORAL_SCHEMA, temporal_join

    ds = ray.data.from_arrow(_events_table(VIEWS_ONLY))
    out = temporal_join(ds, n_buckets=2)
    assert out.schema().names == TEMPORAL_SCHEMA.names
    df = out.to_pandas()
    assert list(df.columns) == TEMPORAL_SCHEMA.names
    assert len(df) == 0


EVENT_CASES = [
    ("tumbling", lambda m, ds: m.tumbling_window(ds),
     ["event_type", "window_start", "n_events", "sum_value"]),
    ("hopping", lambda m, ds: m.hopping_window(ds),
     ["event_type", "window_start", "n_events", "sum_value"]),
    ("sessions", lambda m, ds: m.session_windows(ds),
     ["user_id", "session_id", "session_start", "n_events"]),
    ("asof", lambda m, ds: m.asof_join(ds, n_buckets=2),
     ["event_id", "user_id", "ts_us", "value", "ref_event_id", "lag_us"]),
    ("range", lambda m, ds: m.range_join_agg(ds, n_buckets=2),
     ["event_id", "user_id", "ts_us", "n_ref", "sum_ref_value"]),
    ("temporal", lambda m, ds: m.temporal_join(ds, n_buckets=2),
     ["event_id", "user_id", "ts_us", "value", "ref_event_id", "lag_us",
      "n_ref", "sum_ref_value"]),
    ("props", lambda m, ds: m.props_stats(ds),
     ["event_type", "n_events", "sum_k", "max_k"]),
]


@pytest.mark.parametrize("name,run,cols", EVENT_CASES,
                         ids=[c[0] for c in EVENT_CASES])
@pytest.mark.parametrize("rows", [(), tuple(VIEWS_ONLY)], ids=["empty", "views_only"])
def test_event_pipelines_schema_stable_on_degenerate_input(ray_session, name,
                                                           run, cols, rows):
    import ray.data

    from coderag_ray.pipelines import events as m

    tbl = _events_table(list(rows))
    if name == "props" and len(rows):
        tbl = tbl.append_column("props", pa.array(['{"k": 1}'] * tbl.num_rows))
    elif name == "props":
        tbl = tbl.append_column("props", pa.array([], type=pa.string()))
    out = run(m, ray.data.from_arrow(tbl))
    df = out.to_pandas()
    assert list(df.columns) == cols, name


DOC_CASES = [
    ("exact_dedup", lambda ds: __import__(
        "coderag_ray.pipelines.dedup", fromlist=["x"]).exact_dedup(ds),
     ["content_sha256", "n_copies", "keeper_doc_id"]),
    ("curate", lambda ds: __import__(
        "coderag_ray.pipelines.curation", fromlist=["x"]).curate(ds),
     ["doc_id", "n_words", "stopword_ratio", "is_keeper", "contaminated",
      "kept", "reason"]),
    ("hash_sample", lambda ds: __import__(
        "coderag_ray.pipelines.sampling", fromlist=["x"]).hash_sample(ds, rate=0),
     ["doc_id", "bucket"]),
    ("split", lambda ds: __import__(
        "coderag_ray.pipelines.sampling", fromlist=["x"]).train_val_test_split(ds),
     ["doc_id", "bucket", "split"]),
    ("lang_quota", lambda ds: __import__(
        "coderag_ray.pipelines.sampling", fromlist=["x"]).lang_quota_sample(ds),
     ["doc_id", "lang_pred"]),
    ("simhash", lambda ds: __import__(
        "coderag_ray.pipelines.dedup", fromlist=["x"]).simhash_table(ds),
     ["doc_id", "simhash"]),
    ("decontaminate", lambda ds: __import__(
        "coderag_ray.pipelines.text_analysis", fromlist=["x"]).decontaminate(ds),
     ["doc_id", "n_shingles", "n_overlap", "contaminated"]),
]


@pytest.mark.parametrize("name,run,cols", DOC_CASES, ids=[c[0] for c in DOC_CASES])
def test_doc_pipelines_schema_stable_on_empty_corpus(ray_session, name, run, cols):
    import ray.data

    out = run(ray.data.from_arrow(_docs_table()))
    df = out.to_pandas()
    assert list(df.columns) == cols, name
    assert len(df) == 0


def test_mixture_sample_schema_stable_on_empty_corpus(ray_session):
    import ray.data

    from coderag_ray.pipelines.sampling import mixture_sample

    tbl = pa.table({"doc_id": pa.array([], type=pa.int64()),
                    "source": pa.array([], type=pa.string())})
    df = mixture_sample(ray.data.from_arrow(tbl)).to_pandas()
    assert list(df.columns) == ["doc_id", "group", "bucket"]


def test_embedding_dup_pairs_schema_stable_on_empty(ray_session):
    import ray.data

    from coderag_ray.pipelines.dedup import embedding_dup_pairs

    df = embedding_dup_pairs(ray.data.from_arrow(_emb_table(0))).to_pandas()
    assert list(df.columns) == ["label", "vec_a", "vec_b", "cos_sim"]


def test_ngram_scores_and_clusters_on_empty_and_no_pairs(ray_session):
    import ray.data

    from coderag_ray.pipelines.dedup import near_dup_clusters, ngram_jaccard_pairs

    # empty corpus
    out = ngram_jaccard_pairs(ray.data.from_arrow(_docs_table()))
    assert out.schema.names == ["doc_a", "doc_b", "n_common", "n_a", "n_b", "jaccard"]
    cl = near_dup_clusters(ray.data.from_arrow(_docs_table()))
    assert cl.schema.names == ["doc_id", "cluster_id"] and cl.num_rows == 0
    # corpus with zero qualifying pairs
    docs = _docs_table(["alpha beta gamma delta", "zz yy xx ww vv"])
    cl2 = near_dup_clusters(ray.data.from_arrow(docs), threshold=0.9)
    assert cl2.schema.names == ["doc_id", "cluster_id"] and cl2.num_rows == 0


# ---------------------------------------------------------------------------
# VERDICT r4 item 2 — knn_bruteforce driver state is O(k·|Q|)
# ---------------------------------------------------------------------------


def test_knn_bruteforce_driver_collect_bounded(ray_session, monkeypatch):
    """The driver pulls only the reduced top-k table: ≤ k·|Q| rows, not
    one candidate set per corpus block."""
    import ray.data
    from ray.data import Dataset

    from coderag_ray.pipelines.similarity import knn_bruteforce

    rng = np.random.default_rng(7)
    n, d, k = 400, 8, 5
    emb = pa.table({
        "vec_id": pa.array(range(n), type=pa.int64()),
        "embedding": pa.array(rng.standard_normal((n, d)).tolist(),
                              type=pa.list_(pa.float32())),
    })
    pulled = []
    orig = Dataset.to_pandas

    def spy(self, *a, **kw):
        df = orig(self, *a, **kw)
        pulled.append(len(df))
        return df

    monkeypatch.setattr(Dataset, "to_pandas", spy)
    qids = [0, 1, 2, 3]
    # many tiny blocks: the old direct collect scaled with block count
    out = knn_bruteforce(ray.data.from_arrow(emb).repartition(16), qids, k=k)
    monkeypatch.setattr(Dataset, "to_pandas", orig)
    assert max(pulled) <= k * len(qids) + len(qids), pulled  # + query grab rows
    # exactness unchanged: matches the direct numpy computation
    E = np.array(emb["embedding"].to_pylist(), dtype=np.float64)
    En = E / np.linalg.norm(E, axis=1, keepdims=True)
    df = out.to_pandas()
    for qi in qids:
        sims = En @ En[qi]
        order = np.lexsort((np.arange(n), -sims))
        want = [i for i in order if i != qi][:k]
        got = df[df.query_id == qi]["vec_id"].tolist()
        assert got == want, (qi, got, want)


# ---------------------------------------------------------------------------
# VERDICT r4 item 3 — distributed CC labeling returns a bounded-driver Dataset
# ---------------------------------------------------------------------------


def test_distributed_cc_returns_dataset_and_driver_bounded(ray_session, monkeypatch):
    import ray.data
    from ray.data import Dataset

    from coderag_ray.pipelines.dedup import clusters_from_edges_ds, clusters_from_pairs

    edges = [(i, i + 1) for i in range(200)] + [(500, 501), (501, 502)]
    tbl = pa.table({
        "doc_a": pa.array([a for a, _ in edges], type=pa.int64()),
        "doc_b": pa.array([b for _, b in edges], type=pa.int64()),
    })
    pulled = []
    orig = Dataset.to_pandas

    def spy(self, *a, **kw):
        df = orig(self, *a, **kw)
        pulled.append(len(df))
        return df

    monkeypatch.setattr(Dataset, "to_pandas", spy)
    out = clusters_from_edges_ds(ray.data.from_arrow(tbl).repartition(8),
                                 edge_budget=0)  # force distributed
    assert isinstance(out, Dataset)  # labels never materialize on the driver
    assert not pulled, pulled  # planning pulled nothing
    monkeypatch.setattr(Dataset, "to_pandas", orig)
    want = clusters_from_pairs(tbl).to_pandas()
    got = out.to_pandas()
    assert got.values.tolist() == want.values.tolist()


# ---------------------------------------------------------------------------
# round-5 review fixes: rows-estimate backstop, salted knn reduce,
# duplicate-id refine, idf thread safety
# ---------------------------------------------------------------------------


def test_rows_estimate_counts_derived_non_parquet(ray_session, tmp_path):
    """A JSONL-derived corpus (no parquet footers, no source metadata)
    must NOT silently estimate 0 → lo buckets: that under-sizes every
    bucketed groupby and puts rows/lo rows in one pandas group at scale.
    The count() backstop executes the plan once."""
    import ray.data

    from coderag_ray.config import auto_buckets, dataset_rows_estimate

    p = tmp_path / "docs.jsonl"
    p.write_text("\n".join('{"doc_id": %d, "text": "t%d"}' % (i, i)
                           for i in range(1000)))
    ds = ray.data.read_json(str(p)).map_batches(lambda t: t,
                                                batch_format="pyarrow")
    assert dataset_rows_estimate(ds) == 1000
    assert auto_buckets(ds, target_rows=10, lo=4, hi=1 << 20) >= 100


def test_knn_bruteforce_salted_two_level_reduce_matches(ray_session, monkeypatch):
    """When the candidate stream estimate is large, level-1 groups are
    salted by vec_id so no single group holds n_batches·(k+1) rows; the
    two-level reduce must return the identical exact top-k."""
    import ray.data

    import coderag_ray.config as cfg
    from coderag_ray.pipelines.similarity import knn_bruteforce

    rng = np.random.default_rng(11)
    n, d, k = 300, 8, 5
    emb = pa.table({
        "vec_id": pa.array(range(n), type=pa.int64()),
        "embedding": pa.array(rng.standard_normal((n, d)).tolist(),
                              type=pa.list_(pa.float32())),
    })
    qids = [0, 5, 9]
    ds = ray.data.from_arrow(emb).repartition(16)
    baseline = knn_bruteforce(ds, qids, k=k).to_pandas()

    real = cfg.dataset_rows_estimate

    def inflated(d_, **kw):
        # pretend the corpus is ~10^10 rows → n_salt >> 1
        return 10_000_000_000 if d_ is ds else real(d_, **kw)

    monkeypatch.setattr(cfg, "dataset_rows_estimate", inflated)
    salted = knn_bruteforce(ds, qids, k=k).to_pandas()
    assert salted.values.tolist() == baseline.values.tolist()


def test_ivfpq_refine_tolerates_duplicate_vec_ids(ray_session, tmp_path):
    """A reused/dirty embedding dataset can hold a duplicated vec_id;
    the vectorized refine must rank (keeping the last occurrence, like
    the old dict mapping) instead of raising InvalidIndexError."""
    import ray.data

    from coderag_ray.pipelines.similarity import ivfpq_knn

    rng = np.random.default_rng(3)
    n, d = 120, 16
    vids = list(range(n)) + [7]  # duplicate id 7
    E = rng.standard_normal((n + 1, d))
    E[-1] = E[7]  # same vector, duplicated row
    emb = pa.table({
        "vec_id": pa.array(vids, type=pa.int64()),
        "embedding": pa.array(E.tolist(), type=pa.list_(pa.float32())),
    })
    out = ivfpq_knn(ray.data.from_arrow(emb), [0, 1], k=3,
                    index_dir=str(tmp_path / "pq")).to_pandas()
    assert set(out["query_id"]) == {0, 1}
    assert (out.groupby("query_id").size() <= 3 + 1).all()


def test_idf_for_terms_thread_safe_single_full_load(ray_session, tmp_path):
    """Concurrent first-touch idf lookups (preload_async thread vs an
    early query) perform the full-vocabulary load exactly once."""
    import threading

    import ray.data

    from coderag_ray.config import IndexConfig
    from coderag_ray.corpus import make_corpus
    from coderag_ray.index.build import build_index
    from coderag_ray.index.reader import IndexReader

    idx = str(tmp_path / "idx")
    build_index(ray.data.from_arrow(make_corpus(n_docs=30, seed=7)), idx,
                IndexConfig(num_partitions=2))
    r = IndexReader(idx)
    loads = []
    inner_calls = []

    import pyarrow.dataset as pads
    real_dataset = pads.dataset

    def counting_dataset(*a, **kw):
        inner_calls.append(1)
        return real_dataset(*a, **kw)

    pads.dataset = counting_dataset
    try:
        errs = []

        def worker():
            try:
                loads.append(r.idf_for_terms(["self", "return", "def"]))
            except Exception as e:  # pragma: no cover
                errs.append(e)

        ts = [threading.Thread(target=worker) for _ in range(8)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
    finally:
        pads.dataset = real_dataset
    assert not errs
    # one full load (its count_rows probe + to_table share one dataset())
    assert sum(inner_calls) <= 2, inner_calls
    assert all(l == loads[0] for l in loads)


def test_probe_reduce_path_matches_direct(ray_session, tmp_path, monkeypatch):
    """Forcing the distributed candidate reduction (threshold 0) must
    return bit-identical LSH / IVF-PQ results to the direct driver
    merge — the reduce is exact (per-group top-k survivors dominate all
    dropped rows; sentinel scan sums are associative)."""
    import ray.data

    import coderag_ray.pipelines.similarity as sim

    rng = np.random.default_rng(5)
    n, d, k = 250, 16, 5
    emb = pa.table({
        "vec_id": pa.array(range(n), type=pa.int64()),
        "embedding": pa.array(rng.standard_normal((n, d)).tolist(),
                              type=pa.list_(pa.float32())),
    })
    ds = ray.data.from_arrow(emb)
    qids = [0, 3, 8]
    direct_lsh = sim.lsh_knn(ds, qids, k=k,
                             index_dir=str(tmp_path / "l1")).to_pandas()
    direct_pq = sim.ivfpq_knn(ds, qids, k=k,
                              index_dir=str(tmp_path / "p1")).to_pandas()
    monkeypatch.setattr(sim, "PROBE_REDUCE_THRESHOLD", 0)
    reduced_lsh = sim.lsh_knn(ds, qids, k=k,
                              index_dir=str(tmp_path / "l2")).to_pandas()
    reduced_pq = sim.ivfpq_knn(ds, qids, k=k,
                               index_dir=str(tmp_path / "p2")).to_pandas()
    assert reduced_lsh.values.tolist() == direct_lsh.values.tolist()
    assert reduced_pq.values.tolist() == direct_pq.values.tolist()
    # a huge scanned-rows estimate salts the reduce into two levels
    # (vec_id lanes per query); the layouts are reused so only the
    # probe sees the inflated estimate
    import coderag_ray.config as cfg
    import coderag_ray.stages.bucket_agg as bucket_agg

    keys, real_exchange = [], bucket_agg.exchange

    def spy(inputs, key, *a, **kw):
        keys.append(key)
        return real_exchange(inputs, key, *a, **kw)

    monkeypatch.setattr(bucket_agg, "exchange", spy)
    monkeypatch.setattr(cfg, "dataset_rows_estimate", lambda d_, **kw: 10_000_000_000)
    salted_lsh = sim.lsh_knn(ds, qids, k=k, index_dir=str(tmp_path / "l1")).to_pandas()
    salted_pq = sim.ivfpq_knn(ds, qids, k=k, index_dir=str(tmp_path / "p1")).to_pandas()
    assert salted_lsh.values.tolist() == direct_lsh.values.tolist()
    assert salted_pq.values.tolist() == direct_pq.values.tolist()
    assert keys == [("query_id", "lane"), "query_id"] * 2, keys


def test_duplicated_spans_counts_and_schema(ray_session):
    """Windowed substring-dup profile: two docs sharing a verbatim tail
    count exactly the windows inside the shared span; unique docs count
    zero; sub-window docs are excluded; empty corpus keeps the schema."""
    import ray.data

    from coderag_ray.pipelines.dedup import duplicated_spans

    shared = "the quick brown fox jumps over the lazy dog once more!!"
    docs = pa.table({
        "doc_id": pa.array([0, 1, 2, 3], type=pa.int64()),
        "text": pa.array(["A" * 20 + shared, "B" * 20 + shared,
                          "totally unique content that is long enough here",
                          "shr"]),
    })
    out = duplicated_spans(ray.data.from_arrow(docs), window=32, stride=8,
                           min_dup=2).to_pandas()
    # reference: brute-force in python
    texts = docs["text"].to_pylist()
    wins = {i: [t[o:o + 32] for o in range(0, len(t) - 31, 8)]
            for i, t in enumerate(texts) if len(t) >= 32}
    from collections import Counter
    docs_per_win = Counter()
    for i, ws in wins.items():
        for w in set(ws):
            docs_per_win[w] += 1
    want = {i: (len(ws), sum(1 for w in ws if docs_per_win[w] >= 2))
            for i, ws in wins.items()}
    got = {int(r.doc_id): (int(r.n_windows), int(r.n_dup_windows))
           for r in out.itertuples()}
    assert got == want
    assert 3 not in got  # len < window
    assert list(out.columns) == ["doc_id", "n_windows", "n_dup_windows",
                                 "dup_fraction"]
    empty = duplicated_spans(ray.data.from_arrow(
        pa.table({"doc_id": pa.array([], type=pa.int64()),
                  "text": pa.array([], type=pa.string())}))).to_pandas()
    assert list(empty.columns) == list(out.columns) and len(empty) == 0


def test_duplicated_spans_preserves_trailing_nul_bytes(ray_session):
    """Windows differing only in trailing NUL count must NOT compare
    equal (numpy S-dtype items strip trailing NULs; the window column is
    fixed-size binary built from the raw byte buffer instead)."""
    import ray.data

    from coderag_ray.pipelines.dedup import duplicated_spans

    # two docs whose 8-byte windows collide after NUL-stripping but
    # differ in raw bytes: "ab" + NULs vs "ab" + NULs + "x" shifted
    a = "ab" + "\x00" * 30
    b = "ab" + "\x00" * 29 + "q"
    docs = pa.table({"doc_id": pa.array([0, 1], type=pa.int64()),
                     "text": pa.array([a, b])})
    out = duplicated_spans(ray.data.from_arrow(docs), window=32, stride=8,
                           min_dup=2).to_pandas()
    # each doc has exactly one 32-byte window and they are DIFFERENT
    assert out["n_windows"].tolist() == [1, 1]
    assert out["n_dup_windows"].tolist() == [0, 0]
    # identical trailing-NUL windows still count as dups
    docs2 = pa.table({"doc_id": pa.array([0, 1], type=pa.int64()),
                      "text": pa.array([a, a])})
    out2 = duplicated_spans(ray.data.from_arrow(docs2), window=32, stride=8,
                            min_dup=2).to_pandas()
    assert out2["n_dup_windows"].tolist() == [1, 1]
