"""Round-3 fixes: cache-key completeness, gitignore dir-only semantics,
scale-safe IVF training, lang-quota combiner under skew, missing-query-id
validation."""

import numpy as np
import pyarrow as pa
import pytest

from coderag_ray.query.cache import create_cache_key


# --------------------------------------------------------------------------
# cache key must separate engine-side kwargs (mode, min_score)
# --------------------------------------------------------------------------

def test_cache_key_separates_engine_kwargs():
    base = create_cache_key("Foo Bar", limit=10)
    assert create_cache_key("foo bar ", limit=10) == base  # ref normalization
    assert create_cache_key("Foo Bar", limit=10, extra={"mode": "cosine"}) != base
    assert create_cache_key("Foo Bar", limit=10, extra={"mode": "cosine"}) != \
        create_cache_key("Foo Bar", limit=10, extra={"mode": "bm25"})
    # canonical ordering: dict insertion order must not matter
    assert create_cache_key("q", extra={"a": 1, "b": 2}) == \
        create_cache_key("q", extra={"b": 2, "a": 1})


def test_cached_searcher_mode_not_cross_served(ray_session, tmp_path):
    import ray.data

    from coderag_ray.config import IndexConfig
    from coderag_ray.corpus import make_corpus
    from coderag_ray.index.build import build_index
    from coderag_ray.index.reader import IndexReader
    from coderag_ray.pipelines.hybrid import build_embeddings
    from coderag_ray.query.cache import CachedSearcher

    d = str(tmp_path / "idx")
    build_index(ray.data.from_arrow(make_corpus(60, seed=21)), d,
                IndexConfig(num_partitions=2))
    build_embeddings(d, dimensions=16)
    cs = CachedSearcher(IndexReader(d))
    bm = cs.search("validate credentials", 5, mode="bm25", with_doc_columns=False)
    cos = cs.search("validate credentials", 5, mode="cosine", with_doc_columns=False)
    # before the fix the second call returned the cached bm25 table
    assert "score" in bm.column_names
    assert cos["score"].to_pylist() != bm["score"].to_pylist()
    # and repeated identical calls DO hit the cache
    again = cs.search("validate credentials", 5, mode="cosine", with_doc_columns=False)
    assert again.equals(cos)
    assert cs.cache.stats().hits >= 1


# --------------------------------------------------------------------------
# gitignore: dir-only pattern must not match a plain file of that name
# --------------------------------------------------------------------------

def test_gitignore_dir_only_does_not_match_file():
    from coderag_ray.sources.files import GitignoreFilter

    ig = GitignoreFilter(["out/"])
    assert ig.ignores("out", is_dir=True)
    assert ig.ignores("out/main.js")        # file under the ignored dir
    assert not ig.ignores("out", is_dir=False)  # plain file named `out`
    assert not ig.ignores("src/out.ts")
    # non-dir-only pattern still matches both
    ig2 = GitignoreFilter(["out"])
    assert ig2.ignores("out", is_dir=False)
    assert ig2.ignores("out", is_dir=True)


# --------------------------------------------------------------------------
# IVF: derived sample_mod bounds the k-means training sample
# --------------------------------------------------------------------------

def test_derive_sample_mod_bounds_training_sample():
    from coderag_ray.pipelines.similarity import IVF_TRAIN_TARGET, derive_sample_mod

    assert derive_sample_mod(0) == 1
    assert derive_sample_mod(1000) == 1          # small corpora: train on all
    assert derive_sample_mod(IVF_TRAIN_TARGET) == 1
    for n in (IVF_TRAIN_TARGET + 1, 10**7, 10**11):
        mod = derive_sample_mod(n)
        # expected sample size n/mod stays within the target (±1 bucket)
        assert n / mod <= IVF_TRAIN_TARGET
        # and not wastefully small: halving mod would overflow the target
        assert mod == 1 or n / (mod - 1) > IVF_TRAIN_TARGET or mod - 1 == 0


# --------------------------------------------------------------------------
# kNN entry points raise on unknown query ids (no silent drops)
# --------------------------------------------------------------------------

def _emb_ds(n=40, d=8):
    import ray.data

    rng = np.random.default_rng(3)
    E = rng.standard_normal((n, d))
    return ray.data.from_arrow(pa.table({
        "vec_id": pa.array(np.arange(n, dtype=np.int64)),
        "embedding": pa.array(E.tolist(), type=pa.list_(pa.float64())),
    }))


@pytest.mark.parametrize("fn", ["knn_bruteforce", "lsh_knn", "ivf_knn"])
def test_knn_missing_query_id_raises(ray_session, fn):
    import coderag_ray.pipelines.similarity as sim

    ds = _emb_ds()
    with pytest.raises(KeyError, match="9999"):
        getattr(sim, fn)(ds, [1, 9999], k=3)


# --------------------------------------------------------------------------
# distributed connected components path == driver union-find
# --------------------------------------------------------------------------

def test_distributed_cc_equals_union_find(ray_session):
    import ray.data

    from coderag_ray.pipelines.dedup import clusters_from_edges_ds, clusters_from_pairs

    rng = np.random.default_rng(42)
    # random graph with long chains (stresses multi-round convergence)
    chains = []
    base = 0
    for clen in (2, 3, 7, 25, 60):
        chains += [(base + i, base + i + 1) for i in range(clen - 1)]
        base += clen + 3  # gaps → ids are not contiguous
    extra = rng.integers(500, 600, size=(40, 2))
    edges = chains + [(int(a), int(b)) for a, b in extra if a != b]
    tbl = pa.table({
        "doc_a": pa.array([min(a, b) for a, b in edges], type=pa.int64()),
        "doc_b": pa.array([max(a, b) for a, b in edges], type=pa.int64()),
    })
    want = clusters_from_pairs(tbl).to_pandas()
    ds = ray.data.from_arrow(tbl).repartition(8)
    got = clusters_from_edges_ds(ds, edge_budget=0).to_pandas()  # force distributed
    assert got.values.tolist() == want.values.tolist()


def test_near_dup_clusters_distributed_path_matches(ray_session):
    import ray.data

    from coderag_ray.pipelines.dedup import near_dup_clusters

    base = "the quick brown fox jumps over the lazy dog again and again today"
    texts = [base, base + " x", base + " y", "completely different content here",
             "completely different content here too", "unrelated words entirely"]
    tbl = pa.table({
        "doc_id": pa.array(range(len(texts)), type=pa.int64()),
        "text": pa.array(texts),
    })
    ds = ray.data.from_arrow(tbl)
    a = near_dup_clusters(ds, threshold=0.5).to_pandas()
    b = near_dup_clusters(ds, threshold=0.5, edge_budget=0).to_pandas()
    assert a.values.tolist() == b.values.tolist()
    assert len(a) > 0


# --------------------------------------------------------------------------
# lang_quota_sample: combiner correctness under multi-batch skew
# --------------------------------------------------------------------------

def test_lang_quota_sample_skewed_multibatch(ray_session):
    import ray.data

    from coderag_ray.pipelines.sampling import lang_quota_sample
    from coderag_ray.pipelines.text_analysis import lang_id_batch

    # 99% one language, spread over many blocks
    en = "the quick brown fox jumps over the lazy dog and runs away today"
    de = "der schnelle braune fuchs springt über den faulen hund und rennt"
    texts = [en + f" {i}" for i in range(990)] + [de + f" {i}" for i in range(10)]
    ids = list(range(1000))
    tbl = pa.table({"doc_id": pa.array(ids, type=pa.int64()),
                    "text": pa.array(texts)})
    ds = ray.data.from_arrow(tbl).repartition(16)
    quota = 7
    out = lang_quota_sample(ds, quota=quota).to_pandas()
    # ≤ quota per language, and exactly the smallest doc_ids of each
    truth = lang_id_batch(tbl).to_pandas()
    expect = (truth.sort_values("doc_id").groupby("lang_pred").head(quota))
    got = set(map(tuple, out[["doc_id", "lang_pred"]].itertuples(index=False)))
    want = set(map(tuple, expect[["doc_id", "lang_pred"]].itertuples(index=False)))
    assert got == want
    assert out.groupby("lang_pred").size().max() <= quota


# --------------------------------------------------------------------------
# champion-list early termination == exhaustive, always
# --------------------------------------------------------------------------

def test_champion_path_bitwise_equals_exhaustive(ray_session, tmp_path):
    import ray.data

    import coderag_ray.query.search as sm
    from coderag_ray.config import IndexConfig
    from coderag_ray.corpus import make_corpus
    from coderag_ray.index.build import build_index
    from coderag_ray.query.search import search

    # normal corpus + a flat-impact block (200 docs of identical text →
    # identical impacts, ties everywhere: the bound can never certify,
    # forcing the fallback) to exercise both branches
    base = make_corpus(150, seed=17)
    flat = pa.table({
        "repo": pa.array(["r"] * 200),
        "path": pa.array([f"flat/{i}.txt" for i in range(200)]),
        "commit": pa.array(["c"] * 200),
        "lang": pa.array(["text"] * 200),
        "content": pa.array(["common words shared by every flat document here"] * 200),
    })
    tbl = pa.concat_tables([base.select(flat.column_names), flat])
    d = str(tmp_path / "idx")
    build_index(ray.data.from_arrow(tbl), d, IndexConfig(num_partitions=3))

    queries = ["user authentication", "common words shared", "flat document",
               "validate credentials password", "shared by every",
               "nonexistent zzz", "database common connection"]
    orig = sm._champion_select
    try:
        # tiny C so the champion machinery actually engages on this corpus
        old_c = sm.CHAMPION_C
        sm.CHAMPION_C = 8
        for k in (1, 3, 10, 50):
            for q in queries:
                a = search(d, q, k, with_doc_columns=False)
                sm._champion_select = lambda *x: None  # force exhaustive
                b = search(d, q, k, with_doc_columns=False)
                sm._champion_select = orig
                assert a.equals(b), (q, k)
    finally:
        sm.CHAMPION_C = old_c
        sm._champion_select = orig


# --------------------------------------------------------------------------
# sequence packing: exact for sparse 63-bit ids (observed-span buckets)
# --------------------------------------------------------------------------

def test_pack_sequences_sparse_ids_exact(ray_session):
    import ray.data

    from coderag_ray.pipelines.packing import pack_sequences

    rng = np.random.default_rng(5)
    ids = np.sort(rng.choice(np.iinfo(np.int64).max // 2, size=300, replace=False))
    texts = ["word " * (int(i) % 37) for i in range(300)]
    tbl = pa.table({"doc_id": pa.array(ids, type=pa.int64()),
                    "text": pa.array(texts)})
    out = (pack_sequences(ray.data.from_arrow(tbl).repartition(8), seq_len=128)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    nt = np.array([len(t.split()) for t in texts], dtype=np.int64)
    keep = nt > 0
    off = np.r_[0, np.cumsum(nt)[:-1]][keep]
    assert (out["doc_id"].to_numpy() == ids[keep]).all()
    assert (out["offset"].to_numpy() == off).all()
    assert (out["start_bin"].to_numpy() == off // 128).all()


def test_pack_sequences_driver_state_bounded_and_lazy(ray_session, monkeypatch):
    """The packing path must stay distributed: the result is a lazy
    Dataset, and the only table the driver pulls during planning is the
    per-bucket totals (≤ num_buckets rows) — the docstring's own claim
    (VERDICT r3 item 2)."""
    import ray.data
    from ray.data import Dataset

    from coderag_ray.pipelines.packing import pack_sequences

    pulled = []
    orig = Dataset.to_pandas

    def spy(self, *a, **k):
        df = orig(self, *a, **k)
        pulled.append(len(df))
        return df

    monkeypatch.setattr(Dataset, "to_pandas", spy)
    tbl = pa.table({"doc_id": pa.array(np.arange(500), type=pa.int64()),
                    "text": pa.array(["tok " * (i % 9) for i in range(500)])})
    out = pack_sequences(ray.data.from_arrow(tbl).repartition(4),
                         seq_len=64, num_buckets=16)
    assert isinstance(out, Dataset)
    assert pulled and max(pulled) <= 16, pulled
    monkeypatch.setattr(Dataset, "to_pandas", orig)
    assert out.count() == 500 - len([i for i in range(500) if i % 9 == 0])


def test_pack_sequences_empty_input(ray_session):
    import ray.data

    from coderag_ray.pipelines.packing import pack_sequences

    tbl = pa.table({"doc_id": pa.array([], type=pa.int64()),
                    "text": pa.array([], type=pa.string())})
    out = pack_sequences(ray.data.from_arrow(tbl))
    assert out.count() == 0
    # schema contract survives the empty input (to_pandas drops columns
    # on 0-row datasets, so assert on the Dataset schema)
    assert out.schema().names == ["doc_id", "n_tokens", "offset",
                                  "start_bin", "end_bin"]
