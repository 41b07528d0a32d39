"""Round-2 regression tests: ADVICE fixes (knn boundary ties, 63-bit
doc-id pair keys) and the vectorized MinHash parity."""

import numpy as np
import pyarrow as pa
import pytest


def test_minhash_vectorized_matches_exact_bigint():
    from coderag_ray.pipelines.dedup import (
        _MERS_P,
        _MH_A,
        _MH_B,
        MINHASH_PERMS,
        minhash_signature,
    )

    rng = np.random.default_rng(99)
    for size in (1, 7, 333):
        h = rng.integers(0, 2**64, size=size, dtype=np.uint64)
        sig = minhash_signature(h)
        ref = np.empty(MINHASH_PERMS, dtype=np.uint64)
        ho = h.astype(object)
        for i in range(MINHASH_PERMS):
            vals = (int(_MH_A[i]) * ho + int(_MH_B[i])) % _MERS_P
            ref[i] = np.uint64(int(vals.min()))
        assert (sig == ref).all()
    # empty-set sentinel
    assert (minhash_signature(np.empty(0, dtype=np.uint64))
            == np.iinfo(np.uint64).max).all()


def test_mulmod61_exact_random():
    from coderag_ray.pipelines.dedup import _MERS_P, _mulmod61

    rng = np.random.default_rng(5)
    a = rng.integers(0, _MERS_P, size=1000).astype(np.uint64)
    b = rng.integers(0, _MERS_P, size=1000).astype(np.uint64)
    got = _mulmod61(a, b)
    ref = np.array([(int(x) * int(y)) % _MERS_P for x, y in zip(a, b)], dtype=np.uint64)
    assert (got == ref).all()
    # boundary values
    edge = np.array([0, 1, _MERS_P - 1, _MERS_P - 2], dtype=np.uint64)
    for x in edge:
        got = _mulmod61(np.full(4, x, dtype=np.uint64), edge)
        ref = np.array([(int(x) * int(y)) % _MERS_P for y in edge], dtype=np.uint64)
        assert (got == ref).all()


def test_ngram_jaccard_63bit_doc_ids(ray_session):
    """ADVICE: int64 pair packing silently corrupted doc_id >= 2^31;
    pairs are kept as two columns now."""
    import ray.data

    from coderag_ray.pipelines.dedup import ngram_jaccard_pairs

    big = 2**33
    tbl = pa.table(
        {
            "doc_id": pa.array([big + 5, big + 9, 3], type=pa.int64()),
            "text": ["a b c d e f", "a b c d e f", "x y z w q r"],
        }
    )
    out = ngram_jaccard_pairs(ray.data.from_arrow(tbl), top=10,
                              max_shingle_df=None).to_pandas()
    assert len(out) == 1
    assert (out.iloc[0].doc_a, out.iloc[0].doc_b) == (big + 5, big + 9)
    assert out.iloc[0].jaccard == 1.0


def test_ngram_jaccard_hot_shingle_cap(ray_session):
    """A shingle in every doc needs no cap: the prefix-filtered join
    returns the exact all-pairs result, and the removed cap raises."""
    import itertools

    import ray.data

    from coderag_ray.pipelines.dedup import _word_shingles, ngram_jaccard_pairs

    # 5 docs all share one shingle ("common x y"); docs 1/2 also share
    # a rare overlap
    docs = ["common x y " + f"unique{i} a{i} b{i}" for i in range(5)]
    docs[1] = "common x y same tail here"
    docs[2] = "common x y same tail here"
    tbl = pa.table({"doc_id": pa.array(list(range(5)), type=pa.int64()),
                    "text": docs})
    full = ngram_jaccard_pairs(ray.data.from_arrow(tbl), top=50,
                               max_shingle_df=None).to_pandas()
    sh = [_word_shingles(d) for d in docs]
    want = []
    for a, b in itertools.combinations(range(5), 2):
        c = len(sh[a] & sh[b])
        if c:
            want.append((a, b, c, len(sh[a]), len(sh[b]),
                         round(c / (len(sh[a]) + len(sh[b]) - c), 6)))
    want.sort(key=lambda r: (-r[5], r[0], r[1]))
    assert [tuple(r) for r in full.itertuples(index=False)] == want
    assert (full.doc_a[0], full.doc_b[0], full.jaccard[0]) == (1, 2, 1.0)
    with pytest.raises(ValueError, match="max_shingle_df"):
        ngram_jaccard_pairs(ray.data.from_arrow(tbl), top=50, max_shingle_df=4)


def test_knn_boundary_ties_keep_smallest_vec_id(ray_session):
    """ADVICE: argpartition kept an arbitrary subset of candidates tied
    at the k-boundary; exact duplicates must resolve by vec_id ASC."""
    import ray.data

    from coderag_ray.pipelines.similarity import knn_bruteforce

    v = [1.0, 0.0, 0.0]
    n = 50
    tbl = pa.table(
        {
            "vec_id": pa.array(list(range(n)), type=pa.int64()),
            "embedding": pa.array([v] * n, type=pa.list_(pa.float64())),
        }
    )
    out = knn_bruteforce(ray.data.from_arrow(tbl), [0], k=5).to_pandas()
    # all candidates tie at sim=1.0 → smallest vec_ids (excluding self) win
    assert out.vec_id.tolist() == [1, 2, 3, 4, 5]
    assert (out.cos_sim == 1.0).all()


def test_minhash_lsh_deterministic_and_distributed(ray_session):
    import ray.data

    from coderag_ray.pipelines.dedup import minhash_lsh_pairs

    rng = np.random.default_rng(3)
    texts, ids = [], []
    words = [f"tok{i}" for i in range(200)]
    for d in range(40):
        k = rng.integers(20, 40)
        texts.append(" ".join(rng.choice(words, size=k)))
        ids.append(d)
    # inject exact dup + near dup
    texts[10] = texts[5]
    texts[11] = texts[5] + " extra"
    tbl = pa.table({"doc_id": pa.array(ids, type=pa.int64()), "text": texts})
    out1 = minhash_lsh_pairs(ray.data.from_arrow(tbl)).to_pandas()
    out2 = minhash_lsh_pairs(ray.data.from_arrow(tbl)).to_pandas()
    assert out1.equals(out2)
    assert (5, 10) in set(zip(out1.doc_a, out1.doc_b))
    assert (out1.jaccard >= 0.5).all()
    # sorted output contract
    assert out1.sort_values(["doc_a", "doc_b"]).reset_index(drop=True).equals(
        out1.reset_index(drop=True))


def test_session_windows_timestamp_resolution(ray_session):
    """ADVICE: epoch-seconds conversion must be resolution-independent
    (ns-backed input must give the same sessions as µs-backed)."""
    import pandas as pd
    import ray.data

    from coderag_ray.pipelines.events import session_windows

    base = pd.Timestamp("2024-01-01 00:00:00")
    rows = pd.DataFrame(
        {
            "event_id": np.arange(4, dtype=np.int64),
            "user_id": np.zeros(4, dtype=np.int64),
            "ts": [base, base + pd.Timedelta(seconds=10),
                   base + pd.Timedelta(seconds=4000),
                   base + pd.Timedelta(seconds=4010)],
        }
    )
    rows["ts"] = rows["ts"].astype("datetime64[ns]")  # force ns resolution
    out = session_windows(ray.data.from_pandas(rows)).to_pandas()
    assert len(out) == 2
    starts = sorted(out.session_start)
    assert starts[1] - starts[0] == 4000


def test_lsh_bucket_layout_probed_not_scanned(ray_session, tmp_path):
    """The LSH index is a bucket-partitioned parquet layout and probes
    read only their buckets' files (partition pruning)."""
    import os

    import ray.data

    from coderag_ray.pipelines.similarity import (
        _normalize,
        _probe_buckets,
        build_lsh_index,
        knn_bruteforce,
        lsh_probe,
        probe_paths,
    )

    from coderag_ray.pipelines.similarity import layout_lsh_planes

    emb = ray.data.read_parquet("/root/testdata/sf0.001/embeddings.parquet")
    d = str(tmp_path / "lsh")
    n_planes = build_lsh_index(emb, d)
    all_parts = [n for n in os.listdir(d) if n.startswith("bucket=")]
    # plane count derives from corpus size; buckets bounded by 2^planes
    assert layout_lsh_planes(d) == n_planes
    assert 2 < len(all_parts) <= 2 ** n_planes

    q = emb.to_pandas().head(5).sort_values("vec_id")
    Q = np.stack(q["embedding"].to_numpy()).astype(np.float64)
    one_probe = _probe_buckets(_normalize(Q[:1]), 1, n_planes)[0]
    assert 0 < len(one_probe) < len(all_parts)  # pruned, not scanned
    assert len(probe_paths(d, one_probe)) > 0

    out = lsh_probe(d, q["vec_id"].to_numpy(), Q, k=3).to_pandas()
    # every returned similarity is the exact cosine (verified against
    # brute force), and scan counts stay bucket-sized
    bf = knn_bruteforce(emb, q["vec_id"].tolist(), k=499).to_pandas()
    bfmap = {(r.query_id, r.vec_id): r.cos_sim for r in bf.itertuples()}
    for r in out.itertuples():
        assert abs(bfmap[(r.query_id, r.vec_id)] - r.cos_sim) < 2e-6
    if len(out):
        assert (out.n_scanned < 500).all()


def test_session_windows_two_phase_hot_user(ray_session):
    """A hot user whose events span many coarse buckets gets exactly the
    same sessions as the single-phase computation; phase-1 groups stay
    bucket-sized."""
    import pandas as pd
    import ray.data

    from coderag_ray.pipelines.events import session_windows

    rng = np.random.default_rng(11)
    base = 1_700_000_000
    # hot user 7: 5000 events over ~10 days (bursts with >gap holes)
    ts = [base]
    for _ in range(4999):
        step = int(rng.integers(1, 60)) if rng.random() < 0.97 else 2000
        ts.append(ts[-1] + step)
    hot = pd.DataFrame({
        "event_id": np.arange(5000, dtype=np.int64),
        "user_id": np.full(5000, 7, dtype=np.int64),
        "ts": pd.to_datetime(np.array(ts) * 1_000_000_000),
    })
    cold = pd.DataFrame({
        "event_id": np.arange(5000, 5004, dtype=np.int64),
        "user_id": np.full(4, 8, dtype=np.int64),
        "ts": pd.to_datetime((base + np.array([0, 10, 4000, 4005])) * 1_000_000_000),
    })
    df = pd.concat([hot, cold], ignore_index=True)
    # shuffle rows + force many blocks: phase-1 islands are computed on
    # arbitrary batch cuts and must still merge to the exact sessions
    df = df.sample(frac=1.0, random_state=0).reset_index(drop=True)
    out = session_windows(ray.data.from_pandas(df).repartition(9)).to_pandas()

    # single-phase reference computed directly
    def ref_sessions(sub):
        s = np.sort(sub)
        brk = np.ones(len(s), dtype=bool)
        brk[1:] = (s[1:] - s[:-1]) > 1800
        sid = np.cumsum(brk) - 1
        return {int(i): (int(s[sid == i].min()), int((sid == i).sum()))
                for i in np.unique(sid)}

    for uid, sub in (("hot", np.array(ts)), ("cold", base + np.array([0, 10, 4000, 4005]))):
        u = 7 if uid == "hot" else 8
        ref = ref_sessions(sub)
        got = out[out.user_id == u].sort_values("session_id")
        assert len(got) == len(ref), (uid, len(got), len(ref))
        for r in got.itertuples():
            assert ref[int(r.session_id)] == (int(r.session_start), int(r.n_events))


def test_ivf_knn_probes_centroids_and_exact_sims(ray_session, tmp_path):
    """IVF: k-means bucket layout built once, probes read only n_probe
    centroid partitions, candidate sims are exact cosines."""
    import os

    import ray.data

    from coderag_ray.pipelines.similarity import (
        build_ivf_index,
        ivf_probe,
        knn_bruteforce,
        probe_paths,
    )

    emb = ray.data.read_parquet("/root/testdata/sf0.001/embeddings.parquet")
    d = str(tmp_path / "ivf")
    C = build_ivf_index(emb, d, n_centroids=16)
    assert C.shape[0] == 16
    parts = [n for n in os.listdir(d) if n.startswith("bucket=")]
    assert 2 <= len(parts) <= 16

    q = emb.to_pandas().head(5).sort_values("vec_id")
    Q = np.stack(q["embedding"].to_numpy()).astype(np.float64)
    out = ivf_probe(d, q["vec_id"].to_numpy(), Q, k=3, n_probe=2).to_pandas()
    assert len(out) > 0
    # probes only touch n_probe buckets per query
    assert len(probe_paths(d, {0, 1})) < len(probe_paths(d, set(range(16))))
    bf = knn_bruteforce(emb, q["vec_id"].tolist(), k=499).to_pandas()
    bfmap = {(r.query_id, r.vec_id): r.cos_sim for r in bf.itertuples()}
    for r in out.itertuples():
        assert abs(bfmap[(r.query_id, r.vec_id)] - r.cos_sim) < 2e-6
        assert r.vec_id != r.query_id
    # determinism
    out2 = ivf_probe(d, q["vec_id"].to_numpy(), Q, k=3, n_probe=2).to_pandas()
    assert out.equals(out2)
    # probing every centroid scans every vector: the probe is then the
    # exact top-k, row for row (the same scan, reduce and merge)
    full = ivf_probe(d, q["vec_id"].to_numpy(), Q, k=3, n_probe=16).to_pandas()
    assert (full.n_scanned == 499).all()
    exact = knn_bruteforce(emb, q["vec_id"].tolist(), k=3).to_pandas()
    assert full.drop(columns="n_scanned").values.tolist() == exact.values.tolist()


def test_hopping_window_each_event_in_overlap_factor_windows(ray_session):
    import pandas as pd
    import ray.data

    from coderag_ray.pipelines.events import hopping_window

    base = 1_700_000_000 - (1_700_000_000 % 3600)  # aligned hour
    rows = pd.DataFrame({
        "event_id": np.arange(3, dtype=np.int64),
        "event_type": ["a", "a", "b"],
        "ts": pd.to_datetime((base + np.array([10, 1810, 10])) * 1_000_000_000),
        "value": [1.0, 2.0, 3.0],
    })
    out = hopping_window(ray.data.from_pandas(rows), width_seconds=3600,
                         hop_seconds=1800).to_pandas()
    # every event covered by exactly W/H = 2 windows
    assert out.n_events.sum() == 6
    a = out[out.event_type == "a"].set_index("window_start").n_events.to_dict()
    # event@10 → windows base-1800, base; event@1810 → base, base+1800
    assert a == {base - 1800: 1, base: 2, base + 1800: 1}


def test_near_dup_clusters_transitive(ray_session):
    """A≈B and B≈C (but A≉C directly) must land in one cluster with the
    min doc_id as the canonical label."""
    import ray.data

    from coderag_ray.pipelines.dedup import near_dup_clusters

    a = " ".join(f"w{i}" for i in range(12))
    b = " ".join(f"w{i}" for i in range(2, 14))   # high overlap with a
    c = " ".join(f"w{i}" for i in range(4, 16))   # high overlap with b
    d = " ".join(f"v{i}" for i in range(12))      # unrelated
    tbl = pa.table({"doc_id": pa.array([5, 9, 2, 7], type=pa.int64()),
                    "text": [a, b, c, d]})
    out = near_dup_clusters(ray.data.from_arrow(tbl), threshold=0.5,
                            max_shingle_df=None).to_pandas()
    got = dict(zip(out.doc_id, out.cluster_id))
    assert got == {2: 2, 5: 2, 9: 2}  # transitively connected, min label
    assert 7 not in got  # no qualifying pair → not clustered


def test_pattern_stats_counts(ray_session):
    import ray.data

    from coderag_ray.pipelines.text_analysis import pattern_stats_batch

    tbl = pa.table({
        "doc_id": pa.array([1, 2], type=pa.int64()),
        "text": ["mail a@b.co and c.d+x@e-f.org, see https://x.io/p?q=1 v2 4.5",
                 "no patterns here"],
    })
    out = ray.data.from_arrow(tbl).map_batches(
        pattern_stats_batch, batch_format="pyarrow").to_pandas().set_index("doc_id")
    assert out.loc[1, "n_emails"] == 2
    assert out.loc[1, "n_urls"] == 1
    assert out.loc[1, "n_numbers"] == 4  # 1 (in url), 2, 4, 5
    assert (out.loc[2] == 0).all()


def test_decontaminate_flags_benchmark_overlap(ray_session):
    import ray.data

    from coderag_ray.pipelines.text_analysis import decontaminate

    bench = " ".join(f"b{i}" for i in range(20))
    leak = " ".join(f"b{i}" for i in range(8))  # shares an 8-gram with bench
    clean = " ".join(f"c{i}" for i in range(20))
    tbl = pa.table({"doc_id": pa.array([0, 50, 51], type=pa.int64()),
                    "text": [bench, leak, clean]})
    out = (decontaminate(ray.data.from_arrow(tbl), benchmark_max_id=10, n=8)
           .to_pandas().set_index("doc_id"))
    assert bool(out.loc[50, "contaminated"]) is True
    assert bool(out.loc[51, "contaminated"]) is False
    assert out.loc[0, "n_overlap"] == out.loc[0, "n_shingles"]  # bench vs itself


def test_frame_sample_expansion_and_stub(ray_session):
    import hashlib

    import pytest
    import ray.data

    from coderag_ray.pipelines.multimodal import (
        decode_video_frames,
        frame_sample_batch,
        frame_samples,
    )

    big = "x" * 10000  # 10000 bytes → 10000//4096 % 8 + 1 = 3 frames
    small = "tiny"
    tbl = pa.table({"doc_id": pa.array([1, 2], type=pa.int64()),
                    "text": [big, small]})
    out = frame_samples(ray.data.from_arrow(tbl)).to_pandas()
    g = out.groupby("doc_id").frame_idx.max().to_dict()
    assert g == {1: 2, 2: 0}  # 3 frames and 1 frame, 0-based
    row = out[(out.doc_id == 1) & (out.frame_idx == 1)].iloc[0]
    assert row.frame_sha256 == hashlib.sha256(big.encode() + b"1").hexdigest()
    with pytest.raises(NotImplementedError):
        decode_video_frames(b"")
    with pytest.raises(NotImplementedError):
        frame_sample_batch(
            pa.table({"doc_id": pa.array([1], type=pa.int64()),
                      "payload": pa.array([b"x"], type=pa.binary())}),
            use_real_decoder=True)


def test_resize_plan_aspect_ratio(ray_session):
    from coderag_ray.pipelines.multimodal import resize_plan_batch

    t = pa.table({
        "doc_id": pa.array([1, 2], type=pa.int64()),
        "fake_width": pa.array([64, 16], type=pa.int64()),
        "fake_height": pa.array([48, 8], type=pa.int64()),
    })
    out = resize_plan_batch(t).to_pandas().set_index("doc_id")
    assert (out.loc[1, "out_width"], out.loc[1, "out_height"]) == (32, 24)
    assert bool(out.loc[1, "scaled"]) is True
    assert (out.loc[2, "out_width"], out.loc[2, "out_height"]) == (16, 8)
    assert bool(out.loc[2, "scaled"]) is False


def test_curation_reason_precedence(ray_session):
    import ray.data

    from coderag_ray.pipelines.curation import curate

    good = " ".join(f"word{i}" for i in range(30))
    bench = " ".join(f"bench{i}" for i in range(20))
    leak = " ".join(f"bench{i}" for i in range(8)) + " " + " ".join(f"x{i}" for i in range(10))
    short = "too short"
    # doc 14 duplicates doc 13 (good) → duplicate; precedence:
    # low_quality > duplicate > contaminated (ids ≥ 10 so none are
    # accidentally part of the benchmark set)
    tbl = pa.table({
        "doc_id": pa.array([0, 13, 14, 20, 30, 40], type=pa.int64()),
        "text": [bench, good, good, leak, short, good],
    })
    out = curate(ray.data.from_arrow(tbl), min_words=10, max_stopword_ratio=0.7,
                 benchmark_max_id=10, ngram=8).to_pandas().set_index("doc_id")
    assert out.loc[0, "reason"] == "contaminated"  # bench doc overlaps itself
    assert out.loc[13, "reason"] == "kept" and bool(out.loc[13, "kept"])
    assert out.loc[14, "reason"] == "duplicate"
    assert out.loc[20, "reason"] == "contaminated"
    assert out.loc[30, "reason"] == "low_quality"
    assert out.loc[40, "reason"] == "duplicate"
    assert not out.loc[out.index != 13, "kept"].any()


def test_no_schema_hash_warnings_in_shuffle_logs():
    """VERDICT r1 item 4: the bench-time 'Failed to hash the schemas'
    warning (unhashable b'pandas' schema metadata reaching a shuffle)
    must not fire, nor Ray's 'RefBundle with a different schema' warning
    for the 0-row bundles of empty exchange buckets. Runs shuffle-heavy
    pipelines in a subprocess and asserts the combined driver+worker log
    stream is clean."""
    import os
    import subprocess
    import sys

    script = """
import ray
ray.init(address="local", num_cpus=4, include_dashboard=False)
import ray.data
from coderag_ray.pipelines.events import session_windows, tumbling_window
from coderag_ray.pipelines.dedup import exact_dedup, near_dup_clusters, ngram_jaccard_pairs
ev = ray.data.read_parquet("/root/testdata/sf0.001/events.parquet")
session_windows(ev).count()
tumbling_window(ev).count()
docs = ray.data.read_parquet("/root/testdata/sf0.001/documents.parquet")
ngram_jaccard_pairs(docs, top=5)
near_dup_clusters(docs)
exact_dedup(docs).count()
ray.shutdown()
print("DONE_OK")
"""
    r = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        cwd="/root/repo", timeout=300,
        env={**os.environ, "PYTHONPATH": "/root/repo"},
    )
    out = r.stdout + r.stderr
    assert r.returncode == 0 and "DONE_OK" in r.stdout, out[-800:]
    assert "Failed to hash the schemas" not in out
    assert "unhashable type" not in out
    assert "RefBundle with a different schema" not in out


def test_clusters_from_minhash_pairs(ray_session):
    """clusters_from_pairs composes with minhash_lsh_pairs output."""
    import ray.data

    from coderag_ray.pipelines.dedup import clusters_from_pairs, minhash_lsh_pairs

    base = " ".join(f"w{i}" for i in range(60))
    tbl = pa.table({
        "doc_id": pa.array([10, 20, 30, 40], type=pa.int64()),
        "text": [base, base + " x", base + " y", " ".join(f"v{i}" for i in range(60))],
    })
    pairs = minhash_lsh_pairs(ray.data.from_arrow(tbl))
    out = clusters_from_pairs(pairs).to_pandas()
    got = dict(zip(out.doc_id, out.cluster_id))
    assert got.get(10) == 10 and got.get(20) == 10 and got.get(30) == 10
    assert 40 not in got


def test_hash_sample_deterministic_and_rate(ray_session):
    import ray.data

    from coderag_ray.pipelines.sampling import hash_sample

    tbl = pa.table({"doc_id": pa.array(list(range(10000)), type=pa.int64()),
                    "text": [""] * 10000})
    out1 = hash_sample(ray.data.from_arrow(tbl), rate=10).to_pandas()
    out2 = hash_sample(ray.data.from_arrow(tbl), rate=10).to_pandas()
    assert sorted(out1.doc_id) == sorted(out2.doc_id)  # reproducible subset
    assert 0.07 < len(out1) / 10000 < 0.13  # ~10%
    assert (out1.bucket < 10).all()
    # rate=100 keeps everything
    assert len(hash_sample(ray.data.from_arrow(tbl), rate=100).to_pandas()) == 10000


def test_lang_quota_caps_per_language(ray_session):
    import ray.data

    from coderag_ray.pipelines.sampling import lang_quota_sample

    en = "the cat is one of the animals and it is small"
    de = "der hund ist nicht das problem und die katze"
    docs = [en] * 30 + [de] * 5
    tbl = pa.table({"doc_id": pa.array(list(range(35)), type=pa.int64()),
                    "text": docs})
    out = lang_quota_sample(ray.data.from_arrow(tbl), quota=10).to_pandas()
    counts = out.groupby("lang_pred").size().to_dict()
    assert counts.get("en") == 10  # capped
    assert counts.get("de") == 5   # under quota, all kept
    # deterministic: the smallest doc_ids win
    assert sorted(out[out.lang_pred == "en"].doc_id) == list(range(10))
