"""The hash exchange (stages/bucket_agg.py): every row of a key reaches
one per-bucket call, the bucket column never leaves the primitive, and
no other module routes rows into buckets by hand."""

from __future__ import annotations

import os
import re
import uuid
from collections import Counter

import numpy as np
import pandas as pd
import pyarrow as pa
from hypothesis import given, settings, strategies as st

KEY_KINDS = {
    "int64": (("k0",), (pa.int64(),)),
    "uint64": (("k0",), (pa.uint64(),)),
    "string": (("k0",), (pa.string(),)),
    "two": (("k0", "k1"), (pa.int64(), pa.int64())),
}
_POOLS = {
    pa.int64(): [-(2**63), -7, 0, 1, 42, 2**40 + 3, 2**63 - 1],
    pa.uint64(): [0, 1, 99, 2**63, 2**64 - 1],
    pa.string(): ["", "a", "b", "sha-0f", "héllo", "x" * 40],
}


def _table(kind: str, picks: list[list[int]]) -> pa.Table:
    names, types = KEY_KINDS[kind]
    cols = {n: pa.array([_POOLS[t][p[i] % len(_POOLS[t])] for p in picks], type=t)
            for i, (n, t) in enumerate(zip(names, types))}
    return pa.table({**cols, "v": pa.array(np.arange(len(picks)), type=pa.int64())})


def _count_keys(key_names, key_types):
    """Per-bucket function: one row per distinct key with its row count,
    a per-call id, and the number of columns the call was given."""

    def fn(g: dict) -> pa.Table:
        keys = Counter(zip(*(g[n].tolist() for n in key_names)))
        call = uuid.uuid4().int >> 65
        cols = {n: pa.array([k[i] for k in keys], type=t)
                for i, (n, t) in enumerate(zip(key_names, key_types))}
        return pa.table({**cols,
                         "rows": pa.array(list(keys.values()), type=pa.int64()),
                         "call": pa.array([call] * len(keys), type=pa.int64()),
                         "ncols": pa.array([len(g)] * len(keys), type=pa.int64())})

    return fn


@settings(max_examples=12, deadline=None)
@given(kind=st.sampled_from(sorted(KEY_KINDS)),
       picks=st.lists(st.lists(st.integers(0, 6), min_size=2, max_size=2), max_size=60),
       nb=st.integers(1, 40), blocks=st.integers(1, 4))
def test_exchange_keeps_each_key_in_one_call(ray_session, kind, picks, nb, blocks):
    import ray.data

    from coderag_ray.stages.bucket_agg import exchange

    names, types = KEY_KINDS[kind]
    tbl = _table(kind, picks)
    key = names[0] if len(names) == 1 else names
    schema = pa.schema([*zip(names, types), ("rows", pa.int64()), ("call", pa.int64()),
                        ("ncols", pa.int64())])
    ds = ray.data.from_arrow(tbl)
    if blocks > 1 and tbl.num_rows:
        ds = ds.repartition(blocks)
    out = exchange(ds, key, nb, _count_keys(names, types), schema=schema)
    assert out.schema().names == schema.names  # typed, no bucket column
    df = out.to_pandas()
    assert list(df.columns) == schema.names
    assert (df["ncols"] == tbl.num_columns).all()  # the call saw plain rows
    assert not df.duplicated(subset=list(names)).any()  # no key split over calls
    want = Counter(zip(*(tbl[n].to_pylist() for n in names)))
    got = {tuple(r[:-1]): r[-1] for r in
           df[[*names, "rows"]].itertuples(index=False, name=None)}
    assert got == dict(want)  # every row of every key reached its call


def test_exchange_unions_routed_and_plain_inputs(ray_session):
    """An input materialized by ``routed`` for the same (key, nb) is used
    as is; one routed for another bucket count is routed again."""
    import ray.data

    from coderag_ray.stages.bucket_agg import bucket_count, exchange, routed

    a = pa.table({"k0": pa.array(range(0, 300, 3), type=pa.int64()),
                  "v": pa.array(range(100), type=pa.int64())})
    b = pa.table({"k0": pa.array(range(0, 300, 2), type=pa.int64()),
                  "v": pa.array(range(150), type=pa.int64())})
    ra = routed(ray.data.from_arrow(a), "k0", 7)
    rb = routed(ray.data.from_arrow(b), "k0", 5)
    assert bucket_count(ra) == 7
    fn = _count_keys(("k0",), (pa.int64(),))
    for inputs in ([ra, ray.data.from_arrow(b)], [ra, rb]):
        df = exchange(inputs, "k0", 7, fn).to_pandas()
        assert (df["ncols"] == 2).all()
        assert not df.duplicated(subset=["k0"]).any()
        want = Counter(a["k0"].to_pylist() + b["k0"].to_pylist())
        assert dict(zip(df["k0"], df["rows"])) == dict(want)


def test_exchange_empty_input_is_typed(ray_session):
    import ray.data

    from coderag_ray.stages.bucket_agg import exchange

    schema = pa.schema([("k0", pa.string()), ("rows", pa.int64()), ("call", pa.int64()),
                        ("ncols", pa.int64())])
    empty = pa.table({"k0": pa.array([], type=pa.string()), "v": pa.array([], type=pa.int64())})
    out = exchange(ray.data.from_arrow(empty), "k0", 16,
                   _count_keys(("k0",), (pa.string(),)), schema=schema)
    assert out.count() == 0
    assert out.schema().names == schema.names
    df = out.to_pandas()
    assert list(df.columns) == schema.names and len(df) == 0


def test_bucketed_groupby_sum_string_keys_match_pandas(ray_session):
    """The IDF merge's distributed path (taken above 256 MB of partials)
    is an exchange on string terms; its sums equal pandas'."""
    import ray.data

    from coderag_ray.stages.bucket_agg import bucketed_groupby_sum

    rng = np.random.default_rng(5)
    terms = [f"t{i}" for i in rng.integers(0, 400, 5000)] + ["", "é", "getUserById"]
    tbl = pa.table({"term": pa.array(terms, type=pa.string()),
                    "df_local": pa.array(rng.integers(1, 9, len(terms)), type=pa.int64())})
    got = (bucketed_groupby_sum(ray.data.from_arrow(tbl).repartition(6), "term", "df_local",
                                "df", num_buckets=13)
           .to_pandas().sort_values("term").reset_index(drop=True))
    want = (tbl.to_pandas().groupby("term", sort=True)["df_local"].sum()
            .rename("df").reset_index())
    pd.testing.assert_frame_equal(got[["term", "df"]], want, check_dtype=False)


_ROUTING = [
    re.compile(r"__bucket|ubucket"),
    re.compile(r"%\s*(np\.uint64\(\s*)?(nb|NB|nb_\w+|num_buckets|n_buckets)\b"),
    re.compile(r"crc32\("),
]
_ALLOWED = {os.path.join("stages", "bucket_agg.py"),  # the primitive
            os.path.join("pipelines", "packing.py")}  # order-preserving range buckets


def test_no_hand_rolled_bucket_routing():
    """Only the exchange primitive routes rows into hash buckets."""
    root = os.path.join(os.path.dirname(__file__), os.pardir, "coderag_ray")
    offenders = []
    for d, _, files in os.walk(root):
        for f in files:
            rel = os.path.relpath(os.path.join(d, f), root)
            if not f.endswith(".py") or rel in _ALLOWED:
                continue
            for i, line in enumerate(open(os.path.join(d, f), encoding="utf-8"), 1):
                if any(p.search(line) for p in _ROUTING):
                    offenders.append(f"{rel}:{i}: {line.strip()}")
    assert not offenders, "\n".join(offenders)
