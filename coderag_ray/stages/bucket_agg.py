"""The hash exchange: the one way rows reach their key's bucket.

Every distributed operator that needs all rows of a key in one place —
the IDF merge, exact dedup, the similarity join, connected components,
MinHash candidates, substring windows, the kNN reduces, curation,
sessions and the temporal joins — has the same shape: hash the key into
``nb`` buckets, shuffle on the bucket, then run ONE vectorized function
per bucket.  Ray Data's per-key ``groupby(key)`` pays Python overhead per
distinct key (measured: ~1.2M distinct keys ≈ 300 s on 16 CPUs); a
bucket count derived from the input size (``config.auto_buckets``)
keeps that overhead O(buckets) with exact results and the same shuffle
volume.

:func:`exchange` owns that shape: it appends the bucket column, unions
the inputs, shuffles with Ray's default sort shuffle, drops the bucket
column before the per-bucket function sees its rows, and conforms the
result to a declared schema.  :func:`routed` materializes an
intermediate that feeds several exchanges on one key with its bucket
column already in place, so it is routed once.

The one routing decision, :func:`hash_buckets`, per key type:

- integer column: ``splitmix64(key) % nb``;
- string column: ``crc32(utf-8 bytes) % nb``;
- fixed-size binary column: a 64-bit FNV-1a fold of the bytes, then
  ``splitmix64(fold) % nb``;
- several integer columns ``(a, b, …)``: ``h = a``, then per further
  column ``h = splitmix64(h·φ ^ splitmix64(c))``, then ``h % nb``.
"""

from __future__ import annotations

import zlib

import numpy as np
import pandas as pd
import pyarrow as pa

from coderag_ray.functions.datasets import schema_stable
from coderag_ray.functions.hashing import splitmix64

_BUCKET = "__bucket"
_PHI = np.uint64(0x9E3779B97F4A7C15)
_FNV_OFFSET = np.uint64(14695981039346656037)
_FNV_PRIME = np.uint64(1099511628211)


def _keys(key) -> tuple[str, ...]:
    return (key,) if isinstance(key, str) else tuple(key)


def _uint64(col) -> np.ndarray:
    if not pa.types.is_integer(col.type):
        raise TypeError(f"multi-column exchange keys must be integers, got {col.type}")
    return col.to_numpy(zero_copy_only=False).astype(np.uint64)


def _key_hash(col) -> np.ndarray:
    """64-bit routing hash of one key column (uint64)."""
    if pa.types.is_integer(col.type):
        return splitmix64(_uint64(col))
    if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
        return np.fromiter((zlib.crc32(s.encode("utf-8")) for s in col.to_pylist()),
                           np.uint64, len(col))
    if pa.types.is_fixed_size_binary(col.type):
        arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        w = col.type.byte_width
        W = np.frombuffer(arr.buffers()[1], np.uint8)[arr.offset * w:(arr.offset + len(arr)) * w]
        W = W.reshape(len(arr), w)
        h = np.full(len(arr), _FNV_OFFSET)
        for j in range(w):  # column ops upcast on the fly: no 8× uint64 copy
            h = (h ^ W[:, j]) * _FNV_PRIME
        return splitmix64(h)
    raise TypeError(f"no routing hash for key type {col.type}")


def hash_buckets(t: pa.Table, key, nb: int) -> np.ndarray:
    """Bucket (int64 in ``[0, nb)``) of every row of ``t`` for ``key`` —
    one column name or a tuple of integer column names."""
    cols = [t[c] for c in _keys(key)]
    if len(cols) == 1:
        h = _key_hash(cols[0])
    else:
        h = _uint64(cols[0])
        with np.errstate(over="ignore"):
            for c in cols[1:]:
                h = splitmix64(h * _PHI ^ splitmix64(_uint64(c)))
    return (h % np.uint64(nb)).astype(np.int64)


def _router(key, nb: int):
    def route(t: pa.Table) -> pa.Table:
        b = pa.array(hash_buckets(t, key, nb))
        i = t.schema.get_field_index(_BUCKET)
        return t.append_column(_BUCKET, b) if i < 0 else t.set_column(i, _BUCKET, b)

    return route


def routed(ds, key, nb: int):
    """``ds`` materialized with its bucket column for ``(key, nb)``: an
    intermediate read by several exchanges on that key is routed once,
    here (the routing map fuses into the task that produces the rows),
    and :func:`exchange` does not route it again."""
    out = ds.map_batches(_router(key, nb), batch_format="pyarrow").materialize()
    out._coderag_route = (_keys(key), nb)
    return out


def bucket_count(ds) -> int:
    """The bucket count a :func:`routed` Dataset was routed with."""
    return ds._coderag_route[1]


def exchange(inputs, key, nb: int, fn, *, batch_format: str = "numpy",
             schema: pa.Schema | None = None, sort_key: str | None = None):
    """Hash exchange: every row of ``inputs`` (one Dataset or a list,
    unioned) goes to bucket ``hash_buckets(key, nb)``, and ``fn`` runs
    once per bucket on that bucket's rows (``batch_format`` batches,
    bucket column removed) and returns a ``pa.Table``.  All rows of one
    key reach the same call.  Inputs from :func:`routed` with the same
    ``(key, nb)`` are used as they are; all others are routed by a map
    that fuses into the task producing them.  With ``schema`` the result
    is :func:`~coderag_ray.functions.datasets.schema_stable` (typed
    even when empty; ``sort_key`` sorts it last)."""
    if not isinstance(inputs, (list, tuple)):
        inputs = [inputs]
    tag = (_keys(key), nb)
    parts = [d if getattr(d, "_coderag_route", None) == tag
             else d.map_batches(_router(key, nb), batch_format="pyarrow")
             for d in inputs]
    ds = parts[0].union(*parts[1:]) if len(parts) > 1 else parts[0]

    def per_bucket(g):
        if isinstance(g, pa.Table):
            return fn(g.drop_columns([_BUCKET]))
        g.pop(_BUCKET)  # dict of arrays or DataFrame: removed in place
        return fn(g)

    out = ds.groupby(_BUCKET).map_groups(per_bucket, batch_format=batch_format)
    return out if schema is None else schema_stable(out, schema, sort_key=sort_key)


def bucketed_groupby_sum(
    ds,
    key_cols: str | list[str],
    sum_col: str,
    alias: str,
    num_buckets: int = 64,
):
    """Exact ``SELECT key, SUM(sum_col) AS alias GROUP BY key`` as an
    :func:`exchange` on the FIRST key column plus one vectorized pandas
    aggregation per bucket; rows with equal keys land in one bucket, so
    per-bucket sums are globally complete."""
    keys = [key_cols] if isinstance(key_cols, str) else list(key_cols)

    def agg(g: pd.DataFrame) -> pa.Table:
        s = g.groupby(keys, sort=False)[sum_col].sum().reset_index()
        # emit Arrow, not pandas: pandas blocks reaching a downstream
        # sort trip Ray's unhashable-PandasBlockSchema warning path;
        # metadata stripped — a schema with b'pandas' metadata is
        # unhashable (holds a dict) and triggers the same warning
        return pa.Table.from_pandas(s.rename(columns={sum_col: alias}),
                                    preserve_index=False).replace_schema_metadata(None)

    return exchange(ds, keys[0], num_buckets, agg, batch_format="pandas")
