"""Vectorized v-byte (varint) codec for posting-list compression.

Classic little-endian base-128 varint: each byte carries 7 payload bits;
MSB set ⇒ continuation.  Posting lists store doc-ordinal **deltas**
(first value absolute, then strictly positive gaps) and raw term
frequencies this way, per the north star's "delta+varint (v-byte)
compressed postings".

Both encode and decode are numpy-vectorized (no Python loop over
values): encode loops over byte *positions* (≤ 10 vector ops), decode
reconstructs values with ``np.add.reduceat`` over 7-bit limbs.
"""

from __future__ import annotations

import numpy as np


def encode(values: np.ndarray) -> bytes:
    """uint64 array → v-byte stream."""
    v = np.ascontiguousarray(values, dtype=np.uint64)
    if v.size == 0:
        return b""
    nb = np.ones(v.size, dtype=np.int64)
    for k in range(1, 10):
        nb += (v >= (np.uint64(1) << np.uint64(7 * k))).astype(np.int64)
    total = int(nb.sum())
    out = np.zeros(total, dtype=np.uint8)
    ends = np.cumsum(nb)
    starts = ends - nb
    max_nb = int(nb.max())
    for j in range(max_nb):
        mask = nb > j
        idx = starts[mask] + j
        b = ((v[mask] >> np.uint64(7 * j)) & np.uint64(0x7F)).astype(np.uint8)
        cont = (nb[mask] - 1) > j
        b = b | (cont.astype(np.uint8) << 7)
        out[idx] = b
    return out.tobytes()


def decode(buf: bytes | memoryview | np.ndarray) -> np.ndarray:
    """v-byte stream → uint64 array."""
    b = np.frombuffer(buf, dtype=np.uint8)
    if b.size == 0:
        return np.empty(0, dtype=np.uint64)
    terminal = (b & 0x80) == 0
    ends = np.flatnonzero(terminal)
    starts = np.empty_like(ends)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    pos = np.arange(b.size, dtype=np.int64) - np.repeat(starts, ends - starts + 1)
    limbs = (b & np.uint8(0x7F)).astype(np.uint64) << (np.uint64(7) * pos.astype(np.uint64))
    return np.add.reduceat(limbs, starts)


def encode_deltas(sorted_ids: np.ndarray) -> bytes:
    """Strictly-increasing int array → delta-encoded v-byte stream."""
    a = np.ascontiguousarray(sorted_ids, dtype=np.uint64)
    if a.size == 0:
        return b""
    d = np.empty_like(a)
    d[0] = a[0]
    d[1:] = a[1:] - a[:-1]
    return encode(d)


def decode_deltas(buf: bytes) -> np.ndarray:
    """Inverse of :func:`encode_deltas`."""
    d = decode(buf)
    if d.size == 0:
        return d
    return np.cumsum(d)


def decode_delta_runs(buf: bytes | memoryview, run_lengths: np.ndarray) -> np.ndarray:
    """Decode a concatenation of delta-encoded runs in one vectorized pass.

    ``buf`` holds ``sum(run_lengths)`` v-byte values; each run of
    ``run_lengths[i]`` values is independently delta-encoded (first value
    absolute).  The cumulative sum is computed globally and re-based at
    run starts — equivalent to per-run ``decode_deltas`` but without a
    Python loop over runs (used by the bulk index preload).
    """
    deltas = decode(buf)
    if deltas.size == 0:
        return deltas
    total = int(run_lengths.sum())
    assert total == deltas.size, (total, deltas.size)
    cs = np.cumsum(deltas, dtype=np.uint64)
    starts = np.cumsum(run_lengths)[:-1]  # index of each run's first value (except run 0)
    base = np.zeros(deltas.size, dtype=np.uint64)
    base[starts] = cs[starts - 1]
    np.maximum.accumulate(base, out=base)
    return cs - base


def value_byte_lengths(values: np.ndarray) -> np.ndarray:
    """Encoded byte length per value — used to compute per-term byte
    offsets without re-encoding."""
    v = np.ascontiguousarray(values, dtype=np.uint64)
    nb = np.ones(v.size, dtype=np.int64)
    for k in range(1, 10):
        nb += (v >= (np.uint64(1) << np.uint64(7 * k))).astype(np.int64)
    return nb
