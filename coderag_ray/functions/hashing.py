"""Deterministic hashing utilities.

The reference uses a 32-bit JS rolling hash for change detection
(``/root/reference/packages/core/src/utils.ts:311-319``); the north rule
instead requires per-row **sha256 of content** preserved through every
stage, so sha256 is the canonical content identity here (and matches
DuckDB's ``sha256()`` for the oracle).  ``splitmix64`` provides the
stable 64-bit mix used for partition routing.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

_MASK64 = np.uint64(0xFFFFFFFFFFFFFFFF)


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def batch_sha256(texts: pa.Array | pa.ChunkedArray) -> pa.Array:
    """Per-row sha256 hex of the UTF-8 bytes of a string column.

    hashlib releases the GIL per call and the cost is O(bytes); a row
    loop here is bandwidth-bound, not interpreter-bound.
    """
    buf = texts.to_pylist()
    return pa.array(
        [hashlib.sha256(t.encode("utf-8")).hexdigest() if t is not None else None for t in buf],
        type=pa.string(),
    )


def splitmix64(x: np.ndarray | int):
    """SplitMix64 finalizer (public domain constant schedule) — stable doc→partition routing."""
    with np.errstate(over="ignore"):  # uint64 wraparound is the algorithm
        z = (np.asarray(x).astype(np.uint64) + np.uint64(0x9E3779B97F4A7C15)) & _MASK64
        z = ((z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)) & _MASK64
        z = ((z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)) & _MASK64
        z = z ^ (z >> np.uint64(31))
    return z if isinstance(x, np.ndarray) else int(z)


def part_for_doc(doc_id: np.ndarray | int, num_partitions: int):
    # uint64 on both sides: a Python int % np.uint64 goes through float64
    out = splitmix64(np.asarray(doc_id, dtype=np.uint64)) % np.uint64(num_partitions)
    return out.astype(np.int64) if isinstance(doc_id, np.ndarray) else int(out)


def simple_hash(text: str) -> str:
    """The reference's 32-bit rolling change-detection hash in base 36
    (``utils.ts:311-319``: ``h = (h<<5) - h + c`` int32-wrapped, then
    ``Math.abs(h).toString(36)``).  Kept for API completeness; the
    engine's content identity is sha256 (north-rule invariant)."""
    h = 0
    for u in np.frombuffer(text.encode("utf-16-le"), dtype="<u2").tolist():
        h = ((h << 5) - h + u) & 0xFFFFFFFF
    if h >= 0x80000000:
        h -= 0x100000000
    h = abs(h)
    if h == 0:
        return "0"
    digits = "0123456789abcdefghijklmnopqrstuvwxyz"
    out = []
    while h:
        h, r = divmod(h, 36)
        out.append(digits[r])
    return "".join(reversed(out))


def stable_doc_id(repo: str, path: str, commit: str) -> int:
    """Deterministic positive int64 doc id from the identity triple.

    Used only when the input table carries no ``doc_id`` column; top-63
    bits of sha256("repo\\0path\\0commit").
    """
    h = hashlib.sha256(f"{repo}\0{path}\0{commit}".encode("utf-8")).digest()
    return int.from_bytes(h[:8], "big") >> 1


def sha_prefix_u32(sha_hex: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """First 8 hex chars of sha256 as uint32 — cheap partition-fingerprint term."""
    if isinstance(sha_hex, pa.ChunkedArray):
        sha_hex = sha_hex.combine_chunks()
    return np.array([int(s[:8], 16) for s in sha_hex.tolist()], dtype=np.int64)
