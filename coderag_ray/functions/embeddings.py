"""Deterministic mock embedding provider (ST3).

Mirrors the reference's offline fallback ``generateMockEmbedding``
(``/root/reference/packages/core/src/embeddings.ts:42-65``): a 32-bit
JS rolling hash of the text seeds ``(sin(seed) + cos(seed*0.5)) / 2``
per dimension, then unit-normalization.  Exactly reproduced here
(int32-wrapped ``h*31 + charCode`` like ``Math.imul``) so an index
built by either engine embeds identically.

A real model provider drops into the same callable shape as
:class:`MockProvider` (load in ``__init__``, embed a list of texts in
``__call__``) and registers with :data:`registry`.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

DEFAULT_DIMENSIONS = 64  # reference default is 1536 (embeddings.ts:101); kept small offline


def js_string_hash(text: str) -> int:
    """32-bit JS rolling hash over UTF-16 code units:
    ``h = (Math.imul(31, h) + charCodeAt(i)) | 0`` — embeddings.ts:44-50.

    Vectorized exactly: the recurrence unrolls to
    ``h = Σ c_i · 31^(n-1-i) (mod 2^32)``, and numpy uint32 arithmetic
    wraps mod 2^32, so powers/products/sum reproduce the scalar loop
    bit-for-bit (asserted in tests) without a per-char Python loop."""
    units = np.frombuffer(text.encode("utf-16-le"), dtype="<u2").astype(np.uint32)
    n = len(units)
    if n == 0:
        return 0
    pw = np.empty(n, dtype=np.uint32)
    pw[0] = 1
    if n > 1:
        np.multiply.accumulate(np.full(n - 1, 31, dtype=np.uint32), out=pw[1:])
    h = int((units * pw[::-1]).sum(dtype=np.uint32))
    return h - 0x100000000 if h >= 0x80000000 else h


def mock_embedding(text: str, dimensions: int = DEFAULT_DIMENSIONS) -> np.ndarray:
    base = js_string_hash(text)
    seeds = base + np.arange(dimensions, dtype=np.float64)
    v = (np.sin(seeds) + np.cos(seeds * 0.5)) / 2.0
    mag = np.sqrt((v * v).sum())
    return v / mag if mag > 0 else v


def emb_matrix(col) -> np.ndarray:
    """Fixed-dim ``list<float>`` column → (n, d) float64 matrix via
    zero-copy flatten+reshape (``np.stack`` over per-row objects is
    ~10× slower and allocates n small arrays)."""
    la = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    return np.asarray(la.flatten(), dtype=np.float64).reshape(len(la), -1)


class EmbeddingProviderRegistry:
    """Provider registry + fallback composition (ST3).

    Mirrors the reference's extension surface
    (``embeddings.ts:196-229`` ``registerProvider`` and
    ``embeddings.ts:341-362`` ``composeProviders``): providers are
    factories of callables ``texts -> ndarray[n, dim]``; ``compose``
    returns a provider that tries the primary and falls back per batch
    on failure.
    """

    def __init__(self):
        self._factories: dict[str, object] = {}
        self.register("mock", lambda dimensions=DEFAULT_DIMENSIONS: MockProvider(dimensions))

    def register(self, name: str, factory) -> None:
        self._factories[name] = factory

    def create(self, name: str, **kwargs):
        if name not in self._factories:
            raise KeyError(f"unknown embedding provider {name!r}; "
                           f"registered: {sorted(self._factories)}")
        return self._factories[name](**kwargs)

    @staticmethod
    def compose(primary, fallback):
        def provider(texts: list[str]) -> np.ndarray:
            try:
                return primary(texts)
            except Exception:  # noqa: BLE001 — provider fallback semantics
                return fallback(texts)

        return provider


class MockProvider:
    def __init__(self, dimensions: int = DEFAULT_DIMENSIONS):
        self.dimensions = dimensions

    def __call__(self, texts: list[str]) -> np.ndarray:
        return np.stack([mock_embedding(t or "", self.dimensions) for t in texts])


registry = EmbeddingProviderRegistry()

