import numpy as np
from hypothesis import given, settings, strategies as st

from coderag_ray.functions import varint as V


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 2**63 - 1), max_size=200))
def test_roundtrip(vals):
    v = np.array(vals, dtype=np.uint64)
    assert np.array_equal(V.decode(V.encode(v)), v)


def test_delta_roundtrip():
    rng = np.random.default_rng(7)
    ids = np.sort(rng.choice(10**7, size=1000, replace=False)).astype(np.uint64)
    buf = V.encode_deltas(ids)
    assert np.array_equal(V.decode_deltas(buf), ids)


def test_lengths_match_encoding():
    v = np.array([0, 1, 127, 128, 2**14 - 1, 2**14, 2**62], dtype=np.uint64)
    assert V.value_byte_lengths(v).sum() == len(V.encode(v))


def test_empty():
    assert V.encode(np.empty(0, dtype=np.uint64)) == b""
    assert V.decode(b"").size == 0
