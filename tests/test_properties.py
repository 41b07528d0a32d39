"""Hypothesis property tests for the pure kernels added in round 2:
Mersenne-61 modular arithmetic, BPE reassembly, the vectorized JS hash,
and the AST chunker's exact-partition invariant over generated Python."""

import numpy as np
import pyarrow as pa
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coderag_ray.functions.ast_chunker import chunk_python_ast
from coderag_ray.functions.bpe import default_tokenizer
from coderag_ray.functions.embeddings import js_string_hash
from coderag_ray.functions.hashing import part_for_doc
from coderag_ray.pipelines.dedup import _MERS_P, _mulmod61, minhash_signatures_batch


@given(st.lists(st.integers(0, _MERS_P - 1), min_size=1, max_size=50),
       st.lists(st.integers(0, _MERS_P - 1), min_size=1, max_size=50))
def test_mulmod61_matches_bigint(a, b):
    n = min(len(a), len(b))
    av = np.array(a[:n], dtype=np.uint64)
    bv = np.array(b[:n], dtype=np.uint64)
    got = _mulmod61(av, bv)
    ref = np.array([(int(x) * int(y)) % _MERS_P for x, y in zip(av, bv)],
                   dtype=np.uint64)
    assert (got == ref).all()


@given(st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=50), st.integers(1, 1000))
@example([2**62 + 12345, 2**63 - 1], 7)
def test_part_for_doc_scalar_matches_array(ids, num_partitions):
    """A scalar doc_id routes to the partition the ingest stage's array
    path gives it."""
    arr = part_for_doc(np.array(ids, dtype=np.uint64), num_partitions)
    assert [part_for_doc(i, num_partitions) for i in ids] == arr.tolist()


@given(st.lists(st.lists(st.integers(0, 2**64 - 1), max_size=80), min_size=1, max_size=20))
def test_minhash_batch_matches_per_doc(hash_lists):
    from coderag_ray.pipelines.dedup import minhash_signature

    arrs = [np.array(h, dtype=np.uint64) for h in hash_lists]
    batch = minhash_signatures_batch(arrs, max_shingles_per_block=64)
    for i, h in enumerate(arrs):
        assert (batch[i] == minhash_signature(h)).all()


@given(st.text(alphabet=st.characters(min_codepoint=1, max_codepoint=0x2FFF), max_size=300))
def test_js_hash_matches_scalar_loop(text):
    h = 0
    units = np.frombuffer(text.encode("utf-16-le"), dtype="<u2")
    for c in units.tolist():
        h = (31 * h + c) & 0xFFFFFFFF
    ref = h - 0x100000000 if h >= 0x80000000 else h
    assert js_string_hash(text) == ref


@given(st.lists(st.text(alphabet="abcdefghij_0", min_size=1, max_size=20),
                min_size=1, max_size=10))
def test_bpe_encode_word_reassembles(words):
    tok = default_tokenizer()
    for w in words:
        assert "".join(tok.encode_word(w)) == w
        # deterministic (cache or not)
        assert tok.encode_word(w) == tok.encode_word(w)


import keyword

_py_word = st.text(alphabet="abcdefghijklmnop", min_size=1, max_size=12).filter(
    lambda w: not keyword.iskeyword(w))  # `if`, `in`, ... are reachable


@st.composite
def _python_source(draw):
    """Deterministic valid-Python generator: mix of defs, classes with
    methods, assignments, blank runs, comments."""
    parts = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.integers(0, 4))
        name = draw(_py_word)
        if kind == 0:
            body = "\n".join(f"    x{i} = {i}" for i in range(draw(st.integers(1, 30))))
            parts.append(f"def {name}():\n{body}\n")
        elif kind == 1:
            methods = "".join(
                f"    def m{i}(self):\n        return {i}\n\n"
                for i in range(draw(st.integers(1, 6))))
            parts.append(f"class {name.capitalize()}:\n{methods}")
        elif kind == 2:
            parts.append(f"{name} = {draw(st.integers(0, 999))}\n")
        elif kind == 3:
            parts.append("\n" * draw(st.integers(1, 3)))
        else:
            parts.append(f"# comment {name}\n")
    return "".join(parts)


@settings(max_examples=40, deadline=None)
@given(_python_source(), st.integers(40, 2000))
def test_ast_chunker_partitions_any_valid_python(src, max_chunk):
    chunks = chunk_python_ast(src, max_chunk_size=max_chunk)
    if src.strip() == "":
        assert chunks == []
        return
    assert chunks is not None  # generator only emits valid python
    assert "".join(c.content for c in chunks) == src  # exact partition
    # contiguous offsets, sane line ranges, size cap honored
    pos = 0
    for c in chunks:
        assert c.start_offset == pos
        pos = c.end_offset
        assert 1 <= c.start_line <= c.end_line
        assert len(c.content) <= max_chunk
    assert pos == len(src)


# ---------------------------------------------------------------------------
# brace chunker: exact-partition property over arbitrary inputs
# ---------------------------------------------------------------------------

_code_alphabet = st.characters(
    whitelist_categories=("Lu", "Ll", "Nd", "Po", "Ps", "Pe", "Zs"),
    whitelist_characters="{}()\"'`/\\\n\t$#@[];=>*&!%-+,.<>_",
    max_codepoint=0x2FF,
)


@given(st.text(alphabet=_code_alphabet, max_size=600),
       st.sampled_from(["javascript", "typescript", "go", "java", "rust"]),
       st.integers(40, 1200))
@settings(max_examples=120, deadline=None)
def test_brace_chunker_exact_partition_any_input(text, lang, max_size):
    """For ANY input — balanced or garbage, quotes/comments cut mid-way —
    the brace chunker's output concatenates back to the input
    byte-for-byte with contiguous offsets (the sha-verified reassembly
    contract), and no chunk exceeds the cap except single monster lines
    handled by the char splitter (which also caps them)."""
    from coderag_ray.functions.brace_chunker import chunk_braces_ast

    chunks = chunk_braces_ast(text, lang, max_size)
    assert chunks is not None
    if text.strip() == "":
        assert chunks == []
        return
    assert "".join(c.content for c in chunks) == text
    offs = [(c.start_offset, c.end_offset) for c in chunks]
    assert offs[0][0] == 0 and offs[-1][1] == len(text)
    for (_, b), (c2, _) in zip(offs, offs[1:]):
        assert b == c2
    for c in chunks:
        assert len(c.content) <= max_size
        assert 1 <= c.start_line <= c.end_line


# ---------------------------------------------------------------------------
# temporal joins: property-tested against a row-at-a-time reference
# ---------------------------------------------------------------------------

@st.composite
def _events_tables(draw):
    n = draw(st.integers(min_value=1, max_value=60))
    users = draw(st.lists(st.integers(min_value=0, max_value=3),
                          min_size=n, max_size=n))
    # tiny timestamp domain → dense exact ties at probe==ref boundaries
    ts = draw(st.lists(st.integers(min_value=0, max_value=12),
                       min_size=n, max_size=n))
    kinds = draw(st.lists(st.sampled_from(["purchase", "view", "click"]),
                          min_size=n, max_size=n))
    vals = draw(st.lists(st.floats(min_value=0, max_value=10,
                                   allow_nan=False, width=32),
                         min_size=n, max_size=n))
    import pandas as pd
    import pyarrow as pa
    return pa.table({
        "event_id": pa.array(range(n), type=pa.int64()),
        "ts": pa.array(pd.to_datetime([t * 1_000_000 for t in ts], unit="us")
                       .astype("datetime64[us]")),
        "user_id": pa.array(users, type=pa.int64()),
        "event_type": pa.array(kinds),
        "value": pa.array([round(v, 3) for v in vals], type=pa.float64()),
    })


def _views_only_table(n: int = 7):
    """Round-4 judge counterexample: a zero-probe stream (all ``view``)
    made ``temporal_join`` return a schema-less empty Dataset."""
    import pandas as pd
    import pyarrow as pa
    return pa.table({
        "event_id": pa.array(range(n), type=pa.int64()),
        "ts": pa.array(pd.to_datetime([t * 1_000_000 for t in range(n)],
                                      unit="us").astype("datetime64[us]")),
        "user_id": pa.array([0] * n, type=pa.int64()),
        "event_type": pa.array(["view"] * n),
        "value": pa.array([1.0] * n, type=pa.float64()),
    })


@settings(max_examples=30, deadline=None)
@example(tbl=_views_only_table(), w=1)
@given(tbl=_events_tables(), w=st.integers(min_value=1, max_value=8))
def test_temporal_join_property_vs_rowwise_reference(ray_session, tbl, w):
    """For ANY event stream and window width, the single-exchange
    temporal_join equals the row-at-a-time definition: as-of = same-user
    latest view at-or-before (ties → larger event_id); range = same-user
    views in [t-W, t)."""
    import ray.data

    from coderag_ray.pipelines.events import temporal_join

    out = (temporal_join(ray.data.from_arrow(tbl), window_seconds=w, n_buckets=2)
           .to_pandas().set_index("event_id").sort_index())
    df = tbl.to_pandas()
    df["ts_us"] = df["ts"].astype("int64")
    probes = df[df.event_type == "purchase"]
    refs = df[df.event_type == "view"]
    assert len(out) == len(probes)
    for _, p in probes.iterrows():
        got = out.loc[p.event_id]
        cand = refs[(refs.user_id == p.user_id) & (refs.ts_us <= p.ts_us)]
        if cand.empty:
            assert got.ref_event_id == -1 and got.lag_us == -1
        else:
            best = cand.sort_values(["ts_us", "event_id"]).iloc[-1]
            assert got.ref_event_id == best.event_id
            assert got.lag_us == p.ts_us - best.ts_us
        lo, hi = p.ts_us - w * 1_000_000, p.ts_us
        win = refs[(refs.user_id == p.user_id)
                   & (refs.ts_us >= lo) & (refs.ts_us < hi)]
        assert got.n_ref == len(win)
        assert abs(got.sum_ref_value - round(float(win.value.sum()), 6)) < 1e-6


@settings(max_examples=25, deadline=None)
@given(texts=st.lists(
    st.text(alphabet="ab\x00", min_size=0, max_size=40), min_size=0, max_size=8),
    window=st.integers(4, 12), stride=st.integers(1, 6),
    min_dup=st.integers(2, 3))
def test_duplicated_spans_property_vs_bruteforce(ray_session, texts, window,
                                                 stride, min_dup):
    """duplicated_spans over a tiny alphabet (incl. NUL bytes — heavy
    window collisions and the S-dtype trap) matches the brute-force
    per-doc window count for every (window, stride, min_dup)."""
    import ray.data

    from coderag_ray.pipelines.dedup import duplicated_spans

    tbl = pa.table({"doc_id": pa.array(range(len(texts)), type=pa.int64()),
                    "text": pa.array(texts, type=pa.string())})
    out = duplicated_spans(ray.data.from_arrow(tbl), window=window,
                           stride=stride, min_dup=min_dup).to_pandas()
    wins = {i: [t.encode()[o:o + window]
                for o in range(0, len(t.encode()) - window + 1, stride)]
            for i, t in enumerate(texts) if len(t.encode()) >= window}
    from collections import Counter
    docs_per_win = Counter()
    for ws in wins.values():
        for w in set(ws):
            docs_per_win[w] += 1
    want = {i: (len(ws), sum(1 for w in ws if docs_per_win[w] >= min_dup))
            for i, ws in wins.items()}
    got = {int(r.doc_id): (int(r.n_windows), int(r.n_dup_windows))
           for r in out.itertuples()}
    assert got == want
    assert out["doc_id"].is_monotonic_increasing
