"""Real-asset hooks (VERDICT r3 item 7): tree-sitter chunker, HF
tokenizer, PIL decode — each detect-and-use with a deterministic
fallback.  The *_real_path tests skip unless the optional runtime is
importable (none ship in this sandbox); the fallback tests always run.
"""

import json

import numpy as np
import pyarrow as pa
import pytest

GO_SRC = "package main\n\nfunc add(a int, b int) int {\n\treturn a + b\n}\n\nfunc main() {\n\tprintln(add(1, 2))\n}\n"


def _has(mod: str) -> bool:
    try:
        __import__(mod)
        return True
    except ImportError:
        return False


# -- tree-sitter ------------------------------------------------------------

def test_treesitter_fallback_is_none_and_auto_equals_ast(ray_session):
    """Without the runtime, chunk_treesitter yields None and the 'auto'
    chunker is byte-identical to the deterministic 'ast' chunker."""
    from coderag_ray.config import IndexConfig
    from coderag_ray.functions.treesitter_chunker import (
        chunk_treesitter, treesitter_available)
    from coderag_ray.stages.chunk import make_chunker

    if _has("tree_sitter"):
        pytest.skip("tree_sitter present — fallback not reachable")
    assert not treesitter_available("go")
    assert chunk_treesitter(GO_SRC, "go") is None

    t = pa.table({
        "doc_id": pa.array([1], type=pa.int64()),
        "part_id": pa.array([0], type=pa.int64()),
        "content": pa.array([GO_SRC]),
        "n_chars": pa.array([len(GO_SRC)], type=pa.int64()),
        "content_sha256": pa.array(["x"]),
        "repo": pa.array(["r"]), "path": pa.array(["p"]),
        "commit": pa.array([""]), "lang": pa.array(["go"]),
    })
    a = make_chunker(IndexConfig(chunker="ast"))(t)
    b = make_chunker(IndexConfig(chunker="auto"))(t)
    assert a.equals(b)


def test_treesitter_real_path():
    pytest.importorskip("tree_sitter")
    from coderag_ray.functions.treesitter_chunker import chunk_treesitter

    chunks = chunk_treesitter(GO_SRC, "go")
    if chunks is None:
        pytest.skip("no go grammar wheel available")
    # chunks exactly partition the source (the factory contract)
    assert "".join(c.content for c in chunks) == GO_SRC
    assert any(c.type == "function" for c in chunks)
    assert all(json.loads(c.meta)["parser"] == "tree-sitter"
               for c in chunks if json.loads(c.meta).get("entities"))


# -- HF tokenizer -----------------------------------------------------------

def test_hf_sniff_refuses_loudly_without_runtime(tmp_path):
    """A HF-format vocab with no 'tokenizers' runtime must FAIL, not
    silently substitute the built-in vocabulary — a query/index
    tokenizer mismatch returning degraded results with no error is the
    worst failure mode (ADVICE r4)."""
    from coderag_ray.functions import bpe

    if _has("tokenizers"):
        pytest.skip("tokenizers present — refusal path not reachable")
    p = tmp_path / "tokenizer.json"
    p.write_text(json.dumps({"model": {"type": "BPE", "vocab": {}, "merges": []}}))
    with pytest.raises(RuntimeError, match="tokenizers"):
        bpe.loaded_tokenizer(str(p))


def test_bpe_stage_shares_loaded_tokenizer_chokepoint(tmp_path, monkeypatch):
    """Build (the bpe tokenize stage) and query (tokenize_query) load the
    same vocab path through loaded_tokenizer — an HF-format file behaves
    the same on both sides instead of KeyError'ing on build only."""
    import pyarrow as pa

    from coderag_ray.config import IndexConfig
    from coderag_ray.functions import bpe
    from coderag_ray.stages.tokenize import make_tokenizer_stage

    t = bpe.default_tokenizer()
    p = tmp_path / "merges.json"
    t.save(str(p))
    real, used = bpe.loaded_tokenizer, []
    monkeypatch.setattr(bpe, "loaded_tokenizer",
                        lambda path: used.append(real(path)) or used[-1])
    stage = make_tokenizer_stage(IndexConfig(tokenizer="bpe", bpe_vocab_path=str(p)))
    out = stage(pa.table({"content": pa.array(["getUserById query"])}))
    assert used and all(tok is real(str(p)) for tok in used)  # same lru-cached object
    assert out["token_count"][0].as_py() > 0
    if not _has("tokenizers"):
        hf = tmp_path / "tokenizer.json"
        hf.write_text(json.dumps({"model": {"type": "BPE", "vocab": {}, "merges": []}}))
        hf_stage = make_tokenizer_stage(IndexConfig(tokenizer="bpe", bpe_vocab_path=str(hf)))
        with pytest.raises(RuntimeError, match="tokenizers"):
            hf_stage(pa.table({"content": pa.array(["getUserById query"])}))


def test_offline_merge_table_still_loads(tmp_path):
    from coderag_ray.functions import bpe

    t = bpe.default_tokenizer()
    p = tmp_path / "merges.json"
    t.save(str(p))
    loaded = bpe.loaded_tokenizer(str(p))
    assert isinstance(loaded, bpe.BPETokenizer)
    assert loaded.tokenize("getUserById query") == t.tokenize("getUserById query")


def test_hf_tokenizer_real_path(tmp_path):
    pytest.importorskip("tokenizers")
    from tokenizers import Tokenizer
    from tokenizers.models import BPE as HFBPE

    from coderag_ray.functions import bpe

    tok = Tokenizer(HFBPE({"a": 0, "b": 1, "ab": 2}, [("a", "b")]))
    p = tmp_path / "tokenizer.json"
    tok.save(str(p))
    adapter = bpe.loaded_tokenizer(str(p))
    assert isinstance(adapter, bpe.HFTokenizerAdapter)
    assert adapter.tokenize("ab") == ["ab"]


# -- PIL decode -------------------------------------------------------------

def test_pil_fallback_raises_not_implemented():
    from coderag_ray.pipelines.multimodal import decode_image, media_feature_batch

    if _has("PIL"):
        pytest.skip("PIL present — fallback not reachable")
    with pytest.raises(NotImplementedError):
        decode_image(b"\x89PNG\r\n")
    t = pa.table({"doc_id": pa.array([1], type=pa.int64()),
                  "payload": pa.array([b"hello"])})
    with pytest.raises(NotImplementedError):
        media_feature_batch(t, use_real_decoder=True)


def test_pil_real_path():
    pytest.importorskip("PIL")
    import io

    from PIL import Image

    from coderag_ray.pipelines.multimodal import media_feature_batch

    buf = io.BytesIO()
    Image.new("RGB", (7, 5)).save(buf, format="PNG")
    payload = buf.getvalue()
    t = pa.table({"doc_id": pa.array([1], type=pa.int64()),
                  "payload": pa.array([payload])})
    out = media_feature_batch(t, use_real_decoder=True)
    assert out["fake_width"][0].as_py() == 7
    assert out["fake_height"][0].as_py() == 5
    assert out["n_bytes"][0].as_py() == len(payload)


# -- PyAV video decode --------------------------------------------------------

def test_video_fallback_raises_not_implemented():
    from coderag_ray.pipelines.multimodal import (
        decode_video_frames, frame_sample_batch, real_video_decoder_available)

    if _has("av"):
        pytest.skip("PyAV present — fallback not reachable")
    assert not real_video_decoder_available()
    with pytest.raises(NotImplementedError):
        decode_video_frames(b"\x00\x00\x00 ftypisom")
    t = pa.table({"doc_id": pa.array([1], type=pa.int64()),
                  "payload": pa.array([b"fake-video-bytes"])})
    with pytest.raises(NotImplementedError):
        frame_sample_batch(t, use_real_decoder=True)


def test_video_real_path(tmp_path):
    av = pytest.importorskip("av")
    import io

    from coderag_ray.pipelines.multimodal import frame_sample_batch

    # synthesize a tiny 4-frame video in memory
    buf = io.BytesIO()
    with av.open(buf, mode="w", format="mp4") as container:
        stream = container.add_stream("mpeg4", rate=4)
        stream.width, stream.height = 32, 32
        stream.pix_fmt = "yuv420p"
        for i in range(4):
            frame = av.VideoFrame.from_ndarray(
                np.full((32, 32, 3), i * 40, dtype=np.uint8), format="rgb24")
            container.mux(stream.encode(frame))
        container.mux(stream.encode(None))
    payload = buf.getvalue()
    t = pa.table({"doc_id": pa.array([9], type=pa.int64()),
                  "payload": pa.array([payload])})
    out = frame_sample_batch(t, use_real_decoder=True)
    # 1 payload -> N frame rows, sequential frame_idx, real pixel shas
    assert out.num_rows >= 1
    assert out["frame_idx"].to_pylist() == list(range(out.num_rows))
    assert len(set(out["frame_sha256"].to_pylist())) == out.num_rows
    assert set(out.column_names) == {"doc_id", "frame_idx", "frame_sha256"}
