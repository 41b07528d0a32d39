"""Multimodal (binary-payload) stage plumbing.

Treats media as opaque ``binary`` columns with typed metadata.  The
actual decoders (image/video libs) are NOT in this container, so
``decode_image`` (PIL hook) and ``decode_video_frames`` (PyAV hook)
raise ``NotImplementedError`` when their runtime is absent and the
pipelines run a clearly-marked deterministic fake — but the Ray-side
plumbing (schema, stateless ``map_batches`` functions, small batch size
for wide binary rows, output layout) is real and tested, and each hook
has a real-path pytest that activates the moment the runtime appears.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def decode_image(payload: bytes) -> "object":
    """Real image decode via PIL when importable (real-asset hook,
    VERDICT r3 item 7) — raises ``NotImplementedError`` otherwise (no
    imaging library ships in this sandbox; the pipelines then use the
    deterministic fake, and the PIL path is covered by a pytest that
    skips unless importable)."""
    try:
        from PIL import Image  # gated import
    except ImportError as exc:
        raise NotImplementedError(
            "image decoding requires an imaging library not installed in "
            "this environment; media_feature_batch uses the deterministic "
            "fake instead"
        ) from exc
    import io

    im = Image.open(io.BytesIO(payload))
    im.load()
    return im


def real_decoder_available() -> bool:
    try:
        import PIL  # noqa: F401

        return True
    except ImportError:
        return False


def payload_batch(t: pa.Table) -> pa.Table:
    """documents → (doc_id, payload): utf-8 of ``text``, standing in for
    image/video bytes."""
    return pa.table(
        {
            "doc_id": pc.cast(t["doc_id"], pa.int64()),
            "payload": pc.cast(t["text"], pa.binary()),
        }
    )


def media_feature_batch(t: pa.Table, use_real_decoder: bool = False) -> pa.Table:
    """Binary payload → feature row.

    Fake features are pure functions of the payload bytes so the DuckDB
    oracle can mirror them: ``n_bytes``, ``payload_sha256``, and
    ``fake_width/fake_height`` derived from ``n_bytes``.
    """
    payloads = t["payload"].to_pylist()
    n_bytes = np.array([len(p) for p in payloads], dtype=np.int64)
    shas = [hashlib.sha256(p).hexdigest() for p in payloads]
    if use_real_decoder:
        # real path: decoded dimensions replace the fake derivation
        # (raises NotImplementedError when no imaging lib exists —
        # the q_* queries pin the deterministic fake for oracle
        # parity; real users opt in via use_real_decoder=True)
        dims = [decode_image(p).size for p in payloads]
        widths = np.array([d[0] for d in dims], dtype=np.int64)
        heights = np.array([d[1] for d in dims], dtype=np.int64)
    else:
        widths = (n_bytes % 64 + 1).astype(np.int64)
        heights = ((n_bytes // 64) % 64 + 1).astype(np.int64)
    return pa.table(
        {
            "doc_id": pc.cast(t["doc_id"], pa.int64()),
            "n_bytes": pa.array(n_bytes),
            "payload_sha256": pa.array(shas, type=pa.string()),
            "fake_width": pa.array(widths),
            "fake_height": pa.array(heights),
        }
    )


def media_features(docs_ds, batch_size: int = 256):
    """documents → binary payload → feature extraction."""
    return docs_ds.map_batches(payload_batch, batch_format="pyarrow").map_batches(
        media_feature_batch,
        batch_format="pyarrow",
        batch_size=batch_size,  # wide binary rows → small batches
    )


def iter_video_frames(payload: bytes, every_n: int = 1,
                      max_frames: int | None = None):
    """Real frame decode via PyAV when importable (detect-and-use hook,
    same pattern as :func:`decode_image`/PIL) — raises
    ``NotImplementedError`` otherwise (no video library ships in this
    sandbox; frame_sample_batch then uses the deterministic fake, and the
    PyAV path is covered by a pytest that skips unless importable).
    GENERATOR of RGB ``numpy`` arrays for every ``every_n``-th frame, at
    most ``max_frames`` — streaming, so a consumer holding one frame at
    a time never materializes a whole video's frames."""
    try:
        import av  # gated import (PyAV — ffmpeg bindings)
    except ImportError as exc:
        raise NotImplementedError(
            "video decoding requires a media library (PyAV/ffmpeg) not "
            "installed in this environment; frame_sample_batch uses the "
            "deterministic fake instead"
        ) from exc
    import io

    emitted = 0
    with av.open(io.BytesIO(payload)) as container:
        for i, frame in enumerate(container.decode(video=0)):
            if every_n > 1 and i % every_n:
                continue
            yield frame.to_ndarray(format="rgb24")
            emitted += 1
            if max_frames is not None and emitted >= max_frames:
                return


def decode_video_frames(payload: bytes, every_n: int = 1,
                        max_frames: int | None = None) -> list:
    """List form of :func:`iter_video_frames` (bound ``max_frames`` when
    calling this on real payloads — frames are big)."""
    return list(iter_video_frames(payload, every_n, max_frames))


def real_video_decoder_available() -> bool:
    try:
        import av  # noqa: F401

        return True
    except ImportError:
        return False


def frame_sample_batch(t: pa.Table, use_real_decoder: bool = False,
                       every_n: int = 1, max_frames: int | None = 64) -> pa.Table:
    """Flat map: video payload → one row per sampled frame (the
    frame-sampling step of a multimodal training pipeline).

    The fake sampler is a pure function of the payload so the DuckDB
    oracle mirrors it exactly: ``n_frames = n_bytes // 4096 % 8 + 1``,
    per-frame identity ``sha256(payload ‖ str(frame_idx))``.  The real
    path (PyAV hook, ``use_real_decoder=True``) keeps the same
    1 payload → N frame rows contract, frame identity = sha256 of the
    decoded pixels, every ``every_n``-th frame.  ``max_frames`` is a
    default CAP: a real 10-min 1080p payload is ~18k frames of ~6 MB
    RGB each — decoding them all would OOM the worker; the sampler's
    whole point is a bounded subset (pass None to lift).
    """
    doc_ids = pc.cast(t["doc_id"], pa.int64()).to_pylist()
    out_doc, out_idx, out_sha = [], [], []
    for did, p in zip(doc_ids, t["payload"].to_pylist()):
        if use_real_decoder:
            # frames are hashed as they stream off the decoder — only
            # one decoded ndarray is alive at a time
            shas = (hashlib.sha256(fr.tobytes()).hexdigest()
                    for fr in iter_video_frames(p, every_n=every_n, max_frames=max_frames))
        else:
            shas = (hashlib.sha256(p + str(i).encode("utf-8")).hexdigest()
                    for i in range((len(p) // 4096) % 8 + 1))
        for i, sha in enumerate(shas):
            out_doc.append(did)
            out_idx.append(i)
            out_sha.append(sha)
    return pa.table(
        {
            "doc_id": pa.array(out_doc, type=pa.int64()),
            "frame_idx": pa.array(out_idx, type=pa.int64()),
            "frame_sha256": pa.array(out_sha, type=pa.string()),
        }
    )


def frame_samples(docs_ds, batch_size: int = 256):
    """documents → binary payload → frame sampling."""
    return docs_ds.map_batches(payload_batch, batch_format="pyarrow").map_batches(
        frame_sample_batch, batch_format="pyarrow", batch_size=batch_size,
    )


def resize_plan_batch(t: pa.Table) -> pa.Table:
    """Resize planning over the fake decoded dims: fit each (w, h) into
    a 32×32 box preserving aspect ratio with ceil-division — integer
    arithmetic only, so the SQL oracle reproduces it bit-for-bit.  The
    actual pixel resample is the documented decoder stub; this stage
    owns the dimension math + schema a real resampler would use."""
    w = t["fake_width"].to_numpy(zero_copy_only=False).astype(np.int64)
    h = t["fake_height"].to_numpy(zero_copy_only=False).astype(np.int64)
    m = np.maximum(w, h)
    scale_needed = m > 32
    out_w = np.where(scale_needed, (w * 32 + m - 1) // m, w)
    out_h = np.where(scale_needed, (h * 32 + m - 1) // m, h)
    return pa.table(
        {
            "doc_id": pc.cast(t["doc_id"], pa.int64()),
            "out_width": pa.array(out_w.astype(np.int64)),
            "out_height": pa.array(out_h.astype(np.int64)),
            "scaled": pa.array(scale_needed),
        }
    )
