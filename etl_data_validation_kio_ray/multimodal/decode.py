"""Multimodal columns: opaque binary payloads + typed metadata, decoded
by stateful ``map_batches`` stages (fused tasks, each stage built once
per worker by core/resources.CachedEngineFn).

The Ray-side plumbing is REAL and tested: schema, small batches (large
binary rows need small batches so a batch fits the worker heap —
ray_guide "Memory-aware"), deterministic output layout.
The actual codec is STUBBED: the image library is not in this
container, so when PIL is unavailable the image stage derives a
deterministic fake feature vector from the payload bytes (clearly
marked). Swap ``_decode_real`` in when the codec libs exist.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

FEATURE_DIM = 32

def multimodal_schema(kind: str = "image") -> pa.Schema:
    """Canonical layout for a multimodal table."""
    meta = {
        "image": [("width", pa.int32()), ("height", pa.int32()), ("format", pa.string())],
        "audio": [("sample_rate", pa.int32()), ("n_samples", pa.int64()), ("format", pa.string())],
    }[kind]
    return pa.schema(
        [("doc_id", pa.string()), ("payload", pa.binary())]
        + meta
        + [("source", pa.string())]
    )


def _fake_features(payloads: list[bytes | None], dim: int) -> np.ndarray:
    """Deterministic stand-in decode: feature vector from payload bytes.
    NOT a real decode — a fixed, testable fake (see module docstring)."""
    out = np.zeros((len(payloads), dim), dtype=np.float32)
    for i, p in enumerate(payloads):  # payload-bounded; batches are small
        if not p:
            continue
        arr = np.frombuffer(p, dtype=np.uint8)
        reps = -(-dim // max(1, len(arr)))
        out[i] = np.tile(arr, reps)[:dim].astype(np.float32) / 255.0
    return out


class ImageFeatureStage:
    """map_batches(CachedEngineFn(ImageFeatureStage), batch_size=SMALL,
    batch_format='pyarrow') — decode + resize + feature-extract.

    Real path requires PIL; otherwise the deterministic fake is used and
    ``decoder`` column records which ran."""

    def __init__(self, *, feature_dim: int = FEATURE_DIM, target_size=(32, 32)):
        self.feature_dim = feature_dim
        self.target_size = target_size
        try:
            from PIL import Image  # noqa: F401

            self._pil = True
        except ImportError:
            self._pil = False

    def _decode_real(self, payloads):
        from io import BytesIO

        from PIL import Image

        out = np.zeros((len(payloads), self.feature_dim), dtype=np.float32)
        for i, p in enumerate(payloads):
            img = Image.open(BytesIO(p)).convert("L").resize(self.target_size)
            v = np.asarray(img, dtype=np.float32).ravel() / 255.0
            out[i] = np.resize(v, self.feature_dim)
        return out

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch["payload"].to_pylist()
        feats = (
            self._decode_real(payloads)
            if self._pil
            else _fake_features(payloads, self.feature_dim)
        )
        return batch.append_column(
            "features", pa.array(list(feats))
        ).append_column(
            "decoder",
            pa.array(["pil" if self._pil else "stub"] * len(payloads), pa.string()),
        )


class VideoFrameSampleStage:
    """Frame-sampling for video payloads —
    ``map_batches(CachedEngineFn(VideoFrameSampleStage, stride=k),
    batch_size=SMALL, batch_format='pyarrow')``. EXPLODES each video
    row into one row per sampled frame (every ``stride``-th frame):
    (doc_id, source, frame_idx, f_len, f_energy) with the energy =
    exact int64 sum of that frame's payload bytes — computed fully
    vectorized off the Arrow binary buffer (one prefix-sum over the
    batch's byte data, two gathers per sampled frame; no per-frame
    Python loop).

    Real path would use PyAV/ffmpeg (not in this container); payloads
    here are raw concatenated fixed-size frames as declared by the
    (n_frames, frame_bytes) metadata columns, which is exactly the
    layout a real decode stage would hand to this sampler."""

    def __init__(self, *, stride: int = 4):
        if stride < 1:
            raise ValueError("stride must be >= 1")
        self.stride = stride
        try:
            import av  # noqa: F401

            self._av = True
        except ImportError:
            self._av = False

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self._av:
            raise NotImplementedError(
                "real video decode path not exercised in this container"
            )
        if batch.num_rows == 0:
            e64 = pa.array([], pa.int64())
            return pa.table(
                {
                    "doc_id": pa.array([], batch.schema.field("doc_id").type),
                    "source": pa.array([], batch.schema.field("source").type),
                    "frame_idx": e64,
                    "f_len": e64,
                    "f_energy": e64,
                }
            )
        pl = batch["payload"]
        if isinstance(pl, pa.ChunkedArray):
            pl = pl.combine_chunks()
        raw = np.frombuffer(pl.buffers()[1], dtype=np.int32)
        offs = raw[pl.offset : pl.offset + len(pl) + 1].astype(np.int64)
        data = np.frombuffer(pl.buffers()[2], dtype=np.uint8)
        csum = np.zeros(len(data) + 1, dtype=np.int64)
        np.cumsum(data, out=csum[1:])
        nf = batch["n_frames"].to_numpy(zero_copy_only=False).astype(np.int64)
        fb = batch["frame_bytes"].to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        n_samp = (nf + self.stride - 1) // self.stride
        total = int(n_samp.sum())
        ridx = np.repeat(np.arange(len(nf)), n_samp)
        k = (
            np.arange(total, dtype=np.int64)
            - np.repeat(np.cumsum(n_samp) - n_samp, n_samp)
        )
        frame_idx = k * self.stride
        start = offs[ridx] + frame_idx * fb[ridx]
        energy = csum[start + fb[ridx]] - csum[start]
        ridx_pa = pa.array(ridx)
        return pa.table(
            {
                "doc_id": pc.take(batch["doc_id"], ridx_pa),
                "source": pc.take(batch["source"], ridx_pa),
                "frame_idx": pa.array(frame_idx),
                "f_len": pa.array(fb[ridx]),
                "f_energy": pa.array(energy),
            }
        )


def synthesize_video_batch(
    batch: pa.Table, id_col: str = "doc_id", *, algo: str = "blake2b"
) -> pa.Table:
    """Deterministic fake video table: an 8-byte id hash seeds
    (n_frames ∈ [8, 16], frame_bytes ∈ [48, 64]) and the payload is the
    seed tiled to n_frames × frame_bytes raw bytes — the concatenated
    fixed-size-frame layout ``VideoFrameSampleStage`` consumes. Same
    contract as :func:`synthesize_image_batch`: any worker produces
    identical rows, and ``algo='sha256'`` lets a DuckDB oracle
    recompute every byte."""
    import hashlib

    ids = batch[id_col]
    if isinstance(ids, pa.ChunkedArray):
        ids = ids.combine_chunks()
    payloads, nfs, fbs = [], [], []
    for i in ids.to_pylist():
        if algo == "sha256":
            seed = hashlib.sha256(str(i).encode()).digest()[:8]
        else:
            seed = hashlib.blake2b(str(i).encode(), digest_size=8).digest()
        nf = 8 + seed[0] % 9
        fb = 48 + seed[1] % 17
        size = nf * fb
        reps = -(-size // 8)
        payloads.append((seed * reps)[:size])
        nfs.append(nf)
        fbs.append(fb)
    src = (
        batch["source"]
        if "source" in batch.column_names
        else pa.array(["synthetic"] * len(payloads), pa.string())
    )
    return pa.table(
        {
            "doc_id": ids,
            "payload": pa.array(payloads, pa.binary()),
            "n_frames": pa.array(nfs, pa.int32()),
            "frame_bytes": pa.array(fbs, pa.int32()),
            "format": pa.array(["fake-rawframes"] * len(payloads), pa.string()),
            "source": src,
        }
    )


def synthesize_image_batch(
    batch: pa.Table, id_col: str = "doc_id", *, algo: str = "blake2b"
) -> pa.Table:
    """Deterministic fake image table conforming to
    ``multimodal_schema('image')``: payload bytes and dimensions derive
    from an 8-byte hash of the id, so any worker produces identical
    rows. Stands in for a real binary column while exercising the REAL
    plumbing (schema, small batches, stateful decode stage). ``algo``:
    'blake2b' (default) or 'sha256' — the sha256 variant exists so a
    DuckDB oracle (which has sha256 but not blake2b) can recompute the
    payload byte content exactly."""
    import hashlib

    ids = batch[id_col]
    if isinstance(ids, pa.ChunkedArray):
        ids = ids.combine_chunks()
    payloads, widths, heights = [], [], []
    for i in ids.to_pylist():
        if algo == "sha256":
            seed = hashlib.sha256(str(i).encode()).digest()[:8]
        else:
            seed = hashlib.blake2b(str(i).encode(), digest_size=8).digest()
        w = 16 + seed[0] % 48
        h = 16 + seed[1] % 48
        reps = -(-(w * h) // 8)
        payloads.append((seed * reps)[: w * h])
        widths.append(w)
        heights.append(h)
    src = (
        batch["source"]
        if "source" in batch.column_names
        else pa.array(["synthetic"] * len(payloads), pa.string())
    )
    return pa.table(
        {
            "doc_id": ids,
            "payload": pa.array(payloads, pa.binary()),
            "width": pa.array(widths, pa.int32()),
            "height": pa.array(heights, pa.int32()),
            "format": pa.array(["fake-gray8"] * len(payloads), pa.string()),
            "source": src,
        },
        schema=multimodal_schema("image"),
    )
