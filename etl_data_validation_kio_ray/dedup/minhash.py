"""Near-duplicate detection: MinHash + LSH banding.

Scale shape (ray_guide "Near-dup"): shingle+minhash per batch (narrow,
vectorized) -> explode to (band_id, band_key, doc_id) rows -> ONE
groupby shuffle on the band key -> per-bucket candidate pairs ->
verify exact shingle Jaccard -> verified pairs. The verify step
re-hashes only candidate docs (a tiny fraction), broadcast-gathered;
the partitioning assumption is that LSH buckets are small (docs per
(band, key) bucket bounded — enforced with a cap that flags
pathological buckets instead of exploding quadratically)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.grouping import run_starts
from ..functions.hashing import band_keys, hash_string_array, minhash_signatures
from .scan import MAX_CANDIDATE_ROWS, gather_candidate_rows, gather_rows_by_id

MAX_BUCKET = 200  # pairs per bucket cap: |bucket| above this is flagged, not exploded


def _shingle_hashes(text: pa.Array, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Hashed word-k-gram shingles per row (flat, offsets). Word hashes
    are combined arithmetically across the k-window — no string
    concatenation, fully vectorized."""
    words = pc.split_pattern(pc.utf8_lower(text), " ")
    flat_words = pc.list_flatten(words)
    offsets = np.asarray(words.offsets, dtype=np.int64)
    # hashed straight from the Arrow char buffer — no per-word Python
    # objects on this per-token hot path
    wh = hash_string_array(flat_words)
    lens = np.diff(offsets)
    sh_lens = np.maximum(lens - k + 1, 0)
    # shingle i of a row combines word hashes i..i+k-1
    C = np.uint64(0x9E3779B97F4A7C15)
    n_flat = len(wh)
    if n_flat == 0 or sh_lens.sum() == 0:
        return np.empty(0, np.uint64), np.concatenate([[0], np.cumsum(sh_lens)])
    acc = np.zeros(n_flat, dtype=np.uint64)
    for j in range(k):  # k-bounded loop
        shifted = np.empty(n_flat, dtype=np.uint64)
        shifted[: n_flat - j] = wh[j:]
        shifted[n_flat - j :] = 0
        acc = (acc * C) ^ shifted
    # valid shingle start positions: within-row index <= len-k
    row_of = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
    pos_in_row = np.arange(n_flat, dtype=np.int64) - offsets[row_of]
    valid = pos_in_row < (lens[row_of] - k + 1)
    sh_offsets = np.concatenate([[0], np.cumsum(sh_lens)]).astype(np.int64)
    return acc[valid], sh_offsets


class MinHasher:
    """Plain picklable per-batch stage: its state is a few ints."""

    def __init__(self, text_col="text", id_col="doc_id", *, num_perm=128, bands=32, k=3, seed=1):
        self.text_col, self.id_col = text_col, id_col
        self.num_perm, self.bands, self.k, self.seed = num_perm, bands, k, seed

    def __call__(self, batch: pa.Table) -> pa.Table:
        text = batch[self.text_col]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        flat, offsets = _shingle_hashes(text, self.k)
        sig = minhash_signatures(flat, offsets, num_perm=self.num_perm, seed=self.seed)
        bk = band_keys(sig, bands=self.bands)
        n = len(text)
        ids = batch[self.id_col]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        # explode ids via Arrow take — no Python-object round trip
        take_idx = pa.array(np.repeat(np.arange(n, dtype=np.int64), self.bands))
        return pa.table(
            {
                self.id_col: ids.take(take_idx),
                "band_id": pa.array(np.tile(np.arange(self.bands), n), pa.int32()),
                "band_key": pa.array(bk.ravel(), pa.int64()),
            }
        )


def add_minhash_bands(ds, text_col="text", id_col="doc_id", *, num_perm=128, bands=32, k=3):
    """Dataset -> exploded (id, band_id, band_key) rows.

    Task-based ``map_batches`` with a plain picklable MinHasher
    instance: its state is a few ints (permutation params derive
    deterministically from the seed inside the vectorized kernels), so
    there is nothing to cache per worker, and the task fuses with the
    read that feeds it."""
    return ds.map_batches(
        MinHasher(text_col=text_col, id_col=id_col, num_perm=num_perm, bands=bands, k=k),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _combined_bucket_key(t: pa.Table) -> pa.Array:
    """(band_id, band_key) mixed into ONE well-distributed int64 so the
    distributed dup scan can bucket it with a plain modulo."""
    from ..functions.hashing import _splitmix64

    bid = t["band_id"].to_numpy(zero_copy_only=False).astype(np.uint64)
    bk = t["band_key"].to_numpy(zero_copy_only=False).view(np.uint64)
    return pa.array(_splitmix64(bk ^ ((bid + np.uint64(1)) * _GOLDEN)).view(np.int64))


def bucket_pairs_vectorized(
    bucket_keys: np.ndarray, ids: np.ndarray, *, max_bucket: int = MAX_BUCKET
) -> tuple[pd.DataFrame, int]:
    """(bucket_key, id) rows -> deduplicated candidate pairs
    (id_a < id_b), enumerated WITHOUT a Python loop over buckets: rows
    are sorted by (bucket, id), bucket segments grouped BY SIZE, and
    each size class emits its pairs with one fancy-indexed
    ``np.triu_indices`` expansion. Buckets above ``max_bucket`` keep
    their first ``max_bucket`` members and are counted in the returned
    ``truncated_buckets`` (loud coverage cap, never silent).

    Used by the MinHash driver-side candidate stage; the SimHash and
    embedding stages enumerate per-bucket ON the reducers (they carry
    signatures/vectors for in-bucket verification) with the same
    cap-and-count contract."""
    df = pd.DataFrame({"bk": bucket_keys, "id": ids})
    df = df.drop_duplicates(["bk", "id"]).sort_values(
        ["bk", "id"], kind="mergesort", ignore_index=True
    )
    bks = df["bk"].to_numpy()
    idv = df["id"].to_numpy()
    n = len(bks)
    if n == 0:
        return pd.DataFrame({"id_a": [], "id_b": []}), 0
    starts = run_starts(bks)
    sizes = np.diff(np.r_[starts, n])
    truncated = int((sizes > max_bucket).sum())
    sizes = np.minimum(sizes, max_bucket)
    out_a: list[np.ndarray] = []
    out_b: list[np.ndarray] = []
    for s in np.unique(sizes):
        if s < 2:
            continue
        sel = starts[sizes == s]
        mat = sel[:, None] + np.arange(s)[None, :]
        iu, ju = np.triu_indices(int(s), k=1)
        out_a.append(idv[mat[:, iu]].ravel())
        out_b.append(idv[mat[:, ju]].ravel())
    if not out_a:
        return pd.DataFrame({"id_a": [], "id_b": []}), truncated
    pairs = pd.DataFrame(
        {"id_a": np.concatenate(out_a), "id_b": np.concatenate(out_b)}
    ).drop_duplicates(ignore_index=True)
    return pairs, truncated


def exact_jaccard_for_pairs(
    ds, pairs: pd.DataFrame, text_col: str, id_col: str, k: int
) -> pd.DataFrame:
    """Exact word-k-gram Jaccard appended to candidate ``pairs``:
    gathers ONLY the candidate docs (broadcast id probe), builds exact
    tuple shingle sets per doc. Bounded by the candidate count, which
    the LSH stage already capped."""
    cand_ids = pd.unique(pd.concat([pairs.id_a, pairs.id_b], ignore_index=True))
    sub = gather_rows_by_id(ds, cand_ids, [id_col, text_col], id_col)
    shingle_sets: dict = {}
    for did, text in zip(sub[id_col], sub[text_col]):
        ws = str(text).lower().split(" ")
        shingle_sets[did] = {tuple(ws[i : i + k]) for i in range(len(ws) - k + 1)}
    empty: set = set()
    jac = []
    for a, b in zip(pairs.id_a, pairs.id_b):
        sa, sb = shingle_sets.get(a, empty), shingle_sets.get(b, empty)
        u = len(sa | sb)
        jac.append(len(sa & sb) / u if u else 0.0)
    return pairs.assign(jaccard=jac)


def minhash_dedup_pairs(
    ds,
    text_col="text",
    id_col="doc_id",
    *,
    num_perm=128,
    bands=32,
    k=3,
    jaccard_threshold=0.8,
    num_buckets=256,
    report: dict | None = None,
    sink_dir: str | None = None,
) -> pd.DataFrame:
    """Verified near-dup pairs (id_a < id_b, jaccard >= threshold).

    Fully distributed candidate scan — nothing proportional to
    docs x bands ever reaches the driver or is pinned in the object
    store:

      pass A: banded rows -> combined int64 bucket key -> map-side
              ``key % num_buckets`` bucketing -> ONE low-cardinality
              groupby shuffle (12 bytes/row) -> per-bucket sort-based
              dup scan (stages/uniqueness.dup_int64_column). Only the
              (tiny) duplicated bucket keys are collected.
      pass B: banded rows recomputed lazily, filtered by a broadcast
              ``is_in`` probe on the duplicated keys; only candidate
              bucket MEMBERS (a small fraction, gather capped at
              MAX_CANDIDATE_ROWS) reach the driver for pair formation.

    The banded dataset is intentionally NOT materialized: recomputing
    the (vectorized, CPU-cheap) minhash pass twice costs far less at
    scale than pinning docs x bands rows in the object store between
    passes.

    Buckets above MAX_BUCKET are truncated LOUDLY: the count is
    returned in ``report['truncated_buckets']`` (also set on the result
    DataFrame's ``.attrs``) and logged. Final verification recomputes
    exact shingle Jaccard for candidate docs, so reported pairs are
    never hash-approximate.

    ``sink_dir``: also publish the verified pairs as Parquet there
    (atomic replace, written on EVERY return path so a re-run can never
    leave a stale previous result behind). This is a durability /
    handoff convenience — downstream stages (connected components,
    keep-list jobs) can re-read the pairs without re-running the scan —
    NOT a memory valve: pair formation is driver-side by design, hard-
    bounded by MAX_CANDIDATE_ROWS/MAX_BUCKET, so the frame always fits
    the driver or the scan raises loudly first."""
    import logging

    empty = pd.DataFrame({"id_a": [], "id_b": [], "jaccard": []})
    if report is None:
        report = {}
    report["truncated_buckets"] = 0  # assigned, not setdefault: never stale

    def publish(out: pd.DataFrame) -> pd.DataFrame:
        # written on EVERY return path: an empty result REPLACES any
        # previous run's pairs rather than leaving them stale.
        # SINGLE-WRITER assumption: os.replace is atomic per process,
        # but two concurrent runs sharing one sink_dir last-write-win;
        # the embedded run_id metadata lets a downstream consumer
        # detect which run produced the file (and mixed-run reads).
        if sink_dir is not None:
            import os
            import uuid

            import pyarrow as pa
            import pyarrow.parquet as pq

            os.makedirs(sink_dir, exist_ok=True)
            tbl = pa.Table.from_pandas(out, preserve_index=False)
            tbl = tbl.replace_schema_metadata(
                {
                    **(tbl.schema.metadata or {}),
                    b"minhash_pairs_run_id": uuid.uuid4().hex.encode(),
                    b"minhash_pairs_writer_pid": str(os.getpid()).encode(),
                }
            )
            tmp = os.path.join(sink_dir, f"pairs.parquet.tmp.{os.getpid()}")
            pq.write_table(tbl, tmp)
            os.replace(tmp, os.path.join(sink_dir, "pairs.parquet"))
        return out

    def banded():
        return add_minhash_bands(
            ds, text_col, id_col, num_perm=num_perm, bands=bands, k=k
        )

    gathered = gather_candidate_rows(
        banded, _combined_bucket_key, id_col,
        num_buckets=num_buckets, what="minhash",
        remedy="raise bands/num_perm or dedup exactly first",
    )
    if gathered.empty:
        out = empty.copy()
        out.attrs["truncated_buckets"] = 0
        return publish(out)
    pairs, truncated = bucket_pairs_vectorized(
        gathered["bk"].to_numpy(), gathered[id_col].to_numpy(), max_bucket=MAX_BUCKET
    )
    report["truncated_buckets"] = truncated
    if truncated:
        logging.getLogger(__name__).warning(
            "minhash_dedup_pairs: %d LSH buckets exceeded MAX_BUCKET=%d and were "
            "truncated — pair coverage is incomplete for those buckets",
            truncated,
            MAX_BUCKET,
        )
    if pairs.empty:
        out = empty.copy()
        out.attrs["truncated_buckets"] = truncated
        return publish(out)

    pairs = exact_jaccard_for_pairs(ds, pairs, text_col, id_col, k)
    out = (
        pairs[pairs.jaccard >= jaccard_threshold]
        .sort_values(["id_a", "id_b"])
        .reset_index(drop=True)
    )
    out.attrs["truncated_buckets"] = truncated
    return publish(out)
