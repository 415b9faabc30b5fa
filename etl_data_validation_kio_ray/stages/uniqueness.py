"""Global doc_id uniqueness — the one genuinely wide (shuffled) rule.

Analog of the reference's duplicate detection: GROUP BY id HAVING
COUNT(*) > 1 (/root/reference/src/app2/etl_validation/specs.py:110-143
at E, :148-169 at T) and the in-payload ``_find_duplicates``
(/root/reference/src/app2/validators/stg/uniqueness_suite/areas_uniqueness.py:32-39).

Scale design (SURVEY.md §7.3):

  1. The exchange moves ONLY an 8-byte hash per row: the key scan
     (`read_parquet(columns=[id_col])`, heavy ``tokens`` column pruned
     at the read) is mapped to ``hash64(doc_id)``, each batch's hashes
     become one blob, and :func:`candidate_hashes_from_blobs` splits
     every blob map-side into per-bucket sub-blobs before a
     ``groupby(bucket)`` exchange — at 10^12 rows that is the
     difference between shuffling ~8 TB and shuffling the full
     multi-hundred-TB id strings, and the exchange sorts #blobs x
     buckets rows, not one row per id. Every distributed duplicate
     scan of the package (content hashes, LSH bucket keys) is a
     projection into this one exchange.
  2. Candidate hashes with count>1 are a SMALL set (true duplicates +
     ~n²/2⁶⁴ expected 64-bit collisions). They are collected to the
     driver and broadcast.
  3. An EXACT confirm pass re-scans the keys with a vectorized
     ``is_in`` probe on the candidate hashes and counts the *actual*
     id strings of the hits — hash collisions are filtered here, so
     the result is exact, never probabilistic. The scan reads only the
     files that can hold a candidate: when the driver found the
     candidates it also knows which partitions' hashes hold one, so
     only those files are read, plus every file whose footer does not
     show it carries only its own partition (pipelines/validate.py).
     When those files' key columns are small, they are read and probed
     on the driver, without a Ray execution.

The confirm scan can carry each row's partition along
(``confirm_duplicates(..., group_col=...)``), so the violation rows, one
per offending input row with its real partition, come from the same
scan (`occurrence_violations`).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..sketches.hll import hash64

MAX_DUP_KEYS_COLLECTED = 5_000_000  # driver-side safety valve


def blob_hashes(binary_arr) -> np.ndarray:
    """Concatenated int64 view over a binary column of hash blobs —
    ZERO-COPY: the Arrow data buffer of a dense binary array is exactly
    the blobs back-to-back, so no per-blob frombuffer+concatenate."""
    if isinstance(binary_arr, pa.ChunkedArray):
        binary_arr = binary_arr.combine_chunks()
    arr = binary_arr.drop_null()
    if len(arr) == 0:
        return np.empty(0, dtype=np.int64)
    offs_buf, data_buf = arr.buffers()[1], arr.buffers()[2]
    offs = np.frombuffer(offs_buf, dtype=np.int32)
    start = int(offs[arr.offset])
    end = int(offs[arr.offset + len(arr)])
    return np.frombuffer(data_buf, dtype=np.uint8)[start:end].view(np.int64)


def writable_blob_hashes(binary_arr) -> tuple[np.ndarray, object]:
    """Like :func:`blob_hashes` but the returned int64 array is
    WRITABLE — zero-copy into the column's own Arrow buffer when that
    buffer is mutable (freshly read / filtered, exclusively owned) and
    8-aligned, else a fresh copy.

    Returns ``(array, keepalive)``: the caller MUST hold ``keepalive``
    (the Arrow array backing a zero-copy view) for as long as the numpy
    array is used — the ctypes view does not itself reference the
    buffer. Mutating the view mutates the column; only use this on
    tables the caller owns exclusively and discards afterwards (the
    driver-side candidate scan over freshly-read kind=hash rows)."""
    if isinstance(binary_arr, pa.ChunkedArray):
        binary_arr = binary_arr.combine_chunks()
    arr = binary_arr.drop_null()
    if len(arr) == 0:
        return np.empty(0, dtype=np.int64), None
    offs_buf, data_buf = arr.buffers()[1], arr.buffers()[2]
    offs = np.frombuffer(offs_buf, dtype=np.int32)
    start = int(offs[arr.offset])
    end = int(offs[arr.offset + len(arr)])
    n = (end - start) // 8
    if data_buf.is_mutable and (data_buf.address + start) % 8 == 0:
        import ctypes

        view = np.ctypeslib.as_array(
            (ctypes.c_int64 * n).from_address(data_buf.address + start)
        )
        return view, arr
    return (
        np.frombuffer(data_buf, dtype=np.uint8)[start:end].view(np.int64).copy(),
        None,
    )


def dup_values(h: np.ndarray, *, sort_inplace: bool = False) -> np.ndarray:
    """Distinct values occurring more than once. sort+diff, not
    np.unique(return_counts): the sort-only path is dramatically faster
    (np.unique's extra passes dominate on large arrays) and duplicates
    are assumed rare, so the second-level dedupe input is tiny.

    ``sort_inplace=True`` sorts ``h``'s own memory (caller must own it
    exclusively): ``np.sort`` otherwise allocates a fresh copy whose
    first-touch page faults cost ~4x the sort itself on fragmented
    hosts (measured: 1.3 s fresh-alloc vs 0.26 s in-place over 16M
    int64) — this is the driver-tail path of every validation run."""
    if len(h) < 2:
        return np.empty(0, dtype=h.dtype if len(h) else np.int64)
    if sort_inplace and h.flags.writeable:
        h.sort()
        s = h
    else:
        s = np.sort(h)
    cand = s[1:][s[1:] == s[:-1]]
    if len(cand) == 0:
        return cand.copy()  # never alias the (possibly huge) sort buffer
    return np.unique(cand)  # tiny


def _collect(ds, schema: pa.Schema) -> pa.Table:
    tables = [
        b if isinstance(b, pa.Table) else pa.Table.from_batches([b])
        for b in ds.iter_batches(batch_format="pyarrow", batch_size=2**20)
    ]
    tables = [t.select(schema.names) for t in tables if t.num_rows]
    return pa.concat_tables(tables) if tables else schema.empty_table()


def _id_hashes(t: pa.Table, id_col: str) -> np.ndarray:
    ids = t[id_col].combine_chunks().drop_null()
    if len(ids) == 0:
        return np.empty(0, dtype=np.int64)
    return hash64(ids.to_numpy(zero_copy_only=False)).view(np.int64)


def _as_blob(h) -> pa.Table:
    """One batch's int64 values as a single blob row: the projection
    every caller makes into the exchange of candidate_hashes_from_blobs."""
    h = np.ascontiguousarray(h, dtype=np.int64)
    return pa.table({"payload": pa.array([h.tobytes()] if len(h) else [], pa.binary())})


def dup_int64_column(ds, col: str = "h", *, num_buckets: int = 256) -> pa.Table:
    """Distinct int64 values of ``col`` occurring more than once
    GLOBALLY -> small pyarrow.Table ("h": int64).

    The generic distributed duplicate scan: each batch's values become
    one blob, fed to the bucketed blob exchange of
    :func:`candidate_hashes_from_blobs`. Callers feed PRE-MIXED hashes
    (splitmix64-style) so the bucket modulo is uniform. Used by
    exact-dedup content hashes and the MinHash/SimHash LSH bucket-key
    scans."""

    def project(t: pa.Table) -> pa.Table:
        return _as_blob(t[col].combine_chunks().drop_null().to_numpy(zero_copy_only=False))

    return candidate_hashes_from_blobs(
        ds.map_batches(project, batch_format="pyarrow"), num_buckets=num_buckets
    )


def candidate_hashes_from_blobs(hash_ds, *, num_buckets: int = 256) -> pa.Table:
    """Dataset[(payload: binary int64-hash blob, ...)] -> small
    pyarrow.Table ("h": int64) of hashes occurring more than once
    globally: the one distributed duplicate-scan exchange. All copies of
    a hash land in one ``h % num_buckets`` bucket, so one sort per
    bucket sees every occurrence.

    Each batch's blobs unpack to one int64 column, and
    :func:`relational.bucket_exchange` packs that per bucket BEFORE the
    shuffle, so the exchange sorts only (#batches x num_buckets)
    envelope rows — never one row per id.
    """
    from ..pipelines.relational import bucket_exchange

    def unpack(t: pa.Table) -> pa.Table:
        return pa.table({"h": pa.array(blob_hashes(t["payload"]), pa.int64())})

    def bucket_dups(g: pa.Table, _b: int) -> pa.Table:
        h = g["h"].combine_chunks().to_numpy(zero_copy_only=False)
        return pa.table({"h": pa.array(dup_values(h), pa.int64())})

    schema = pa.schema([("h", pa.int64())])
    return _collect(
        bucket_exchange(
            hash_ds.map_batches(unpack, batch_format="pyarrow"),
            lambda t, nb: t["h"].to_numpy() % nb,
            bucket_dups,
            schema=schema,
            num_buckets=num_buckets,
        ),
        schema,
    )


def confirm_duplicates(
    keys_ds, cand: pa.Table, id_col: str = "doc_id", group_col: str | None = None
) -> pa.Table:
    """Exact (id_col, dup_count) table for candidate hashes: re-scan the
    id column, keep rows whose hash is a candidate (collisions included),
    count the actual id strings. Empty candidates -> empty table.

    ``keys_ds`` is a Ray Dataset, probed batch by batch in its tasks, or
    a ``pa.Table`` small enough for the driver, probed in-process with
    the same probe and no Ray execution.

    ``group_col``: a column of ``keys_ds`` (e.g. the partition) whose
    value for each occurrence of a duplicated id is listed in a third
    column of that name, sorted, so the same scan also gives the
    per-row violations (:func:`occurrence_violations`)."""
    cols = [id_col] + ([group_col] if group_col else [])
    schema = pa.schema([(c, pa.string()) for c in cols])
    empty = pa.table(
        {id_col: pa.array([], pa.string()), "dup_count": pa.array([], pa.int64())}
        | ({group_col: pa.array([], pa.list_(pa.string()))} if group_col else {})
    )
    if cand.num_rows == 0:
        return empty
    if cand.num_rows > MAX_DUP_KEYS_COLLECTED:
        raise RuntimeError(
            f"{cand.num_rows} candidate duplicate keys exceeds driver collect "
            f"cap {MAX_DUP_KEYS_COLLECTED}; input looks pathologically duplicated"
        )
    cand_h = cand["h"].combine_chunks()

    def probe(t: pa.Table, value_set) -> pa.Table:
        t = t.select(cols)
        if t[id_col].null_count:
            t = t.filter(pc.is_valid(t[id_col]))
        h = _id_hashes(t, id_col)
        return t.filter(pc.is_in(pa.array(h, pa.int64()), value_set=value_set))

    if isinstance(keys_ds, pa.Table):
        hits = probe(keys_ds, cand_h)
    else:
        import ray

        cand_ref = ray.put(cand_h)
        hits = _collect(
            keys_ds.map_batches(
                lambda t: probe(t, ray.get(cand_ref)),
                batch_format="pyarrow",
                zero_copy_batch=True,
            ),
            schema,
        )
    if hits.num_rows == 0:
        return empty
    if group_col:
        hits = hits.sort_by([(id_col, "ascending"), (group_col, "ascending")])
    aggs = [(id_col, "count")] + ([(group_col, "list")] if group_col else [])
    g = hits.group_by(id_col, use_threads=False).aggregate(aggs)
    dup = pc.greater(g[f"{id_col}_count"], 1)
    out = pa.table(
        {
            id_col: g[id_col].filter(dup),
            "dup_count": pc.cast(g[f"{id_col}_count"].filter(dup), pa.int64()),
        }
        | ({group_col: g[f"{group_col}_list"].filter(dup)} if group_col else {})
    )
    return out.sort_by([(id_col, "ascending")])


def occurrence_violations(dup_table: pa.Table, id_col: str, group_col: str) -> pa.Table:
    """(rule_id, doc_id, partition, reason) rows, one per occurrence of
    each duplicated id, from a :func:`confirm_duplicates` table built
    with ``group_col``."""
    occ = dup_table[group_col].combine_chunks()
    at = pc.list_parent_indices(occ)
    n = len(at)
    return pa.table(
        {
            "rule_id": pa.array(["doc_id_unique"] * n, pa.string()),
            "doc_id": dup_table[id_col].take(at),
            "partition": pc.list_flatten(occ),
            "reason": pa.array(
                [f"doc_id appears {c} times" for c in dup_table["dup_count"].take(at).to_pylist()],
                pa.string(),
            ),
        }
    )


def duplicate_id_counts(
    keys_ds, id_col: str = "doc_id", *, num_buckets: int | None = None
) -> pa.Table:
    """Dataset[(id_col, ...)] -> pyarrow.Table (id_col, dup_count) of ids
    seen more than once. Exact (collision-checked); the exchange
    (:func:`candidate_hashes_from_blobs`) carries only int64 hashes, one
    blob per batch.

    ``num_buckets`` bounds reducer memory: bucket size ≈ rows × 8B /
    num_buckets, so size it to rows/~30M per bucket at large scale
    (default: 4× input blocks, floor 64).
    """
    if num_buckets is None:
        try:
            num_buckets = max(64, keys_ds.num_blocks() * 4)
        except Exception:  # noqa: BLE001 — unbacked plans have no block count
            num_buckets = 256

    cand = candidate_hashes_from_blobs(
        keys_ds.map_batches(
            lambda t: _as_blob(_id_hashes(t, id_col)),
            batch_format="pyarrow",
            zero_copy_batch=True,
        ),
        num_buckets=num_buckets,
    )
    return confirm_duplicates(keys_ds, cand, id_col)
