"""Embedding-cosine near-duplicate detection.

Scale shape: multi-table random-hyperplane LSH (seeded, deterministic)
emits NARROW (id, bucket) rows; multi-member buckets come from the
map-side-bucketed int64 dup scan (one low-cardinality shuffle of 12
bytes/row), candidate members gather to the driver (capped loudly),
and only candidate VECTORS are fetched for exact float64 cosine
verification — vectors never ride a shuffle. The hyperplane matrix is
built once per worker from the fixed seed (no broadcast needed — it's
derived state, cached per worker by core/resources.CachedEngineFn like
the reference's module-level compiled validators)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..core.resources import CachedEngineFn
from ..functions.vectors import batch_vectors as _vectors


class HyperplaneBucketer:
    """Multi-table random-hyperplane LSH: ``n_tables`` independent
    hyperplane sets (all derived from the fixed seed). A pair is a
    candidate if it shares a bucket in ANY table — recall for pairs at
    cosine c is 1-(1-p^b)^T with p = 1 - arccos(c)/pi, so tables are
    the recall lever while planes-per-table bounds bucket size.

    Emits ONLY narrow (id, bucket) rows (table id folded into the
    bucket key) — vectors never travel with the bucket exchange; the
    pair stage gathers candidate vectors separately (the
    candidate-scan-then-gather layout of dedup/minhash.py)."""

    def __init__(
        self, vec_col="embedding", id_col="vec_id", *,
        dim=64, n_planes=16, n_tables=1, seed=11,
    ):
        rng = np.random.Generator(np.random.Philox(key=[seed, 0xA11CE]))
        self.planes = rng.standard_normal((dim, n_planes * n_tables)).astype(
            np.float32
        )
        self.n_planes, self.n_tables = n_planes, n_tables
        self.vec_col, self.id_col = vec_col, id_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:  # empty block: keep the schema stable
            return pa.table(
                {
                    self.id_col: batch[self.id_col],
                    "bucket": pa.array([], pa.int64()),
                }
            )
        v = _vectors(batch, self.vec_col)
        n = len(v)
        proj = v @ self.planes  # (n, planes*tables)
        bits = (proj > 0).astype(np.uint64)
        keys = np.zeros((n, self.n_tables), dtype=np.uint64)
        for t in range(self.n_tables):  # table/plane-bounded loops
            for b in range(self.n_planes):
                keys[:, t] |= bits[:, t * self.n_planes + b] << np.uint64(b)
            keys[:, t] |= np.uint64(t) << np.uint64(self.n_planes)
        T = self.n_tables
        rep = np.repeat(np.arange(n, dtype=np.int64), T)
        ids = batch[self.id_col]
        if isinstance(ids, pa.ChunkedArray):
            ids = ids.combine_chunks()
        return pa.table(
            {
                self.id_col: ids.take(pa.array(rep)),
                "bucket": pa.array(keys.reshape(-1).astype(np.int64)),
            }
        )


MAX_BUCKET = 1024  # per-bucket candidate cap; truncation is LOUD


def embedding_dup_pairs(
    ds, vec_col="embedding", id_col="vec_id", *, dim=64, n_planes=16,
    n_tables=1, cosine_threshold=0.95,
    report: dict | None = None,
) -> pd.DataFrame:
    """Verified (id_a < id_b, cosine >= threshold) near-dup pairs.

    ``n_tables`` > 1 enables multi-table LSH (OR-amplified recall; see
    HyperplaneBucketer). Fully distributed candidate scan via the
    shared two-pass scaffold (dedup/scan.py, same layout as
    dedup/minhash.py) — vectors NEVER ride a shuffle: narrow
    (id, bucket) rows feed the bucketed dup scan, candidate members
    gather to the driver (capped loudly), pairs enumerate via the
    shared bucket_pairs_vectorized (per-bucket MAX_BUCKET cap with
    truncated_buckets reporting), and ONLY candidate vectors are
    fetched for the exact float64 cosine verification (vectorized —
    one norm per unique id, batched dots)."""
    import logging

    from ..functions.hashing import _splitmix64
    from .minhash import bucket_pairs_vectorized
    from .scan import gather_candidate_rows, gather_rows_by_id

    empty = pd.DataFrame(
        {
            "id_a": pd.Series(dtype=object),
            "id_b": pd.Series(dtype=object),
            "cosine": pd.Series(dtype="float64"),
        }
    )
    if report is None:
        report = {}
    report["truncated_buckets"] = 0  # assigned, not setdefault: never stale

    def bucketed():
        return ds.map_batches(
            CachedEngineFn(
                HyperplaneBucketer, vec_col=vec_col, id_col=id_col, dim=dim,
                n_planes=n_planes, n_tables=n_tables,
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )

    def mixed_key(t: pa.Table) -> pa.Array:
        b = t["bucket"].to_numpy(zero_copy_only=False).view(np.uint64)
        return pa.array(_splitmix64(b.copy()).view(np.int64))

    gathered = gather_candidate_rows(
        bucketed, mixed_key, id_col, what="embedding-lsh",
        remedy="reduce n_tables or raise n_planes",
    )
    out = empty.copy()
    out.attrs["truncated_buckets"] = 0
    if gathered.empty:
        return out
    pairs, truncated = bucket_pairs_vectorized(
        gathered["bk"].to_numpy(), gathered[id_col].to_numpy(),
        max_bucket=MAX_BUCKET,
    )
    report["truncated_buckets"] = truncated
    if truncated:
        logging.getLogger(__name__).warning(
            "embedding_dup_pairs: %d LSH buckets exceeded MAX_BUCKET=%d and "
            "were truncated — pair coverage is incomplete for those buckets",
            truncated,
            MAX_BUCKET,
        )
    out.attrs["truncated_buckets"] = truncated
    if pairs.empty:
        return out

    # exact cosine verification on candidate vectors only — vectorized:
    # one float64 norm per unique id, batched dot products over pairs
    cand_ids = pd.unique(pd.concat([pairs.id_a, pairs.id_b], ignore_index=True))
    sub = gather_rows_by_id(ds, cand_ids, [id_col, vec_col], id_col)
    idx = {i: j for j, i in enumerate(sub[id_col])}
    missing = [i for i in cand_ids if i not in idx]
    if missing:
        raise RuntimeError(
            f"embedding_dup_pairs: {len(missing)} candidate ids (e.g. "
            f"{missing[:3]!r}) have no vector in the source dataset — "
            "inconsistent id column between scan and verify passes"
        )
    V = np.stack([np.asarray(v, dtype=np.float64) for v in sub[vec_col]])
    norms = np.linalg.norm(V, axis=1)
    ia = pairs.id_a.map(idx).to_numpy(dtype=np.int64)
    ib = pairs.id_b.map(idx).to_numpy(dtype=np.int64)
    denom = norms[ia] * norms[ib]
    dots = np.einsum("ij,ij->i", V[ia], V[ib])
    cos = np.divide(dots, denom, out=np.zeros(len(pairs)), where=denom > 0)
    pairs = pairs.assign(cosine=cos)
    out = (
        pairs[pairs.cosine >= cosine_threshold]
        .sort_values(["id_a", "id_b"])
        .reset_index(drop=True)
    )
    out.attrs["truncated_buckets"] = truncated
    return out
