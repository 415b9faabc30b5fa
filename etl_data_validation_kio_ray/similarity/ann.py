"""Similarity search over an embedding column.

- ``brute_force_topk``: exact cosine top-k. The query matrix is
  broadcast ONCE (``ray.put``), each batch computes a numpy matmul and
  keeps its local top-k (argpartition); the driver merges the tiny
  per-batch partials. One streaming pass, no shuffle.
- ``ivf_topk``: the scale path — coarse k-means centroids (seeded
  sample, trained on the driver), vectors assigned to cells; queries
  probe only the nearest ``n_probe`` cells. Same partial-top-k merge.
"""

from __future__ import annotations

import heapq
import math

import numpy as np
import pandas as pd
import pyarrow as pa

from ..core.resources import CachedEngineFn
from ..functions.vectors import batch_vectors as _vectors


def _normalize(m: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(m, axis=1, keepdims=True)
    return m / np.maximum(n, 1e-12)


class _TopKScorer:
    """Per-batch-pure scorer: resolves the broadcast query matrix once
    per worker (run through core/resources.CachedEngineFn)."""

    def __init__(self, queries_ref, vec_col: str, id_col: str, k: int, dtype=np.float32):
        import ray

        q = ray.get(queries_ref) if isinstance(queries_ref, ray.ObjectRef) else queries_ref
        self.dtype = dtype
        self.q = _normalize(np.asarray(q, dtype=dtype))  # (nq, dim)
        self.vec_col, self.id_col, self.k = vec_col, id_col, k

    def __call__(self, batch: pa.Table) -> pa.Table:
        v = _normalize(_vectors(batch, self.vec_col).astype(self.dtype))  # (n, dim)
        sims = self.q @ v.T  # (nq, n)
        idc = batch[self.id_col]
        if isinstance(idc, pa.ChunkedArray):
            idc = idc.combine_chunks()
        ids = idc.to_numpy(zero_copy_only=False)
        k = min(self.k, sims.shape[1])
        part = np.argpartition(-sims, k - 1, axis=1)[:, :k]  # local top-k per query
        nq = sims.shape[0]
        qi = np.repeat(np.arange(nq), k)
        vi = part.ravel()
        return pa.table(
            {
                "query_id": pa.array(qi, pa.int64()),
                self.id_col: pa.array(ids[vi].tolist()),
                "score": pa.array(sims[qi, vi].astype(np.float64)),
            }
        )


def brute_force_topk(
    ds, queries: np.ndarray, *, vec_col="embedding", id_col="vec_id", k=10,
    dtype=np.float32,
) -> pd.DataFrame:
    """Exact cosine top-k: (query_id, id, score, rank), deterministic
    tie-break by (score desc, id asc). ``dtype=np.float64`` matches
    double-precision SQL oracles."""
    import ray

    qref = ray.put(np.asarray(queries, dtype=dtype))
    partials = ds.map_batches(
        CachedEngineFn(
            _TopKScorer, queries_ref=qref, vec_col=vec_col, id_col=id_col, k=k, dtype=dtype
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).to_pandas()
    return _merge_topk(partials, id_col, k)


def _merge_topk(partials: pd.DataFrame, id_col: str, k: int) -> pd.DataFrame:
    """Driver-side merge of per-batch top-k partials. Bounded by
    construction: each scoring batch emits at most k rows per query, so
    ``partials`` holds <= k x num_batches x num_queries rows (k and the
    query count are small constants; batches are ~block count) — never
    proportional to the corpus."""
    out = []
    for qid, g in partials.groupby("query_id"):
        g = g.sort_values(["score", id_col], ascending=[False, True]).head(k)
        g = g.assign(rank=np.arange(1, len(g) + 1))
        out.append(g)
    return (
        pd.concat(out, ignore_index=True)[["query_id", id_col, "score", "rank"]]
        if out
        else pd.DataFrame({"query_id": [], id_col: [], "score": [], "rank": []})
    )


def ivf_topk(
    ds,
    queries: np.ndarray,
    *,
    vec_col="embedding",
    id_col="vec_id",
    k=10,
    n_cells=16,
    n_probe=4,
    train_sample=2048,
    seed=13,
    iters=10,
) -> pd.DataFrame:
    """IVF-style approximate top-k: train coarse centroids on a seeded
    sample, score each batch only against queries probing that batch's
    cells. Approximate by construction; recall rises with n_probe."""
    import ray

    sample = ds.random_sample(
        min(1.0, train_sample / max(1, ds.count())), seed=seed
    ).to_pandas()
    X = _normalize(np.stack([np.asarray(v, np.float32) for v in sample[vec_col]]))
    rng = np.random.Generator(np.random.Philox(key=[seed, 0xC3]))
    cents = X[rng.choice(len(X), size=min(n_cells, len(X)), replace=False)]
    for _ in range(iters):  # driver-side mini k-means on the sample
        assign = (X @ cents.T).argmax(axis=1)
        for c in range(len(cents)):
            m = assign == c
            if m.any():
                cents[c] = _normalize(X[m].mean(axis=0, keepdims=True))[0]
    q = _normalize(np.asarray(queries, dtype=np.float32))
    probe = np.argsort(-(q @ cents.T), axis=1)[:, :n_probe]  # (nq, n_probe)
    cents_ref = ray.put(cents)
    probe_ref = ray.put(probe)
    qref = ray.put(q)

    class CellScorer:
        def __init__(self):
            self.c = ray.get(cents_ref)
            self.probe = ray.get(probe_ref)
            self.q = ray.get(qref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            v = _normalize(_vectors(batch, vec_col))
            cell = (v @ self.c.T).argmax(axis=1)  # (n,)
            idc = batch[id_col]
            if isinstance(idc, pa.ChunkedArray):
                idc = idc.combine_chunks()
            ids = idc.to_numpy(zero_copy_only=False)
            outs = {"query_id": [], id_col: [], "score": []}
            probed = self.probe  # (nq, n_probe)
            for qi in range(len(self.q)):  # nq-bounded
                mask = np.isin(cell, probed[qi])
                if not mask.any():
                    continue
                sims = self.q[qi] @ v[mask].T
                kk = min(k, len(sims))
                top = np.argpartition(-sims, kk - 1)[:kk]
                outs["query_id"].extend([qi] * kk)
                outs[id_col].extend(ids[mask][top].tolist())
                outs["score"].extend(sims[top].astype(np.float64).tolist())
            return pa.table(
                {
                    "query_id": pa.array(outs["query_id"], pa.int64()),
                    id_col: pa.array(outs[id_col]),
                    "score": pa.array(outs["score"], pa.float64()),
                }
            )

    partials = ds.map_batches(
        CachedEngineFn(CellScorer), batch_format="pyarrow", zero_copy_batch=True
    ).to_pandas()
    return _merge_topk(partials, id_col, k)


def kmeans(
    ds,
    *,
    vec_col: str = "embedding",
    k: int = 8,
    iters: int = 10,
    seed_ids: list | None = None,
    id_col: str = "vec_id",
):
    """Distributed Lloyd's k-means over an embedding column — the
    clustering step of semantic dedup / corpus curation (and the
    full-data refinement of :func:`ivf_topk`'s sample-trained cells).

    Each iteration is ONE streaming pass: every batch assigns its
    vectors to the nearest centroid (matmul against the broadcast
    centroid matrix) and emits per-cluster mergeable partials
    (n, Σvec, Σ||x-c||²); the driver folds partials into new centroids
    — O(k x dim) driver state, no vector ever leaves its worker twice.
    Initial centroids are the k smallest ``id_col`` rows (or the
    ``seed_ids`` rows, ordered by ``id_col``) — deterministic, no RNG.
    Both seed paths are vectorized batch scans: a per-batch k-smallest
    partial (never a global sort) or a broadcast ``pc.is_in`` filter
    (never a per-row Python predicate); only k (or k×blocks bounded)
    candidate rows reach the driver. Empty clusters keep their previous
    centroid. Lloyd's invariant — inertia never increases — is checked
    every iteration (1e-6 relative tolerance for float reduction
    order) and violations raise.

    Returns (centroids ndarray (k, dim), history list of inertia,
    sizes ndarray (k,)).
    """
    import pyarrow as pa
    import pyarrow.compute as pc

    import ray

    if seed_ids is None:
        # Partial top-k: each batch keeps its k smallest ids; the
        # driver merges k×num_batches bounded candidates.
        def k_smallest(t: pa.Table) -> pa.Table:
            t = t.select([id_col, vec_col])
            idx = pc.sort_indices(t, sort_keys=[(id_col, "ascending")])
            return t.take(idx.slice(0, k))

        cand = ds.map_batches(
            k_smallest, batch_format="pyarrow", zero_copy_batch=True
        )
    else:
        sref = ray.put(pa.array(list(seed_ids)))

        def pick(t: pa.Table) -> pa.Table:
            col = t[id_col]
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            mask = pc.fill_null(pc.is_in(col, value_set=ray.get(sref)), False)
            return t.select([id_col, vec_col]).filter(mask)

        cand = ds.map_batches(pick, batch_format="pyarrow", zero_copy_batch=True)
    head = (
        cand.to_pandas().sort_values(id_col).head(k).reset_index(drop=True)
    )
    if len(head) < k:
        raise ValueError(
            f"kmeans: only {len(head)} seed rows found for k={k} "
            f"(id_col={id_col!r}, seed_ids={'<given>' if seed_ids is not None else None})"
        )
    cent = np.stack(
        [np.asarray(v, np.float64) for v in head[vec_col]]
    )  # (k, dim)

    history: list[float] = []
    sizes = np.zeros(k, dtype=np.int64)
    for it in range(iters):
        cref = ray.put(cent)

        def partial(t: pa.Table) -> pa.Table:
            c = ray.get(cref)  # (k, dim)
            v = _vectors(t, vec_col).astype(np.float64)  # (n, dim)
            # ||x-c||^2 = ||x||^2 - 2 x.c + ||c||^2, argmin over c
            d = (
                (v * v).sum(axis=1)[:, None]
                - 2.0 * (v @ c.T)
                + (c * c).sum(axis=1)[None, :]
            )
            a = d.argmin(axis=1)
            nk = c.shape[0]
            n = np.bincount(a, minlength=nk).astype(np.int64)
            sums = np.zeros_like(c)
            np.add.at(sums, a, v)
            inertia = np.bincount(a, weights=d[np.arange(len(a)), a], minlength=nk)
            return pa.table(
                {
                    "cluster": pa.array(np.arange(nk, dtype=np.int64)),
                    "n": pa.array(n),
                    "inertia": pa.array(inertia),
                    "sumvec": pa.array(list(sums)),
                }
            )

        # Fold partials with math.fsum (exactly-rounded summation):
        # the result is IDENTICAL for every block-arrival order, so
        # centroids, inertia and assignments are bit-reproducible
        # across runs — a plain += fold drifted in the low-order bits
        # with the streaming executor's nondeterministic batch order.
        import math

        ns: dict[int, int] = {}
        inert_parts: list[float] = []
        sum_parts: dict[int, list[np.ndarray]] = {}
        for b in ds.map_batches(
            partial, batch_format="pyarrow", zero_copy_batch=True
        ).iter_batches(batch_format="pyarrow"):
            for c_, n_, i_, s_ in zip(
                b["cluster"].to_pylist(),
                b["n"].to_pylist(),
                b["inertia"].to_pylist(),
                b["sumvec"].to_pylist(),
            ):  # k rows per batch: tiny
                ns[c_] = ns.get(c_, 0) + n_
                inert_parts.append(i_)
                sum_parts.setdefault(c_, []).append(np.asarray(s_))
        sizes = np.array([ns.get(i, 0) for i in range(k)], dtype=np.int64)
        inertia = math.fsum(inert_parts)
        if history and inertia > history[-1] * (1 + 1e-6):
            raise AssertionError(
                f"k-means inertia increased at iter {it}: "
                f"{history[-1]} -> {inertia}"
            )
        history.append(inertia)
        new_cent = cent.copy()  # empty clusters keep their centroid
        for i in range(k):
            if ns.get(i, 0) > 0:
                parts = sum_parts[i]
                new_cent[i] = np.array(
                    [math.fsum(p[d] for p in parts) for d in range(cent.shape[1])]
                ) / ns[i]
        if np.allclose(new_cent, cent, rtol=0, atol=0):
            break
        cent = new_cent
    return cent, history, sizes


def kcenter_greedy(
    ds,
    k: int,
    *,
    vec_col: str = "embedding",
    id_col: str = "vec_id",
):
    """Greedy k-center (farthest-point) coreset selection — the
    diverse-subset curation primitive (pick the point farthest from the
    current centers, k times; 2-approximation of the k-center optimum,
    Gonzalez 1985). Fully deterministic: the seed is the point with the
    largest (||x||^2, then smallest id) and every round breaks float
    ties by smallest id, so the selection is independent of block
    layout and cluster size.

    Scale shape: k passes over the data (documented cost — k is a
    curation knob, typically <= 100); each pass broadcasts the current
    centers (k x dim, tiny), computes per-batch min-distance-to-centers
    with one numpy matmul, and ships ONE (best_dist, best_id, best_vec)
    candidate row per batch — the driver folds #batches candidates.
    Distances are per-row deterministic float64 (same kernel every
    engine), so the argmax fold is reproducible.

    Returns (ids list[int], radii list[float]): radii[i] = coverage
    radius (max over data of distance to nearest selected center) just
    BEFORE the i-th selection — non-increasing by construction, which
    callers can self-assert."""
    if k < 1:
        raise ValueError(f"kcenter_greedy: k must be >= 1, got {k}")
    import ray

    def fold_best(parts) -> tuple[float, int, np.ndarray]:
        best = None
        for d, i, v in parts:
            key = (-d, i)
            if best is None or key < (-best[0], best[1]):
                best = (d, i, v)
        return best

    # seed pass: max squared norm, tie -> smallest id
    def seed_partial(t: pa.Table):
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(ids) == 0:
            return pa.table(
                {"d": pa.array([], pa.float64()),
                 "i": pa.array([], pa.int64()),
                 "v": pa.array([], pa.list_(pa.float64()))}
            )
        m = np.vstack(t[vec_col].to_numpy(zero_copy_only=False)).astype(
            np.float64
        )
        nrm = (m * m).sum(axis=1)
        j = np.lexsort((ids, -nrm))[0]
        return pa.table(
            {"d": pa.array([float(nrm[j])]),
             "i": pa.array([int(ids[j])], pa.int64()),
             "v": pa.array([m[j].tolist()], pa.list_(pa.float64()))}
        )

    def collect_candidates(res) -> list:
        out = []
        for b in res.iter_batches(batch_format="pyarrow"):
            for d, i, v in zip(
                b["d"].to_pylist(), b["i"].to_pylist(), b["v"].to_pylist()
            ):
                out.append((float(d), int(i), np.asarray(v, np.float64)))
        return out

    # the traversal makes k+1 passes; pin the input blocks in the
    # object store once so every pass after the first is re-read-free
    # (measured 19.5 s -> ~4 s at sf0.1: parquet decode dominated)
    ds = ds.materialize()
    seed = fold_best(
        collect_candidates(
            ds.map_batches(seed_partial, batch_format="pyarrow",
                           zero_copy_batch=True)
        )
    )
    if seed is None:
        raise ValueError("kcenter_greedy: empty dataset")
    ids = [seed[1]]
    vecs = [seed[2]]
    radii: list[float] = []
    for _ in range(1, k + 1):
        centers = np.vstack(vecs)
        centers_ref = ray.put(centers)

        def far_partial(t: pa.Table, _ref=centers_ref):
            c = ray.get(_ref)
            idsb = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
            if len(idsb) == 0:
                return pa.table(
                    {"d": pa.array([], pa.float64()),
                     "i": pa.array([], pa.int64()),
                     "v": pa.array([], pa.list_(pa.float64()))}
                )
            m = np.vstack(t[vec_col].to_numpy(zero_copy_only=False)).astype(
                np.float64
            )
            # ||x-c||^2 = ||x||^2 - 2 x.c + ||c||^2, min over centers
            d2 = (
                (m * m).sum(axis=1)[:, None]
                - 2.0 * (m @ c.T)
                + (c * c).sum(axis=1)[None, :]
            ).min(axis=1)
            j = np.lexsort((idsb, -d2))[0]
            return pa.table(
                {"d": pa.array([float(d2[j])]),
                 "i": pa.array([int(idsb[j])], pa.int64()),
                 "v": pa.array([m[j].tolist()], pa.list_(pa.float64()))}
            )

        far = fold_best(
            collect_candidates(
                ds.map_batches(far_partial, batch_format="pyarrow",
                               zero_copy_batch=True)
            )
        )
        radii.append(math.sqrt(max(far[0], 0.0)))
        if len(ids) >= k:
            break
        if far[1] in ids:  # fewer distinct points than k: stop early
            break
        ids.append(far[1])
        vecs.append(far[2])
    return ids, radii
