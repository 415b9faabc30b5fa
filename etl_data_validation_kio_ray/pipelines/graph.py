"""Distributed graph construction + exact triangle census.

Builds the boolean co-occurrence adjacency matrix of a dimension-sized
node axis (edge {u, v} iff some group contains both u and v) with one
hash-bucket exchange on the GROUP key, then computes the exact triangle
/ wedge / clustering statistics driver-side on the merged matrix.

Scale shape: per-batch distinct (group, node) partials bound what the
exchange carries; inside each bucket the pair structure collapses to a
PACKED BITSET partial (S^2/8 bytes, order-independent, OR-mergeable),
so the driver gathers #buckets fixed-size partials — never an edge list
proportional to the data. The documented partitioning assumption
(same as supplier_pagerank's broadcast side): the NODE axis is
dimension-sized — S <= ~30k keeps each partial <= ~112 MB and the
matmul tractable; beyond that, switch to an edge-list exchange with
per-bucket oriented-wedge counting.

Reference analog: the distinct-entity co-occurrence reconciliation
(/root/reference/src/app2/dds/source_suite/matches_source.py:18-52) —
re-expressed as a graph census instead of per-pair SQL probes.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .relational import bucket_exchange


def cooccurrence_adjacency(
    pairs_ds,
    group_col: str,
    node_col: str,
    node_keys: np.ndarray,
    *,
    num_buckets: int | None = None,
) -> np.ndarray:
    """Boolean S x S adjacency of nodes sharing at least one group.

    ``pairs_ds``: Dataset with (group_col: int64, node_col: int64)
    rows, need not be distinct. ``node_keys``: SORTED int64 array of
    the full node key domain (dimension-sized; broadcast once via
    ``ray.put``). Returns a symmetric bool matrix with a zero diagonal,
    indexed by position in ``node_keys``.
    """
    import ray

    S = int(len(node_keys))
    if S == 0:
        return np.zeros((0, 0), dtype=bool)
    nbytes = (S * S + 7) // 8  # np.packbits pads the flat S*S bits

    def pre(t: pa.Table) -> pa.Table:
        # per-batch distinct bounds the exchange to one row per
        # (group, node) per batch
        return (
            t.select([group_col, node_col])
            .group_by([group_col, node_col])
            .aggregate([])
        )

    dedup = pairs_ds.map_batches(pre, batch_format="pyarrow", zero_copy_batch=True)
    ref = ray.put(np.ascontiguousarray(node_keys, dtype=np.int64))

    def bucket_bits(g: pa.Table, _b: int, _ref=ref) -> pa.Table:
        nk = ray.get(_ref)
        gk = g[group_col].to_numpy(zero_copy_only=False).astype(np.int64)
        nv = g[node_col].to_numpy(zero_copy_only=False).astype(np.int64)
        ni = np.searchsorted(nk, nv)
        if np.any((ni >= len(nk)) | (nk[np.minimum(ni, len(nk) - 1)] != nv)):
            raise ValueError(
                f"cooccurrence_adjacency: {node_col} value outside the "
                "broadcast node domain"
            )
        order = np.lexsort((ni, gk))
        gk, ni = gk[order], ni[order]
        keep = np.ones(len(gk), dtype=bool)
        keep[1:] = (gk[1:] != gk[:-1]) | (ni[1:] != ni[:-1])
        gk, ni = gk[keep], ni[keep]
        adj = np.zeros((len(nk), len(nk)), dtype=bool)
        starts = np.flatnonzero(np.r_[True, gk[1:] != gk[:-1]])
        ends = np.r_[starts[1:], len(gk)]
        # loop over groups in this bucket (bounded reducer work, like
        # map_groups); each group sets its member clique vectorized
        for a, b in zip(starts, ends):
            if b - a >= 2:
                idx = ni[a:b]
                adj[np.ix_(idx, idx)] = True
        np.fill_diagonal(adj, False)
        return pa.table({"bits": pa.array([np.packbits(adj).tobytes()], pa.binary())})

    rows = bucket_exchange(
        dedup,
        group_col,
        bucket_bits,
        schema=pa.schema([("bits", pa.binary())]),
        num_buckets=num_buckets,
    ).take_all()  # bounded: #buckets rows x S^2/8 bytes — partials, not data
    acc = np.zeros(nbytes, dtype=np.uint8)
    for r in rows:
        acc |= np.frombuffer(r["bits"], dtype=np.uint8)
    return np.unpackbits(acc)[: S * S].reshape(S, S).astype(bool)


def triangle_stats(adj: np.ndarray) -> dict[str, int]:
    """Exact triangle census of a symmetric bool adjacency matrix.

    Returns n_nodes (degree >= 1), n_edges, n_wedges (sum of
    deg*(deg-1)/2), n_triangles, and the global clustering coefficient
    floor(3e6 * T / W) in exact ppm (0 when W == 0). The matmul runs in
    float64 BLAS: every entry is a common-neighbor count <= S and every
    partial sum <= S^3 < 2^53, so the arithmetic is exact.
    """
    deg = adj.sum(axis=1).astype(np.int64)
    n_nodes = int((deg > 0).sum())
    n_edges = int(deg.sum() // 2)
    n_wedges = int((deg * (deg - 1) // 2).sum())
    if adj.size:
        a = adj.astype(np.float64)
        tri6 = float(((a @ a) * a).sum())
    else:
        tri6 = 0.0
    n_triangles = int(round(tri6)) // 6
    if tri6 != round(tri6):  # pragma: no cover - exactness guard
        raise AssertionError("triangle_stats: non-integral matmul result")
    clustering_ppm = (3_000_000 * n_triangles) // n_wedges if n_wedges else 0
    return {
        "n_nodes": n_nodes,
        "n_edges": n_edges,
        "n_wedges": n_wedges,
        "n_triangles": n_triangles,
        "clustering_ppm": clustering_ppm,
    }
