"""Connected components over a duplicate-pair edge list — the step
that turns pairwise dedup output (MinHash/SimHash/embedding pairs)
into actionable CLUSTERS (keep one representative per component).

Reference analog: the reference stops at pairwise duplicate reports
(/root/reference/src/app2/validators/dds/uniqueness_suite/
areas_uniqueness.py:32-39); cluster resolution is the engine addition
a training-data dedup actually needs.

Size-hybrid like stages/uniqueness: below ``driver_max_edges`` the
edge list collects to the driver and a vectorized union-find labels it
(exact, one pass); above it, a distributed min-label propagation with
pointer jumping runs over Ray Datasets — every round is TWO bucketed
exchanges (no join actors), labels decrease monotonically, and the
``sum(label)`` fixpoint test is O(1). Pointer jumping squares the
propagation distance per round, so path-shaped components of length L
settle in O(log L) rounds — ``max_rounds`` guards loudly, never
silently wrong.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

DRIVER_MAX_EDGES = 5_000_000


def _union_find(a: np.ndarray, b: np.ndarray) -> pd.DataFrame:
    """Exact driver-side components: (node, component=min node id).
    Vectorized min-label propagation with pointer jumping — no
    per-edge Python loop; O(E log D) numpy passes for diameter D."""
    nodes = np.unique(np.concatenate([a, b]))
    ia = np.searchsorted(nodes, a)
    ib = np.searchsorted(nodes, b)
    label = np.arange(len(nodes), dtype=np.int64)
    while True:
        prev = label.copy()
        np.minimum.at(label, ia, label[ib])
        np.minimum.at(label, ib, label[ia])
        label = np.minimum(label, label[label])  # pointer jump
        if np.array_equal(label, prev):
            break
    return pd.DataFrame({"node": nodes, "component": nodes[label]})


def _bucketed_lookup_min(labels_ds, probes_ds, *, num_buckets: int):
    """One round-step: for probe rows (dst, key), look up ``key``'s
    current label and emit (dst, label); combined with the existing
    labels and reduced by per-node min in a second bucketed exchange.
    Both exchanges are :func:`relational.bucket_exchange` calls —
    no join aggregator actors per round."""
    from ..pipelines.relational import bucket_exchange, bucketed_group_agg

    msg_schema = pa.schema([("node", pa.int64()), ("cand", pa.int64())])

    # exchange 1: co-locate probes with the labels of their lookup key
    l_tagged = labels_ds.map_batches(
        lambda t: pa.table(
            {"dst": pa.nulls(t.num_rows, pa.int64()), "key": t["node"],
             "label": t["label"]}
        ),
        batch_format="pyarrow",
    )
    p_tagged = probes_ds.map_batches(
        lambda t: pa.table(
            {"dst": t["dst"], "key": t["key"],
             "label": pa.nulls(t.num_rows, pa.int64())}
        ),
        batch_format="pyarrow",
    )

    def resolve(g: pa.Table, _b: int) -> pa.Table:
        is_lbl = pc.is_valid(g["label"])
        lbl = g.filter(is_lbl)
        pr = g.filter(pc.invert(is_lbl))
        if pr.num_rows == 0 or lbl.num_rows == 0:
            return msg_schema.empty_table()
        keys = lbl["key"].to_numpy(zero_copy_only=False)
        order = np.argsort(keys, kind="stable")
        skeys = keys[order]
        svals = lbl["label"].to_numpy(zero_copy_only=False)[order]
        pk = pr["key"].to_numpy(zero_copy_only=False)
        pos = np.searchsorted(skeys, pk)
        ok = (pos < len(skeys)) & (skeys[np.minimum(pos, len(skeys) - 1)] == pk)
        return pa.table(
            {
                "node": pa.array(
                    pr["dst"].to_numpy(zero_copy_only=False)[ok].astype(np.int64)
                ),
                "cand": pa.array(svals[pos[ok]]),
            }
        )

    msgs = bucket_exchange(
        [l_tagged, p_tagged],
        "key",
        resolve,
        schema=msg_schema,
        num_buckets=num_buckets,
    )

    # exchange 2: per-node min over (current label, candidates)
    cur = labels_ds.map_batches(
        lambda t: pa.table({"node": t["node"], "cand": t["label"]}),
        batch_format="pyarrow",
    )
    return bucketed_group_agg(
        [cur, msgs],
        "node",
        [("cand", "min")],
        num_buckets=num_buckets,
        post=lambda t: t.rename_columns(["node", "label"]),
    )


def _exact_label_sum(labels_ds) -> int:
    """Overflow-proof Σlabel for the fixpoint test: per-batch split
    into low/high 32-bit halves (each int64 sum exact for < 2^31 rows
    per batch), combined as arbitrary-precision Python ints — an int64
    Σ of large node ids could wrap and fake a fixpoint."""
    lo = hi = 0
    for b in labels_ds.map_batches(
        lambda t: pa.table(
            {
                "lo": pa.array(
                    [int((t["label"].to_numpy(zero_copy_only=False) & 0xFFFFFFFF).sum())]
                ),
                "hi": pa.array(
                    [int((t["label"].to_numpy(zero_copy_only=False) >> 32).sum())]
                ),
            }
        ),
        batch_format="pyarrow",
    ).iter_batches(batch_format="pyarrow"):
        lo += int(pc.sum(b["lo"]).as_py() or 0)
        hi += int(pc.sum(b["hi"]).as_py() or 0)
    return (hi << 32) + lo


def connected_components(
    edges_ds,
    a_col: str,
    b_col: str,
    *,
    driver_max_edges: int = DRIVER_MAX_EDGES,
    num_buckets: int = 32,
    max_rounds: int = 50,
) -> pd.DataFrame:
    """(node, component) for every node in the int64 edge list, where
    ``component`` is the smallest node id in the component. Hybrid:
    exact union-find on the driver below ``driver_max_edges``, else
    distributed min-label propagation with pointer jumping (see module
    docstring). Returns pandas sorted by node."""
    edges_ds = edges_ds.materialize()  # count + consume: one execution
    n_edges = edges_ds.count()
    if n_edges <= driver_max_edges:
        df = edges_ds.to_pandas()
        if not len(df):
            return pd.DataFrame(
                {"node": pd.Series(dtype=np.int64),
                 "component": pd.Series(dtype=np.int64)}
            )
        out = _union_find(
            df[a_col].to_numpy(dtype=np.int64), df[b_col].to_numpy(dtype=np.int64)
        )
        return out.sort_values("node").reset_index(drop=True)

    import ray.data as rd

    edges = edges_ds.map_batches(
        lambda t: pa.table(
            {
                "u": t[a_col].cast(pa.int64()),
                "v": t[b_col].cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    ).materialize()
    # symmetric probes: each endpoint asks for the other's label
    probes = edges.map_batches(
        lambda t: pa.table(
            {
                "dst": pa.concat_arrays(
                    [t["u"].combine_chunks(), t["v"].combine_chunks()]
                ),
                "key": pa.concat_arrays(
                    [t["v"].combine_chunks(), t["u"].combine_chunks()]
                ),
            }
        ),
        batch_format="pyarrow",
    ).materialize()

    from ..pipelines.relational import bucketed_group_agg

    labels = (
        bucketed_group_agg(
            probes.map_batches(
                lambda t: pa.table({"node": t["dst"], "cand": t["dst"]}),
                batch_format="pyarrow",
            ),
            "node",
            [("cand", "min")],
            num_buckets=num_buckets,
        )
        .map_batches(
            lambda t: pa.table({"node": t["node"], "label": t["cand"]}),
            batch_format="pyarrow",
        )
        .materialize()
    )

    def _pin(ds):
        # Iterative Dataset algorithms need BOTH of these per round:
        # repartition pins the block count (each round otherwise
        # multiplies tiny blocks ~2x and task counts explode), and
        # from_arrow_refs hard-cuts lineage (materialize() alone does
        # not truncate through union() on this Ray version — measured
        # 3x-per-round re-execution without it).
        return rd.from_arrow_refs(ds.repartition(num_buckets).to_arrow_refs())

    prev_sum = None
    for _ in range(max_rounds):
        # neighbor-min step
        labels = _pin(
            _bucketed_lookup_min(labels, probes, num_buckets=num_buckets)
        )
        # pointer-jumping step: look up my LABEL's label
        jump_probes = labels.map_batches(
            lambda t: pa.table({"dst": t["node"], "key": t["label"]}),
            batch_format="pyarrow",
        )
        labels = _pin(
            _bucketed_lookup_min(labels, jump_probes, num_buckets=num_buckets)
        )
        s = _exact_label_sum(labels)
        if s == prev_sum:  # monotone labels: equal sum == fixpoint
            out = labels.to_pandas().rename(columns={"label": "component"})
            return out.sort_values("node").reset_index(drop=True)
        prev_sum = s
    raise RuntimeError(
        f"connected_components: no fixpoint after {max_rounds} rounds "
        "(raise max_rounds; component diameter beyond 2^rounds is "
        "implausible for dedup graphs)"
    )
