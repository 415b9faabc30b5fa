"""Distributed table profiling — the `describe` every data engine owes
its users: per-column null counts, EXACT distinct counts, and min/max,
in one pass per metric family.

Reference analog: the reference's per-stage completeness +
schema-shape checks (/root/reference/src/app2/etl_validation/specs.py)
generalized into a standalone profile artifact.

Scale shape: null/min/max fold per batch into one tiny row per batch
and merge via a Ray exchange (driver sees one row per column). Exact
distinct counts are one hash-bucket exchange PER COLUMN over per-batch
pre-uniqued values — each exchange moves at most the column's distinct
values, and the in-bucket reducer emits a single count, so the driver
folds buckets x columns integers. Min/max merge in their NATIVE types
(string-min of stringified ints would order "100" < "99") and render
to strings only in the final driver projection, so the output avoids
nullable-numeric dtype drift while staying engine-comparable."""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .relational import bucket_exchange, grouped_agg


def _distinct_counts_all(
    ds, cols: list[str], *, num_buckets: int = 32
) -> dict[str, int]:
    """Exact distinct counts for ALL columns in ONE pass + ONE
    exchange: each batch emits its per-column pre-uniqued values
    stringified (int64 → decimal string is injective, so the distinct
    count is unchanged) tagged (col, value); the value-hash bucket
    co-locates every occurrence of a (col, value) pair, the in-bucket
    reducer counts distinct pairs per column, and the driver folds
    buckets × columns integers. Replaces one full input scan PER
    column (measured 6 scans → 1 on the orders profile)."""

    def partial(t: pa.Table) -> pa.Table:
        names: list[pa.Array] = []
        vals: list[pa.Array] = []
        for c in cols:
            v = t[c]
            if isinstance(v, pa.ChunkedArray):
                v = v.combine_chunks()
            u = pc.unique(v.drop_null())
            vals.append(pc.cast(u, pa.string()))
            names.append(pa.array([c] * len(u), pa.string()))
        return pa.table(
            {
                "c": pa.concat_arrays(names),
                "v": pa.concat_arrays(
                    [x.combine_chunks() if isinstance(x, pa.ChunkedArray) else x for x in vals]
                ),
            }
        )

    def reduce_bucket(t: pa.Table, _b: int) -> pa.Table:
        pairs = t.group_by(["c", "v"]).aggregate([])
        per_col = pairs.group_by("c").aggregate([("v", "count")])
        return pa.table(
            {
                "c": per_col["c"],
                "n": pc.cast(per_col["v_count"], pa.int64()),
            }
        )

    out = bucket_exchange(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        "v",
        reduce_bucket,
        schema=pa.schema([("c", pa.string()), ("n", pa.int64())]),
        num_buckets=num_buckets,
    ).to_pandas()
    counts = {c: 0 for c in cols}
    if len(out):
        for c, n in out.groupby("c")["n"].sum().items():
            counts[str(c)] = int(n)
    return counts


def profile_table(
    ds,
    *,
    int_cols: list[str],
    str_cols: list[str],
    num_buckets: int = 32,
) -> pd.DataFrame:
    """Profile ``int_cols`` (int64-valued after caller preparation) and
    ``str_cols``: one row per column with n_rows, n_nulls, n_distinct
    (exact) and min/max rendered as strings in the FINAL projection
    only (integer-to-decimal formatting is engine-identical)."""
    cols = list(int_cols) + list(str_cols)

    def partial(t: pa.Table) -> pa.Table:
        rows = {
            "col": [],
            "n_rows": [],
            "n_nulls": [],
            "min_i": [],
            "max_i": [],
            "min_s": [],
            "max_s": [],
        }
        for c in cols:
            v = t[c]
            nn = v.drop_null()
            rows["col"].append(c)
            rows["n_rows"].append(t.num_rows)
            rows["n_nulls"].append(t.num_rows - len(nn))
            is_int = c in int_cols
            mn = pc.min(nn).as_py() if len(nn) else None
            mx = pc.max(nn).as_py() if len(nn) else None
            rows["min_i"].append(mn if is_int else None)
            rows["max_i"].append(mx if is_int else None)
            rows["min_s"].append(None if is_int else mn)
            rows["max_s"].append(None if is_int else mx)
        return pa.table(
            {
                "col": pa.array(rows["col"], pa.string()),
                "n_rows": pa.array(rows["n_rows"], pa.int64()),
                "n_nulls": pa.array(rows["n_nulls"], pa.int64()),
                "min_i": pa.array(rows["min_i"], pa.int64()),
                "max_i": pa.array(rows["max_i"], pa.int64()),
                "min_s": pa.array(rows["min_s"], pa.string()),
                "max_s": pa.array(rows["max_s"], pa.string()),
            }
        )

    base = grouped_agg(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        ["col"],
        {
            "n_rows": ("n_rows", "sum"),
            "n_nulls": ("n_nulls", "sum"),
            "min_i": ("min_i", "min"),
            "max_i": ("max_i", "max"),
            "min_s": ("min_s", "min"),
            "max_s": ("max_s", "max"),
        },
    )

    def render(row, lo_hi: str) -> str | None:
        if row["col"] in int_cols:
            v = row[f"{lo_hi}_i"]
            return None if pd.isna(v) else str(int(v))
        v = row[f"{lo_hi}_s"]
        return None if pd.isna(v) else str(v)

    base["min_v"] = base.apply(lambda r: render(r, "min"), axis=1)
    base["max_v"] = base.apply(lambda r: render(r, "max"), axis=1)
    dcounts = _distinct_counts_all(ds, cols, num_buckets=num_buckets)
    base["n_distinct"] = [dcounts[c] for c in base["col"]]
    base = base[
        ["col", "n_rows", "n_nulls", "n_distinct", "min_v", "max_v"]
    ]
    for c in ("n_rows", "n_nulls", "n_distinct"):
        base[c] = base[c].astype("int64")
    return base.sort_values("col").reset_index(drop=True)
