"""Relational operator shapes from the reference, Ray-Data-first.

Covers SURVEY.md §2.4/2.5/2.6/2.7: broadcast anti/semi joins (the FK
checks), grouped aggregates with per-batch partial pre-aggregation
(the count_sql scalars / mart views), duplicate-group detection,
top-k, distinct, and an event-time tumbling-window aggregate (the
engine's streaming-shaped addition; ordering assumption: none needed —
tumbling windows are a pure groupby on the bucketed timestamp).

Every hash-bucket exchange in the package and in ``__ray_entry__.py``
is one call of :func:`bucket_exchange`: rows meet by
``hash(key) % num_buckets`` (or a key function of the batch), a
reducer sees each bucket's rows as one table, and every output block
carries the declared schema, so an empty bucket, range or input never
leaves a schema-less block. ``bucketed_group_agg``,
``fact_dim_cogroup``, ``asof_join``, ``key_set_reconcile`` and the
other per-key operators here are reducers over it.
"""

from __future__ import annotations

from typing import Any

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


def dataset_arrow_schema(ds) -> pa.Schema:
    """The Arrow schema of a Dataset, tolerant of pandas blocks: a
    PandasBlockSchema exposes parallel names/types instead of .field(),
    and pandas stores strings as object dtype, which pa.from_numpy_dtype
    rejects — map it to pa.string() (the only object payload our tables
    carry across pandas blocks)."""
    sch = ds.schema()
    if sch is None:
        raise ValueError(
            "dataset_arrow_schema: dataset has no resolvable schema "
            "(empty or unmaterializable lazy input) — cannot co-group; "
            f"dataset: {ds!r}"
        )
    base = getattr(sch, "base_schema", sch)
    if isinstance(base, pa.Schema):
        return base

    def to_pa(t):
        if isinstance(t, pa.DataType):
            return t
        if np.dtype(t) == np.dtype("O"):
            return pa.string()
        return pa.from_numpy_dtype(t)

    return pa.schema([(n, to_pa(t)) for n, t in zip(base.names, base.types)])


def collect_sorted(ds, sort_cols: list[str]) -> pd.DataFrame:
    """Driver-side gather of a SMALL operator result: collect the lazy
    Dataset to pandas and impose the deterministic (sort_cols,
    mergesort) row order the driver-contract hash expects. This is the
    ONLY sanctioned place a per-row operator result crosses to the
    driver — operators themselves return lazy Datasets so production
    callers can ``write_parquet`` them instead (a 100x-scale result
    must never ride the driver)."""
    out = ds if isinstance(ds, pd.DataFrame) else ds.to_pandas()
    if not isinstance(ds, pd.DataFrame) and not len(out.columns):
        # Ray's to_pandas drops columns on an all-empty dataset even
        # when the schema is known; rebuild the typed empty frame so an
        # empty operator result stays hash-comparable (zero-pair
        # corpora are legitimate outputs, not errors).
        sch = ds.schema()
        if sch is not None:
            out = pd.DataFrame(
                {
                    n: pd.Series([], dtype=np.dtype(t.to_pandas_dtype()))
                    for n, t in zip(sch.names, sch.types)
                }
            )
    return out.sort_values(sort_cols, kind="mergesort").reset_index(drop=True)


def broadcast_anti_join(left_ds, right_keys, left_key: str):
    """Rows of ``left_ds`` whose ``left_key`` has NO match in the small
    ``right_keys`` iterable — the reference's NOT EXISTS FK shape
    (/root/reference/src/app2/validators/dds/referential_suite/
    fact_match_fk.py:16-62) as a broadcast probe: the key set ships via
    the object store once per task, the big side never shuffles."""
    import ray

    ref = ray.put(pa.array(sorted(set(right_keys))))

    def probe(batch: pa.Table) -> pa.Table:
        keys = ray.get(ref)
        col = batch[left_key]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        hit = pc.is_in(col, value_set=keys)
        return batch.filter(pc.fill_null(pc.invert(hit), True))

    return left_ds.map_batches(probe, batch_format="pyarrow", zero_copy_batch=True)


def gather_key_array(ds, col: str) -> pa.Array:
    """Collect ONE key column of an (already filtered, broadcast-sized)
    Dataset to the driver as a deduplicated Arrow array — block refs are
    fetched and concatenated as Arrow, never round-tripped through
    pandas / Python objects. Use only on small sides destined for a
    ``ray.put`` broadcast."""
    import ray

    refs = ds.select_columns([col]).to_arrow_refs()
    blocks = [b for b in ray.get(list(refs)) if b.num_rows]
    if not blocks:
        return pa.array([], type=pa.int64())
    arr = pa.concat_tables(blocks)[col].combine_chunks()
    return pc.unique(arr)


def broadcast_semi_join(left_ds, right_keys, left_key: str):
    """Rows of ``left_ds`` WITH a match — same broadcast shape.

    ``right_keys`` may be a Python iterable or an Arrow array (e.g. from
    :func:`gather_key_array`); either way it ships once via ``ray.put``."""
    import ray

    if isinstance(right_keys, pa.ChunkedArray):
        right_keys = right_keys.combine_chunks()
    if isinstance(right_keys, pa.Array):
        keys_arr = pc.unique(right_keys)
    else:
        keys_arr = pa.array(sorted(set(right_keys)))
    ref = ray.put(keys_arr)

    def probe(batch: pa.Table) -> pa.Table:
        keys = ray.get(ref)
        col = batch[left_key]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        return batch.filter(pc.fill_null(pc.is_in(col, value_set=keys), False))

    return left_ds.map_batches(probe, batch_format="pyarrow", zero_copy_batch=True)


def broadcast_lookup_join(
    ds, dim: pa.Table, left_key: str, right_key: str, value_cols: list[str]
):
    """Broadcast hash (inner) join: enrich each row of the big side with
    ``value_cols`` from the small ``dim`` table — the reference's
    fact ⋈ dim mart joins (/root/reference/sql/initdb/mart_views.sql:82-85)
    as a map-side probe. ``dim`` ships via ``ray.put`` once; rows with
    no match are dropped (inner semantics). The big side never shuffles."""
    import ray

    dim_ref = ray.put(dim.combine_chunks())

    def probe(batch: pa.Table) -> pa.Table:
        d = ray.get(dim_ref)
        col = batch[left_key]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        idx = pc.index_in(col, value_set=d[right_key])
        hit = pc.is_valid(idx)
        batch = batch.filter(hit)
        idx = idx.filter(hit)
        for c in value_cols:
            batch = batch.append_column(c, d[c].take(idx))
        return batch

    return ds.map_batches(probe, batch_format="pyarrow", zero_copy_batch=True)


def _key_hash(arr: pa.Array) -> np.ndarray:
    """Well-mixed uint64 of a key column (string via char-buffer hash,
    integers via splitmix) for hash-partitioning."""
    from ..functions.hashing import _splitmix64, hash_string_array

    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    typ = arr.type
    if (
        pa.types.is_string(typ)
        or pa.types.is_large_string(typ)
        or pa.types.is_binary(typ)
        or pa.types.is_large_binary(typ)
    ):
        return hash_string_array(arr)
    v = pc.fill_null(pc.cast(arr, pa.int64()), np.iinfo(np.int64).min).to_numpy(
        zero_copy_only=False
    )
    return _splitmix64(v.view(np.uint64))


def _side_keys(ds, key_col: str, side_code: int):
    """(k, s) rows: the distinct non-null keys of each batch of ``ds``
    (integers cast to int64, so both sides meet on one type), tagged
    with ``side_code`` — per-batch dedup bounds what a key-set exchange
    carries to #batches copies of a key, not #rows."""

    def fn(t: pa.Table) -> pa.Table:
        k = t[key_col].combine_chunks()
        if pa.types.is_integer(k.type):
            k = pc.cast(k, pa.int64())
        k = pc.unique(k.drop_null())
        return pa.table({"k": k, "s": pa.array(np.full(len(k), side_code, np.int8))})

    return ds.map_batches(fn, batch_format="pyarrow")


def key_set_reconcile(
    left_ds,
    right_ds,
    left_key: str,
    right_key: str,
    *,
    num_buckets: int | None = None,
    left_only_label: str = "left_only",
    right_only_label: str = "right_only",
    emit: tuple[str, ...] = ("left_only", "right_only"),
) -> pa.Table:
    """Two-sided key reconciliation of two LARGE datasets — distinct
    left keys with no right match and distinct right keys with no left
    match — in ONE hash-partitioned exchange (SURVEY.md §2.4's
    'hash-partition + per-group set diff'; reference shape
    dds/source_suite/matches_source.py:18-52).

    Neither side is collected or broadcast: each side projects to
    (key, side) with PER-BATCH key dedup (the exchange carries at most
    #batches copies of a key, not #rows), one :func:`bucket_exchange`
    on the key co-locates every occurrence of a key, and the per-bucket
    set difference is a vectorized Arrow ``is_in`` probe. Returns a
    (key, side) table sorted by (side, key); the result is the
    violation set, assumed small — the INPUTS may both be arbitrarily
    large."""

    left_proj = _side_keys(left_ds, left_key, 0)
    right_proj = _side_keys(right_ds, right_key, 1)

    want_left = "left_only" in emit
    want_right = "right_only" in emit

    def bucket_diff(g: pa.Table, _b: int) -> pa.Table:
        k = g["k"].combine_chunks()
        s = g["s"].combine_chunks()
        left = pc.unique(k.filter(pc.equal(s, 0)))
        right = pc.unique(k.filter(pc.equal(s, 1)))
        keys_out = [k.slice(0, 0)]
        sides_out = []
        if want_left and len(left):
            lonly = left.filter(pc.invert(pc.is_in(left, value_set=right)))
            keys_out.append(lonly)
            sides_out.extend([left_only_label] * len(lonly))
        if want_right and len(right):
            ronly = right.filter(pc.invert(pc.is_in(right, value_set=left)))
            keys_out.append(ronly)
            sides_out.extend([right_only_label] * len(ronly))
        return pa.table(
            {
                "key": pa.concat_arrays(keys_out),
                "side": pa.array(sides_out, pa.string()),
            }
        )

    tables = [
        b if isinstance(b, pa.Table) else pa.Table.from_batches([b])
        for b in bucket_exchange(
            [left_proj, right_proj],
            "k",
            bucket_diff,
            schema=lambda s: pa.schema(
                [("key", s.field("k").type), ("side", pa.string())]
            ),
            num_buckets=num_buckets,
        ).iter_batches(batch_format="pyarrow", batch_size=2**20)
    ]
    tables = [t for t in tables if t.num_rows]
    if not tables:
        sch = left_ds.schema()
        sch = getattr(sch, "base_schema", sch)  # ray.data.Schema wraps pyarrow
        try:
            kt = sch.field(left_key).type
        except AttributeError:  # PandasBlockSchema: parallel names/types
            i = list(sch.names).index(left_key)
            t = sch.types[i]
            kt = t if isinstance(t, pa.DataType) else pa.from_numpy_dtype(t)
        if pa.types.is_integer(kt):
            kt = pa.int64()
        return pa.schema([("key", kt), ("side", pa.string())]).empty_table()
    out = pa.concat_tables(tables)
    order = pc.sort_indices(
        out, sort_keys=[("side", "ascending"), ("key", "ascending")]
    )
    return out.take(order)


def hash_partitioned_anti_keys(
    left_ds, right_ds, left_key: str, right_key: str, *,
    num_buckets: int | None = None
) -> pa.Table:
    """Distinct ``left_key`` values with NO match in ``right_ds`` —
    the large x large anti-join on keys. One hash-partitioned exchange,
    nothing collected to the driver (contrast broadcast_anti_join,
    which is the right tool only when the RIGHT side is known small).
    Returns a one-column table named ``left_key``, sorted."""
    rec = key_set_reconcile(
        left_ds,
        right_ds,
        left_key,
        right_key,
        num_buckets=num_buckets,
        emit=("left_only",),
    )
    return pa.table({left_key: rec["key"]})


def hash_join(
    left_ds,
    right_ds,
    *,
    on: tuple[str, ...],
    right_on: tuple[str, ...] | None = None,
    join_type: str = "inner",
):
    """Distributed LARGE x LARGE equi-join: both sides hash-partition on
    the key (one all-to-all exchange each) and matching partitions join
    locally — Ray Data's native shuffle join (``Dataset.join``), wrapped
    so the exchange width and the aggregators' CPUs are decided in one
    place (core/resources.join_args).

    Use :func:`broadcast_lookup_join` instead whenever ONE side fits in
    the object store (no shuffle of the big side at all); this is the
    tool for the fact ⋈ fact case where neither side can be broadcast
    (reference's staging ⋈ staging reconciliation joins,
    /root/reference/sql/initdb/mart_views.sql:62-95 at warehouse scale).
    Shrink the exchanged bytes BEFORE calling (column-prune, pre-aggregate
    to one row per key where semantics allow)."""
    if join_type not in ("inner", "left_outer", "right_outer", "full_outer"):
        raise ValueError(f"hash_join: unsupported join_type {join_type!r}")
    from ..core.resources import join_args

    return left_ds.join(
        right_ds,
        join_type=join_type,
        on=tuple(on),
        right_on=tuple(right_on) if right_on is not None else None,
        **join_args(),
    )


def asof_join(
    left_ds,
    right_ds,
    *,
    on: str,
    by: str,
    right_on: str | None = None,
    right_by: str | None = None,
    right_values: list[str],
    matched_prefix: str = "matched_",
    direction: str = "backward",
    tolerance: str | None = None,
    right_tiebreak: str | None = None,
    num_buckets: int | None = None,
    inner: bool = True,
):
    """As-of join: each LEFT row matches the RIGHT row of the same
    ``by`` key with the greatest ``right_on`` <= left ``on``
    (``direction="backward"``; ``"forward"`` mirrors). Ray Data has no
    native as-of operator — composed here as the classic co-partitioned
    merge join:

      both sides project to (bucket = hash(by) % num_buckets, ...) and
      meet in ONE hash-partitioned exchange (a tagged union co-group);
      each bucket group then runs a vectorized ``pandas.merge_asof``
      over its keys (sorted merge, no per-row Python).

    Partitioning assumption (document per call site): every row of one
    ``by`` key lands in one bucket, so a single key's full history must
    fit one reducer — inherent to as-of semantics; raise ``num_buckets``
    with cluster size to spread distinct keys. The RIGHT side is
    deduplicated per (by, on): ties keep the row with the greatest
    ``right_tiebreak`` (required for determinism when ties are
    possible). ``tolerance``: a pandas timedelta string bounding the
    match distance. ``inner=True`` drops unmatched left rows (keeps
    output columns non-null, hash-stable types); ``inner=False`` keeps
    them with null matched columns.

    Returns a LAZY Dataset with a pinned Arrow schema: left columns +
    ``matched_prefix + on`` + ``matched_prefix + v`` for each right
    value column — one row per matched left row, streaming out of the
    bucket reducers. Consume with ``write_parquet`` / ``iter_batches``
    at scale; small results collect via :func:`collect_sorted` (the
    driver queries do), so only the harness ever drives rows through
    the driver."""
    r_on = right_on or on
    r_by = right_by or by
    if direction not in ("backward", "forward"):
        raise ValueError(f"asof_join: unknown direction {direction!r}")
    if right_tiebreak is not None and right_tiebreak not in right_values:
        raise ValueError(
            "asof_join: right_tiebreak must be one of right_values "
            f"(got {right_tiebreak!r})"
        )
    tol = pd.to_timedelta(tolerance) if tolerance is not None else None

    lsch, rsch = dataset_arrow_schema(left_ds), dataset_arrow_schema(right_ds)
    left_cols = list(lsch.names)
    m_on = f"{matched_prefix}{on}"
    m_vals = {v: f"{matched_prefix}{v}" for v in right_values}
    out_cols = left_cols + [m_on] + list(m_vals.values())

    # ONE target schema for both side projections so the tagged union is
    # well-formed: left columns typed from the left, matched columns
    # typed from the right (on/by cast to the LEFT's types so keys meet
    # on one type).
    union_fields = [(c, lsch.field(c).type) for c in left_cols]
    union_fields += [("__side", pa.int8())]
    union_fields += [(m_on, lsch.field(on).type)]
    union_fields += [(mv, rsch.field(v).type) for v, mv in m_vals.items()]
    union_schema = pa.schema(union_fields)

    def project_left(t: pa.Table) -> pa.Table:
        # merge_asof rejects null merge keys: rows with a null on/by
        # cannot match anything — drop them up front (they would be
        # dropped by inner semantics anyway; for inner=False this means
        # null-keyed left rows are NOT echoed through)
        t = t.filter(
            pc.and_(pc.is_valid(t[on]), pc.is_valid(t[by]))
        )
        n = t.num_rows
        cols: dict[str, Any] = {c: t[c] for c in left_cols}
        cols["__side"] = pa.array(np.zeros(n, dtype=np.int8))
        cols[m_on] = pa.nulls(n, union_schema.field(m_on).type)
        for v, mv in m_vals.items():
            cols[mv] = pa.nulls(n, union_schema.field(mv).type)
        return pa.table(cols, schema=union_schema)

    def project_right(t: pa.Table) -> pa.Table:
        t = t.filter(
            pc.and_(pc.is_valid(t[r_on]), pc.is_valid(t[r_by]))
        )
        k = t[r_by]
        if isinstance(k, pa.ChunkedArray):
            k = k.combine_chunks()
        k = pc.cast(k, union_schema.field(by).type)
        n = t.num_rows
        cols = {}
        for c in left_cols:
            cols[c] = k if c == by else pa.nulls(n, union_schema.field(c).type)
        cols["__side"] = pa.array(np.ones(n, dtype=np.int8))
        cols[m_on] = pc.cast(
            t[r_on].combine_chunks()
            if isinstance(t[r_on], pa.ChunkedArray)
            else t[r_on],
            union_schema.field(m_on).type,
        )
        for v, mv in m_vals.items():
            cols[mv] = t[v]
        return pa.table(cols, schema=union_schema)

    lp = left_ds.map_batches(project_left, batch_format="pyarrow")
    rp = right_ds.map_batches(project_right, batch_format="pyarrow")

    # pandas dtypes to restore after the arrow->pandas null upcast
    # (int columns become float64 once the other side's null rows join
    # the same block); restore is skipped where nulls remain.
    restore = {
        c: t.to_pandas_dtype()
        for c, t in zip(union_schema.names, union_schema.types)
        if pa.types.is_integer(t)
    }

    def _restore(df: pd.DataFrame) -> pd.DataFrame:
        for c, dt in restore.items():
            if c in df.columns and df[c].dtype != dt and df[c].notna().all():
                df[c] = df[c].astype(dt)
        return df

    rcols = [by, m_on] + list(m_vals.values())

    def _empty_out() -> pd.DataFrame:
        cols = {}
        for c in out_cols:
            t = union_schema.field(c).type
            try:
                dt = np.dtype(t.to_pandas_dtype())
            except (TypeError, NotImplementedError):
                dt = np.dtype("object")
            cols[c] = pd.Series(dtype=dt)
        return pd.DataFrame(cols)

    def join_group(g: pd.DataFrame) -> pd.DataFrame:
        empty = _empty_out()
        left = g.loc[g["__side"] == 0, left_cols].copy()
        if left.empty:
            return empty
        right = g.loc[g["__side"] == 1, rcols].copy()
        if right.empty:
            if inner:
                return empty
            # all-left group: arrow->pandas may have left the null
            # matched columns as object dtype, which merge_asof cannot
            # sort — emit the nulls directly
            out = left.copy()

            def null_for(col: str):
                return (
                    pd.NaT
                    if pa.types.is_temporal(union_schema.field(col).type)
                    else np.nan
                )

            out[m_on] = null_for(m_on)
            for mv in m_vals.values():
                out[mv] = null_for(mv)
            return out[out_cols]
        left, right = _restore(left), _restore(right)
        if right_tiebreak is not None and not right.empty:
            tb = m_vals[right_tiebreak]
            right = right.sort_values(
                [by, m_on, tb], kind="mergesort"
            ).drop_duplicates([by, m_on], keep="last")
        out = pd.merge_asof(
            left.sort_values(on, kind="mergesort"),
            right.sort_values(m_on, kind="mergesort"),
            left_on=on,
            right_on=m_on,
            by=by,
            direction=direction,
            tolerance=tol,
        )
        if inner:
            # dropping the NaN-matched rows lets the int64 restore fire
            # again — keeps per-block dtypes consistent across groups
            out = _restore(out[out[m_on].notna()].copy())
        return out[out_cols] if len(out) else empty

    # ONE Arrow output schema across buckets: inner matches carry the
    # right types exactly; outer nulls live as Arrow nulls in the typed
    # columns (never a float64/object upcast leaking across blocks).
    # NaN/NaT from the pandas group fn convert to nulls here.
    out_schema = pa.schema(
        [(c, lsch.field(c).type) for c in left_cols]
        + [(m_on, lsch.field(on).type)]
        + [(mv, rsch.field(v).type) for v, mv in m_vals.items()]
    )

    def join_bucket(g: pa.Table, _b: int) -> pa.Table:
        out = join_group(g.to_pandas())
        return pa.Table.from_pandas(
            out[out_cols], schema=out_schema, preserve_index=False
        ).replace_schema_metadata(None)

    return bucket_exchange(
        [lp, rp], by, join_bucket, schema=out_schema, num_buckets=num_buckets
    )


def interval_join(
    points_ds,
    intervals,
    *,
    ts_col: str,
    start_col: str,
    end_col: str,
    payload_cols: list[str],
    closed: str = "left",
):
    """Range (interval) join: each point row matches EVERY interval row
    with ``start <= ts < end`` (``closed="left"``; ``"both"`` makes the
    end inclusive). One output row per (point, interval) pair, inner.

    Ray Data has no native inequality join. The broadcast form here
    covers the overwhelmingly common case — the interval side (windows,
    maintenance periods, campaign ranges) is small; it is ``ray.put``
    once and probed per batch with the bounded-length trick:

      intervals sorted by start; for point t the candidate set is
      intervals with start in (t − max_len, t], found with two
      ``searchsorted`` calls; candidates expand vectorized
      (``repeat``/``arange``) and are filtered on the end bound.
      Per-batch cost O(n·c̄) where c̄ = mean candidates per point.

    Partitioning assumption (document per call site): cost is driven by
    the LONGEST interval — one giant interval makes every point a
    candidate of it (c̄ grows by 1, harmless) but also widens the
    search window to max_len for everyone, pulling unrelated intervals
    into the candidate scan. For a LARGE interval side, pre-bucket both
    sides on a coarse time grid (the :func:`asof_join` exchange shape)
    instead of broadcasting.

    ``intervals`` is a pyarrow Table or pandas DataFrame. Returns a
    lazy Dataset: point columns + the named interval payload columns.
    """
    import ray

    if closed not in ("left", "both"):
        raise ValueError(f"interval_join: closed must be 'left'|'both', got {closed!r}")
    idf = (
        (intervals if isinstance(intervals, pd.DataFrame) else intervals.to_pandas())
        .sort_values(start_col, kind="mergesort")
        .reset_index(drop=True)
    )
    if len(idf) and (idf[end_col] < idf[start_col]).any():
        raise ValueError("interval_join: interval with end < start")
    starts = idf[start_col].to_numpy()
    ends = idf[end_col].to_numpy()
    max_len = (ends - starts).max() if len(idf) else None
    # Arrow-typed payload columns so every emitted block (including
    # empty ones) carries the SAME schema — inferring from an empty
    # object array would yield null-typed columns and mixed block
    # schemas downstream.
    pa_payload = {c: pa.array(idf[c]) for c in payload_cols}
    payload = {c: a.to_numpy(zero_copy_only=False) for c, a in pa_payload.items()}
    ptypes = {c: a.type for c, a in pa_payload.items()}
    ref = ray.put((starts, ends, max_len, payload, ptypes))

    def probe(t: pa.Table) -> pa.Table:
        s, e, ml, pl, pt = ray.get(ref)
        ts = t[ts_col]
        if isinstance(ts, pa.ChunkedArray):
            ts = ts.combine_chunks()
        tv = ts.to_numpy(zero_copy_only=False)
        n = len(tv)
        if n == 0 or len(s) == 0:
            cols = {c: t[c].slice(0, 0) for c in t.column_names}
            for c in pl:
                cols[c] = pa.array([], type=pt[c])
            return pa.table(cols)
        # candidates: start in [ts - max_len, ts] (start bound is
        # inclusive in both modes)
        hi = np.searchsorted(s, tv, side="right")
        lo = np.searchsorted(s, tv - ml, side="left")
        counts = hi - lo
        tot = int(counts.sum())
        pt_idx = np.repeat(np.arange(n), counts)
        # vectorized ragged-range expansion: position within each
        # point's candidate run + that run's lo
        run_start = np.repeat(np.cumsum(counts) - counts, counts)
        iv_idx = np.arange(tot, dtype=np.int64) - run_start + np.repeat(lo, counts)
        if closed == "both":
            keep = tv[pt_idx] <= e[iv_idx]
        else:
            keep = tv[pt_idx] < e[iv_idx]
        pt_idx, iv_idx = pt_idx[keep], iv_idx[keep]
        out = t.take(pa.array(pt_idx))
        cols = {c: out[c] for c in out.column_names}
        for c, arr in pl.items():
            cols[c] = pa.array(arr[iv_idx], type=pt[c])
        return pa.table(cols)

    return points_ds.map_batches(probe, batch_format="pyarrow", zero_copy_batch=True)


def latest_per_key(ds, key: str, order_cols: list[str]):
    """One row per key: the row with the greatest ``order_cols`` tuple
    (the reference's latest-payload-per-entity ORDER BY id DESC LIMIT 1,
    /root/reference/src/app2/experiments/stg_payloads.py:29-44).

    Two-level: each batch keeps its per-key argmax (Arrow sort +
    first-of-segment mask — no pandas round trip), then a small groupby
    finalizes — the shuffle carries #keys x #batches rows, never the
    raw data."""

    sort_keys = [(key, "ascending")] + [(c, "descending") for c in order_cols]

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t
        t = t.take(pc.sort_indices(t, sort_keys=sort_keys))
        k = t[key]
        if isinstance(k, pa.ChunkedArray):
            k = k.combine_chunks()
        n = len(k)
        first = np.ones(n, dtype=bool)
        if n > 1:
            neq = pc.fill_null(
                pc.not_equal(k.slice(1), k.slice(0, n - 1)), True
            )
            first[1:] = neq.to_numpy(zero_copy_only=False)
        return t.filter(pa.array(first))

    return (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(key)
        .map_groups(partial, batch_format="pyarrow")
    )


def grouped_agg(
    ds,
    keys: list[str],
    aggs: dict[str, tuple[str, str]],
):
    """Grouped aggregate with per-batch PARTIAL pre-aggregation: each
    batch collapses to one row per key (pandas groupby in the map), the
    global shuffle then moves only partials (ray_guide "Aggregation at
    scale"). ``aggs``: out_name -> (col, fn) with fn in
    sum|count|min|max|mean. Returns a pandas DataFrame sorted by keys.

    Reference analogs: mart KPI aggregates
    (/root/reference/sql/initdb/mart_views.sql:62-95) and the
    round-robin UNION-ALL sums
    (/root/reference/src/app2/validators/dds/rules_suite/season_round_robin.py:20-64).
    """
    from ray.data.aggregate import Max, Min, Sum

    mean_cols = {o: c for o, (c, f) in aggs.items() if f == "mean"}
    plan: dict[str, tuple[str, str]] = {}
    for out, (col, fn) in aggs.items():
        if fn == "mean":
            plan[f"__sum_{out}"] = (col, "sum")
            plan[f"__cnt_{out}"] = (col, "count")
        else:
            plan[out] = (col, fn)

    def partial(t: pa.Table) -> pa.Table:
        # Arrow-native per-batch pre-aggregation (C++ hash aggregate,
        # no pandas round trip); plan names may alias the same
        # (col, fn), so build output columns explicitly
        uniq = list(dict.fromkeys(plan.values()))
        out = t.group_by(keys).aggregate(uniq)
        cols = {k: out[k] for k in keys}
        for name, (col, fn) in plan.items():
            cols[name] = out[f"{col}_{fn}"]
        return pa.table(cols)

    partials = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    ray_aggs = []
    for out, (col, fn) in plan.items():
        cls = {"sum": Sum, "count": Sum, "min": Min, "max": Max}[fn]
        ray_aggs.append(cls(out, alias_name=out))
    final = partials.groupby(keys).aggregate(*ray_aggs).to_pandas()
    if final.empty and not set(keys).issubset(final.columns):
        # Ray's to_pandas drops all columns for an all-empty dataset;
        # rebuild the typed empty frame from the input schema so
        # callers' sort/astype still work.
        sch = dataset_arrow_schema(ds)
        cols: dict = {}
        for k in keys:
            cols[k] = pd.Series([], dtype=sch.field(k).type.to_pandas_dtype())
        for out, (col, fn) in aggs.items():
            if fn in ("count",):
                cols[out] = pd.Series([], dtype="int64")
            elif fn == "mean":
                cols[out] = pd.Series([], dtype="float64")
            else:
                cols[out] = pd.Series(
                    [], dtype=sch.field(col).type.to_pandas_dtype()
                )
        return pd.DataFrame(cols)
    for out, col in mean_cols.items():
        final[out] = final[f"__sum_{out}"] / final[f"__cnt_{out}"]
        final = final.drop(columns=[f"__sum_{out}", f"__cnt_{out}"])
    return final.sort_values(keys).reset_index(drop=True)


def duplicate_groups(ds, key: str):
    """GROUP BY key HAVING COUNT(*) > 1 -> (key, dup_count) DataFrame
    (the reference's duplicate detection,
    /root/reference/src/app2/etl_validation/specs.py:110-143).

    Delegates to the hash-shuffle duplicate scan (stages/uniqueness.py):
    the exchange carries 8-byte hashes bucketed map-side, candidates
    are confirmed exactly against the real key values — never a
    sort-shuffle of the raw keys or a per-distinct-key aggregate."""
    from ..stages.uniqueness import duplicate_id_counts

    table = duplicate_id_counts(ds, key)
    out = table.to_pandas()
    out["dup_count"] = out["dup_count"].astype("int64")
    return out.sort_values(key).reset_index(drop=True)


def salted_map_groups(ds, key: str, partial_fn, final_fn, *, salt: int = 16):
    """Two-phase grouped computation for SKEWED keys (SURVEY.md §4:
    the low-cardinality skewed ``source`` column).

    A plain ``groupby(key).map_groups`` sends ALL rows of a hot key to
    one reducer. Here each row first gets a salt ``hash(row) % salt``;
    ``partial_fn`` runs per (key, salt) group — at most ``salt`` x
    #keys groups, each ≤ 1/salt of a hot key's rows — and ``final_fn``
    merges the per-salt partials per key (a tiny second groupby).

    ``partial_fn``/``final_fn``: pandas DataFrame -> DataFrame; the
    partial output must be mergeable by ``final_fn`` (the
    mergeable-summary contract, same as the sketch partials).
    """
    rng_col = "__salt"

    def add_salt(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df[rng_col] = (
            pd.util.hash_pandas_object(df.index.to_series(), index=False).to_numpy()
            % salt
        ).astype(np.int32)
        return df

    def run_partial(df: pd.DataFrame) -> pd.DataFrame:
        return partial_fn(df.drop(columns=[rng_col]))

    partials = (
        ds.map_batches(add_salt, batch_format="pandas")
        .groupby([key, rng_col])
        .map_groups(run_partial, batch_format="pandas")
    )
    return partials.groupby(key).map_groups(final_fn, batch_format="pandas")


def top_k(ds, keys: list[str], k: int, *, descending=True):
    """Deterministic top-k: sort by keys (desc) then take k."""
    return ds.sort(keys, descending=descending).limit(k)


def distinct_values(ds, col: str, *, low_cardinality: bool = True) -> list:
    """Distinct values of one column.

    ``low_cardinality=True`` (the SELECT DISTINCT-on-a-dimension shape):
    per-batch ``pc.unique`` partials union'd at the driver — no shuffle,
    driver memory bounded by #batches x per-batch distinct. For
    high-cardinality columns pass False to use the shuffling
    ``Dataset.unique``."""
    if not low_cardinality:
        return sorted(ds.unique(col))

    def partial(t: pa.Table) -> pa.Table:
        c = t[col]
        if isinstance(c, pa.ChunkedArray):
            c = c.combine_chunks()
        return pa.table({col: pc.unique(c)})

    vals: set = set()
    for b in ds.map_batches(partial, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow", batch_size=2**20
    ):
        t = b if isinstance(b, pa.Table) else pa.Table.from_batches([b])
        vals.update(t[col].to_pylist())
    return sorted(v for v in vals if v is not None) + (
        [None] if None in vals else []
    )


def session_window_agg(
    ds,
    *,
    ts_col: str = "ts",
    key_col: str = "event_type",
    value_col: str = "value_cents",
    gap: str = "30min",
    range_width: str = "1D",
):
    """Gap-based session windows per key: a new session starts when the
    time since the previous event of the same key exceeds ``gap``.
    Ray Data has no native session operator — composed here as the
    classic PARALLEL sessionization:

      phase 1: events partition by (key, coarse time range of
               ``range_width``) — raw events of one key spread over
               #ranges reducers instead of all landing on one — and
               each group sessionizes locally into session FRAGMENTS
               (start, end, n_events, value_sum). A session crossing a
               range boundary shows up as one fragment per range.
      phase 2: per key, fragments (#sessions-sized, far smaller than
               events) sort by start and merge where the inter-fragment
               gap is <= ``gap``; session ids number the merged result
               chronologically from 0.

    Exactness: within a range, fragments are separated by > gap by
    construction, and ranges partition time, so interval-merging
    fragments reproduces the single-reducer sessionization verbatim
    (the ``session_windows`` DuckDB window-function oracle stays
    hash-identical). Skew bound: phase 1 groups hold one key's events
    of one range; phase 2 holds one key's fragments. A key so hot that
    a single range overflows a reducer needs a narrower
    ``range_width`` — which raises only fragment counts, not result
    values."""
    gap_td = pd.to_timedelta(gap)
    range_td = pd.to_timedelta(range_width)
    if range_td <= gap_td:
        raise ValueError(
            f"range_width {range_width!r} must exceed gap {gap!r} for "
            "boundary merging to see every mergeable fragment pair"
        )

    def add_range(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["__rng"] = df[ts_col].dt.floor(range_width)
        return df

    def fragments(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([ts_col], kind="mergesort")
        fid = (g[ts_col].diff() > gap_td).cumsum()
        out = (
            g.assign(fid=fid)
            .groupby("fid", sort=True)
            .agg(
                session_start=(ts_col, "min"),
                session_end=(ts_col, "max"),
                n_events=(ts_col, "size"),
                value_sum=(value_col, "sum"),
            )
            .reset_index(drop=True)
        )
        out.insert(0, key_col, g[key_col].iloc[0])
        return out

    frags = (
        ds.map_batches(add_range, batch_format="pandas")
        .groupby([key_col, "__rng"])
        .map_groups(
            lambda g: fragments(g.drop(columns=["__rng"])), batch_format="pandas"
        )
    )

    def merge(f: pd.DataFrame) -> pd.DataFrame:
        f = f.sort_values(
            ["session_start", "session_end"], kind="mergesort"
        ).reset_index(drop=True)
        prev_end = f["session_end"].shift()
        new_s = prev_end.isna() | ((f["session_start"] - prev_end) > gap_td)
        sid = new_s.cumsum() - 1
        out = (
            f.assign(sid=sid)
            .groupby("sid", sort=True)
            .agg(
                session_start=("session_start", "min"),
                session_end=("session_end", "max"),
                n_events=("n_events", "sum"),
                value_sum=("value_sum", "sum"),
            )
            .reset_index()
        )
        out.insert(0, key_col, f[key_col].iloc[0])
        return out

    final = (
        frags.groupby(key_col).map_groups(merge, batch_format="pandas").to_pandas()
    )
    final["n_events"] = final["n_events"].astype("int64")
    final["sid"] = final["sid"].astype("int64")
    return final.sort_values([key_col, "sid"]).reset_index(drop=True)


def tumbling_window_agg(
    ds,
    *,
    ts_col: str = "ts",
    key_col: str = "event_type",
    value_col: str = "value",
    window: str = "1h",
):
    """Event-time tumbling window counts/sums per key. No watermarks:
    this is a batch engine; the window is a pure derived groupby key
    (floor(ts / window)), so ordering/lateness cannot change results.
    Per-batch pre-aggregation is an Arrow C++ hash aggregate
    (floor_temporal + group_by) — only (key, window) partials shuffle."""
    td = pd.to_timedelta(window)
    ns = int(td.value)
    if ns % 3_600_000_000_000 == 0:
        mult, unit = ns // 3_600_000_000_000, "hour"
    elif ns % 60_000_000_000 == 0:
        mult, unit = ns // 60_000_000_000, "minute"
    else:
        mult, unit = ns // 1_000_000_000, "second"

    def bucket(t: pa.Table) -> pa.Table:
        ts = t[ts_col]
        if isinstance(ts, pa.ChunkedArray):
            ts = ts.combine_chunks()
        ws = pc.floor_temporal(ts, multiple=int(mult), unit=unit)
        proj = pa.table(
            {key_col: t[key_col], "window_start": ws, value_col: t[value_col]}
        )
        out = proj.group_by([key_col, "window_start"]).aggregate(
            [(value_col, "count"), (value_col, "sum")]
        )
        return pa.table(
            {
                key_col: out[key_col],
                "window_start": out["window_start"],
                "n": out[f"{value_col}_count"],
                "value_sum": out[f"{value_col}_sum"],
            }
        )

    from ray.data.aggregate import Sum

    final = (
        ds.map_batches(bucket, batch_format="pyarrow", zero_copy_batch=True)
        .groupby([key_col, "window_start"])
        .aggregate(Sum("n", alias_name="n_events"), Sum("value_sum", alias_name="value_sum"))
        .to_pandas()
    )
    return final.sort_values([key_col, "window_start"]).reset_index(drop=True)


def top_k_per_group(
    ds,
    group_key: str,
    order_cols: list[tuple[str, bool]],
    k: int,
):
    """Top-k rows per group — the grouped analog of the reference's
    violation sampling / ORDER BY ... LIMIT shapes
    (/root/reference/src/app2/etl_validation/sql_runner.py:107-139's
    per-check sample rows), i.e. SQL ``ROW_NUMBER() OVER (PARTITION BY
    g ORDER BY ...) <= k``.

    ``order_cols``: [(col, descending)], and must define a TOTAL order
    within a group (include a unique tiebreak column) or the selection
    is nondeterministic.

    Scale shape: each batch first keeps its own per-group top-k (one
    Arrow sort + run-position mask, no Python loop), so the shuffle
    carries at most k rows per (group, batch) instead of the raw data;
    the per-group finalizer re-applies the same kernel. A single
    group's k x n_batches survivors must fit one reducer — bounded by
    k, not by data size.
    """
    from ..functions.grouping import run_starts

    sort_keys = [(group_key, "ascending")] + [
        (c, "descending" if desc else "ascending") for c, desc in order_cols
    ]

    def partial(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t
        t = t.take(pc.sort_indices(t, sort_keys=sort_keys))
        g = t[group_key]
        if isinstance(g, pa.ChunkedArray):
            g = g.combine_chunks()
        arr = g.to_numpy(zero_copy_only=False)
        starts = run_starts(arr)
        sizes = np.diff(np.r_[starts, len(arr)])
        pos = np.arange(len(arr)) - np.repeat(starts, sizes)
        return t.filter(pa.array(pos < k))

    def final(g: pa.Table) -> pa.Table:
        g = g.take(pc.sort_indices(g, sort_keys=sort_keys))
        return g.slice(0, k)

    out = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(group_key)
        .map_groups(final, batch_format="pyarrow")
        .to_pandas()
    )
    by = [group_key] + [c for c, _ in order_cols]
    asc = [True] + [not d for _, d in order_cols]
    return out.sort_values(by, ascending=asc, kind="mergesort").reset_index(drop=True)


def grouped_count_distinct(ds, key: str, value_col: str) -> pd.DataFrame:
    """COUNT(DISTINCT value) per key — exact, one pair-level exchange:

    per-batch distinct (key, value) pairs (Arrow hash aggregate) bound
    the shuffle to batch-local distinct counts; pairs are hash-bucketed
    on the VALUE (so every copy of a pair meets in one bucket while a
    hot key's values spread over all buckets), deduped and counted
    in-bucket with Arrow kernels, and a tiny per-key sum finishes.
    Never ships duplicate occurrences and never holds a per-key set in
    one process (the failure mode of a naive set-union aggregate on a
    hot key) — and never pays Ray's per-distinct-key aggregate
    machinery on a high-cardinality pair key.

    Reference analog: the distinct-entity reconciliation counts
    (/root/reference/src/app2/dds/source_suite/matches_source.py:18-52).
    """

    def pairs(t: pa.Table) -> pa.Table:
        return t.select([key, value_col]).group_by([key, value_col]).aggregate([])

    def count_bucket(g: pa.Table, _b: int) -> pa.Table:
        d = g.group_by([key, value_col]).aggregate([])
        c = d.group_by(key).aggregate([(value_col, "count")])
        return pa.table(
            {key: c[key], "n_partial": c[f"{value_col}_count"].cast(pa.int64())}
        )

    # bucket on the VALUE: every copy of a (key, value) pair lands in one
    # bucket (cross-batch dedup is local there) and a hot KEY's values
    # still spread across all buckets
    partials = bucket_exchange(
        ds.map_batches(pairs, batch_format="pyarrow", zero_copy_batch=True),
        value_col,
        count_bucket,
        schema=lambda s: pa.schema(
            [(key, s.field(key).type), ("n_partial", pa.int64())]
        ),
        num_buckets=32,
    )
    out = grouped_agg(partials, [key], {"n_distinct": ("n_partial", "sum")})
    out["n_distinct"] = out["n_distinct"].astype("int64")
    return out


def grouped_quantiles_bounded(
    ds,
    key: str,
    value_col: str,
    quantiles: list[tuple[str, int, int]],
    domain_max: int,
) -> pd.DataFrame:
    """EXACT grouped discrete quantiles for a BOUNDED non-negative
    integer domain (e.g. n_tok <= max sequence length): per-batch
    (key, value, count) partials via one combined-key sort, summed into
    a dense per-group counts array driver-side. Traffic is
    O(batches x groups x distinct-values); driver state is
    groups x domain ints — both independent of row count, which is what
    lets a 10^12-row table answer exact medians without any sort or
    per-row shuffle. Requires a low-cardinality key (the skewed
    ``source`` dimension — SURVEY.md §4) and values in [0, domain_max]
    (loud ValueError otherwise, never silent clipping).

    ``quantiles``: [(out_name, num, den)]; each output is
    percentile_disc(num/den): the SMALLEST value whose cumulative count
    satisfies cum * den >= num * n. Pure integer arithmetic — both this
    and the SQL twin avoid float rank rules (ceil(q*n) differs between
    engines at representability boundaries).

    Reference analog: the metrics-layer summary percentiles
    (/root/reference/src/app2/experiments/report.py:546-706).
    """
    from ..functions.grouping import group_reduce

    def partial(t: pa.Table) -> pa.Table:
        v = t[value_col]
        if isinstance(v, pa.ChunkedArray):
            v = v.combine_chunks()
        g = t[key]
        if isinstance(g, pa.ChunkedArray):
            g = g.combine_chunks()
        # SQL aggregate semantics: null VALUES contribute nothing (a
        # group with only nulls is omitted). Null KEYS form their own
        # group, like SQL GROUP BY.
        vmask = pc.is_valid(v).to_numpy(zero_copy_only=False)
        vals = v.to_numpy(zero_copy_only=False)[vmask].astype(np.int64)
        if len(vals) and (vals.min() < 0 or vals.max() > domain_max):
            raise ValueError(
                f"grouped_quantiles_bounded: {value_col} outside "
                f"[0, {domain_max}] (got [{vals.min()}, {vals.max()}])"
            )
        gnp = g.to_numpy(zero_copy_only=False)[vmask]
        codes, uniq = pd.factorize(pd.Series(gnp), use_na_sentinel=False)
        combined = codes.astype(np.int64) * (domain_max + 1) + vals
        ck, cnt = group_reduce(combined)
        return pa.table(
            {
                key: pa.array(
                    np.asarray(uniq, dtype=object)[(ck // (domain_max + 1))],
                    from_pandas=True,
                ),
                value_col: pa.array(ck % (domain_max + 1)),
                "cnt": pa.array(cnt),
            }
        )

    _NULL_KEY = object()  # dict-safe stand-in for a null group key
    counts: dict = {}
    for b in ds.map_batches(
        partial, batch_format="pyarrow", zero_copy_batch=True
    ).iter_batches(batch_format="pyarrow", batch_size=2**20):
        t = b if isinstance(b, pa.Table) else pa.Table.from_batches([b])
        ks = t[key].to_numpy(zero_copy_only=False)
        vs = t[value_col].to_numpy(zero_copy_only=False)
        cs = t["cnt"].to_numpy(zero_copy_only=False)
        null_m = pd.isna(ks)
        for kk in pd.unique(ks[~null_m]):
            m = ks == kk
            arr = counts.setdefault(kk, np.zeros(domain_max + 1, dtype=np.int64))
            np.add.at(arr, vs[m], cs[m])
        if null_m.any():
            arr = counts.setdefault(
                _NULL_KEY, np.zeros(domain_max + 1, dtype=np.int64)
            )
            np.add.at(arr, vs[null_m], cs[null_m])

    rows = []
    ordered = sorted(k for k in counts if k is not _NULL_KEY)
    if _NULL_KEY in counts:
        ordered.append(_NULL_KEY)  # NULLS LAST, like the SQL default
    for kk_raw in ordered:
        kk = None if kk_raw is _NULL_KEY else kk_raw
        cum = np.cumsum(counts[kk_raw])
        n = int(cum[-1])
        row = {key: kk}
        for name, num, den in quantiles:
            # smallest v with cum[v]*den >= num*n  (integer rank rule)
            thresh = -(-num * n // den)  # ceil(num*n/den) in exact ints
            row[name] = int(np.searchsorted(cum, thresh, side="left"))
        rows.append(row)
    return pd.DataFrame(rows)


def grouped_winsorized_sums(
    ds,
    key: str,
    value_col: str,
    domain_max: int,
    *,
    lo: tuple[int, int] = (1, 100),
    hi: tuple[int, int] = (99, 100),
) -> pd.DataFrame:
    """Winsorized (clamped) normalization stats per key: values are
    clipped to the key's EXACT [p_lo, p_hi] percentiles (the integer
    rank rule of :func:`grouped_quantiles_bounded`), then reduced to
    per-key (n, winsorized sum, clip counts) — the robust-scaling step
    of a feature pipeline, all in exact integers so engines agree
    bit-for-bit.

    Two streaming passes (like its SQL twin's CTE + join): pass 1
    computes boundaries (counting-histogram partials, driver state
    groups x domain); pass 2 broadcasts the tiny bounds map in the
    task closure and clamps each batch vectorized, exchanging one
    partial row per (key, batch). Null values contribute nothing;
    null keys are dropped (SQL JOIN-on-key semantics).
    """
    bounds = grouped_quantiles_bounded(
        ds, key, value_col, [("lo", *lo), ("hi", *hi)], domain_max
    )
    bounds = bounds[bounds[key].notna()].reset_index(drop=True)
    bmap = {
        k: (int(l), int(h))
        for k, l, h in zip(bounds[key], bounds["lo"], bounds["hi"])
    }

    def partial(t: pa.Table) -> pa.Table:
        v = t[value_col]
        if isinstance(v, pa.ChunkedArray):
            v = v.combine_chunks()
        g = t[key]
        if isinstance(g, pa.ChunkedArray):
            g = g.combine_chunks()
        m = pc.and_(pc.is_valid(v), pc.is_valid(g)).to_numpy(zero_copy_only=False)
        vals = v.to_numpy(zero_copy_only=False)[m].astype(np.int64)
        gnp = g.to_numpy(zero_copy_only=False)[m]
        if not len(vals):
            i64 = pa.array([], pa.int64())
            return pa.table(
                {
                    key: pa.array([], g.type),
                    "n": i64,
                    "wsum": i64,
                    "n_clip_lo": i64,
                    "n_clip_hi": i64,
                }
            )
        codes, uniq = pd.factorize(pd.Series(gnp))
        try:
            lo_a = np.array([bmap[u][0] for u in uniq], dtype=np.int64)
            hi_a = np.array([bmap[u][1] for u in uniq], dtype=np.int64)
        except KeyError as e:  # a key born between the two passes
            raise RuntimeError(
                f"grouped_winsorized_sums: key {e.args[0]!r} has no "
                "bounds — input changed between passes"
            ) from None
        lo_r, hi_r = lo_a[codes], hi_a[codes]
        clamped = np.clip(vals, lo_r, hi_r)
        nk = len(uniq)
        return pa.table(
            {
                # match the empty-batch path's dtype exactly (object
                # inference would promote e.g. int32 keys to int64)
                key: pa.array(
                    np.asarray(uniq, dtype=object), type=g.type, from_pandas=True
                ),
                "n": pa.array(np.bincount(codes, minlength=nk).astype(np.int64)),
                "wsum": pa.array(
                    np.bincount(codes, weights=clamped, minlength=nk).astype(
                        np.int64
                    )
                ),
                "n_clip_lo": pa.array(
                    np.bincount(
                        codes[vals < lo_r], minlength=nk
                    ).astype(np.int64)
                ),
                "n_clip_hi": pa.array(
                    np.bincount(
                        codes[vals > hi_r], minlength=nk
                    ).astype(np.int64)
                ),
            }
        )

    sums = grouped_agg(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        [key],
        {
            "n": ("n", "sum"),
            "wsum": ("wsum", "sum"),
            "n_clip_lo": ("n_clip_lo", "sum"),
            "n_clip_hi": ("n_clip_hi", "sum"),
        },
    )
    out = bounds.merge(sums, on=key)
    for c in ("lo", "hi", "n", "wsum", "n_clip_lo", "n_clip_hi"):
        out[c] = out[c].astype("int64")
    return out[
        [key, "n", "lo", "hi", "wsum", "n_clip_lo", "n_clip_hi"]
    ].sort_values(key).reset_index(drop=True)


def grouped_zscore_outliers(
    ds,
    key: str,
    value_col: str,
    out_cols: list[str],
    *,
    z: int = 3,
):
    """Rows whose ``value_col`` deviates from their group's mean by
    more than z population standard deviations — the statistical
    generalization of the reference's out-of-range scalar check
    (/root/reference/src/app2/validators/dds/rules_suite/points_check.py:18-47).

    EXACT integer arithmetic end to end: with per-group n, S=sum(x),
    S2=sum(x^2), the criterion (x-mean)^2 > z^2 * var is equivalent to

        (n*x - S)^2  >  z^2 * (n*S2 - S^2)
        |n*x - S|    >  isqrt(z^2 * (n*S2 - S^2))      (ints both sides)

    so no float mean/stddev ever enters a comparison and a SQL twin
    (HUGEINT arithmetic) agrees bit-for-bit on boundary rows. Two
    passes: a grouped-sums exchange (partial-aggregated, tiny), then a
    broadcast probe filter — no second shuffle. int64 bound: n*x and S
    stay exact while n * max(x) < 2^63 (~10^15 rows at x<=8192);
    beyond that, shard the group stats pass.
    """
    import math

    def add_sq(t: pa.Table) -> pa.Table:
        v = t[value_col]
        if isinstance(v, pa.ChunkedArray):
            v = v.combine_chunks()
        x = v.to_numpy(zero_copy_only=False).astype(np.int64)
        return t.append_column("__sq", pa.array(x * x))

    stats = grouped_agg(
        ds.map_batches(add_sq, batch_format="pyarrow", zero_copy_batch=True),
        [key],
        {"n": (value_col, "count"), "s1": (value_col, "sum"), "s2": ("__sq", "sum")},
    )
    keys_out, nn, ss, bb = [], [], [], []
    for r in stats.itertuples(index=False):
        n, s1, s2 = int(r.n), int(r.s1), int(r.s2)
        kvar = n * s2 - s1 * s1  # n^2 * population variance (exact int)
        keys_out.append(getattr(r, key))
        nn.append(n)
        ss.append(s1)
        bb.append(math.isqrt(z * z * kvar))
    lkt = pa.table(
        {
            key: pa.array(keys_out),
            "__n": pa.array(nn, pa.int64()),
            "__s1": pa.array(ss, pa.int64()),
            "__bound": pa.array(bb, pa.int64()),
        }
    )

    def probe(t: pa.Table) -> pa.Table:
        c = t[key]
        if isinstance(c, pa.ChunkedArray):
            c = c.combine_chunks()
        # every key is present in the lookup (stats came from this ds)
        idx = pc.index_in(c, value_set=lkt[key])
        n_arr = lkt["__n"].take(idx).to_numpy(zero_copy_only=False)
        s_arr = lkt["__s1"].take(idx).to_numpy(zero_copy_only=False)
        b_arr = lkt["__bound"].take(idx).to_numpy(zero_copy_only=False)
        x = t[value_col]
        if isinstance(x, pa.ChunkedArray):
            x = x.combine_chunks()
        d = n_arr * x.to_numpy(zero_copy_only=False).astype(np.int64) - s_arr
        return t.select(out_cols).filter(pa.array(np.abs(d) > b_arr))

    # LAZY: the violation stream never rides the driver — consume with
    # write_parquet at scale, or collect_sorted() for small results.
    return ds.map_batches(probe, batch_format="pyarrow", zero_copy_batch=True)


def rolling_window_agg(
    ds,
    key: str,
    ts_col: str,
    value_col: str,
    window_us: int,
    *,
    num_buckets: int | None = None,
    out_cols: list[str] | None = None,
):
    """Per-row rolling aggregate over event time: for every row, the
    COUNT and SUM of the SAME key's rows with ts in [ts - window, ts]
    — SQL ``SUM(v) OVER (PARTITION BY key ORDER BY ts RANGE BETWEEN
    <window> PRECEDING AND CURRENT ROW)``. Ray Data has no window
    operator; composed as ONE hash-bucketed exchange (the
    :func:`asof_join` partitioning shape) + per-bucket prefix sums:

      bucket = hash(key) % num_buckets co-locates each key's history;
      inside a bucket, rows sort once by (key, ts) and every row's
      window becomes two ``searchsorted`` probes into a composite
      (key_code, relative_ts) int64 axis — cum[hi] - cum[lo], no
      per-row Python, no per-key loop.

    RANGE (not ROWS) semantics: rows tied on (key, ts) all include
    each other — the result is order-independent, hence deterministic
    under shuffle, with no tiebreak needed. Null ts or key rows are
    dropped (they belong to no window).

    Partitioning assumption: one key's history fits one reducer
    (inherent to per-key windowing; raise num_buckets to spread
    distinct keys). The composite axis needs
    n_keys_in_bucket * (span + window) < 2^62 microseconds — checked
    loudly, never silently wrong.
    """
    from ..functions.grouping import run_starts

    keep = [key, ts_col, value_col] + [
        c for c in (out_cols or []) if c not in (key, ts_col, value_col)
    ]

    def project(t: pa.Table) -> pa.Table:
        return t.select(keep).filter(
            pc.and_(pc.is_valid(t[key]), pc.is_valid(t[ts_col]))
        )

    def window_bucket(g: pa.Table, _b: int) -> pa.Table:
        g = g.take(
            pc.sort_indices(
                g, sort_keys=[(key, "ascending"), (ts_col, "ascending")]
            )
        )
        k = g[key]
        if isinstance(k, pa.ChunkedArray):
            k = k.combine_chunks()
        karr = k.to_numpy(zero_copy_only=False)
        starts = run_starts(karr)
        sizes = np.diff(np.r_[starts, len(karr)])
        codes = np.repeat(np.arange(len(starts), dtype=np.int64), sizes)
        tsv = g[ts_col]
        if isinstance(tsv, pa.ChunkedArray):
            tsv = tsv.combine_chunks()
        t_us = tsv.to_numpy(zero_copy_only=False).astype("datetime64[us]").view(np.int64)
        rel = t_us - (t_us.min() if len(t_us) else 0)
        off = np.int64((rel.max() if len(rel) else 0) + window_us + 1)
        if len(codes) and int(codes[-1]) * int(off) >= 1 << 62:
            raise ValueError(
                "rolling_window_agg: composite axis overflow "
                f"({codes[-1]} keys x {off} us span in one bucket); "
                "raise num_buckets or narrow the time span"
            )
        comp = codes * off + rel
        v = g[value_col]
        if isinstance(v, pa.ChunkedArray):
            v = v.combine_chunks()
        vals = v.to_numpy(zero_copy_only=False).astype(np.int64)
        cum = np.r_[0, np.cumsum(vals)]
        lo = np.searchsorted(comp, comp - window_us, side="left")
        hi = np.searchsorted(comp, comp, side="right")
        return pa.table(
            {
                **{c: g[c] for c in keep},
                "w_count": pa.array(hi - lo),
                "w_sum": pa.array(cum[hi] - cum[lo]),
            }
        )

    # LAZY: one output row per input row — never collect this on the
    # driver at scale; write_parquet it, or collect_sorted() small ones.
    return bucket_exchange(
        ds.map_batches(project, batch_format="pyarrow", zero_copy_batch=True),
        key,
        window_bucket,
        schema=lambda s: pa.schema(
            [s.field(c) for c in keep]
            + [("w_count", pa.int64()), ("w_sum", pa.int64())]
        ),
        num_buckets=num_buckets,
    )


_BUCKET, _ROWS = "__b", "__rows"
_ENVELOPE = pa.schema([(_BUCKET, pa.int32()), (_ROWS, pa.large_binary())])


def key_buckets(arr, num_buckets: int) -> np.ndarray:
    """int32 ``hash(arr) % num_buckets``: the bucket a key value lands in
    under :func:`bucket_exchange`. For ``key`` callables that route by a
    derived value. The modulus is np.uint64: uint64 % int64 silently
    promotes to float64 in numpy."""
    return (_key_hash(arr) % np.uint64(num_buckets)).astype(np.int32)


def _ipc(t: pa.Table) -> bytes:
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, t.schema) as w:
        w.write_table(t)
    return sink.getvalue().to_pybytes()


def _conform(out: pa.Table, schema: pa.Schema, site: str) -> pa.Table:
    got = out.schema
    if got.names != schema.names or any(
        a.type != b.type for a, b in zip(got, schema)
    ):
        raise ValueError(
            f"bucket_exchange: reducer {site} returned\n{got}\n"
            f"which does not match the declared schema\n{schema}"
        )
    return pa.Table.from_arrays(out.columns, schema=schema)


def bucket_exchange(ds, key, reduce, *, schema, num_buckets=None):
    """The hash-bucket exchange, stated once: every row of ``ds`` goes
    to one of ``num_buckets`` buckets, and ``reduce(rows, bucket)`` runs
    once per non-empty bucket on all of its rows. Returns a lazy Dataset.

    ``ds``: a Dataset, or a list of Datasets co-grouped as one (a
    tagged union whose inputs share a schema): each input is packed in
    its own tasks, fused with its last map.

    ``key``: a column name — the bucket is ``hash(key) % num_buckets``
    (``_key_hash``, so rows of one key value meet in one bucket) — or a
    callable ``key(batch, num_buckets) -> int array`` for sites that
    choose their own buckets (range buckets, salted hot-key buckets);
    its values must lie in ``[0, num_buckets)``.

    ``reduce(rows, bucket)``: ``rows`` is a pyarrow Table of the
    bucket's rows, without any bucket column; ``bucket`` is the int
    bucket id (sites that need a fixed float-fold order sort their
    partials by it). It returns a pyarrow Table whose column names and
    types are exactly the declared schema; any other output raises
    ValueError naming the reducer.

    ``schema``: the output ``pa.Schema``, or a function from the input
    rows' schema to it (for generic operators whose output types follow
    their input's; such an exchange cannot type a zero-row input).

    Typed output: each range of buckets leaves a block of the schema
    even when it has no rows, so an empty result is still a Dataset of
    that schema and the exchange never emits a schema-less block.
    ``num_buckets`` resolves through :func:`resolve_num_buckets`.

    Physically one sort-based exchange, the shape of
    ``groupby().map_groups``: each input batch packs into envelope rows
    of (bucket, that bucket's rows as Arrow IPC), the envelopes sort
    into ranges of buckets, and each range's task unpacks and reduces
    its buckets in order. Ray runs no UDF on an empty block and its
    sort leaves a schema-less block for an empty range, so one sentinel
    envelope per range keeps every range's task running. An exchange
    applied directly to another's output packs inside that one's reduce
    task (no separate map between them)."""
    import ray.data as rd

    inputs = list(ds) if isinstance(ds, (list, tuple)) else [ds]
    whole = inputs[0].union(*inputs[1:]) if len(inputs) > 1 else inputs[0]
    nb = resolve_num_buckets(whole, num_buckets)
    site = getattr(reduce, "__qualname__", repr(reduce))
    try:
        n_in = int(whole._plan.initial_num_blocks() or 1)
    except Exception:
        n_in = 1
    ranges = max(1, min(nb, n_in))
    lows = np.array([nb * i // ranges for i in range(ranges)], np.int32)
    fixed = isinstance(schema, pa.Schema)

    def pack(t: pa.Table) -> pa.Table:
        t = t.replace_schema_metadata(None)
        ids, payload = [], []
        if t.num_rows:
            if callable(key):
                b = np.asarray(key(t, nb)).astype(np.int32)
            else:
                b = key_buckets(t[key], nb)
            order = np.argsort(b, kind="stable")
            b = b[order]
            t = t.take(pa.array(order))
            cuts = np.flatnonzero(np.diff(b)) + 1
            starts, ends = np.r_[0, cuts], np.r_[cuts, len(b)]
            ids = list(b[starts])
            payload = [_ipc(t.slice(lo, hi - lo)) for lo, hi in zip(starts, ends)]
        if not fixed and t.num_columns:
            # every range learns the input schema, so a range without
            # rows can still type its empty block
            ids += list(lows)
            payload += [_ipc(t.schema.empty_table())] * ranges
        return pa.table(
            [pa.array(ids, pa.int32()), pa.array(payload, pa.large_binary())],
            schema=_ENVELOPE,
        )

    def reduce_range(env: pa.Table) -> pa.Table:
        b = env[_BUCKET].to_numpy()
        rows = env[_ROWS].combine_chunks()
        cuts = np.flatnonzero(np.diff(b)) + 1
        out_schema, outs = (schema if fixed else None), []
        for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, len(b)]):
            parts = [
                pa.ipc.open_stream(v.as_buffer()).read_all()
                for v in rows[lo:hi]
                if v.is_valid
            ]
            if out_schema is None and parts:
                out_schema = schema(parts[0].schema)
            g = [p for p in parts if p.num_rows]
            if g:
                g = pa.concat_tables(g, promote_options="default")
                outs.append(_conform(reduce(g, int(b[lo])), out_schema, site))
        if out_schema is None:  # zero-row input under a schema function
            return pa.table({})
        return pa.concat_tables([out_schema.empty_table()] + outs)

    def packed(d):
        prev = getattr(d, "_bucket_exchange_tail", None)
        if prev is None:
            return d.map_batches(pack, batch_format="pyarrow", zero_copy_batch=True)
        # a chained exchange packs inside the previous one's reduce
        # task, so even a range that reduced to no rows hands the sort
        # a typed (envelope) block rather than an empty one
        prev_envs, prev_reduce = prev

        def repack(env: pa.Table):
            yield pack(prev_reduce(env))

        return prev_envs.map_batches(repack, batch_format="pyarrow", batch_size=None)

    sentinels = rd.from_arrow(
        pa.table([lows, pa.nulls(ranges, pa.large_binary())], schema=_ENVELOPE)
    )
    envs = (
        packed(inputs[0])
        .union(*map(packed, inputs[1:]), sentinels)
        .sort(_BUCKET, boundaries=lows[1:].tolist())
    )

    def unpack_reduce(env: pa.Table):
        # a generator, so a reducer's ValueError reaches the caller as
        # itself rather than wrapped as a UDF failure
        yield reduce_range(env)

    out = envs.map_batches(unpack_reduce, batch_format="pyarrow", batch_size=None)
    out._bucket_exchange_tail = (envs, reduce_range)
    return out


def resolve_num_buckets(ds, requested=None, *, floor: int = 32) -> int:
    """Bucket count for a hash-bucket exchange: the caller's explicit
    ``requested`` wins; otherwise scale with the plan's input block
    count (``max(floor, num_blocks)``) so reduce-stage parallelism and
    per-bucket memory track the data instead of a fixed constant —
    at 100× the input the exchange fans out 100× wider, not deeper."""
    if requested is not None:
        return int(requested)
    # Dataset.num_blocks() raises for lazy plans; the plan's initial
    # block estimate is available without executing and propagates
    # through map_batches / union / repartition.
    try:
        n = ds._plan.initial_num_blocks()
    except Exception:
        try:
            n = ds.num_blocks()
        except Exception:
            n = 0
    return max(floor, int(n or 0))


def bucketed_group_agg(
    ds,
    key: str,
    aggs: list[tuple[str, str]],
    *,
    num_buckets: int | None = None,
    post=None,
):
    """High-cardinality grouped aggregate as ONE hash-bucket exchange +
    an in-bucket Arrow C++ hash-aggregate — the fast path when the key
    has millions of distinct values (Ray's native per-key
    ``groupby(key).aggregate`` pays its sort-based machinery per
    distinct key; bucketing by ``hash(key) % num_buckets`` turns that
    into a num_buckets-value groupby plus vectorized kernels; measured
    13.4 s → ~2 s on a 580k-row co-group in this sandbox).
    ``num_buckets=None`` (default) auto-scales with the input block
    count via :func:`resolve_num_buckets`.

    ``aggs``: Arrow aggregate specs [(col, fn)] with fn in
    sum|count|min|max|mean; null-skipping, so tagged-union co-grouping
    works (nulls on the other side's columns vanish). Output columns
    are renamed back to the input names. ``post``: optional per-bucket
    pa.Table -> pa.Table applied AFTER the in-bucket aggregate —
    per-key rows of one key land in exactly one bucket, so key-level
    post-processing (filters, flags, second-stage partials) is correct
    there and shrinks what leaves the bucket; it must accept an empty
    table, from which the output schema is taken. ``ds`` may be a list
    of Datasets, co-grouped as in :func:`bucket_exchange`. Returns a
    Dataset.
    """
    cols = [c for c, _f in aggs]
    if len(set(cols)) != len(cols):
        raise ValueError(
            "bucketed_group_agg: output columns keep their input names, "
            "so aggregating one column twice collides — alias the column "
            f"first (got {cols})"
        )
    def reduce_bucket(g: pa.Table, _b: int = 0) -> pa.Table:
        agged = g.group_by(key).aggregate(aggs)
        # rebuild by NAME (pyarrow appends key columns last)
        out = pa.table(
            {key: agged[key], **{c: agged[f"{c}_{f}"] for c, f in aggs}}
        )
        return post(out) if post is not None else out

    return bucket_exchange(
        ds,
        key,
        reduce_bucket,
        schema=lambda s: reduce_bucket(s.empty_table()).schema,
        num_buckets=num_buckets,
    )


def fact_dim_cogroup(
    fact_parts_ds,
    dim_ds,
    *,
    key: str,
    fact_cols: list[str],
    dim_cols: list[str],
    num_buckets: int | None = None,
    post=None,
):
    """INNER fact ⋈ unique-key dim by JOIN ELIMINATION: tag both sides,
    UNION, and co-group in ONE ``bucketed_group_agg`` exchange instead
    of Dataset.join's per-partition aggregator actors (measured ~8×
    cheaper on the order-revenue queries; the order_item_consistency
    pattern, generalized).

    ``fact_parts_ds``: map-side partials — one row per (key, batch)
    with int64 measure columns ``fact_cols``; ``fact_cols[0]`` must be
    a count-like column (> 0 marks the key as present on the fact
    side — the inner-join test). ``dim_ds``: ONE row per key carrying
    ``dim_cols`` (strings/timestamps/ints; nulls in a dim col would be
    indistinguishable from 'absent', so dim values must be non-null).
    Inside each bucket the fact measures SUM and the dim columns MAX
    (null-skipping — exactly the one non-null value); keys missing on
    either side are dropped (inner). ``post`` runs on the in-bucket
    result AFTER the inner filter (key-complete, so key-level logic is
    correct there).

    Returns a lazy Dataset with one row per matched key:
    (key, *fact_cols summed, *dim_cols).
    """
    dsch = dataset_arrow_schema(dim_ds)
    dim_types = {c: dsch.field(c).type for c in dim_cols}
    # Canonical key type for BOTH sides: _key_hash lands e.g. an int32
    # fact key and an int64 dim key in the same bucket, but the in-bucket
    # concat/group_by needs one Arrow type. Integers canonicalize to
    # int64; otherwise the dim side's declared type wins.
    key_type = dsch.field(key).type
    if pa.types.is_integer(key_type):
        key_type = pa.int64()

    def _key_col(t: pa.Table) -> pa.Array | pa.ChunkedArray:
        col = t[key]
        return col if col.type == key_type else pc.cast(col, key_type)

    def pad_fact(t: pa.Table) -> pa.Table:
        cols = {key: _key_col(t)}
        for c in fact_cols:
            cols[c] = t[c]
        for c in dim_cols:
            cols[c] = pa.nulls(t.num_rows, dim_types[c])
        return pa.table(cols)

    def pad_dim(t: pa.Table) -> pa.Table:
        z = pa.array(np.zeros(t.num_rows, dtype=np.int64))
        cols = {key: _key_col(t)}
        for c in fact_cols:
            cols[c] = z
        for c in dim_cols:
            cols[c] = t[c]
        return pa.table(cols)

    def inner(t: pa.Table) -> pa.Table:
        present = pc.greater(t[fact_cols[0]], 0)
        for c in dim_cols:
            present = pc.and_(present, pc.is_valid(t[c]))
        t = t.filter(present)
        return post(t) if post is not None else t

    both = [
        fact_parts_ds.map_batches(
            pad_fact, batch_format="pyarrow", zero_copy_batch=True
        ),
        dim_ds.map_batches(pad_dim, batch_format="pyarrow"),
    ]
    return bucketed_group_agg(
        both,
        key,
        [(c, "sum") for c in fact_cols] + [(c, "max") for c in dim_cols],
        num_buckets=num_buckets,
        post=inner,
    )


def funnel_counts(
    ds,
    user_col: str,
    ts_col: str,
    type_col: str,
    steps: list[str],
    *,
    num_buckets: int | None = None,
) -> pd.DataFrame:
    """Ordered funnel / sequence-pattern counts: how many users
    performed step 1, then step 2 at-or-after their FIRST step-1 event,
    then step 3 at-or-after that, … — the event-sequence analytic SQL
    expresses as a chain of grouped-min self-joins and a streaming
    engine as a per-key pattern match.

    Scale shape: only rows of the ``steps`` event types are projected
    (3 columns); ONE hash-bucket exchange on the user co-locates each
    user's (tiny) funnel history; inside a bucket the per-user
    thresholds resolve step-by-step with vectorized grouped mins
    (len(steps) passes, no per-user loop), and each bucket emits just
    len(steps) partial counts. Ties: a single event can satisfy
    consecutive steps only if its type differs (>= comparison, SQL
    twin identical). NULL handling: rows with a null user or ts are
    DROPPED up front (they have no position in the per-user order) —
    an SQL twin whose GROUP BY would form a NULL-user group counts
    step 1 differently on null-keyed data; keep keys non-null.

    Returns a DataFrame (step int64 1-based, step_name, n_users).
    """
    step_idx = {s: i for i, s in enumerate(steps)}
    if len(step_idx) != len(steps):
        raise ValueError("funnel_counts: steps must be distinct")
    steps_arr = pa.array(steps, pa.string())

    def project(t: pa.Table) -> pa.Table:
        t = t.filter(
            pc.and_(
                pc.is_in(t[type_col], value_set=steps_arr),
                pc.and_(pc.is_valid(t[user_col]), pc.is_valid(t[ts_col])),
            )
        )
        typ = t[type_col]
        if isinstance(typ, pa.ChunkedArray):
            typ = typ.combine_chunks()
        sidx = pc.index_in(typ, value_set=steps_arr).cast(pa.int8())
        return pa.table({user_col: t[user_col], ts_col: t[ts_col], "__s": sidx})

    def bucket_counts(g: pa.Table, _b: int) -> pa.Table:
        df = g.to_pandas()
        counts = []
        # per-user running threshold; step i keeps users whose first
        # qualifying event exists at-or-after their step-(i-1) time
        thresh = None  # Series: user -> ts threshold
        for i in range(len(steps)):
            rows = df[df["__s"] == i]
            if thresh is not None:
                t = rows[user_col].map(thresh)
                rows = rows[t.notna() & (rows[ts_col] >= t)]
            thresh = rows.groupby(user_col)[ts_col].min()
            counts.append(len(thresh))
        return pa.table(
            {
                "step": pa.array(np.arange(1, len(steps) + 1, dtype=np.int64)),
                "n_users": pa.array(np.asarray(counts, dtype=np.int64)),
            }
        )

    parts = bucket_exchange(
        ds.map_batches(project, batch_format="pyarrow", zero_copy_batch=True),
        user_col,
        bucket_counts,
        schema=pa.schema([("step", pa.int64()), ("n_users", pa.int64())]),
        num_buckets=num_buckets,
    ).to_pandas()
    if not len(parts):  # no step-typed events at all -> all-zero funnel
        return pd.DataFrame(
            {
                "step": np.arange(1, len(steps) + 1, dtype=np.int64),
                "step_name": steps,
                "n_users": np.zeros(len(steps), dtype=np.int64),
            }
        )
    out = parts.groupby("step", as_index=False)["n_users"].sum()
    out["step_name"] = [steps[i - 1] for i in out["step"]]
    out["n_users"] = out["n_users"].astype("int64")
    return out[["step", "step_name", "n_users"]].sort_values("step").reset_index(
        drop=True
    )


def grouped_mode(
    ds, key: str, value_col: str, *, num_buckets: int | None = None
) -> pd.DataFrame:
    """Per-group MODE of ``value_col`` with the deterministic SQL
    tiebreak (highest count, then smallest value) — the most-frequent-
    value profiling statistic (SQL ``row_number() OVER (PARTITION BY
    key ORDER BY cnt DESC, value)`` = 1; the reference's
    most-frequent-entity lookup is the ungrouped special case,
    /root/reference/src/app2/mutators/dds_mutations.py:39-52).

    Scale shape: each batch collapses to (key, value, cnt) partials
    with one Arrow hash-aggregate; ONE hash-bucket exchange on the key
    co-locates each key's cells; inside a bucket a second hash-
    aggregate merges cells and a vectorized sort + run-start pick takes
    each key's winner — the exchange carries distinct (key, value)
    cells per batch, never rows, and only one row per key leaves the
    reducers. Nulls in ``value_col`` are ignored (SQL count semantics);
    null KEYS are rejected loudly (the run-start pick can't treat a
    null as one group — fill or filter them first, same contract as
    grouped_hll).

    Returns a pandas DataFrame (key, mode, mode_count) sorted by key.
    """
    from ..functions.grouping import run_starts

    def cells(t: pa.Table) -> pa.Table:
        k = t[key]
        if isinstance(k, pa.ChunkedArray):
            k = k.combine_chunks()
        if k.null_count:
            raise ValueError(
                f"grouped_mode: key column {key!r} contains "
                f"{k.null_count} null(s); fill or filter them first"
            )
        t = t.select([key, value_col]).filter(pc.is_valid(t[value_col]))
        g = t.group_by([key, value_col]).aggregate([(value_col, "count")])
        return pa.table(
            {
                key: g[key],
                value_col: g[value_col],
                "cnt": g[f"{value_col}_count"].cast(pa.int64()),
            }
        )

    def pick(g: pa.Table, _b: int) -> pa.Table:
        m = g.group_by([key, value_col]).aggregate([("cnt", "sum")])
        m = m.take(
            pc.sort_indices(
                m,
                sort_keys=[
                    (key, "ascending"),
                    ("cnt_sum", "descending"),
                    (value_col, "ascending"),
                ],
            )
        )
        karr = m[key]
        if isinstance(karr, pa.ChunkedArray):
            karr = karr.combine_chunks()
        starts = run_starts(karr.to_numpy(zero_copy_only=False))
        idx = pa.array(starts)
        return pa.table(
            {
                key: karr.take(idx),
                "mode": m[value_col].take(idx),
                "mode_count": m["cnt_sum"].take(idx),
            }
        )

    out = bucket_exchange(
        ds.map_batches(cells, batch_format="pyarrow", zero_copy_batch=True),
        key,
        pick,
        schema=lambda s: pa.schema(
            [
                (key, s.field(key).type),
                ("mode", s.field(value_col).type),
                ("mode_count", pa.int64()),
            ]
        ),
        num_buckets=num_buckets,
    ).to_pandas()
    return out.sort_values(key, kind="mergesort").reset_index(drop=True)


def grouped_corr(ds, key: str, x_col: str, y_col: str) -> pd.DataFrame:
    """Per-group Pearson correlation of two INTEGER-valued columns —
    the column-pair profiling step of a stats suite. One
    partial-aggregated exchange of six exact int64 sums (n, Σx, Σy,
    Σx², Σy², Σxy) per (key, batch); the final formula

        corr = (n·Σxy − Σx·Σy) / sqrt((n·Σx² − Σx²)·(n·Σy² − Σy²))

    is evaluated in float64 from the exact sums, so any engine that
    computes the same expression from the same sums agrees
    bit-for-bit (IEEE determinism) — unlike streaming corr()
    implementations. Zero-variance groups yield NaN (SQL NULL via
    NULLIF). Per-element products are overflow-checked
    (``multiply_checked``); the group SUMS are not (Arrow's sum
    aggregate wraps silently), so the caller must ensure domain² x
    group rows < 2^63 — a wrap that drives a variance negative is
    still caught below, loudly.
    """
    def prods(t: pa.Table) -> pa.Table:
        x = t[x_col].cast(pa.int64())
        y = t[y_col].cast(pa.int64())
        return pa.table(
            {
                key: t[key],
                "x": x,
                "y": y,
                "xx": pc.multiply_checked(x, x),
                "yy": pc.multiply_checked(y, y),
                "xy": pc.multiply_checked(x, y),
            }
        )

    agg = grouped_agg(
        ds.map_batches(prods, batch_format="pyarrow", zero_copy_batch=True),
        [key],
        {
            "n": ("x", "count"),
            "sx": ("x", "sum"),
            "sy": ("y", "sum"),
            "sxx": ("xx", "sum"),
            "syy": ("yy", "sum"),
            "sxy": ("xy", "sum"),
        },
    )
    n = agg["n"].to_numpy(dtype=np.float64)
    sx = agg["sx"].to_numpy(dtype=np.float64)
    sy = agg["sy"].to_numpy(dtype=np.float64)
    num = n * agg["sxy"].to_numpy(dtype=np.float64) - sx * sy
    vx = n * agg["sxx"].to_numpy(dtype=np.float64) - sx * sx
    vy = n * agg["syy"].to_numpy(dtype=np.float64) - sy * sy
    if (vx < 0).any() or (vy < 0).any():
        raise OverflowError(
            "grouped_corr: negative variance — an int64 sum wrapped; "
            "the value domain is too large for this group size"
        )
    den = np.sqrt(vx * vy)
    out = agg[[key, "n"]].copy()
    out["n"] = out["n"].astype("int64")
    with np.errstate(invalid="ignore", divide="ignore"):
        out["corr"] = np.where(den == 0, np.nan, num / den)
    return out.sort_values(key, kind="mergesort").reset_index(drop=True)


def grouped_rollup(
    ds,
    keys: list[str],
    aggs: dict[str, tuple[str, str]],
    *,
    total_label: str = "ALL",
) -> pd.DataFrame:
    """GROUP BY ROLLUP(keys): aggregates at every prefix level of
    ``keys`` plus the grand total, rolled-up key columns set to
    ``total_label`` (strings, not NULL — deterministic dtypes across
    engines). ``aggs``: out -> (col, fn), fn in sum|count|min|max —
    the re-aggregable functions; coarser levels are derived from the
    FINEST level's rows (aggregates of aggregates), so the cluster
    does exactly ONE partial-aggregated exchange at the finest grain
    and the rollup costs nothing more. mean is not re-aggregable from
    means — request sum+count and divide.

    Reference analog: the multi-level summary the mart report derives
    per (season, team) and per season
    (/root/reference/src/app2/experiments/report.py:546-706)."""
    for out, (_c, fn) in aggs.items():
        if fn not in ("sum", "count", "min", "max"):
            raise ValueError(f"grouped_rollup: {fn!r} is not re-aggregable")
    finest = grouped_agg(ds, keys, aggs)
    for k in keys:
        finest[k] = finest[k].astype(str)
    refn = {out: ("sum" if fn == "count" else fn) for out, (_c, fn) in aggs.items()}
    levels = [finest]
    for depth in range(len(keys) - 1, -1, -1):
        head = keys[:depth]
        if head:
            lvl = finest.groupby(head, as_index=False).agg(refn)
        else:
            lvl = finest.agg(refn).to_frame().T.reset_index(drop=True)
        for k in keys[depth:]:
            lvl[k] = total_label
        levels.append(lvl[finest.columns])
    out = pd.concat(levels, ignore_index=True)
    for o, (_c, fn) in aggs.items():
        if fn in ("sum", "count"):
            out[o] = out[o].astype(finest[o].dtype)
    return out.sort_values(keys, kind="mergesort").reset_index(drop=True)


def grouped_cube(
    ds,
    keys: list[str],
    aggs: dict[str, tuple[str, str]],
    *,
    total_label: str = "ALL",
) -> pd.DataFrame:
    """GROUP BY CUBE(keys): aggregates at every SUBSET of ``keys``
    (all 2^k grouping sets), absent key columns set to ``total_label``.
    Same scale contract as grouped_rollup: the cluster does exactly ONE
    partial-aggregated exchange at the finest grain; every coarser
    grouping set is re-aggregated driver-side from the finest level's
    tiny result (re-aggregable fns only: sum|count|min|max). Use only
    when the finest-grain cardinality is small (it is the driver-side
    working set); for high-cardinality cubes run one grouped_agg per
    grouping set instead.

    Reference analog: the per-flag x per-status marginal summaries the
    mart report derives by re-querying at each grain
    (/root/reference/src/app2/experiments/report.py:546-706)."""
    for out, (_c, fn) in aggs.items():
        if fn not in ("sum", "count", "min", "max"):
            raise ValueError(f"grouped_cube: {fn!r} is not re-aggregable")
    finest = grouped_agg(ds, keys, aggs)
    for k in keys:
        finest[k] = finest[k].astype(str)
    refn = {out: ("sum" if fn == "count" else fn) for out, (_c, fn) in aggs.items()}
    levels = [finest]
    # every proper subset, in deterministic order (bitmask over keys)
    for mask in range((1 << len(keys)) - 2, -1, -1):
        head = [k for i, k in enumerate(keys) if mask & (1 << i)]
        if head:
            lvl = finest.groupby(head, as_index=False).agg(refn)
        else:
            lvl = finest.agg(refn).to_frame().T.reset_index(drop=True)
        for k in keys:
            if k not in head:
                lvl[k] = total_label
        levels.append(lvl[finest.columns])
    out = pd.concat(levels, ignore_index=True)
    for o, (_c, fn) in aggs.items():
        if fn in ("sum", "count"):
            out[o] = out[o].astype(finest[o].dtype)
    return out.sort_values(keys, kind="mergesort").reset_index(drop=True)


def pareto_frontier_2d(ds, min_col: str, max_col: str):
    """2-D skyline: rows NOT strictly dominated by any other row, where
    a row dominates another if it is <= on ``min_col`` AND >= on
    ``max_col`` with at least one strict. Ties on both axes are all
    kept (neither strictly dominates).

    Scale shape: the cluster does ONE partial-aggregated exchange at
    the distinct-``min_col`` grain (per-batch partial max via
    grouped_agg), the driver scans that tiny sorted level table once
    (frontier = levels whose max beats every strictly-smaller level's
    running max), and the frontier ships back via ``ray.put`` as a
    broadcast filter — the big side never shuffles and the result stays
    a lazy Dataset. Assumes the distinct-value count of ``min_col`` is
    driver-sized (price-like domains); both columns must be non-null.

    Reference analog: the mart report's best-of screening picks
    leaderboards on one metric
    (/root/reference/src/app2/experiments/report.py:546-706); the
    skyline is the two-objective generalization (cheapest price vs
    largest size with no dominated offers)."""
    import ray

    levels = grouped_agg(ds, [min_col], {"__mx": (max_col, "max")})
    levels = levels.sort_values(min_col, kind="mergesort")
    mx = levels["__mx"].to_numpy()
    keep = np.ones(len(mx), dtype=bool)
    if len(mx) > 1:
        run = np.maximum.accumulate(mx)
        keep[1:] = mx[1:] > run[:-1]
    frontier = pa.table(
        {
            min_col: pa.array(levels[min_col].to_numpy()[keep]),
            "__mx": pa.array(mx[keep]),
        }
    )
    ref = ray.put(frontier)

    def probe(batch: pa.Table) -> pa.Table:
        f = ray.get(ref)
        lo = batch[min_col]
        hi = batch[max_col]
        if isinstance(lo, pa.ChunkedArray):
            lo = lo.combine_chunks()
        if isinstance(hi, pa.ChunkedArray):
            hi = hi.combine_chunks()
        idx = pc.index_in(lo, value_set=f[min_col])
        on_level = pc.is_valid(idx)
        lvl_max = f["__mx"].take(pc.fill_null(idx, 0))
        return batch.filter(
            pc.and_(on_level, pc.equal(hi, lvl_max))
        )

    return ds.map_batches(probe, batch_format="pyarrow", zero_copy_batch=True)


def pivot_agg(
    ds,
    index_key: str,
    pivot_key: str,
    value_col: str,
    *,
    fn: str = "sum",
    pivot_values: list | None = None,
) -> pd.DataFrame:
    """Wide/pivot aggregate: one row per ``index_key``, one column per
    ``pivot_key`` value (SQL conditional aggregation ``fn(CASE WHEN
    pivot=v THEN value END)``). The cluster does one finest-grain
    partial-aggregated exchange (index x pivot cells); the pivot into
    wide form happens on the driver over the tiny cell table. Pass
    ``pivot_values`` to pin the output schema regardless of which
    values the data happens to contain (absent cells are NULL, like
    SQL); unlisted values are dropped loudly."""
    cells = grouped_agg(ds, [index_key, pivot_key], {"v": (value_col, fn)})
    if pivot_values is not None:
        extra = set(cells[pivot_key]) - set(pivot_values)
        if extra:
            raise ValueError(
                f"pivot_agg: data contains {pivot_key} values not in "
                f"pivot_values: {sorted(extra)}"
            )
    wide = cells.pivot(index=index_key, columns=pivot_key, values="v")
    if pivot_values is not None:
        wide = wide.reindex(columns=pivot_values)
    wide.columns = [str(c) for c in wide.columns]
    return wide.reset_index().sort_values(index_key).reset_index(drop=True)


def grouped_lag_delta_stats(
    ds,
    key: str,
    ts_col: str,
    tiebreak_col: str,
    *,
    num_buckets: int | None = None,
):
    """Per-key LAG() delta statistics: for each key, the count / sum /
    max of ``ts - LAG(ts) OVER (PARTITION BY key ORDER BY ts,
    tiebreak)`` in microseconds — the inter-arrival-time profile (SQL
    LAG window; no native Ray Data operator). Keys with a single row
    contribute no gap and are absent, exactly like ``WHERE gap IS NOT
    NULL``.

    Scale shape: ONE hash-bucketed exchange (``hash(key) %
    num_buckets``) co-locates each key's history; inside a bucket one
    sort by (key, ts, tiebreak), then ``np.diff`` masked at run starts
    and per-run ``reduceat`` — no per-key loop, output is one row per
    key. Partitioning assumption: one key's rows fit one reducer
    (inherent to per-key windowing); raise num_buckets to spread keys.
    Null key/ts rows are dropped (no position in the window order).
    """
    from ..functions.grouping import run_starts

    def project(t: pa.Table) -> pa.Table:
        return t.select([key, ts_col, tiebreak_col]).filter(
            pc.and_(pc.is_valid(t[key]), pc.is_valid(t[ts_col]))
        )

    def _empty(key_type: pa.DataType) -> pa.Table:
        i64 = pa.array([], pa.int64())
        return pa.table(
            {
                key: pa.array([], key_type),
                "n_gaps": i64,
                "sum_gap_us": i64,
                "max_gap_us": i64,
            }
        )

    def bucket_stats(g: pa.Table, _b: int) -> pa.Table:
        g = g.take(
            pc.sort_indices(
                g,
                sort_keys=[
                    (key, "ascending"),
                    (ts_col, "ascending"),
                    (tiebreak_col, "ascending"),
                ],
            )
        )
        k = g[key]
        if isinstance(k, pa.ChunkedArray):
            k = k.combine_chunks()
        karr = k.to_numpy(zero_copy_only=False)
        n = len(karr)
        if n < 2:
            return _empty(k.type)
        tsv = g[ts_col]
        if isinstance(tsv, pa.ChunkedArray):
            tsv = tsv.combine_chunks()
        t_us = (
            tsv.to_numpy(zero_copy_only=False).astype("datetime64[us]").view(np.int64)
        )
        starts = run_starts(karr)
        d = np.diff(t_us)
        # position i of d is the gap ending at row i+1; row i+1 starts a
        # new key run iff (i+1) in starts
        is_start = np.zeros(n, dtype=bool)
        is_start[starts] = True
        valid = ~is_start[1:]
        gaps = d[valid]
        if not len(gaps):
            return _empty(k.type)
        gkeys = karr[1:][valid]
        gstarts = run_starts(gkeys)
        return pa.table(
            {
                key: pa.array(gkeys[gstarts], type=k.type),
                "n_gaps": pa.array(
                    np.diff(np.r_[gstarts, len(gkeys)]).astype(np.int64)
                ),
                "sum_gap_us": pa.array(np.add.reduceat(gaps, gstarts)),
                "max_gap_us": pa.array(np.maximum.reduceat(gaps, gstarts)),
            }
        )

    # LAZY (one row per key): collect_sorted() for small results,
    # write_parquet when the key domain is large.
    return bucket_exchange(
        ds.map_batches(project, batch_format="pyarrow", zero_copy_batch=True),
        key,
        bucket_stats,
        schema=lambda s: _empty(s.field(key).type).schema,
        num_buckets=num_buckets,
    )


def grouped_transition_counts(
    ds,
    key: str,
    ts_col: str,
    tiebreak_col: str,
    value_col: str,
    *,
    num_buckets: int | None = None,
):
    """Per-key LEAD() transition matrix: counts of consecutive
    (value, next value) pairs per key's ``ts_col``-ordered history,
    summed across keys — ``value, LEAD(value) OVER (PARTITION BY key
    ORDER BY ts, tiebreak)`` then GROUP BY both. The Markov-chain /
    event-funnel building block (no native Ray Data operator).

    Scale shape (same partitioning contract as
    :func:`grouped_lag_delta_stats`): one hash-bucket exchange on the
    key co-locates each key's history; inside a bucket one sort +
    numpy run masking finds consecutive pairs, and an Arrow hash
    aggregate collapses them to (from, to, n) partials — so at most
    num_buckets x |value domain|^2 rows cross the second, tiny grouped
    exchange. Null key/ts rows are dropped (no window position).
    """
    from ..functions.grouping import run_starts

    def project(t: pa.Table) -> pa.Table:
        return t.select([key, ts_col, tiebreak_col, value_col]).filter(
            pc.and_(pc.is_valid(t[key]), pc.is_valid(t[ts_col]))
        )

    def _empty(vtype: pa.DataType) -> pa.Table:
        return pa.table(
            {
                "from_value": pa.array([], vtype),
                "to_value": pa.array([], vtype),
                "n": pa.array([], pa.int64()),
            }
        )

    def bucket_pairs(g: pa.Table, _b: int) -> pa.Table:
        g = g.take(
            pc.sort_indices(
                g,
                sort_keys=[
                    (key, "ascending"),
                    (ts_col, "ascending"),
                    (tiebreak_col, "ascending"),
                ],
            )
        )
        v = g[value_col]
        if isinstance(v, pa.ChunkedArray):
            v = v.combine_chunks()
        n = g.num_rows
        if n < 2:
            return _empty(v.type)
        k = g[key]
        if isinstance(k, pa.ChunkedArray):
            k = k.combine_chunks()
        karr = k.to_numpy(zero_copy_only=False)
        starts = run_starts(karr)
        is_start = np.zeros(n, dtype=bool)
        is_start[starts] = True
        valid = ~is_start[1:]  # row i+1 continues row i's key run
        if not valid.any():
            return _empty(v.type)
        idx_from = pa.array(np.flatnonzero(valid).astype(np.int64))
        idx_to = pa.array((np.flatnonzero(valid) + 1).astype(np.int64))
        pairs = pa.table({"from_value": v.take(idx_from), "to_value": v.take(idx_to)})
        agged = pairs.group_by(["from_value", "to_value"]).aggregate(
            [([], "count_all")]
        )
        return agged.rename_columns(["from_value", "to_value", "n"])

    pairs = bucket_exchange(
        ds.map_batches(project, batch_format="pyarrow", zero_copy_batch=True),
        key,
        bucket_pairs,
        schema=lambda s: _empty(s.field(value_col).type).schema,
        num_buckets=num_buckets,
    )
    return grouped_agg(pairs, ["from_value", "to_value"], {"n": ("n", "sum")})


def global_row_number(ds, keys: list[str], *, out_col: str = "rn"):
    """Exact 1-based global ROW_NUMBER() OVER (ORDER BY keys) — the
    global-rank primitive Ray Data lacks (``ds.sort`` orders blocks but
    exposes no row index). ``keys`` must be a total order (include a
    unique tiebreak column) with no nulls.

    Scale shape: one range-partitioning sort, then two streaming
    passes over the SAME materialized sorted blocks:

      1. each block collapses to one (first-key, num_rows) summary row
         — the driver holds O(blocks), never row data;
      2. the driver turns the sorted summaries into prefix offsets,
         broadcasts the offset map once via ``ray.put``, and each
         block attaches ``offset + arange`` zero-copy.

    Correctness rests on two Ray Data invariants: a sorted dataset's
    blocks hold disjoint, globally ordered key ranges, and
    ``map_batches(batch_size=None)`` yields whole blocks — so a
    block's first-row key identifies it uniquely (total order) in both
    passes. Lookup misses raise loudly rather than mis-rank.

    Returns the sorted dataset with ``out_col`` appended (int64),
    still a streaming Dataset.
    """
    import ray

    sorted_ds = ds.sort(keys).materialize()

    def summarize(t: pa.Table) -> pa.Table:
        head = min(1, t.num_rows)
        cols = {f"k{i}": t[k].slice(0, head) for i, k in enumerate(keys)}
        cols["n"] = pa.array([t.num_rows] if head else [], pa.int64())
        return pa.table(cols)

    summaries = sorted_ds.map_batches(
        summarize, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
    ).to_pandas()
    omap, total = _block_prefix_offsets(summaries, len(keys))
    omap_ref = ray.put(omap)

    def attach(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t.append_column(out_col, pa.array([], pa.int64()))
        omap = ray.get(omap_ref)
        first = tuple(t[k][0].as_py() for k in keys)
        off = omap.get(first)
        if off is None:
            raise RuntimeError(
                "global_row_number: block first-key not found in offset "
                "map — block/batch boundaries changed between passes"
            )
        rn = np.int64(off) + np.arange(1, t.num_rows + 1, dtype=np.int64)
        return t.append_column(out_col, pa.array(rn))

    ranked = sorted_ds.map_batches(
        attach, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
    )
    return ranked, total


def _block_prefix_offsets(
    summaries: pd.DataFrame, n_keys: int
) -> tuple[dict[tuple, np.int64], int]:
    """Turn per-block (first-key, num_rows) summaries into a
    first-key -> global-prefix-offset map. Duplicate first keys mean
    the sort key was not a total order AND ties straddle blocks — the
    offsets would be ambiguous, so fail loudly."""
    key_cols = [f"k{i}" for i in range(n_keys)]
    if summaries.empty:
        # an all-empty Dataset's to_pandas drops even the columns —
        # zero blocks means zero rows, an empty offset map, total 0
        return {}, 0
    summaries = summaries.sort_values(key_cols, kind="mergesort").reset_index(
        drop=True
    )
    firsts = [tuple(r) for r in summaries[key_cols].itertuples(index=False)]
    if len(set(firsts)) != len(firsts):
        raise ValueError(
            "global_row_number: duplicate block-first keys — `keys` is "
            "not a total order (add a unique tiebreak column)"
        )
    counts = summaries["n"].to_numpy(dtype=np.int64)
    offsets = np.r_[np.int64(0), np.cumsum(counts)[:-1]]
    return dict(zip(firsts, offsets)), int(counts.sum())


def ntile_from_rank(rn: np.ndarray, n_total: int, k: int) -> np.ndarray:
    """SQL NTILE(k) bucket for 1-based ranks over n_total rows: the
    first ``n_total % k`` tiles get ``ceil(n/k)`` rows, the rest get
    ``floor(n/k)`` — exactly DuckDB/ANSI semantics, vectorized."""
    q, r = divmod(int(n_total), int(k))
    big = r * (q + 1)
    rn = np.asarray(rn, dtype=np.int64)
    in_big = rn <= big
    tile = np.where(
        in_big,
        (rn - 1) // max(q + 1, 1),
        r + (rn - big - 1) // max(q, 1),
    )
    return (tile + 1).astype(np.int64)


def global_prefix_sum(
    ds, keys: list[str], value_col: str, *, out_col: str = "prefix"
):
    """Exact EXCLUSIVE prefix sum of ``value_col`` over the global
    ORDER BY ``keys`` — the distributed scan primitive behind
    concat-and-chunk sequence packing and exact-offset attribution
    (``global_row_number`` is the value_col == 1 special case; same
    two-pass shape, same invariants).

    Scale shape: one range-partitioning sort, then two streaming passes
    over the SAME materialized sorted blocks — (1) each block collapses
    to a (first-key, block value sum) summary (driver holds O(blocks)),
    (2) the driver cumsums the sorted summaries into per-block start
    offsets, broadcasts the map once, and each block attaches
    ``offset + exclusive in-block cumsum`` zero-copy. ``keys`` must be
    a total order with no nulls; ``value_col`` must be non-negative
    int64 (sums are exact, never float).

    Returns (sorted dataset with ``out_col`` int64 appended — still a
    streaming Dataset — , grand total).
    """
    import ray

    sorted_ds = ds.sort(keys).materialize()

    def summarize(t: pa.Table) -> pa.Table:
        head = min(1, t.num_rows)
        cols = {f"k{i}": t[k].slice(0, head) for i, k in enumerate(keys)}
        s = pc.sum(pc.cast(t[value_col], pa.int64())).as_py() or 0
        cols["n"] = pa.array([s] if head else [], pa.int64())
        return pa.table(cols)

    summaries = sorted_ds.map_batches(
        summarize, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
    ).to_pandas()
    omap, total = _block_prefix_offsets(summaries, len(keys))
    omap_ref = ray.put(omap)

    def attach(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t.append_column(out_col, pa.array([], pa.int64()))
        omap = ray.get(omap_ref)
        first = tuple(t[k][0].as_py() for k in keys)
        off = omap.get(first)
        if off is None:
            raise RuntimeError(
                "global_prefix_sum: block first-key not found in offset "
                "map — block/batch boundaries changed between passes"
            )
        v = t[value_col]
        if isinstance(v, pa.ChunkedArray):
            v = v.combine_chunks()
        vals = pc.cast(v, pa.int64()).to_numpy(zero_copy_only=False)
        pre = np.int64(off) + np.cumsum(vals) - vals  # exclusive
        return t.append_column(out_col, pa.array(pre))

    ranked = sorted_ds.map_batches(
        attach, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
    )
    return ranked, total


INT64_MIN = np.iinfo(np.int64).min


def global_exclusive_running_max(
    ds, keys: list[str], value_col: str, *, out_col: str = "run_max"
):
    """Exact EXCLUSIVE running maximum of int64 ``value_col`` over the
    global ORDER BY ``keys`` — SQL's
    ``MAX(v) OVER (ORDER BY keys ROWS UNBOUNDED PRECEDING AND 1
    PRECEDING)``, the watermark primitive for event-time late-data
    accounting. Same two-pass sorted-block shape as
    :func:`global_row_number`: one range-partitioning sort, per-block
    (first-key, block-max) summaries to the driver (O(blocks)), an
    exclusive prefix-max over the sorted summaries broadcast once, and
    a zero-copy in-block ``np.maximum.accumulate`` attach. The first
    global row gets ``INT64_MIN`` (SQL NULL's stand-in — callers must
    treat it as "no predecessor", NOT as a real value; arithmetic on
    it underflows). ``keys`` must be a total order with no nulls.
    Rows never leave their workers; still a streaming Dataset."""
    import ray

    sorted_ds = ds.sort(keys).materialize()

    def summarize(t: pa.Table) -> pa.Table:
        head = min(1, t.num_rows)
        cols = {f"k{i}": t[k].slice(0, head) for i, k in enumerate(keys)}
        m = pc.max(pc.cast(t[value_col], pa.int64())).as_py()
        cols["n"] = pa.array([m] if head else [], pa.int64())
        return pa.table(cols)

    summaries = sorted_ds.map_batches(
        summarize, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
    ).to_pandas()
    key_cols = [f"k{i}" for i in range(len(keys))]
    summaries = summaries.sort_values(key_cols, kind="mergesort").reset_index(
        drop=True
    )
    firsts = [tuple(r) for r in summaries[key_cols].itertuples(index=False)]
    if len(set(firsts)) != len(firsts):
        raise ValueError(
            "global_exclusive_running_max: duplicate block-first keys — "
            "`keys` is not a total order (add a unique tiebreak column)"
        )
    maxes = summaries["n"].to_numpy(dtype=np.int64)
    incoming = np.r_[
        np.int64(INT64_MIN), np.maximum.accumulate(maxes)[:-1]
    ]
    omap_ref = ray.put(dict(zip(firsts, incoming)))

    def attach(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t.append_column(out_col, pa.array([], pa.int64()))
        omap = ray.get(omap_ref)
        first = tuple(t[k][0].as_py() for k in keys)
        inc = omap.get(first)
        if inc is None:
            raise RuntimeError(
                "global_exclusive_running_max: block first-key not found "
                "in offset map — block/batch boundaries changed between "
                "passes"
            )
        v = t[value_col]
        if isinstance(v, pa.ChunkedArray):
            v = v.combine_chunks()
        vals = pc.cast(v, pa.int64()).to_numpy(zero_copy_only=False)
        run = np.maximum(
            np.r_[np.int64(inc), np.maximum.accumulate(vals)[:-1]],
            np.int64(inc),
        )
        return t.append_column(out_col, pa.array(run))

    return sorted_ds.map_batches(
        attach, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
    )


def pack_concat_chunks(
    ds,
    *,
    order_keys: list[str],
    length_col: str,
    budget: int,
    id_col: str | None = None,
    group_col: str | None = None,
    num_buckets: int | None = None,
):
    """Concat-and-chunk sequence packing — the LLM-training batching
    step that concatenates documents in a deterministic order and cuts
    the stream into fixed-``budget`` context windows. Each document is
    attributed to the bin where it STARTS: bin_id = (exclusive prefix
    sum of ``length_col`` over ORDER BY ``order_keys``) // budget —
    deterministic, exactly reproducible, and window-expressible (the
    SQL twin is a plain window sum + integer division; a greedy
    first-fit packer would need a sequential reset and could not be
    audited by an independent engine).

    Scale shape: ``global_prefix_sum`` (sort + two streaming passes),
    then per-batch partial aggregation by bin_id (bins are contiguous
    within sorted blocks, so each batch collapses to ~rows/budget
    partial rows) and ONE bucketed exchange over bin_id for the final
    (n_docs, total_len, first/last id) per bin. Nothing
    doc-proportional reaches the driver.

    Returns a LAZY Dataset with one row per bin: (bin_id, n_docs,
    total_len, first_id, last_id) — all int64. ``id_col`` defaults to
    ``order_keys[0]``. With ``group_col`` set, the stream is packed
    WITHIN each group (the per-domain packing of a mixture pipeline,
    via :func:`grouped_prefix_sum`) and the result carries the group
    column; rows of one (group, bin) co-locate by bucketing on bin_id
    alone, so the exchange shape is unchanged.
    """
    if budget <= 0:
        raise ValueError(f"pack_concat_chunks: budget must be > 0, got {budget}")
    id_col = id_col or order_keys[0]
    if group_col is None:
        pre, _tot = global_prefix_sum(ds, order_keys, length_col, out_col="__pre")
    else:
        pre, _tot = grouped_prefix_sum(
            ds,
            group_col=group_col,
            order_keys=order_keys,
            value_col=length_col,
            out_col="__pre",
        )
    gcols = [group_col] if group_col else []
    out_names = gcols + ["bin_id", "n_docs", "total_len", "first_id", "last_id"]

    def binned_partials(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            cols = {c: pa.array([], t[c].type) for c in gcols}
            cols.update(
                {c: pa.array([], pa.int64()) for c in out_names[len(gcols):]}
            )
            return pa.table(cols)
        b = pc.divide(t["__pre"], pa.scalar(int(budget), pa.int64()))
        part = pa.table(
            {
                **{c: t[c] for c in gcols},
                "bin_id": b,
                "n_docs": pa.array(np.ones(t.num_rows, np.int64)),
                "total_len": pc.cast(t[length_col], pa.int64()),
                "first_id": pc.cast(t[id_col], pa.int64()),
                "last_id": pc.cast(t[id_col], pa.int64()),
            }
        )
        out = part.group_by(gcols + ["bin_id"]).aggregate(
            [
                ("n_docs", "sum"),
                ("total_len", "sum"),
                ("first_id", "min"),
                ("last_id", "max"),
            ]
        )
        # pyarrow appends the group key columns last; rebuild by name
        return pa.table(
            {
                **{c: out[c] for c in gcols},
                "bin_id": out["bin_id"],
                "n_docs": out["n_docs_sum"],
                "total_len": out["total_len_sum"],
                "first_id": out["first_id_min"],
                "last_id": out["last_id_max"],
            }
        )

    partials = pre.map_batches(
        binned_partials, batch_format="pyarrow", zero_copy_batch=True
    )
    if group_col is None:
        return bucketed_group_agg(
            partials,
            "bin_id",
            [
                ("n_docs", "sum"),
                ("total_len", "sum"),
                ("first_id", "min"),
                ("last_id", "max"),
            ],
            num_buckets=num_buckets,
        )
    def reduce_bucket(g: pa.Table, _b: int = 0) -> pa.Table:
        agged = g.group_by([group_col, "bin_id"]).aggregate(
            [
                ("n_docs", "sum"),
                ("total_len", "sum"),
                ("first_id", "min"),
                ("last_id", "max"),
            ]
        )
        return pa.table(
            {
                group_col: agged[group_col],
                "bin_id": agged["bin_id"],
                "n_docs": agged["n_docs_sum"],
                "total_len": agged["total_len_sum"],
                "first_id": agged["first_id_min"],
                "last_id": agged["last_id_max"],
            }
        )

    return bucket_exchange(
        partials,
        "bin_id",
        reduce_bucket,
        schema=lambda s: reduce_bucket(s.empty_table()).schema,
        num_buckets=num_buckets,
    )


def key_value_diff(
    left_ds,
    right_ds,
    *,
    key_col: str,
    value_col: str,
    num_buckets: int | None = None,
) -> pd.DataFrame:
    """Value-level reconciliation of two LARGE table versions — the
    migration / rewrite audit that `key_set_reconcile` (set-level)
    cannot answer: for every key, is the CONTENT identical? Statuses:
    ``equal``, ``changed`` (key on both sides, different value),
    ``left_only``, ``right_only``.

    Scale shape: each side projects per-batch to (key, content-hash-64,
    side) — the value itself never rides the exchange — then ONE
    hash-bucket co-group compares sides per key vectorized (sorted-run
    reduction, no Python per key) and each bucket emits <= 4 partial
    rows; the driver folds the bounded partials. Keys must be UNIQUE
    per side (duplicate keys in a bucket raise loudly — multiplicity
    reconciliation is `doc_id_unique_violations`' job).

    Equality is 64-bit content-hash equality: exact for differences,
    probabilistic for equality (~n/2^64 false-equal; the fingerprint is
    verified collision-free on this corpus at every SF — same contract
    as state/dedup_index.py).

    Returns a small DataFrame (status, n_keys, key_min, key_max), all
    key-bounded; inputs may be arbitrarily large.

    Reference analog: the reference's run-to-baseline comparison checks
    (/root/reference/src/app2/experiments — baseline vs mutated-run
    results) promoted to full-content row identity.
    """
    from ..functions.hashing import hash_string_array

    def project(side_code: int):
        def fn(t: pa.Table) -> pa.Table:
            k = pc.cast(t[key_col], pa.int64())
            h = hash_string_array(t[value_col]).view(np.int64)
            return pa.table(
                {
                    "k": k,
                    "h": pa.array(h),
                    "s": pa.array(np.full(len(k), side_code, np.int8)),
                }
            )

        return fn

    left_proj = left_ds.map_batches(
        project(0), batch_format="pyarrow", zero_copy_batch=True
    )
    right_proj = right_ds.map_batches(
        project(1), batch_format="pyarrow", zero_copy_batch=True
    )
    STATUSES = ("equal", "changed", "left_only", "right_only")
    schema = pa.schema(
        [
            ("status", pa.string()),
            ("n_keys", pa.int64()),
            ("key_min", pa.int64()),
            ("key_max", pa.int64()),
        ]
    )

    def bucket_cmp(g: pa.Table, _b: int) -> pa.Table:
        k = g["k"].combine_chunks().to_numpy(zero_copy_only=False)
        h = g["h"].combine_chunks().to_numpy(zero_copy_only=False)
        s = g["s"].combine_chunks().to_numpy(zero_copy_only=False)
        order = np.lexsort((s, k))
        k, h, s = k[order], h[order], s[order]
        starts = np.r_[np.int64(0), np.flatnonzero(np.diff(k)) + 1]
        sizes = np.diff(np.r_[starts, len(k)])
        if np.any(sizes > 2):
            bad = k[starts[sizes > 2][0]]
            raise ValueError(
                f"key_value_diff: key {bad!r} appears more than once on "
                "one side — keys must be unique per side"
            )
        single = sizes == 1
        # size-1 runs: side decides left_only/right_only; size-2 runs
        # are (left, right) after the lexsort — equal iff hashes match
        st = np.empty(len(starts), dtype=np.int8)
        one = starts[single]
        st[single] = np.where(s[one] == 0, 2, 3)  # left_only / right_only
        two = starts[~single]
        if len(two) and np.any((s[two] != 0) | (s[two + 1] != 1)):
            raise ValueError(
                "key_value_diff: duplicate key within one side "
                "(two rows share a side) — keys must be unique per side"
            )
        st[~single] = np.where(h[two] == h[two + 1], 0, 1)  # equal / changed
        kk = k[starts]
        rows = [
            {
                "status": name,
                "n_keys": int(m.sum()),
                "key_min": int(kk[m].min()),
                "key_max": int(kk[m].max()),
            }
            for code, name in enumerate(STATUSES)
            if (m := st == code).any()
        ]
        return pa.Table.from_pylist(rows, schema=schema)

    partials = collect_sorted(  # bounded: <= 4 rows per bucket
        bucket_exchange(
            [left_proj, right_proj],
            "k",
            bucket_cmp,
            schema=schema,
            num_buckets=num_buckets,
        ),
        ["status"],
    )
    out = (
        partials.groupby("status", sort=True)
        .agg(
            n_keys=("n_keys", "sum"),
            key_min=("key_min", "min"),
            key_max=("key_max", "max"),
        )
        .reset_index()
    )
    for c in ("n_keys", "key_min", "key_max"):
        out[c] = out[c].astype("int64")
    return out


def grouped_prefix_sum(
    ds,
    *,
    group_col: str,
    order_keys: list[str],
    value_col: str,
    out_col: str = "prefix",
):
    """Exact EXCLUSIVE prefix sum of ``value_col`` over ORDER BY
    ``order_keys`` WITHIN each ``group_col`` partition — the grouped
    sibling of :func:`global_prefix_sum` (one sort on
    [group] + order_keys, two streaming passes; same block-first-key
    invariants). The driver holds O(blocks x groups-per-block) summary
    rows — groups are contiguous after the sort, so that is O(blocks +
    groups), never row data.

    Returns (sorted dataset with ``out_col`` int64 appended, dict of
    per-group totals).
    """
    import ray

    keys = [group_col] + list(order_keys)
    sorted_ds = ds.sort(keys).materialize()

    def summarize(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            cols = {f"k{i}": pa.array([], t[k].type) for i, k in enumerate(keys)}
            cols["g"] = pa.array([], t[group_col].type)
            cols["n"] = pa.array([], pa.int64())
            return pa.table(cols)
        agg = (
            pa.table(
                {"g": t[group_col], "v": pc.cast(t[value_col], pa.int64())}
            )
            .group_by("g")
            .aggregate([("v", "sum")])
        )
        ng = agg.num_rows
        cols = {
            f"k{i}": pa.concat_arrays(
                [t[k].slice(0, 1).combine_chunks()] * ng
            )
            for i, k in enumerate(keys)
        }
        cols["g"] = agg["g"]
        cols["n"] = pc.cast(agg["v_sum"], pa.int64())
        return pa.table(cols)

    summaries = sorted_ds.map_batches(
        summarize, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
    ).to_pandas()
    key_cols = [f"k{i}" for i in range(len(keys))]
    blocks = summaries.sort_values(key_cols, kind="mergesort")
    # offsets: walk blocks in key order, maintaining running per-group sums
    running: dict = {}
    omap: dict = {}
    totals: dict = {}
    grouped = blocks.groupby(key_cols, sort=True)
    seen = set()
    for bk, sub in grouped:
        bk = bk if isinstance(bk, tuple) else (bk,)
        if bk in seen:
            raise ValueError(
                "grouped_prefix_sum: duplicate block-first keys — keys "
                "are not a total order (add a unique tiebreak column)"
            )
        seen.add(bk)
        omap[bk] = {}
        for g, s in zip(sub["g"], sub["n"]):
            omap[bk][g] = running.get(g, 0)
            running[g] = running.get(g, 0) + int(s)
    totals = dict(running)
    omap_ref = ray.put(omap)

    def attach(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t.append_column(out_col, pa.array([], pa.int64()))
        omap = ray.get(omap_ref)
        first = tuple(t[k][0].as_py() for k in keys)
        offs = omap.get(first)
        if offs is None:
            raise RuntimeError(
                "grouped_prefix_sum: block first-key not found in offset "
                "map — block/batch boundaries changed between passes"
            )
        g = t[group_col]
        if isinstance(g, pa.ChunkedArray):
            g = g.combine_chunks()
        dct = g.dictionary_encode()
        cats = dct.dictionary.to_pylist()
        codes = dct.indices.to_numpy(zero_copy_only=False)
        base = np.array([offs[c] for c in cats], dtype=np.int64)
        v = t[value_col]
        if isinstance(v, pa.ChunkedArray):
            v = v.combine_chunks()
        vals = pc.cast(v, pa.int64()).to_numpy(zero_copy_only=False)
        # groups are contiguous in the sorted block: per-segment
        # exclusive cumsum = global exclusive cumsum minus its value at
        # the segment start
        cs = np.cumsum(vals) - vals
        seg_starts = np.r_[np.int64(0), np.flatnonzero(np.diff(codes)) + 1]
        bound = np.zeros(len(codes), dtype=np.int64)
        bound[seg_starts] = 1
        seg_id = np.cumsum(bound) - 1
        pre = cs - cs[seg_starts][seg_id] + base[codes]
        return t.append_column(out_col, pa.array(pre))

    ranked = sorted_ds.map_batches(
        attach, batch_format="pyarrow", batch_size=None, zero_copy_batch=True
    )
    return ranked, totals


def max_run_histogram(
    ds,
    key: str,
    val_col: str,
    *,
    num_buckets: int | None = None,
    len_col: str = "run_len",
    count_col: str = "n_keys",
):
    """Gaps-and-islands: per-key LONGEST run of CONSECUTIVE integers in
    ``val_col`` (duplicates collapse first), returned as a histogram
    ``(run_len, n_keys)`` pandas frame. The classic SQL shape is
    ``val - ROW_NUMBER() OVER (PARTITION BY key ORDER BY val)`` as the
    island id; here each batch first collapses to DISTINCT (key, val)
    pairs (Arrow C++ hash aggregate), ONE hash-bucket exchange
    co-locates each key's values, and the in-bucket reducer does the
    whole island analysis as numpy lexsort + run-boundary arithmetic —
    what leaves a bucket is its (run_len, count) histogram, at most
    O(distinct lengths) rows, so the driver folds
    ``buckets x lengths`` tiny partials, never per-key rows.

    Reference analog: streak/run-length checks over per-entity ordered
    histories (the reference's per-team season sequences,
    /root/reference/src/app2/validators/dds/rules_suite/season_round_robin.py)
    re-expressed as a distributed windowing primitive.
    """
    def partial(t: pa.Table) -> pa.Table:
        return (
            pa.table({key: t[key], val_col: t[val_col]})
            .group_by([key, val_col])
            .aggregate([])
        )

    def reduce_bucket(g: pa.Table, _b: int) -> pa.Table:
        k = g[key].to_numpy(zero_copy_only=False).astype(np.int64)
        v = g[val_col].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((v, k))
        k = k[order]
        v = v[order]
        # cross-batch duplicates survive the per-batch distinct; drop
        keep = np.ones(len(k), dtype=bool)
        keep[1:] = (k[1:] != k[:-1]) | (v[1:] != v[:-1])
        k = k[keep]
        v = v[keep]
        idx = np.arange(len(k), dtype=np.int64)
        new_key = np.ones(len(k), dtype=bool)
        new_key[1:] = k[1:] != k[:-1]
        starts = idx[new_key]
        counts = np.diff(np.append(starts, len(k)))
        rn = idx - np.repeat(starts, counts)
        island = v - rn
        new_isl = new_key.copy()
        new_isl[1:] |= island[1:] != island[:-1]
        isl_starts = idx[new_isl]
        isl_len = np.diff(np.append(isl_starts, len(k))).astype(np.int64)
        isl_key = k[isl_starts]
        key_bounds = np.flatnonzero(
            np.r_[True, isl_key[1:] != isl_key[:-1]]
        )
        best = np.maximum.reduceat(isl_len, key_bounds)
        lens, cnt = np.unique(best, return_counts=True)
        return pa.table(
            {
                len_col: pa.array(lens.astype(np.int64)),
                count_col: pa.array(cnt.astype(np.int64)),
            }
        )

    out = bucket_exchange(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        key,
        reduce_bucket,
        schema=pa.schema([(len_col, pa.int64()), (count_col, pa.int64())]),
        num_buckets=num_buckets,
    )
    df = collect_sorted(out, [len_col])
    df = df.groupby(len_col, as_index=False)[count_col].sum()
    df[count_col] = df[count_col].astype("int64")
    return df.sort_values(len_col).reset_index(drop=True)


def grouped_topk_distinct(
    ds,
    key: str,
    val_col: str,
    k: int,
    *,
    descending: bool = True,
    num_buckets: int | None = None,
):
    """Per-group top-k DISTINCT values WITH TIES and their
    multiplicities — SQL ``GROUP BY g, v QUALIFY DENSE_RANK() OVER
    (PARTITION BY g ORDER BY v DESC) <= k``. Unlike
    :func:`top_k_per_group` (ROW_NUMBER semantics, exactly k rows), the
    output is one row per (group, value) with COUNT(*), so tied rows
    are never materialized and the result is bounded at k rows/group
    regardless of tie multiplicity.

    Scale shape: each batch collapses to (key, val, n) partials AND
    prunes to its local top-k distinct values (safe: the global k-th
    extreme is at least as extreme as any batch's, so no global
    survivor is dropped); one bucket exchange on key; the in-bucket
    reducer merges counts and applies the dense-rank cut with numpy
    lexsort — no Python loop over rows. ``val_col`` must be integer
    (quantize floats to cents/micro-units first, the house exactness
    rule)."""
    if k < 1:
        raise ValueError(f"grouped_topk_distinct: k must be >= 1, got {k}")
    schema = pa.schema(
        [
            (key, dataset_arrow_schema(ds).field(key).type),
            (val_col, pa.int64()),
            ("n", pa.int64()),
            ("rk", pa.int64()),
        ]
    )

    def dense_cut(
        kk: np.ndarray, vv: np.ndarray, nn: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(key, val, n) partials -> per-key top-k distinct by val with
        dense rank; assumes (kk, vv) pairs are UNIQUE."""
        sv = -vv if descending else vv
        order = np.lexsort((sv, kk))
        kk, vv, nn, sv = kk[order], vv[order], nn[order], sv[order]
        idx = np.arange(len(kk), dtype=np.int64)
        new_key = np.ones(len(kk), dtype=bool)
        new_key[1:] = kk[1:] != kk[:-1]
        starts = idx[new_key]
        counts = np.diff(np.append(starts, len(kk)))
        # pairs are unique, so rank within key == run position + 1
        rk = idx - np.repeat(starts, counts) + 1
        keep = rk <= k
        return kk[keep], vv[keep], nn[keep], rk[keep]

    def partial(t: pa.Table) -> pa.Table:
        g = (
            pa.table(
                {
                    key: t[key],
                    val_col: pc.cast(t[val_col], pa.int64()),
                    "__one": pa.array(np.ones(t.num_rows, np.int64)),
                }
            )
            .group_by([key, val_col])
            .aggregate([("__one", "sum")])
        )
        kk = g[key].to_numpy(zero_copy_only=False)
        vv = g[val_col].to_numpy(zero_copy_only=False).astype(np.int64)
        nn = g["__one_sum"].to_numpy(zero_copy_only=False).astype(np.int64)
        kk2, vv2, nn2, _rk = dense_cut(kk, vv, nn)
        return pa.table(
            {key: pa.array(kk2), val_col: pa.array(vv2), "n": pa.array(nn2)}
        )

    def reduce_bucket(g: pa.Table, _b: int) -> pa.Table:
        # merge per-batch counts for the same (key, val), then cut
        m = g.group_by([key, val_col]).aggregate([("n", "sum")])
        kk = m[key].to_numpy(zero_copy_only=False)
        vv = m[val_col].to_numpy(zero_copy_only=False).astype(np.int64)
        nn = m["n_sum"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(list(dense_cut(kk, vv, nn)), schema=schema)

    return bucket_exchange(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        key,
        reduce_bucket,
        schema=schema,
        num_buckets=num_buckets,
    )


def conversion_within(
    ds,
    user_col: str,
    ts_col: str,
    type_col: str,
    *,
    from_type: str,
    to_type: str,
    window_us: int,
    num_buckets: int | None = None,
) -> pd.DataFrame:
    """Time-BOUNDED conversion join: for every ``from_type`` event,
    did the same user emit a ``to_type`` event strictly after it and
    within ``window_us``? Returns per-day (day of the from-event)
    ``(day, n_from, n_converted)`` — the windowed sibling of
    :func:`funnel_counts` (which is order-only, unbounded time).

    Scale shape: only the two event types project (3 columns); one
    hash-bucket exchange on the user; the in-bucket check is a single
    COMPOSITE-KEY searchsorted (user * K + rel_ts encodes "first
    to-event of the same user after t" as one binary search over the
    bucket's sorted to-events — no per-user loop, no pair expansion).
    Each bucket emits (day, n_from, n_converted) partials; the driver
    folds a bounded day axis. K = time span + 2 is guarded against
    int64 overflow loudly (bucket user count x span must fit)."""
    US_PER_DAY = np.int64(86_400_000_000)

    def project(t: pa.Table) -> pa.Table:
        keep = pc.or_(
            pc.equal(t[type_col], from_type), pc.equal(t[type_col], to_type)
        )
        t = t.filter(keep)
        ts = t[ts_col]
        if isinstance(ts, pa.ChunkedArray):
            ts = ts.combine_chunks()
        # normalize the unit BEFORE the int view: pandas-sourced data
        # arrives as timestamp[ns], parquet as timestamp[us]
        if pa.types.is_timestamp(ts.type) and ts.type.unit != "us":
            ts = ts.cast(pa.timestamp("us"))
        return pa.table(
            {
                user_col: pc.cast(t[user_col], pa.int64()),
                "ts": ts.cast(pa.int64()),
                "is_to": pc.cast(pc.equal(t[type_col], to_type), pa.int8()),
            }
        )

    def reduce_bucket(g: pa.Table, _b: int) -> pa.Table:
        users = g[user_col].to_numpy(zero_copy_only=False)
        ts = g["ts"].to_numpy(zero_copy_only=False)
        is_to = g["is_to"].to_numpy(zero_copy_only=False).astype(bool)
        tmin = int(ts.min())
        rel = ts - tmin
        span = int(rel.max()) + 2
        # remap bucket-local users to dense codes so K * n_users fits
        uniq, codes = np.unique(users, return_inverse=True)
        if span * len(uniq) >= 2**62:
            raise ValueError(
                "conversion_within: composite key (users x time span) "
                "exceeds int64 in one bucket — raise num_buckets"
            )
        key = codes.astype(np.int64) * np.int64(span) + rel
        a_mask = ~is_to
        a_key = key[a_mask]
        a_ts = ts[a_mask]
        b_key = np.sort(key[is_to])
        pos = np.searchsorted(b_key, a_key, side="right")
        ok = pos < len(b_key)
        nxt = np.where(ok, b_key[np.minimum(pos, len(b_key) - 1)], -1)
        # same user iff still inside the user's K-slot; within window
        conv = ok & (nxt - a_key > 0) & (nxt - a_key <= window_us) & (
            (nxt // span) == (a_key // span)
        )
        day = a_ts // US_PER_DAY
        dl, inv = np.unique(day, return_inverse=True)
        n_from = np.bincount(inv, minlength=len(dl)).astype(np.int64)
        n_conv = np.bincount(
            inv, weights=conv.astype(np.float64), minlength=len(dl)
        ).astype(np.int64)
        return pa.table(
            {
                "day": pa.array(dl.astype(np.int64)),
                "n_from": pa.array(n_from),
                "n_converted": pa.array(n_conv),
            }
        )

    parts = bucket_exchange(
        ds.map_batches(project, batch_format="pyarrow", zero_copy_batch=True),
        user_col,
        reduce_bucket,
        schema=pa.schema(
            [(c, pa.int64()) for c in ("day", "n_from", "n_converted")]
        ),
        num_buckets=num_buckets,
    )
    df = collect_sorted(parts, ["day"])
    df = df.groupby("day", as_index=False).agg(
        n_from=("n_from", "sum"), n_converted=("n_converted", "sum")
    )
    for c in df.columns:
        df[c] = df[c].astype("int64")
    return df.sort_values("day").reset_index(drop=True)


# ------------------------------------------------------------------ skyline


def skyline_mask(cost: np.ndarray, gain: np.ndarray) -> np.ndarray:
    """Boolean mask of the 2-D SKYLINE (Pareto frontier): row i survives
    iff no other row has ``cost <= cost[i] and gain >= gain[i]`` with at
    least one STRICT inequality — the classic 'cheapest for its size'
    dominance query (Börzsönyi et al., ICDE 2001). Vectorized: sort by
    (cost asc, gain desc); a row is dominated iff the max gain among
    STRICTLY cheaper rows reaches its gain, or a same-cost row has
    strictly larger gain. Exact duplicates (same cost AND gain) do not
    dominate each other — all survive unless a third row dominates."""
    n = len(cost)
    if n == 0:
        return np.zeros(0, dtype=bool)
    order = np.lexsort((-gain, cost))
    c_s, g_s = cost[order], gain[order]
    new_grp = np.empty(n, dtype=bool)
    new_grp[0] = True
    np.not_equal(c_s[1:], c_s[:-1], out=new_grp[1:])
    starts = np.flatnonzero(new_grp)
    grp_max = g_s[starts]  # gain sorted desc within a cost group
    prev_max = np.empty(len(starts), dtype=gain.dtype)
    prev_max[0] = np.iinfo(np.int64).min
    np.maximum.accumulate(grp_max[:-1], out=prev_max[1:])
    grp_id = np.cumsum(new_grp) - 1
    dominated = (prev_max[grp_id] >= g_s) | (grp_max[grp_id] > g_s)
    keep = np.zeros(n, dtype=bool)
    keep[order] = ~dominated
    return keep


SKYLINE_MAX_CANDIDATES = 2_000_000


def skyline_2d(ds, cost_col: str, gain_col: str) -> pd.DataFrame:
    """Distributed 2-D skyline over a Dataset: each block emits its
    LOCAL skyline (a global skyline row is undominated everywhere, so
    it survives its own block — union of local skylines ⊇ global), the
    driver re-runs the same kernel on the union. Both columns must be
    int64-castable. The gathered candidate set is #blocks × local
    frontier size — tiny in practice; a loud cap
    (SKYLINE_MAX_CANDIDATES) guards the pathological pay-more-get-more
    diagonal (cost and gain rising together puts EVERY point on the
    frontier) rather than truncating silently."""

    def local(t: pa.Table) -> pa.Table:
        c = t[cost_col]
        g = t[gain_col]
        if isinstance(c, pa.ChunkedArray):
            c = c.combine_chunks()
        if isinstance(g, pa.ChunkedArray):
            g = g.combine_chunks()
        keep = skyline_mask(
            c.cast(pa.int64()).to_numpy(zero_copy_only=False),
            g.cast(pa.int64()).to_numpy(zero_copy_only=False),
        )
        return t.filter(pa.array(keep))

    cand = ds.map_batches(
        local, batch_format="pyarrow", zero_copy_batch=True
    ).to_pandas()
    if len(cand) > SKYLINE_MAX_CANDIDATES:
        raise ValueError(
            f"skyline_2d: {len(cand)} local-skyline candidates exceed the "
            f"{SKYLINE_MAX_CANDIDATES} gather cap — near-diagonal data "
            "(cost/gain rising together); raise the cap or add a "
            "pre-merge reduce stage"
        )
    if cand.empty:
        return cand
    keep = skyline_mask(
        cand[cost_col].to_numpy(dtype=np.int64),
        cand[gain_col].to_numpy(dtype=np.int64),
    )
    return cand[keep].reset_index(drop=True)


def key_containment(
    child_ds,
    parent_ds,
    child_key: str,
    parent_key: str,
    *,
    num_buckets: int | None = None,
) -> tuple[int, int]:
    """Inclusion-dependency probe of two LARGE datasets: how many
    DISTINCT non-null child keys exist, and how many of them appear in
    the parent key column — the foreign-key-discovery primitive of a
    data profiler (same exchange shape as key_set_reconcile, but the
    per-bucket output is two COUNTS, so the result is scale-free even
    when containment is poor). Integer keys meet on int64; both sides
    dedup per batch before the shuffle. Returns
    (n_child_distinct, n_contained)."""
    child_proj = _side_keys(child_ds, child_key, 0)
    parent_proj = _side_keys(parent_ds, parent_key, 1)

    def bucket_counts(g: pa.Table, _b: int) -> pa.Table:
        k = g["k"].combine_chunks()
        s = g["s"].combine_chunks()
        child = pc.unique(k.filter(pc.equal(s, 0)))
        parent = pc.unique(k.filter(pc.equal(s, 1)))
        contained = (
            pc.sum(pc.is_in(child, value_set=parent)).as_py() or 0
            if len(child)
            else 0
        )
        return pa.table(
            {
                "n_child": pa.array([len(child)], pa.int64()),
                "n_contained": pa.array([int(contained)], pa.int64()),
            }
        )

    rows = bucket_exchange(
        [child_proj, parent_proj],
        "k",
        bucket_counts,
        schema=pa.schema([("n_child", pa.int64()), ("n_contained", pa.int64())]),
        num_buckets=num_buckets,
    ).take_all()
    n_child = sum(r["n_child"] for r in rows)
    n_contained = sum(r["n_contained"] for r in rows)
    return int(n_child), int(n_contained)
