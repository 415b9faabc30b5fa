"""Local emulation of the driver's correctness gate: run every
``queries()`` entry and its ``oracle_sql()`` twin on the same sf_dir,
compare row count, column names, and order-insensitive values.

Usage: python tools/check_oracles.py [sf_dir] [query ...]

Ray gets ``RAY_GRAFT_CPUS`` CPUs (default 8; ``RAY_GRAFT_CPUS=1`` is the
1-CPU screen). An entry that runs longer than ``ENTRY_TIMEOUT_S`` prints
``TIMEOUT <name>``, counts as a failure, and Ray is restarted so the
wedged execution cannot hold up the next entry.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pandas as pd

ENTRY_TIMEOUT_S = 300


def to_df(obj) -> pd.DataFrame:
    import pyarrow as pa

    if isinstance(obj, pd.DataFrame):
        return obj.reset_index(drop=True)
    if isinstance(obj, pa.Table):
        return obj.to_pandas()
    return obj.to_pandas()  # ray Dataset


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df.copy()
    df = df[sorted(df.columns)]
    for c in df.columns:
        if df[c].dtype == object and len(df) and isinstance(df[c].iloc[0], (list, np.ndarray)):
            df[c] = df[c].map(lambda v: tuple(v) if v is not None else None)
    sort_cols = [c for c in df.columns if df[c].dtype != "float64"] or list(df.columns)
    return df.sort_values(by=list(df.columns), kind="mergesort").reset_index(drop=True)


def compare(name: str, ray_df: pd.DataFrame, sql_df: pd.DataFrame) -> list[str]:
    problems = []
    if sorted(ray_df.columns) != sorted(sql_df.columns):
        return [f"columns differ: {sorted(ray_df.columns)} vs {sorted(sql_df.columns)}"]
    for c in ray_df.columns:
        # mirror the driver's schema_match: dtype must agree, not just
        # the values after coercion (int32 vs BIGINT would fail there)
        a, b = ray_df[c].dtype, sql_df[c].dtype
        if a != b:
            problems.append(f"dtype mismatch in {c!r}: {a} vs {b}")
    if problems:
        return problems
    if len(ray_df) != len(sql_df):
        problems.append(f"row count {len(ray_df)} vs {len(sql_df)}")
        return problems
    a, b = normalize(ray_df), normalize(sql_df)
    for c in a.columns:
        av, bv = a[c], b[c]
        if av.dtype.kind == "f" or bv.dtype.kind == "f":
            # BIT-EXACT, like the driver's byte hash (the old
            # allclose(rtol=1e-9) gate let revenue_deciles pass locally
            # and fail upstream). NaNs compare equal via the uint64
            # view only if they are the same NaN bit pattern — also
            # what a byte hash does.
            fa = av.astype(float).to_numpy()
            fb = bv.astype(float).to_numpy()
            ok = bool(np.array_equal(fa.view(np.uint64), fb.view(np.uint64)))
            if not ok:
                close = np.allclose(fa, fb, rtol=1e-9, atol=1e-12, equal_nan=True)
                with np.errstate(invalid="ignore"):
                    mad = float(np.nanmax(np.abs(fa - fb))) if len(fa) else 0.0
                problems.append(
                    f"column {c!r} not BIT-exact (allclose={close}, "
                    f"max_abs_diff={mad:.3e}) — driver hash would fail"
                )
                continue
        else:
            ok = av.tolist() == bv.tolist()
        if not ok:
            bad = next(
                (i for i in range(len(av)) if str(av.iloc[i]) != str(bv.iloc[i])), 0
            )
            problems.append(
                f"column {c!r} differs, e.g. row {bad}: {av.iloc[bad]!r} vs {bv.iloc[bad]!r}"
            )
    return problems


def _init_ray():
    import os

    import ray
    from ray.data import DataContext

    ray.init(
        address="local",
        num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "8")),
        include_dashboard=False,
        logging_level="ERROR",
    )
    DataContext.get_current().enable_progress_bars = False


def run_entry(fn, sf_dir: str, timeout: float):
    """(frame, error) of one entry, run in a daemon thread so a wedged
    execution is abandoned after ``timeout`` s; (None, None) on timeout."""
    box: dict = {}

    def target():
        try:
            box["df"] = to_df(fn(sf_dir))
        except Exception as e:  # noqa: BLE001
            box["err"] = e

    th = threading.Thread(target=target, daemon=True)
    th.start()
    th.join(timeout)
    if th.is_alive():
        return None, None
    return box.get("df"), box.get("err")


def main():
    import duckdb
    import ray

    sys.path.insert(0, ".")
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])
    failures = 0
    try:
        _init_ray()
        import __ray_entry__ as entry

        con = duckdb.connect()
        for t in (
            "region nation customer supplier part orders lineitem events documents embeddings"
        ).split():
            con.execute(
                f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
            )

        qs, oracles = entry.queries(), entry.oracle_sql()
        for name, fn in qs.items():
            if only and name not in only:
                continue
            t0 = time.perf_counter()
            ray_df, err = run_entry(fn, sf_dir, ENTRY_TIMEOUT_S)
            secs = f"({time.perf_counter() - t0:.2f} s)"
            if ray_df is None and err is None:
                print(f"TIMEOUT {name}", flush=True)
                failures += 1
                ray.shutdown()
                _init_ray()
                continue
            if err is not None:
                print(f"FAIL {name}: query raised {err!r}", flush=True)
                failures += 1
                continue
            if name not in oracles:
                print(f"ok   {name}: rows={len(ray_df)} (rows-only, no oracle) {secs}", flush=True)
                continue
            sql_df = con.execute(oracles[name]).fetchdf()
            problems = compare(name, ray_df, sql_df)
            if problems:
                failures += 1
                print(f"FAIL {name}: " + "; ".join(problems), flush=True)
            else:
                print(f"OK   {name}: rows={len(ray_df)} hash-comparable {secs}", flush=True)
    finally:
        ray.shutdown()
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
