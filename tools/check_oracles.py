"""Local emulation of the driver's correctness gate: run every
``queries()`` entry and its ``oracle_sql()`` twin on the same sf_dir,
compare row count, column names, and order-insensitive values.

Usage: python tools/check_oracles.py [sf_dir] [query ...]

Ray gets ``RAY_GRAFT_CPUS`` CPUs (default 8; ``RAY_GRAFT_CPUS=1`` is the
1-CPU screen). An entry that runs longer than ``ENTRY_TIMEOUT_S`` prints
``TIMEOUT <name>``, counts as a failure, and Ray is restarted so the
wedged execution cannot hold up the next entry.

Each entry's line ends with ``warn=R/H/B``: how many of Ray Data's
"Operator produced a RefBundle with a different schema" (R) and
"Failed to hash the schemas" (H) warnings the entry logged, and how
many of the R warnings name the ``__b`` bucket column (B). The counts
are read from
this process's stderr and from the session's ``logs/ray-data/ray-data.log``
(every warning lands there; some are echoed to stderr as well, so each
kind counts as the larger of the two streams). A final ``# warnings``
line gives the totals.
"""

from __future__ import annotations

import os
import sys
import tempfile
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


REFBUNDLE = "Operator produced a RefBundle with a different schema"
WARNINGS = (("refbundle", REFBUNDLE), ("hash", "Failed to hash the schemas"))


def _bucket_warnings(text: str) -> int:
    """RefBundle warnings whose schemas name the ``__b`` bucket column."""
    return sum(
        "__b" in w.split("This may lead to unexpected behavior")[0]
        for w in text.split(REFBUNDLE)[1:]
    )


class WarningCounter:
    """Counts Ray Data's schema warnings per entry in two streams: fd 2,
    which is redirected to a temp file and echoed back to the real
    stderr after each entry, and the Ray session's ray-data.log. A Ray
    restart starts a new session, so the log is re-located and its
    offset re-taken by :meth:`start` before every entry."""

    def __init__(self):
        self._stderr = os.dup(2)
        self._tmp = tempfile.TemporaryFile()
        os.dup2(self._tmp.fileno(), 2)
        self.totals = dict.fromkeys(["refbundle", "hash", "bucket"], 0)

    @staticmethod
    def _log_path() -> str | None:
        from ray.data._internal.logging import get_log_directory

        d = get_log_directory()
        return os.path.join(d, "ray-data.log") if d else None

    def start(self):
        sys.stderr.flush()
        self._err_at = os.lseek(2, 0, os.SEEK_END)
        self._log = self._log_path()
        self._log_at = os.path.getsize(self._log) if self._log and os.path.exists(self._log) else 0

    def stop(self) -> dict:
        sys.stderr.flush()
        end = os.lseek(2, 0, os.SEEK_END)
        err = os.pread(self._tmp.fileno(), end - self._err_at, self._err_at)
        os.write(self._stderr, err)
        log = b""
        if self._log and os.path.exists(self._log):
            with open(self._log, "rb") as f:
                f.seek(self._log_at)
                log = f.read()
        # every warning reaches the log; a console copy of it may also
        # reach stderr, so the larger count is the entry's count
        err, log = err.decode("utf-8", "replace"), log.decode("utf-8", "replace")
        counts = {k: max(err.count(pat), log.count(pat)) for k, pat in WARNINGS}
        counts["bucket"] = max(_bucket_warnings(err), _bucket_warnings(log))
        for k, v in counts.items():
            self.totals[k] += v
        return counts


def _init_ray():
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
    warn = WarningCounter()
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
            warn.start()
            t0 = time.perf_counter()
            ray_df, err = run_entry(fn, sf_dir, ENTRY_TIMEOUT_S)
            secs = f"({time.perf_counter() - t0:.2f} s)"
            w = warn.stop()
            secs += f" warn={w['refbundle']}/{w['hash']}/{w['bucket']}"
            if ray_df is None and err is None:
                print(f"TIMEOUT {name} {secs}", flush=True)
                failures += 1
                ray.shutdown()
                _init_ray()
                continue
            if err is not None:
                print(f"FAIL {name}: query raised {err!r} {secs}", flush=True)
                failures += 1
                continue
            if name not in oracles:
                print(f"ok   {name}: rows={len(ray_df)} (rows-only, no oracle) {secs}", flush=True)
                continue
            sql_df = con.execute(oracles[name]).fetchdf()
            problems = compare(name, ray_df, sql_df)
            if problems:
                failures += 1
                print(f"FAIL {name}: " + "; ".join(problems) + f" {secs}", flush=True)
            else:
                print(f"OK   {name}: rows={len(ray_df)} hash-comparable {secs}", flush=True)
        print(
            f"# warnings: refbundle={warn.totals['refbundle']} "
            f"hash={warn.totals['hash']} bucket={warn.totals['bucket']}",
            flush=True,
        )
    finally:
        ray.shutdown()
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
