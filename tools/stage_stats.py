"""Per-stage observability: run representative pipelines and parse
``ds.stats()`` into JSON — the audit loop the scale directive demands
(IS the hot stage fused? which operator dominates wall time? how many
blocks / rows did each stage move?).

Two audited shapes:
  1. the headline NARROW pass (read token parquet -> fused rule-engine
     map -> parquet sink) — the fusion check: if ReadParquet and the
     engine map show up as SEPARATE operators, the decoded token column
     is crossing the object store and the whole pipeline is ~2-3x
     slower (BASELINE.md round-1 lesson);
  2. a bucketed co-group exchange (`fact_dim_cogroup` shape) — the
     shuffle check: one AllToAll stage, map-side partials upstream.

Usage: python tools/stage_stats.py [sf_dir] [--out FILE]
Owns its Ray session (tools may; library code must not).
"""

from __future__ import annotations

import json
import os
import re
import sys
import tempfile

sys.path.insert(0, "/root/repo")

OP_RE = re.compile(
    r"Operator (\d+) (\S+): (\d+) tasks executed, "
    r"(\d+) blocks produced in ([\d.]+s)"
)
ALLTOALL_RE = re.compile(r"Operator (\d+) (\S+): executed in ([\d.]+s)")
TIME_RE = re.compile(r"\* Remote wall time: .*?, ([\d.]+(?:us|ms|s)) total")
ROWS_RE = re.compile(r"\* Output num rows per block: .*?, (\d+) total")


def _parse_stats(stats: str) -> list[dict]:
    """Extract (operator, tasks, blocks, stage wall, total remote wall,
    output rows) per operator section of a Dataset.stats() dump.
    AllToAll stages print 'executed in Xs' with suboperator blocks."""
    ops = []
    sections = re.split(r"(?=^Operator \d+ )", stats, flags=re.M)
    for sec in sections:
        m = OP_RE.search(sec)
        if m:
            t = TIME_RE.search(sec)
            r = ROWS_RE.search(sec)
            ops.append(
                {
                    "operator": m.group(2).rstrip(":"),
                    "kind": "map",
                    "tasks": int(m.group(3)),
                    "blocks": int(m.group(4)),
                    "stage_wall": m.group(5),
                    "remote_wall_total": t.group(1) if t else None,
                    "output_rows": int(r.group(1)) if r else None,
                }
            )
            continue
        m = ALLTOALL_RE.search(sec)
        if m:
            rows = ROWS_RE.findall(sec)
            ops.append(
                {
                    "operator": m.group(2).rstrip(":"),
                    "kind": "all_to_all",
                    "stage_wall": m.group(3),
                    "suboperators": len(
                        re.findall(r"Suboperator \d+", sec)
                    ),
                    "output_rows": int(rows[-1]) if rows else None,
                }
            )
    return ops


def _wall_seconds(s: str | None) -> float:
    if not s:
        return 0.0
    if s.endswith("ms"):
        return float(s[:-2]) / 1e3
    if s.endswith("us"):
        return float(s[:-2]) / 1e6
    return float(s[:-1])


def main() -> int:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    out_file = None
    if "--out" in sys.argv:
        out_file = sys.argv[sys.argv.index("--out") + 1]

    import ray

    ray.init(
        address="local",
        num_cpus=int(os.environ.get("RAY_GRAFT_CPUS", "8")),
        include_dashboard=False,
        logging_level="ERROR",
    )
    import ray.data as rd
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as entry
    from etl_data_validation_kio_ray.core.resources import read_args
    from etl_data_validation_kio_ray.pipelines.validate import ValidationPipeline

    report: dict = {"sf_dir": sf_dir, "pipelines": {}}

    # ---- 1. headline narrow pass: fused read -> rules -> sink --------
    tok_dir = entry._token_table_dir(sf_dir)
    files = sorted(
        os.path.join(tok_dir, f)
        for f in os.listdir(tok_dir)
        if f.endswith(".parquet")
    )
    pipe = ValidationPipeline(
        allowed_sources=entry.ALLOWED_SOURCES, shard_size=64
    )
    pipe.rules = entry._rules()
    ds = rd.read_parquet(files, **read_args(files))
    mapped = pipe._map_engine(ds, pipe._engine_kwargs(pipe._allowed_ref()))
    with tempfile.TemporaryDirectory() as td:
        mapped.write_parquet(td)
        stats = mapped.stats()
    ops = _parse_stats(stats)
    fused = any(
        "ReadParquet->MapBatches" in o["operator"] for o in ops
    )
    report["pipelines"]["narrow_pass"] = {
        "operators": ops,
        "fused_read_map": fused,
        "verdict": (
            "FUSED: read+rules+write run as one task over whole files "
            "(core/resources.read_tasks); decoded tokens never cross the "
            "object store"
            if fused
            else "NOT FUSED: decoded token column crosses the object "
            "store — ~2-3x slowdown class (investigate!)"
        ),
    }

    # ---- 2. co-group exchange: map-side partials -> one AllToAll -----
    from etl_data_validation_kio_ray.pipelines.relational import (
        bucketed_group_agg,
    )
    import numpy as np
    import pyarrow as pa

    li = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_extendedprice"],
    )

    def part_fn(t: pa.Table) -> pa.Table:
        k = t["l_orderkey"].to_numpy(zero_copy_only=False)
        c = np.round(
            t["l_extendedprice"].to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        u, inv = np.unique(k, return_inverse=True)
        return pa.table(
            {
                "k": pa.array(u),
                "cents": pa.array(np.bincount(inv, weights=c).astype(np.int64)),
            }
        )

    agg = bucketed_group_agg(
        li.map_batches(part_fn, batch_format="pyarrow", zero_copy_batch=True),
        "k",
        [("cents", "sum")],
    ).materialize()
    n = agg.count()
    stats2 = agg.stats()
    ops2 = _parse_stats(stats2)
    shuffles = sum(1 for o in ops2 if o.get("kind") == "all_to_all")
    report["pipelines"]["cogroup_exchange"] = {
        "operators": ops2,
        "result_groups": int(n),
        "all_to_all_stages": shuffles,
        "verdict": (
            f"{shuffles} exchange stage(s); map-side partials collapse "
            "rows before the shuffle"
        ),
    }

    # hot-stage summary across both
    for name, p in report["pipelines"].items():
        tot = {
            o["operator"]: _wall_seconds(o.get("remote_wall_total") or o.get("stage_wall"))
            for o in p["operators"]
        }
        if tot:
            hot = max(tot, key=tot.get)
            p["hot_operator"] = {"name": hot, "remote_wall_s": tot[hot]}

    ray.shutdown()
    blob = json.dumps(report, indent=2)
    if out_file:
        with open(out_file, "w") as f:
            f.write(blob + "\n")
    print(blob)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
