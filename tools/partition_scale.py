"""Cost per partition of one validation run, at a chosen partition count.

Usage: python tools/partition_scale.py N ROWS [WORK_DIR]

Writes ``generate_token_table(partitions=N, rows_per_partition=ROWS)``,
builds a drift snapshot of it, then on a 1-CPU Ray session runs
``ValidationPipeline.run(resume=False)`` over it and a second, resumed
run with nothing pending. Prints one JSON line per run: its wall time,
milliseconds per partition and the run's ``phases``. WORK_DIR (default:
a temporary directory) is removed at the end.

A probe of partition count as a scale axis, not a benchmark workload:
each number is one run on whatever host runs it.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ALLOWED = ["web", "books", "code", "wiki", "forums"]


def main(partitions: int, rows: int, work: str) -> None:
    # Ray workers import from the driver's working directory
    os.chdir(ROOT)
    sys.path.insert(0, ROOT)
    import ray
    from ray.data import DataContext

    from etl_data_validation_kio_ray.pipelines.validate import ValidationPipeline
    from etl_data_validation_kio_ray.sources.synth import generate_token_table

    os.makedirs(work, exist_ok=True)
    ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False
    try:
        corpus = generate_token_table(
            os.path.join(work, "in"), partitions=partitions, rows_per_partition=rows
        )
        snap = os.path.join(work, "snap")
        ValidationPipeline(allowed_sources=ALLOWED).build_snapshot(corpus, snap)
        pipe = ValidationPipeline(allowed_sources=ALLOWED, baseline_snapshot_dir=snap)
        out = os.path.join(work, "out")
        for name, resume in (("fresh", False), ("resumed", True)):
            t0 = time.perf_counter()
            res = pipe.run(corpus, out, resume=resume)
            wall = time.perf_counter() - t0
            print(
                json.dumps(
                    {
                        "run": name,
                        "partitions": partitions,
                        "rows_per_partition": rows,
                        "wall_s": round(wall, 3),
                        "ms_per_partition": round(1000 * wall / partitions, 2),
                        "phases": res.metrics["phases"],
                    }
                ),
                flush=True,
            )
    finally:
        ray.shutdown()
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    if len(sys.argv) not in (3, 4):
        sys.exit(__doc__.split("\n\n")[1])
    main(
        int(sys.argv[1]),
        int(sys.argv[2]),
        os.path.abspath(sys.argv[3]) if len(sys.argv) == 4 else tempfile.mkdtemp(),
    )
