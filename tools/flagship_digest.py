"""Digest of the flagship's outputs on the benchmark corpora, for checking
that a refactor changed no result.

Usage: python tools/flagship_digest.py CHECKOUT WORK_DIR > out.json

Runs the ``bulk`` and ``mutation_matrix`` workloads of ``perfbench/`` (seed 1)
once each with the code of CHECKOUT, on a 1-CPU Ray session, and prints one
JSON object: every run's ``summary.json`` (checks without ``duration_ms``),
its ``state/report.summary_rows`` (without ``duration_ms`` and ``run_dir``),
a digest of its ``load_violations`` rows, the ``bulk`` drift scores and the
experiment's fired rules and detections. Two checkouts agree when their
outputs are byte-identical.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import shutil
import sys


def main(checkout: str, work: str) -> None:
    # Ray workers import from the driver's working directory
    os.chdir(checkout)
    sys.path[:0] = [checkout, os.path.join(checkout, "perfbench")]
    import ray
    from ray.data import DataContext

    from etl_data_validation_kio_ray.pipelines.validate import load_violations
    from etl_data_validation_kio_ray.state.report import summary_rows
    from workloads import WORKLOADS

    def run_digest(run_dir: str) -> dict:
        with open(os.path.join(run_dir, "summary.json")) as f:
            s = json.load(f)
        for c in s["checks"]:
            c.pop("duration_ms", None)
        v = load_violations(run_dir)
        h = hashlib.sha256()
        for r in zip(*(v[c].to_pylist() for c in v.column_names)):
            h.update(repr(r).encode())
        s.pop("duration_s")
        rows = [
            {k: v for k, v in r.items() if k not in ("duration_ms", "run_dir")}
            for r in summary_rows(run_dir)
        ]
        return {"summary": s, "summary_rows": rows, "violations": [v.num_rows, h.hexdigest()]}

    ray.init(address="local", num_cpus=1, include_dashboard=False, logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False
    shutil.rmtree(work, ignore_errors=True)
    out = {}
    try:
        for name in ("bulk", "mutation_matrix"):
            wl = WORKLOADS[name](work, 1)
            wl.generate()
            wl.pipeline().build_snapshot(wl.corpus, wl.snapshot)
            res = wl.run(os.path.join(work, name))
            if name == "bulk":
                out[name] = {**run_digest(res.out_dir), "drift": res.drift}
                continue
            with open(os.path.join(work, name, "experiment_summary.json")) as f:
                es = json.load(f)
            out[name] = {
                "baseline_verdict": es["baseline_verdict"],
                "iterations": [
                    [i["action"], i["fired_rules"], i["detected"]] for i in es["iterations"]
                ],
                "runs": {
                    os.path.basename(os.path.dirname(p)): run_digest(os.path.dirname(p))
                    for p in sorted(glob.glob(os.path.join(work, name, "*", "summary.json")))
                },
            }
    finally:
        ray.shutdown()
    print(json.dumps(out, sort_keys=True, indent=1, default=str))


if __name__ == "__main__":
    main(os.path.abspath(sys.argv[1]), os.path.abspath(sys.argv[2]))
