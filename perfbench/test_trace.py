"""Tracer self-test at toy size.

    python3 -m pytest perfbench/test_trace.py -q

Runs one untraced and one traced operation of each workload on a tiny
corpus and checks that every per-layer metric is reported, and is non-zero
where the workload exercises that layer. A wrapper installed where the
caller does not look the name up records nothing, so these checks fail on
it.
"""

from __future__ import annotations

import pytest

import run
from spans import LAYER_METRICS, Patches, replay_partition, self_time_by_layer
from workloads import WORKLOADS, Bulk, MutationMatrix

run.use_checkout()

# exercised by every validation run
COMMON = {
    "ray_data.executions", "ray_data.exec_p50_s", "ray_data.tasks",
    "parquet.decode_s", "rule_engine.kernel_s", "rule_engine.remote_s",
    "rule_engine.rows_in", "rule_engine.partial_rows", "rule_engine.hash_rows",
    "rule_engine.violation_rows",
    "sink.bytes_written", "sink.files_written",
    "validate.discover_s", "validate.shard_exec_s", "validate.reduce_partials_s",
    "validate.residual_s",
    "checkpoint.claim_s", "checkpoint.finish_s", "checkpoint.scan_s",
    "checkpoint.manifest_writes", "checkpoint.audit_lines",
    "sketches.merges", "sketches.merge_s", "sketches.state_bytes",
    "uniqueness.hash_rows", "uniqueness.dup_values_s", "uniqueness.confirm_ratio",
    "drift.load_s", "drift.score_s", "drift.partitions_scored",
}
NONZERO = {
    "bulk": COMMON,
    # duplicate_first reaches the confirm path; every iteration mutates a copy
    "mutation_matrix": COMMON | {
        "uniqueness.candidates", "uniqueness.confirmed", "uniqueness.confirm_s",
        "mutations.mutate_s", "mutations.bytes_copied",
    },
}


class ToyBulk(Bulk):
    partitions = 2
    rows_per_partition = 2_000


class ToyMatrix(MutationMatrix):
    partitions = 3
    rows_per_partition = 200


@pytest.fixture(scope="module")
def ray_session():
    import ray

    run.start_ray()
    yield
    ray.shutdown()


@pytest.mark.parametrize("cls", [ToyBulk, ToyMatrix], ids=lambda c: c.name)
def test_every_layer_metric_is_recorded(cls, ray_session, tmp_path):
    from bench import _read_proc_stat

    wl = cls(str(tmp_path), seed=3)
    wl.generate()
    wl.setup()
    wl.prepare_check()
    runner = run.Runner(wl, _read_proc_stat)
    plain = runner.measure(0)
    with Patches() as patches:
        traced = runner.measure(0, patches)
    replay = replay_partition(patches.replay_source)
    wl.cleanup()

    assert runner.attempted == 2 * wl.ops_per_call
    assert runner.failed == 0
    metrics = run.per_layer(plain, traced, replay)
    assert list(metrics) == [name for name, _ in LAYER_METRICS]
    zero = sorted(k for k in NONZERO[wl.name] if not metrics[k][0])
    assert not zero, f"layers exercised by {wl.name} but recorded as 0: {zero}"

    # the roots' wall is exactly covered by the self times below them, so
    # no child span outlives its parent
    tracer = traced[0]["tracer"]
    roots = [s for s in tracer.closed() if s["parent"] is None]
    assert "validate.run" in {s["name"] for s in roots}
    root_wall = sum(s["t1"] - s["t0"] for s in roots)
    assert sum(self_time_by_layer(tracer).values()) == pytest.approx(root_wall, rel=1e-6)


def test_metric_names_match_benchmark_json():
    import json
    import os

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == LAYER_METRICS
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
