"""The flagship's read-sizing rule (core/resources.read_tasks) and the
invariance of a validation run under it."""

import json
import os

import numpy as np
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from etl_data_validation_kio_ray.core import resources
from etl_data_validation_kio_ray.core.resources import READ_TASK_BYTES, read_tasks

MB = 10**6
SMALL = int(0.7 * MB)  # a 1k-row partition file
ALLOWED = ["web", "books", "code", "wiki"]


def _runs(sizes, k):
    """The per-task byte totals of Ray's ``override_num_blocks=k`` split."""
    return [int(sum(r)) for r in np.array_split(np.asarray(sizes), k) if len(r)]


@pytest.mark.parametrize(
    "sizes, cpus, tasks",
    [
        ([SMALL] * 16, 1, 1),  # mutation_matrix: one task per read
        ([int(12.7 * MB)] * 8, 1, 8),  # bulk: one task per file, as before
        ([44 * MB] * 256, 32, 256),  # bench.py's 32-CPU job: one task per file
        ([SMALL] * 16, 32, 16),  # a wide session keeps a task per CPU
        ([SMALL] * 64, 1, 3),  # 23 files fill the target
        ([], 1, 0),
    ],
)
def test_read_tasks(sizes, cpus, tasks):
    assert read_tasks(sizes, cpus) == tasks


def test_read_tasks_on_a_mix():
    """Ray splits by file count, not bytes, so one file at the target or
    above sends every file of its read to a task of its own, wherever it
    sits; differing small files pack as far as the largest window of
    consecutive files allows."""
    big = [44 * MB]
    assert read_tasks(big + [SMALL] * 16, 1) == 17
    assert read_tasks([SMALL] * 8 + big + [SMALL] * 8, 1) == 17
    assert read_tasks([SMALL] * 16 + [READ_TASK_BYTES], 1) == 17
    mixed = [8 * MB, 8 * MB] + [SMALL] * 14  # any 3 consecutive files fit, 4 do not
    assert read_tasks(mixed, 1) == 6
    for sizes in (mixed, [SMALL] * 64, [1, READ_TASK_BYTES - 1, 1, 1]):
        k = read_tasks(sizes, 1)
        assert all(t <= READ_TASK_BYTES for t in _runs(sizes, k))
        # and here no fewer tasks would do: one fewer overfills a run
        assert any(t > READ_TASK_BYTES for t in _runs(sizes, k - 1)) or k == 1


def _edge_corpus(d: str) -> dict[str, str]:
    """One shard of 9 small partition files, four of them degenerate,
    keyed by the ``_missing_state_checks`` class each edge file gets."""
    from etl_data_validation_kio_ray.sources.synth import make_partition, partition_file

    os.makedirs(d)
    for p in range(5):
        pq.write_table(make_partition(p, 120), partition_file(d, p))
    # a duplicate of part-0001's ids, keyed under part-0001: doc_id_unique fires
    # and the confirm reads run over every key file
    other = make_partition(1, 40)
    pq.write_table(other, partition_file(d, 5))
    pq.write_table(make_partition(6, 0), partition_file(d, 6))
    pq.write_table(make_partition(7, 50).drop_columns(["partition"]), partition_file(d, 7))
    with open(partition_file(d, 8), "wb") as f:
        f.write(b"PAR1 not a parquet footer")
    return {
        "part-0005": "unattributed_rows",
        "part-0006": "empty_partition",
        "part-0007": "unattributed_rows",
        "part-0008": "unreadable_input",
    }


def _without_tdigest(x):
    """``n_tok_tdigest`` is the one sketch whose state depends on how rows
    are cut into batches (a t-digest merge is not exact), so it differs
    between block layouts already: a 4 MB ``target_max_block_size`` moves
    the global p95 of the mutation_matrix corpus from 754.42 to 755.48.
    Every other check, count and sketch is exact and must match."""
    if isinstance(x, dict):
        return {k: _without_tdigest(v) for k, v in x.items() if k != "n_tok_tdigest"}
    if isinstance(x, list):
        return [_without_tdigest(v) for v in x]
    return x


def test_packed_reads_change_no_result(ray_session, tmp_path, monkeypatch):
    from etl_data_validation_kio_ray.pipelines import validate as V

    corpus = str(tmp_path / "in")
    edges = _edge_corpus(corpus)
    asked = []

    def recorded(files):
        out = resources.read_args(files)
        asked.append((len(files), out["override_num_blocks"]))
        return out

    def run(name):
        out = str(tmp_path / name)
        res = V.ValidationPipeline(allowed_sources=ALLOWED).run(corpus, out)
        with open(os.path.join(out, "summary.json")) as f:
            s = json.load(f)
        s.pop("duration_s")
        for c in s["checks"]:
            c.pop("duration_ms")
        metrics = {k: v for k, v in res.metrics.items() if k != "phases"}
        return s, V.load_violations(out), metrics

    monkeypatch.setattr(V, "read_args", recorded)
    packed = run("packed")
    # 4 CPUs: the 7 files of the full schema group read as 4 tasks
    assert (7, 4) in asked
    assert all(k <= n for n, k in asked) and any(k < n for n, k in asked)
    monkeypatch.setattr(resources, "read_tasks", lambda sizes, cpus, target=0: len(sizes))
    per_file = run("per_file")

    (s1, v1, m1), (s2, v2, m2) = packed, per_file
    assert _without_tdigest(s1) == _without_tdigest(s2)
    assert v1.equals(v2)
    assert _without_tdigest(m1) == _without_tdigest(m2)

    assert s1["run_verdict"] == "FAIL"
    assert pc.sum(pc.equal(v1["rule_id"], "doc_id_unique")).as_py() == 80
    for part, key in edges.items():
        (check,) = [c for c in s1["checks"] if c["partition"] == part and c["metrics"]]
        assert check["metrics"] == {key: True}, part
