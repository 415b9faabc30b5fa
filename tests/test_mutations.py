"""Fault-injection detection tests — the reference's dominant
correctness mechanism (SURVEY.md §5.1: 22 mutation iterations with
expected catch/no-catch per suite)."""

import hashlib
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from etl_data_validation_kio_ray.pipelines.validate import ValidationPipeline
from etl_data_validation_kio_ray.sources.mutations import (
    EXPECTED_DETECTION,
    mutate_table,
)

from etl_data_validation_kio_ray.sources.synth import make_partition, partition_file

from .oracle import load_df, oracle_violations

ALLOWED = ["web", "books", "code", "wiki", "forums"]  # all clean here


def run_action(action, tiny_table, tmp_path, **pipe_kw):
    mut_dir = str(tmp_path / f"mut_{action}")
    mutate_table(tiny_table, mut_dir, action)
    pipe = ValidationPipeline(allowed_sources=ALLOWED, shard_size=2, **pipe_kw)
    res = pipe.run(mut_dir, str(tmp_path / f"out_{action}"))
    return mut_dir, res


@pytest.mark.parametrize(
    "action",
    [a for a, rule in EXPECTED_DETECTION.items() if rule not in (None, "drift_ks_psi")],
)
def test_mutation_detected_by_expected_rule(ray_session, tiny_table, tmp_path, action):
    expected_rule = EXPECTED_DETECTION[action]
    mut_dir, res = run_action(action, tiny_table, tmp_path)
    failing = {
        c.rule_id for c in res.verdicts if c.status in ("FAIL", "WARN") and c.rows_failed
    }
    assert expected_rule in failing, f"{action}: {expected_rule} not in {failing}"

    # violation rows byte-equal to the oracle
    oracle = oracle_violations(mut_dir, allowed_sources=ALLOWED)
    t = res.violations()
    eng = pd.DataFrame({c: t[c].to_pylist() for c in t.column_names})
    assert len(eng) == len(oracle), (action, len(eng), len(oracle))
    pd.testing.assert_frame_equal(
        eng.reset_index(drop=True), oracle.reset_index(drop=True), check_dtype=False
    )


def test_swap_like_invisible_to_rules(ray_session, tiny_table, tmp_path):
    """Reversed token arrays (swap_teams analog): schema/stats/ref rules
    must all PASS — only per-row token equality catches it."""
    mut_dir, res = run_action("swap_like", tiny_table, tmp_path)
    assert all(c.status == "PASS" for c in res.verdicts if c.severity == "error")
    # per-row token-array equality against the unmutated table detects it
    clean = load_df(tiny_table).set_index("doc_id")
    mutated = load_df(mut_dir).set_index("doc_id")
    differing = sum(
        list(clean.loc[i, "tokens"]) != list(mutated.loc[i, "tokens"])
        for i in clean.index
    )
    assert differing == 5  # k_rows default


def test_drift_detected(ray_session, tiny_table, tmp_path):
    snap_dir = str(tmp_path / "snap")
    base_pipe = ValidationPipeline(allowed_sources=ALLOWED)
    base_pipe.build_snapshot(tiny_table, snap_dir)

    # unmutated data vs its own snapshot: no drift
    pipe = ValidationPipeline(
        allowed_sources=ALLOWED, baseline_snapshot_dir=snap_dir
    )
    res = pipe.run(tiny_table, str(tmp_path / "clean_run"))
    drift_checks = [c for c in res.verdicts if c.rule_id == "drift_ks_psi"]
    assert drift_checks and all(c.status == "PASS" for c in drift_checks)

    # shifted distribution: drift WARNs on the mutated partition
    mut_dir = str(tmp_path / "mut_shift")
    mutate_table(tiny_table, mut_dir, "shift_distribution")
    res2 = ValidationPipeline(
        allowed_sources=ALLOWED, baseline_snapshot_dir=snap_dir
    ).run(mut_dir, str(tmp_path / "drift_run"))
    drifted = [
        c for c in res2.verdicts if c.rule_id == "drift_ks_psi" and c.status == "WARN"
    ]
    assert drifted, "shift_distribution not flagged by drift_ks_psi"
    assert any(c.partition == "part-0000" for c in drifted)


# digests of each action's mutated target file, pinned from the writer
# that built token lists through Python lists: the Arrow-native writer
# must reproduce every column, value and the schema exactly
MUTATED_DIGESTS = {
    ("tiny", "corrupt_id"): "ef2842a4f745fa81",
    ("tiny", "drop_key"): "f96cf4fc9a56d983",
    ("tiny", "drop_required"): "cf67f7b0d32bdf61",
    ("tiny", "duplicate_first"): "c612ba77555582e0",
    ("tiny", "out_of_range"): "bdc99a50789470b2",
    ("tiny", "shift_distribution"): "5008bebaafc4fa72",
    ("tiny", "swap_like"): "b49831a394ca5ee0",
    ("tiny", "unknown_source"): "4ebc49995b4dfeed",
    ("tiny", "vocab_violation"): "7a0b6d884a8b6ded",
    ("synth1k", "corrupt_id"): "160f836d5987bc6a",
    ("synth1k", "drop_key"): "5dd563d6adcc13b9",
    ("synth1k", "drop_required"): "ce3ef83df7511b75",
    ("synth1k", "duplicate_first"): "c035ccf4c268b6a3",
    ("synth1k", "out_of_range"): "69b4211f96189349",
    ("synth1k", "shift_distribution"): "d8a538ef7b25cf9d",
    ("synth1k", "swap_like"): "62087d51d32d7cad",
    ("synth1k", "unknown_source"): "1d492850837d54c5",
    ("synth1k", "vocab_violation"): "429f9425564c4261",
}


def _table_digest(path: str) -> str:
    t = pq.read_table(path)
    h = hashlib.sha256(t.schema.to_string(show_schema_metadata=True).encode())
    h.update(str(t.num_rows).encode())
    for name in t.column_names:
        col = t[name].combine_chunks()
        h.update(name.encode())
        if pa.types.is_list(col.type):
            lens = pc.fill_null(pc.list_value_length(col), -1)
            h.update(lens.to_numpy(zero_copy_only=False).astype(np.int64).tobytes())
            flat = pc.list_flatten(col).to_numpy(zero_copy_only=False)
            h.update(flat.astype(np.int64).tobytes())
        else:
            h.update(repr(col.to_pylist()).encode())
    return h.hexdigest()[:16]


@pytest.fixture(scope="module")
def synth1k(tmp_path_factory):
    """Two 1k-row synthetic partitions (the benchmark's partition size)."""
    d = str(tmp_path_factory.mktemp("synth1k"))
    for p in range(2):
        pq.write_table(make_partition(p, 1000), partition_file(d, p))
    return d


@pytest.mark.parametrize("corpus, action", sorted(MUTATED_DIGESTS))
def test_mutated_tables_are_pinned(request, tmp_path, corpus, action):
    src = request.getfixturevalue("tiny_table" if corpus == "tiny" else corpus)
    dst = str(tmp_path / "mut")
    mutate_table(src, dst, action)
    assert _table_digest(partition_file(dst, 0)) == MUTATED_DIGESTS[(corpus, action)]
    for f in sorted(os.listdir(src))[1:]:
        with open(os.path.join(src, f), "rb") as a, open(os.path.join(dst, f), "rb") as b:
            assert a.read() == b.read(), f


def test_mutating_into_a_used_dir_leaves_the_baseline(tiny_table, tmp_path):
    """Unchanged files are links to the baseline's: a later call that
    mutates another partition into the same directory must replace the
    link, not write through it."""
    before = {f: _table_digest(os.path.join(tiny_table, f)) for f in os.listdir(tiny_table)}
    dst = str(tmp_path / "mut")
    mutate_table(tiny_table, dst, "corrupt_id", target_partition=0)
    mutate_table(tiny_table, dst, "corrupt_id", target_partition=1)
    after = {f: _table_digest(os.path.join(tiny_table, f)) for f in os.listdir(tiny_table)}
    assert after == before
    assert _table_digest(partition_file(dst, 0)) == before[os.path.basename(partition_file(dst, 0))]
    assert _table_digest(partition_file(dst, 1)) != before[os.path.basename(partition_file(dst, 1))]
