"""Tests for the round-1 coverage additions: broadcast lookup join,
per-key latest, shingle stats, crash-resume shard ownership, and the
synthetic multimodal source. Oracles are duckdb/pandas on the same
in-memory data (SURVEY.md §5 strategy)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


@pytest.fixture()
def events_df():
    rng = np.random.Generator(np.random.Philox(key=[7, 1]))
    n = 2000
    return pd.DataFrame(
        {
            "event_id": np.arange(n, dtype=np.int64),
            "ts": pd.Timestamp("2026-01-01")
            + pd.to_timedelta(rng.integers(0, 3600 * 72, n), unit="s"),
            "event_type": rng.choice(["click", "view", "buy"], n),
            "value_cents": rng.integers(0, 10_000, n).astype(np.int64),
        }
    )


def test_latest_per_key_matches_pandas(ray_session, events_df):
    import ray.data as rd

    from etl_data_validation_kio_ray.pipelines.relational import latest_per_key

    ds = rd.from_pandas(events_df).repartition(8)
    got = (
        latest_per_key(ds, "event_type", ["ts", "event_id"])
        .to_pandas()
        .sort_values("event_type")
        .reset_index(drop=True)
    )
    want = (
        events_df.sort_values(["ts", "event_id"])
        .groupby("event_type", sort=True)
        .tail(1)
        .sort_values("event_type")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got[["event_type", "event_id"]], want[["event_type", "event_id"]]
    )


def test_broadcast_lookup_join_matches_merge(ray_session):
    import ray.data as rd

    from etl_data_validation_kio_ray.pipelines.relational import broadcast_lookup_join

    big = pd.DataFrame({"k": np.arange(1000, dtype=np.int64) % 37, "v": np.arange(1000)})
    dim = pa.table(
        {
            "k": pa.array(np.arange(0, 37, 2, dtype=np.int64)),  # odd keys unmatched
            "name": pa.array([f"n{k}" for k in range(0, 37, 2)]),
        }
    )
    ds = rd.from_pandas(big).repartition(4)
    got = (
        broadcast_lookup_join(ds, dim, "k", "k", ["name"])
        .to_pandas()
        .sort_values(["v"])
        .reset_index(drop=True)
    )
    want = (
        big.merge(dim.to_pandas(), on="k", how="inner")
        .sort_values(["v"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want[got.columns.tolist()])


def test_shingle_stats_matches_duckdb():
    import duckdb

    from etl_data_validation_kio_ray.functions.text import shingle_stats

    docs = pa.table(
        {
            "doc_id": pa.array([f"d{i}" for i in range(6)]),
            "text": pa.array(
                [
                    "a b c d e",
                    "a a a a a a",
                    "x y",
                    "",
                    "one two three one two three one",
                    "Q w E r T y",
                ]
            ),
        }
    )
    got = shingle_stats(docs)["n_shingles"].to_pylist()
    con = duckdb.connect()
    con.register("documents", docs)
    want = con.execute(
        """
        SELECT CAST(CASE WHEN len(ws) < 3 THEN 0 ELSE length(list_distinct(
          list_transform(range(1, len(ws) - 1),
                         i -> ws[i] || chr(31) || ws[i+1] || chr(31) || ws[i+2])
        )) END AS BIGINT)
        FROM (SELECT string_split(lower(text), ' ') AS ws FROM documents)
        """
    ).fetchall()
    assert got == [r[0] for r in want]


def test_synthesize_image_batch_deterministic_and_typed():
    from etl_data_validation_kio_ray.multimodal.decode import (
        multimodal_schema,
        synthesize_image_batch,
    )

    b = pa.table(
        {"doc_id": pa.array(["a", "b", "c"]), "source": pa.array(["s1", "s2", "s1"])}
    )
    t1, t2 = synthesize_image_batch(b), synthesize_image_batch(b)
    assert t1.schema.equals(multimodal_schema("image"))
    assert t1.equals(t2)
    for row in range(t1.num_rows):
        w, h = t1["width"][row].as_py(), t1["height"][row].as_py()
        assert len(t1["payload"][row].as_py()) == w * h


def test_resume_after_manifest_loss_is_exact(ray_session, tmp_path):
    """A regrouped resumed shard must not destroy or double-count
    sibling partitions' committed violation rows (shard ownership)."""
    import os

    from etl_data_validation_kio_ray.pipelines.validate import (
        ValidationPipeline,
        load_violations,
    )
    from etl_data_validation_kio_ray.sources.mutations import mutate_table
    from etl_data_validation_kio_ray.sources.synth import generate_token_table

    clean = generate_token_table(str(tmp_path / "clean"), partitions=6, rows_per_partition=200)
    mut = mutate_table(clean, str(tmp_path / "mut"), "corrupt_id")
    out = str(tmp_path / "out")
    pipe = ValidationPipeline(
        allowed_sources=["web", "books", "code", "wiki"], shard_size=3
    )
    r1 = pipe.run(mut, out)
    before = load_violations(out).to_pandas()
    os.remove(os.path.join(out, "_manifests", "part-0001.json"))
    ValidationPipeline(
        allowed_sources=["web", "books", "code", "wiki"], shard_size=3
    ).run(mut, out, resume=True)
    after = load_violations(out).to_pandas()
    pd.testing.assert_frame_equal(before, after)


def test_json_source_roundtrip(ray_session, tmp_path):
    """JSONL corpus -> canonical token schema -> validation pipeline."""
    import json as _json

    from etl_data_validation_kio_ray.sources.jsonl import TOKEN_SCHEMA, read_token_json

    p = tmp_path / "docs.jsonl"
    rows = [
        {"doc_id": "j1", "tokens": [1, 2, 3], "n_tok": 3, "source": "web"},
        {"doc_id": "j2", "tokens": [4, 5], "n_tok": 5, "source": "books"},  # mismatch
        {"doc_id": "j3", "tokens": [7], "source": "web"},  # n_tok derived
    ]
    with open(p, "w") as f:
        for r in rows:
            f.write(_json.dumps(r) + "\n")
    ds = read_token_json(str(p), partition="p0")
    t = pa.concat_tables(
        b for b in ds.iter_batches(batch_format="pyarrow", batch_size=100)
    )
    assert t.schema.equals(TOKEN_SCHEMA)
    assert t["n_tok"].to_pylist() == [3, 5, 1]
    assert t["partition"].to_pylist() == ["p0"] * 3


def test_summary_csv_and_report(ray_session, tmp_path):
    import csv

    from etl_data_validation_kio_ray.pipelines.validate import ValidationPipeline
    from etl_data_validation_kio_ray.sources.mutations import mutate_table
    from etl_data_validation_kio_ray.sources.synth import generate_token_table
    from etl_data_validation_kio_ray.state.report import (
        run_report,
        write_run_report,
        write_summary_csv,
    )

    clean = generate_token_table(str(tmp_path / "c"), partitions=3, rows_per_partition=100)
    mut = mutate_table(clean, str(tmp_path / "m"), "corrupt_id")
    out = str(tmp_path / "o")
    ValidationPipeline(allowed_sources=["web", "books", "code", "wiki"]).run(mut, out)
    csv_path = write_summary_csv(out, str(tmp_path / "summary.csv"))
    with open(csv_path) as f:
        rows = list(csv.DictReader(f))
    groups = {r["rule_group"] for r in rows}
    assert "invariants" in groups and "referential" in groups
    inv = next(r for r in rows if r["rule_group"] == "invariants")
    assert int(inv["rows_failed"]) > 0 and int(inv["checks_failed"]) > 0
    txt = run_report(out)
    assert "run verdict: FAIL" in txt and "row_invariants" in txt
    rp = write_run_report(out)
    assert rp.endswith("report.txt")


def test_duplicate_groups_hash_path(ray_session):
    import ray.data as rd

    from etl_data_validation_kio_ray.pipelines.relational import duplicate_groups

    df = pd.DataFrame({"k": (["a"] * 3 + ["b"] * 2 + ["c"]) * 10 + ["z"]})
    got = duplicate_groups(rd.from_pandas(df).repartition(4), "k")
    want = (
        df.groupby("k").size().rename("dup_count").reset_index().query("dup_count > 1")
    ).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want.astype({"dup_count": "int64"}))


def test_salted_map_groups_matches_plain(ray_session):
    import ray.data as rd

    from etl_data_validation_kio_ray.pipelines.relational import salted_map_groups

    rng = np.random.Generator(np.random.Philox(key=[3, 3]))
    df = pd.DataFrame(
        {
            # skewed: 90% of rows share one key
            "src": np.where(rng.random(5000) < 0.9, "hot", rng.choice(["a", "b"], 5000)),
            "x": rng.integers(0, 100, 5000).astype(np.int64),
        }
    )

    def partial(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"src": [g["src"].iloc[0]], "n": [len(g)], "s": [int(g["x"].sum())]}
        )

    def final(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"src": [g["src"].iloc[0]], "n": [int(g["n"].sum())], "s": [int(g["s"].sum())]}
        )

    got = (
        salted_map_groups(rd.from_pandas(df).repartition(6), "src", partial, final, salt=8)
        .to_pandas()
        .sort_values("src")
        .reset_index(drop=True)
    )
    want = (
        df.groupby("src")
        .agg(n=("x", "size"), s=("x", "sum"))
        .reset_index()
        .sort_values("src")
        .reset_index(drop=True)
        .astype({"n": "int64", "s": "int64"})
    )
    pd.testing.assert_frame_equal(got.astype({"n": "int64", "s": "int64"}), want)


def test_cli_validate_and_report(ray_session, tmp_path):
    from etl_data_validation_kio_ray.cli import main as cli_main
    from etl_data_validation_kio_ray.sources.mutations import mutate_table
    from etl_data_validation_kio_ray.sources.synth import generate_token_table

    clean = generate_token_table(str(tmp_path / "c"), partitions=3, rows_per_partition=100)
    mut = mutate_table(clean, str(tmp_path / "m"), "corrupt_id")
    out = str(tmp_path / "o")
    rc = cli_main(
        [
            "validate",
            "--input", mut,
            "--out", out,
            "--allowed-sources", "web,books,code,wiki",
            "--exit-zero",
        ]
    )
    assert rc == 0
    import os

    assert os.path.exists(os.path.join(out, "summary.json"))
    rc = cli_main(["report", "--run-dir", out])
    assert rc == 0
    assert os.path.exists(os.path.join(out, "summary.csv"))


def test_uniqueness_distributed_path_matches_driver_path(ray_session, tmp_path, monkeypatch):
    """The >1GiB bucket-shuffle path must find the same duplicates as
    the driver-side fast path."""
    from etl_data_validation_kio_ray.pipelines import validate as V
    from etl_data_validation_kio_ray.sources.mutations import mutate_table
    from etl_data_validation_kio_ray.sources.synth import generate_token_table

    clean = generate_token_table(str(tmp_path / "c"), partitions=4, rows_per_partition=150)
    mut = mutate_table(clean, str(tmp_path / "m"), "duplicate_first")

    def run(out):
        return V.ValidationPipeline(
            allowed_sources=["web", "books", "code", "wiki"]
        ).run(mut, out)

    r1 = run(str(tmp_path / "o1"))
    monkeypatch.setattr(V, "DRIVER_UNIQUE_MAX_BYTES", 0)
    r2 = run(str(tmp_path / "o2"))
    v1 = r1.violations().to_pandas()
    v2 = r2.violations().to_pandas()
    pd.testing.assert_frame_equal(v1, v2)
    assert (v1.rule_id == "doc_id_unique").sum() > 0


def test_drift_scorer_actor_stage(ray_session, tmp_path):
    """DriftScorer as a fused stateful stage (CachedEngineFn: snapshot
    loaded once per worker): per-batch streaming scores agree with the
    exact driver scoring direction (clean ~ no drift; shifted -> drift
    on mutated partitions)."""
    import ray.data as rd

    from etl_data_validation_kio_ray.core.resources import CachedEngineFn
    from etl_data_validation_kio_ray.pipelines.validate import ValidationPipeline
    from etl_data_validation_kio_ray.sources.mutations import mutate_table
    from etl_data_validation_kio_ray.sources.synth import generate_token_table
    from etl_data_validation_kio_ray.stages.drift import DriftScorer

    clean = generate_token_table(str(tmp_path / "c"), partitions=3, rows_per_partition=400)
    snap = str(tmp_path / "snap")
    pipe = ValidationPipeline(allowed_sources=["web", "books", "code", "wiki"])
    pipe.build_snapshot(clean, snap)

    def scores(indir):
        ds = rd.read_parquet(indir)
        out = ds.map_batches(
            CachedEngineFn(DriftScorer, snapshot=snap),
            batch_format="pyarrow",
            zero_copy_batch=True,
        ).to_pandas()
        return out

    clean_scores = scores(clean)
    assert not clean_scores.drifted.any()
    mut = mutate_table(clean, str(tmp_path / "m"), "shift_distribution")
    mut_scores = scores(mut)
    assert mut_scores.drifted.any()


def test_mutation_experiment_runner(ray_session, tmp_path):
    """The reference's flagship workflow: every fault-injection action
    must be detected by its expected rule (or stay invisible for the
    semantic swap) in one experiment run."""
    from etl_data_validation_kio_ray.pipelines.experiment import run_experiment
    from etl_data_validation_kio_ray.sources.synth import generate_token_table

    clean = generate_token_table(str(tmp_path / "c"), partitions=3, rows_per_partition=150)
    res = run_experiment(
        clean,
        str(tmp_path / "exp"),
        actions=["corrupt_id", "unknown_source", "duplicate_first", "swap_like"],
    )
    assert res.baseline_verdict in ("PASS", "WARN", "FAIL")
    assert res.all_detected, [i.to_dict() for i in res.iterations]
    import json, os

    summary = json.load(open(os.path.join(str(tmp_path / "exp"), "experiment_summary.json")))
    assert summary["all_detected"] is True
    assert os.path.exists(os.path.join(str(tmp_path / "exp"), "experiment_summary.csv"))


def test_unreadable_input_fails_partition_and_resumes(ray_session, tmp_path):
    """A corrupt input file must NOT take down its shard: the other
    partitions complete, the bad partition surfaces as a loud
    schema_types FAIL (unreadable_input) with a FAILED manifest — and a
    resumed run after repairing the file re-validates exactly it."""
    import os

    from etl_data_validation_kio_ray.pipelines.validate import ValidationPipeline
    from etl_data_validation_kio_ray.sources.synth import generate_token_table
    from etl_data_validation_kio_ray.state.checkpoint import RunState

    clean = generate_token_table(str(tmp_path / "c"), partitions=4, rows_per_partition=100)
    victim = os.path.join(clean, "part-0002.parquet")
    good_bytes = open(victim, "rb").read()
    with open(victim, "wb") as f:
        f.write(b"not a parquet file")
    out = str(tmp_path / "o")
    pipe = ValidationPipeline(allowed_sources=["web", "books", "code", "wiki"], shard_size=2)
    res1 = pipe.run(clean, out)
    assert res1.run_verdict == "FAIL"
    bad = [
        c
        for c in res1.verdicts
        if c.partition == "part-0002" and (c.metrics or {}).get("unreadable_input")
    ]
    assert bad and bad[0].rule_id == "schema_types" and bad[0].status == "FAIL"
    st = RunState(out)
    failed = [m for m in st.all_manifests() if m.status == "FAILED"]
    assert [m.partition for m in failed] == ["part-0002"]
    assert all("unreadable" in (m.error or "") for m in failed)
    # every OTHER partition (incl. the shard-mate part-0003) completed
    assert sorted(st.completed()) == ["part-0000", "part-0001", "part-0003"]

    with open(victim, "wb") as f:
        f.write(good_bytes)
    res = ValidationPipeline(
        allowed_sources=["web", "books", "code", "wiki"], shard_size=2
    ).run(clean, out, resume=True)
    assert sorted(res.partitions) == [f"part-{i:04d}" for i in range(4)]
    assert not [m for m in RunState(out).all_manifests() if m.status == "FAILED"]
    assert not any(
        (c.metrics or {}).get("unreadable_input") for c in res.verdicts
    )


def test_yaml_rules_config_overrides(ray_session, tmp_path):
    """YAML enable/disable + severity + params override surface
    (reference: validators/configs/*.yml)."""
    from etl_data_validation_kio_ray.core.specs import default_rules, load_rules
    from etl_data_validation_kio_ray.pipelines.validate import ValidationPipeline
    from etl_data_validation_kio_ray.sources.mutations import mutate_table
    from etl_data_validation_kio_ray.sources.synth import generate_token_table

    cfg = tmp_path / "rules.yml"
    cfg.write_text(
        """
rules:
  row_invariants: {enabled: false}
  source_ref: {severity: warning}
"""
    )
    rules = load_rules(str(cfg), base=default_rules(allowed_sources=["web", "books", "code", "wiki"]))
    assert rules["row_invariants"].enabled is False
    assert rules["source_ref"].severity == "warning"

    clean = generate_token_table(str(tmp_path / "c"), partitions=2, rows_per_partition=150)
    mut = mutate_table(clean, str(tmp_path / "m"), "corrupt_id")
    res = ValidationPipeline(rules, allowed_sources=["web", "books", "code", "wiki"]).run(
        mut, str(tmp_path / "o")
    )
    fired = {c.rule_id for c in res.verdicts if c.rows_failed}
    assert "row_invariants" not in fired          # disabled rule is silent
    src_checks = [c for c in res.verdicts if c.rule_id == "source_ref" and c.rows_failed]
    assert src_checks and all(c.status == "WARN" for c in src_checks)
    assert res.run_verdict != "FAIL"              # only warnings remain


def test_empty_partition_gets_warn_not_silence(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from etl_data_validation_kio_ray.pipelines.validate import ValidationPipeline
    from etl_data_validation_kio_ray.sources.synth import SCHEMA, generate_token_table

    d = generate_token_table(str(tmp_path / "in"), partitions=2, rows_per_partition=50)
    pq.write_table(SCHEMA.empty_table(), str(tmp_path / "in" / "part-0099.parquet"))
    res = ValidationPipeline(allowed_sources=["web", "books", "code", "wiki"]).run(
        d, str(tmp_path / "out")
    )
    assert "part-0099" in res.partitions
    empty_checks = [c for c in res.verdicts if c.partition == "part-0099"]
    warn = [c for c in empty_checks if c.rule_id == "completeness_nulls"]
    assert warn and warn[0].status == "WARN"
    assert warn[0].metrics.get("empty_partition") is True


def test_csv_source_roundtrip(ray_session, tmp_path):
    from etl_data_validation_kio_ray.sources.jsonl import TOKEN_SCHEMA, read_token_csv

    p = tmp_path / "docs.csv"
    p.write_text(
        "doc_id,tokens,n_tok,source\n"
        'c1,"[1, 2, 3]",3,web\n'
        'c2,"[7]",5,books\n'
    )
    ds = read_token_csv(str(p), partition="pc")
    t = pa.concat_tables(
        b for b in ds.iter_batches(batch_format="pyarrow", batch_size=10)
    )
    assert t.schema.equals(TOKEN_SCHEMA)
    assert t["tokens"].to_pylist() == [[1, 2, 3], [7]]
    assert t["n_tok"].to_pylist() == [3, 5]
    assert t["partition"].to_pylist() == ["pc", "pc"]


def test_unattributed_rows_flagged_as_schema_fail(ray_session, tmp_path):
    """A non-empty file whose partition column was dropped must FAIL
    schema, not WARN empty: its rows are validated as the file's own
    partition and the missing column is a schema violation."""
    import pyarrow.parquet as pq

    from etl_data_validation_kio_ray.pipelines.validate import ValidationPipeline
    from etl_data_validation_kio_ray.sources.synth import generate_token_table

    d = generate_token_table(str(tmp_path / "in"), partitions=2, rows_per_partition=50)
    t = pq.read_table(str(tmp_path / "in" / "part-0001.parquet")).drop_columns(["partition"])
    pq.write_table(t, str(tmp_path / "in" / "part-0001.parquet"))
    res = ValidationPipeline(allowed_sources=["web", "books", "code", "wiki"]).run(
        d, str(tmp_path / "out")
    )
    checks = [c for c in res.verdicts if c.partition == "part-0001"]
    schema = [c for c in checks if c.rule_id == "schema_types"]
    assert schema and schema[0].status == "FAIL"
    assert (schema[0].rows_failed, schema[0].rows_total) == (50, 50)
    v = res.violations().to_pandas()
    schema_vio = v[(v.partition == "part-0001") & (v.rule_id == "schema_types")]
    assert schema_vio.reason.tolist() == ["column 'partition' missing"]


def test_exact_dedup_survives_hash_collision(ray_session):
    """Two DIFFERENT texts with a forced content-hash collision must
    both survive dedup and not appear in the dup-group report."""
    import ray.data as rd
    from unittest import mock

    import numpy as np

    from etl_data_validation_kio_ray.dedup import exact as E

    df = pd.DataFrame(
        {"doc_id": ["a", "b", "c", "d"], "text": ["t1", "t2", "t3", "t3"]}
    )

    def colliding_hash(values):
        # t1 and t2 collide; t3 hashes distinctly
        return np.asarray(
            [np.uint64(7) if v in ("t1", "t2") else np.uint64(99) for v in values],
            dtype=np.uint64,
        )

    with mock.patch.object(E, "stable_hash64", colliding_hash):
        kept = E.dedup_exact(rd.from_pandas(df).repartition(2), ["text"]).to_pandas()
        groups = E.exact_dup_groups(rd.from_pandas(df).repartition(2), ["text"])
    assert set(kept.doc_id) == {"a", "b", "c"}  # t3 deduped, t1/t2 both kept
    assert list(groups.doc_id) == ["c"] and list(groups.dup_count) == [2]


def test_session_windows_partitioned_matches_single_reducer(ray_session):
    """The per-(key, day-range) sessionization with boundary merge must
    reproduce single-reducer sessionization exactly — incl. sessions
    that span midnight range boundaries and multi-day chains."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from etl_data_validation_kio_ray.pipelines.relational import session_window_agg

    rng = np.random.default_rng(23)
    rows = []
    # session crossing midnight: events every 10 min from 23:40 to 00:20
    for i, m in enumerate(range(0, 60, 10)):
        rows.append(("x", pd.Timestamp("2026-01-01 23:40") + pd.Timedelta(minutes=m), i))
    # chain across 3 range boundaries: one event every 20 min for 3 days
    t = pd.Timestamp("2026-02-01 00:00")
    for i in range(3 * 72):
        rows.append(("y", t, i))
        t += pd.Timedelta(minutes=20)
    # plus random scattered events on several keys
    for i in range(400):
        rows.append(
            (
                rng.choice(["x", "y", "z"]),
                pd.Timestamp("2026-03-01") + pd.Timedelta(minutes=int(rng.integers(0, 7 * 24 * 60))),
                i,
            )
        )
    df = pd.DataFrame(rows, columns=["event_type", "ts", "value_cents"])
    df["value_cents"] = df["value_cents"].astype("int64")

    got = session_window_agg(rd.from_pandas(df), gap="30min", range_width="1D")

    # single-reducer reference (the pre-round-2 semantics)
    def reference(df, gap="30min"):
        gap_td = pd.to_timedelta(gap)
        outs = []
        for key, g in df.sort_values("ts").groupby("event_type"):
            sid = (g.ts.diff() > gap_td).astype("int64").cumsum()
            o = (
                g.assign(sid=sid)
                .groupby("sid")
                .agg(
                    session_start=("ts", "min"),
                    session_end=("ts", "max"),
                    n_events=("ts", "size"),
                    value_sum=("value_cents", "sum"),
                )
                .reset_index()
            )
            o.insert(0, "event_type", key)
            outs.append(o)
        out = pd.concat(outs, ignore_index=True)
        out["n_events"] = out["n_events"].astype("int64")
        out["sid"] = out["sid"].astype("int64")
        return out.sort_values(["event_type", "sid"]).reset_index(drop=True)

    want = reference(df)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    # the midnight-crossing session stayed ONE session
    x0 = got[(got.event_type == "x") & (got.sid == 0)].iloc[0]
    assert x0.n_events >= 6 and x0.session_end.day != x0.session_start.day
    # the 3-day 20-min chain stayed ONE session per its construction
    ychain = got[(got.event_type == "y") & (got.session_start == pd.Timestamp("2026-02-01"))]
    assert ychain.iloc[0].n_events == 3 * 72


def test_hash_partitioned_anti_join_and_reconcile(ray_session):
    """Large x large anti-join via per-bucket set diff: matches a pandas
    oracle on overlapping key sets (ints and strings), emits both sides,
    and never broadcasts/collects either input key set."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from etl_data_validation_kio_ray.pipelines.relational import (
        hash_partitioned_anti_keys,
        key_set_reconcile,
    )

    rng = np.random.default_rng(31)
    left = rng.choice(20_000, size=5_000, replace=False)
    right = rng.choice(20_000, size=5_000, replace=False)
    lds = rd.from_pandas(pd.DataFrame({"lk": np.repeat(left, 2)}))  # dup rows ok
    rds = rd.from_pandas(pd.DataFrame({"rk": right}))

    anti = hash_partitioned_anti_keys(lds, rds, "lk", "rk").to_pandas()
    want = np.sort(np.setdiff1d(left, right))
    assert anti["lk"].tolist() == want.tolist()

    rec = key_set_reconcile(lds, rds, "lk", "rk").to_pandas()
    lo = rec[rec.side == "left_only"].key.tolist()
    ro = rec[rec.side == "right_only"].key.tolist()
    assert lo == want.tolist()
    assert ro == np.sort(np.setdiff1d(right, left)).tolist()

    # string keys + custom labels + nulls ignored
    lsd = rd.from_pandas(pd.DataFrame({"k": ["a", "b", "c", None, "b"]}))
    rsd = rd.from_pandas(pd.DataFrame({"k": ["b", "d", None]}))
    rec2 = key_set_reconcile(
        lsd, rsd, "k", "k", left_only_label="missing", right_only_label="orphan"
    ).to_pandas()
    assert rec2.values.tolist() == [["a", "missing"], ["c", "missing"], ["d", "orphan"]]

    # disjoint buckets edge: empty result keeps schema
    e = key_set_reconcile(
        rd.from_pandas(pd.DataFrame({"k": [1, 2]})),
        rd.from_pandas(pd.DataFrame({"k": [1, 2]})),
        "k",
        "k",
    ).to_pandas()
    assert len(e) == 0 and list(e.columns) == ["key", "side"]


def test_nested_schema_validation_not_silent(ray_session, tmp_path):
    """Malformed nested JSON must surface as schema_types violations
    with precise reasons — never silent nulling (reference analog:
    stg/schema_suite nested Draft-7 checks)."""
    import json as _json

    from etl_data_validation_kio_ray.core.specs import default_rules
    from etl_data_validation_kio_ray.sources.jsonl import (
        SCHEMA_ERROR_COL,
        nested_type_errors,
        read_token_json,
    )
    from etl_data_validation_kio_ray.stages.rule_engine import RuleEngine

    # --- unit: recursive nested-type comparison
    decl = pa.struct(
        [("author", pa.string()), ("tags", pa.list_(pa.string())), ("n", pa.int32())]
    )
    ok = pa.struct(
        [("author", pa.string()), ("tags", pa.list_(pa.string())), ("n", pa.int16())]
    )
    assert nested_type_errors(ok, decl) == []  # widening + order-free
    bad = pa.struct([("author", pa.int64()), ("tags", pa.list_(pa.int32()))])
    errs = nested_type_errors(bad, decl, "meta")
    assert any("meta.author" in e for e in errs)
    assert any("meta.tags[]" in e for e in errs)
    assert any("meta.n: required field missing" in e for e in errs)
    assert nested_type_errors(pa.large_list(pa.int32()), pa.list_(pa.int32())) == []

    # --- reader: tokens list<string> of NON-numeric strings
    p1 = tmp_path / "bad_tokens.jsonl"
    with open(p1, "w") as f:
        for i in range(3):
            f.write(_json.dumps({"doc_id": f"b{i}", "tokens": ["x", "y"], "source": "web"}) + "\n")
    t = pa.concat_tables(
        b for b in read_token_json(str(p1), partition="p0").iter_batches(
            batch_format="pyarrow", batch_size=100
        )
    )
    assert SCHEMA_ERROR_COL in t.column_names
    assert all("tokens" in (e or "") for e in t[SCHEMA_ERROR_COL].to_pylist())

    # engine turns reader findings into schema_types violations
    eng = RuleEngine(default_rules(allowed_sources=["web"]))
    out = eng(t)
    vio = out.filter(pa.compute.equal(out["kind"], "violation")).to_pandas()
    schema_vio = vio[vio.rule_id == "schema_types"]
    reader_rows = schema_vio[
        schema_vio.reason.str.contains("tokens")
        & schema_vio.reason.str.contains("declared")
    ]
    assert len(reader_rows) == 3 and set(reader_rows.doc_id) == {"b0", "b1", "b2"}

    # --- reader: numeric strings are accepted WITH a warning record
    p2 = tmp_path / "castable.jsonl"
    with open(p2, "w") as f:
        f.write(_json.dumps({"doc_id": "c0", "tokens": ["1", "2"], "source": "web"}) + "\n")
    t2 = pa.concat_tables(
        b for b in read_token_json(str(p2)).iter_batches(batch_format="pyarrow", batch_size=10)
    )
    assert t2["tokens"].to_pylist() == [[1, 2]]
    assert "castable" in t2[SCHEMA_ERROR_COL].to_pylist()[0]

    # --- declared nested passthrough column validated recursively
    p3 = tmp_path / "nested.jsonl"
    with open(p3, "w") as f:
        f.write(
            _json.dumps(
                {"doc_id": "n0", "tokens": [1], "source": "web",
                 "meta": {"author": 7, "tags": ["a"]}}
            )
            + "\n"
        )
    extra = pa.schema([("meta", decl)])
    t3 = pa.concat_tables(
        b
        for b in read_token_json(str(p3), extra_schema=extra).iter_batches(
            batch_format="pyarrow", batch_size=10
        )
    )
    err3 = t3[SCHEMA_ERROR_COL].to_pylist()[0]
    assert "meta.author" in err3 and "meta.n" in err3

    # --- well-formed nested input: clean schema, no error column
    p4 = tmp_path / "good.jsonl"
    with open(p4, "w") as f:
        f.write(
            _json.dumps(
                {"doc_id": "g0", "tokens": [1, 2], "source": "web",
                 "meta": {"author": "me", "tags": ["t"], "n": 3}}
            )
            + "\n"
        )
    t4 = pa.concat_tables(
        b
        for b in read_token_json(str(p4), extra_schema=extra).iter_batches(
            batch_format="pyarrow", batch_size=10
        )
    )
    assert SCHEMA_ERROR_COL not in t4.column_names
    assert t4["meta"].to_pylist() == [{"author": "me", "tags": ["t"], "n": 3}]


def test_html_report(ray_session, tmp_path):
    """HTML report: run verdicts, failing checks, and the mutation
    experiment's per-iteration table (the reference's HTML report
    analog), stdlib-only and well-formed enough to grep."""
    from etl_data_validation_kio_ray.pipelines.experiment import run_experiment
    from etl_data_validation_kio_ray.sources.synth import generate_token_table
    from etl_data_validation_kio_ray.state.report import write_html_report

    clean = generate_token_table(str(tmp_path / "c"), partitions=2, rows_per_partition=80)
    res = run_experiment(
        clean, str(tmp_path / "exp"), actions=["corrupt_id", "unknown_source"]
    )
    # run-level report on the baseline run dir
    html1 = open(write_html_report(str(tmp_path / "exp" / "baseline"))).read()
    assert "run verdict" in html1 and "part-0000" in html1
    # experiment-level report picks up the iteration table
    html2 = open(write_html_report(str(tmp_path / "exp"))).read()
    assert "mutation experiment" in html2
    assert "corrupt_id" in html2 and "row_invariants" in html2
    assert html2.count("<table>") >= 1 and "</html>" in html2


def test_example_rules_config_loads_and_runs(ray_session, tmp_path):
    """The shipped example YAML exercises the full config surface:
    row_gate enablement, severity/param overrides, rule disabling."""
    from etl_data_validation_kio_ray.core.specs import default_rules, load_rules
    from etl_data_validation_kio_ray.pipelines.validate import ValidationPipeline
    from etl_data_validation_kio_ray.sources.synth import generate_token_table

    import os as _os

    cfg = _os.path.join(
        _os.path.dirname(__file__), "..", "configs", "example_rules.yml"
    )
    rules = load_rules(
        cfg,
        base=default_rules(allowed_sources=["web", "books", "code", "wiki"]),
    )
    assert rules["row_gate"].enabled
    assert rules["row_invariants"].params["max_len"] == 4096
    assert not rules["drift_ks_psi"].enabled

    clean = generate_token_table(str(tmp_path / "c"), partitions=2, rows_per_partition=80)
    res = ValidationPipeline(rules, allowed_sources=["web", "books", "code", "wiki"]).run(
        clean, str(tmp_path / "o")
    )
    rule_ids = {c.rule_id for c in res.verdicts}
    assert "row_gate" in rule_ids and "drift_ks_psi" not in rule_ids


def test_aggregate_runs_summary_stats(ray_session, tmp_path):
    """Cross-run AVG/STDDEV summary (reference's validation_summary
    aggregation): stable rule groups, sane stats over repeated runs."""
    from etl_data_validation_kio_ray.pipelines.validate import ValidationPipeline
    from etl_data_validation_kio_ray.sources.mutations import mutate_table
    from etl_data_validation_kio_ray.sources.synth import generate_token_table
    from etl_data_validation_kio_ray.state.report import aggregate_runs

    clean = generate_token_table(str(tmp_path / "c"), partitions=2, rows_per_partition=80)
    mut = mutate_table(clean, str(tmp_path / "m"), "corrupt_id")
    dirs = []
    for i in range(2):
        out = str(tmp_path / f"o{i}")
        ValidationPipeline(allowed_sources=["web", "books", "code", "wiki"]).run(mut, out)
        dirs.append(out)
    agg = aggregate_runs(dirs)
    assert set(agg.rule_group) >= {"invariants", "referential", "stats"}
    inv = agg[agg.rule_group == "invariants"].iloc[0]
    assert inv.runs == 2 and inv.rows_failed_mean > 0
    assert inv.duration_ms_mean > 0  # per-check durations recorded
    assert aggregate_runs([]).empty


def test_hash_join_matches_pandas(ray_session):
    """Distributed hash-shuffle join (large×large shape) against a
    pandas merge oracle, including unmatched keys on both sides."""
    import ray.data as rd

    from etl_data_validation_kio_ray.pipelines.relational import hash_join

    rng = np.random.Generator(np.random.Philox(key=[11, 3]))
    left = pd.DataFrame(
        {
            "k": rng.integers(0, 50, 800).astype(np.int64),
            "lv": np.arange(800, dtype=np.int64),
        }
    )
    right = pd.DataFrame(
        {
            "rk": np.arange(5, 45, dtype=np.int64),  # keys 0-4 and 45-49 unmatched
            "rv": np.arange(40, dtype=np.int64) * 10,
        }
    )
    got = (
        hash_join(
            rd.from_pandas(left).repartition(6),
            rd.from_pandas(right).repartition(3),
            on=("k",),
            right_on=("rk",),
        )
        .to_pandas()
        .sort_values(["k", "lv"])
        .reset_index(drop=True)
    )
    want = (
        left.merge(right, left_on="k", right_on="rk")
        .sort_values(["k", "lv"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got[["k", "lv", "rv"]], want[["k", "lv", "rv"]]
    )
    with pytest.raises(ValueError):
        hash_join(rd.from_pandas(left), rd.from_pandas(right), on=("k",), join_type="cross")


def _asof_oracle(left, right, on, by, vals, direction, tolerance=None, inner=True):
    out = pd.merge_asof(
        left.sort_values(on, kind="mergesort"),
        right.sort_values(on, kind="mergesort").rename(
            columns={on: f"matched_{on}", **{v: f"matched_{v}" for v in vals}}
        ),
        left_on=on,
        right_on=f"matched_{on}",
        by=by,
        direction=direction,
        tolerance=pd.to_timedelta(tolerance) if tolerance else None,
    )
    if inner:
        out = out[out[f"matched_{on}"].notna()]
    return out.sort_values(list(left.columns), kind="mergesort").reset_index(drop=True)


def test_asof_join_matches_merge_asof(ray_session):
    """Hash-bucketed distributed as-of join == single-node merge_asof,
    across directions, inner/outer, tolerance, and keys missing on one
    side."""
    import ray.data as rd

    from etl_data_validation_kio_ray.pipelines.relational import (
        asof_join,
        collect_sorted,
    )

    rng = np.random.Generator(np.random.Philox(key=[5, 9]))
    nl, nr = 600, 400
    base = pd.Timestamp("2026-02-01")
    left = pd.DataFrame(
        {
            "uid": rng.integers(0, 25, nl).astype(np.int64),  # uids 20-24 absent right
            "ts": base + pd.to_timedelta(rng.integers(0, 86_400, nl), unit="s"),
            "lseq": np.arange(nl, dtype=np.int64),
        }
    )
    right = pd.DataFrame(
        {
            "uid": rng.integers(0, 20, nr).astype(np.int64),
            "ts": base + pd.to_timedelta(rng.integers(0, 86_400, nr), unit="s"),
            "rv": rng.integers(0, 1000, nr).astype(np.int64),
        }
    ).drop_duplicates(["uid", "ts"])

    for direction in ("backward", "forward"):
        for inner in (True, False):
            got = collect_sorted(
                asof_join(
                    rd.from_pandas(left).repartition(5),
                    rd.from_pandas(right).repartition(4),
                    on="ts",
                    by="uid",
                    right_values=["rv"],
                    direction=direction,
                    num_buckets=7,
                    inner=inner,
                ),
                ["uid", "ts", "lseq"],
            )
            want = _asof_oracle(left, right, "ts", "uid", ["rv"], direction, inner=inner)
            assert len(got) == len(want), (direction, inner)
            pd.testing.assert_frame_equal(
                got[["uid", "ts", "lseq", "matched_ts"]],
                want[["uid", "ts", "lseq", "matched_ts"]],
                check_dtype=False,
            )
            # value column: nullable when inner=False
            pd.testing.assert_series_equal(
                got["matched_rv"].astype("float64"),
                want["matched_rv"].astype("float64"),
                check_names=False,
            )

    # tolerance bounds the match distance
    got = collect_sorted(
        asof_join(
            rd.from_pandas(left).repartition(3),
            rd.from_pandas(right).repartition(2),
            on="ts",
            by="uid",
            right_values=["rv"],
            tolerance="30m",
            num_buckets=4,
        ),
        ["uid", "ts", "lseq"],
    )
    want = _asof_oracle(left, right, "ts", "uid", ["rv"], "backward", tolerance="30m")
    assert len(got) == len(want)
    assert (got.ts - got.matched_ts <= pd.Timedelta("30m")).all()


def test_asof_join_tiebreak_dedups_right(ray_session):
    """Duplicate (by, on) right rows resolve by greatest tiebreak."""
    import ray.data as rd

    from etl_data_validation_kio_ray.pipelines.relational import asof_join

    t0 = pd.Timestamp("2026-03-01")
    left = pd.DataFrame({"k": [1, 1], "ts": [t0 + pd.Timedelta("2h"), t0 + pd.Timedelta("4h")]})
    right = pd.DataFrame(
        {
            "k": [1, 1, 1],
            "ts": [t0, t0, t0 + pd.Timedelta("3h")],
            "rv": np.array([5, 9, 7], dtype=np.int64),
        }
    )
    from etl_data_validation_kio_ray.pipelines.relational import collect_sorted

    got = collect_sorted(
        asof_join(
            rd.from_pandas(left),
            rd.from_pandas(right),
            on="ts",
            by="k",
            right_values=["rv"],
            right_tiebreak="rv",
            num_buckets=2,
        ),
        ["k", "ts"],
    )
    assert got.matched_rv.tolist() == [9, 7]
    with pytest.raises(ValueError):
        asof_join(
            rd.from_pandas(left), rd.from_pandas(right),
            on="ts", by="k", right_values=["rv"], right_tiebreak="nope",
        )


def test_interval_join_matches_bruteforce(ray_session):
    """Broadcast bounded-length interval join == O(n·m) pandas oracle,
    incl. overlapping windows, a giant interval, exact-boundary points,
    and both closedness modes."""
    import ray.data as rd

    from etl_data_validation_kio_ray.pipelines.relational import interval_join

    rng = np.random.Generator(np.random.Philox(key=[2, 13]))
    t0 = pd.Timestamp("2026-04-01")
    pts = pd.DataFrame(
        {
            "ts": t0 + pd.to_timedelta(rng.integers(0, 72 * 3600, 500), unit="s"),
            "pid": np.arange(500, dtype=np.int64),
        }
    )
    # exact boundary probes
    pts.loc[0, "ts"] = t0  # == first interval start
    pts.loc[1, "ts"] = t0 + pd.Timedelta("3h")  # == first interval end
    iv = pd.DataFrame(
        {
            "ws": t0 + pd.to_timedelta(np.arange(0, 72, 2), unit="h"),
            "iid": np.arange(36, dtype=np.int64),
        }
    )
    iv["we"] = iv["ws"] + pd.Timedelta("3h")
    # giant interval spanning everything (max_len widener)
    iv = pd.concat(
        [iv, pd.DataFrame({"ws": [t0], "iid": [999], "we": [t0 + pd.Timedelta("10D")]})],
        ignore_index=True,
    )

    for closed in ("left", "both"):
        got = (
            interval_join(
                rd.from_pandas(pts).repartition(5),
                iv,
                ts_col="ts",
                start_col="ws",
                end_col="we",
                payload_cols=["iid"],
                closed=closed,
            )
            .to_pandas()
            .sort_values(["pid", "iid"])
            .reset_index(drop=True)
        )
        cross = pts.merge(iv, how="cross")
        m = (cross.ts >= cross.ws) & (
            (cross.ts <= cross.we) if closed == "both" else (cross.ts < cross.we)
        )
        want = cross[m].sort_values(["pid", "iid"]).reset_index(drop=True)
        assert len(got) == len(want), closed
        assert got["pid"].tolist() == want["pid"].tolist()
        assert got["iid"].tolist() == want["iid"].tolist()

    with pytest.raises(ValueError, match="end < start"):
        bad = iv.copy()
        bad.loc[0, "we"] = bad.loc[0, "ws"] - pd.Timedelta("1h")
        interval_join(
            rd.from_pandas(pts), bad,
            ts_col="ts", start_col="ws", end_col="we", payload_cols=["iid"],
        )
    # empty interval side -> empty result (Ray may drop the schema
    # with the empty blocks; row count is the contract)
    out = interval_join(
        rd.from_pandas(pts), iv.iloc[:0],
        ts_col="ts", start_col="ws", end_col="we", payload_cols=["iid"],
    ).to_pandas()
    assert out.empty


def test_asof_join_pandas_block_string_schema(ray_session):
    """asof_join over pandas-block inputs with string columns: the
    PandasBlockSchema path must map object dtype to pa.string(), not
    crash in pa.from_numpy_dtype (review regression)."""
    import ray.data as rd

    from etl_data_validation_kio_ray.pipelines.relational import asof_join

    t0 = pd.Timestamp("2026-05-01")
    left = pd.DataFrame(
        {
            "k": [1, 1, 2],
            "ts": [t0 + pd.Timedelta(h, "h") for h in (1, 5, 2)],
            "label": ["a", "b", "c"],  # string payload rides through
        }
    )
    right = pd.DataFrame(
        {
            "k": [1, 2],
            "ts": [t0, t0 + pd.Timedelta("1h")],
            "tag": ["x", "y"],  # string matched value
        }
    )

    def ident(df: pd.DataFrame) -> pd.DataFrame:
        return df

    from etl_data_validation_kio_ray.pipelines.relational import collect_sorted

    got = collect_sorted(
        asof_join(
            rd.from_pandas(left).map_batches(ident, batch_format="pandas"),
            rd.from_pandas(right).map_batches(ident, batch_format="pandas"),
            on="ts",
            by="k",
            right_values=["tag"],
            num_buckets=2,
        ),
        ["k", "ts", "label"],
    )
    assert got.label.tolist() == ["a", "b", "c"]
    assert got.matched_tag.tolist() == ["x", "x", "y"]


def test_asof_join_outer_temporal_matched_value_dtype(ray_session):
    """inner=False with a temporal right-value column: all-left buckets
    must fill with NaT so the matched column stays datetime64 (review
    regression: np.nan fill relied on deprecated pandas all-NA concat
    coercion)."""
    import warnings

    import ray.data as rd

    from etl_data_validation_kio_ray.pipelines.relational import asof_join

    t0 = pd.Timestamp("2026-06-01")
    left = pd.DataFrame(
        {
            # key 7 hashes to a bucket with NO right rows at all
            "k": [1, 7],
            "ts": [t0 + pd.Timedelta("2h"), t0 + pd.Timedelta("3h")],
        }
    )
    right = pd.DataFrame(
        {"k": [1], "ts": [t0], "created": [t0 - pd.Timedelta("1D")]}
    )
    from etl_data_validation_kio_ray.pipelines.relational import collect_sorted

    with warnings.catch_warnings():
        warnings.simplefilter("error", FutureWarning)
        got = collect_sorted(
            asof_join(
                rd.from_pandas(left),
                rd.from_pandas(right),
                on="ts",
                by="k",
                right_values=["created"],
                num_buckets=8,
                inner=False,
            ),
            ["k", "ts"],
        )
    assert str(got["matched_created"].dtype).startswith("datetime64")
    assert got.loc[0, "matched_created"] == t0 - pd.Timedelta("1D")
    assert pd.isna(got.loc[1, "matched_created"])


def test_interval_join_string_payload_with_empty_batches(ray_session):
    """String payload columns keep ONE schema across empty and non-empty
    probe batches (review regression: empty object arrays inferred as
    null type -> mixed block schemas); downstream groupby still works."""
    import ray.data as rd

    from etl_data_validation_kio_ray.pipelines.relational import interval_join

    t0 = pd.Timestamp("2026-07-01")
    pts = pd.DataFrame(
        {
            "ts": [t0 + pd.Timedelta(h, "h") for h in range(8)],
            "pid": np.arange(8, dtype=np.int64),
        }
    )
    iv = pd.DataFrame(
        {
            "ws": [t0, t0 + pd.Timedelta("4h")],
            "we": [t0 + pd.Timedelta("4h"), t0 + pd.Timedelta("8h")],
            "wname": ["morning", "afternoon"],
        }
    )

    def drop_late(t: pa.Table) -> pa.Table:
        # empties some blocks entirely -> empty probe batches
        import pyarrow.compute as pc

        return t.filter(pc.less(t["pid"], pa.scalar(4)))

    ds = (
        rd.from_pandas(pts)
        .repartition(4)
        .map_batches(drop_late, batch_format="pyarrow")
    )
    joined = interval_join(
        ds, iv, ts_col="ts", start_col="ws", end_col="we", payload_cols=["wname"]
    )
    out = (
        joined.groupby("wname")
        .count()
        .to_pandas()
        .sort_values("wname")
        .reset_index(drop=True)
    )
    assert out["wname"].tolist() == ["morning"]
    assert out["count()"].tolist() == [4]


def test_top_k_per_group_matches_row_number(ray_session):
    """Partial-top-k + per-group finalize == pandas ROW_NUMBER oracle,
    with deterministic tiebreak and groups smaller than k."""
    import ray.data as rd

    from etl_data_validation_kio_ray.pipelines.relational import top_k_per_group

    rng = np.random.Generator(np.random.Philox(key=[11, 3]))
    n = 3000
    df = pd.DataFrame(
        {
            "g": rng.choice([f"g{i}" for i in range(12)], n),
            "score": rng.integers(0, 50, n).astype(np.int64),  # many ties
            "rid": np.arange(n, dtype=np.int64),
        }
    )
    # one tiny group (< k rows)
    df.loc[df.index[:2], "g"] = "tiny"
    df = df[(df.g != "g0") | (df.index < 2900)]

    got = top_k_per_group(
        rd.from_pandas(df).repartition(7), "g", [("score", True), ("rid", False)], 5
    )
    want = (
        df.sort_values(["g", "score", "rid"], ascending=[True, False, True])
        .groupby("g", sort=True)
        .head(5)
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got[["g", "score", "rid"]], want[["g", "score", "rid"]]
    )


def test_grouped_count_distinct_matches_nunique(ray_session):
    import ray.data as rd

    from etl_data_validation_kio_ray.pipelines.relational import grouped_count_distinct

    rng = np.random.Generator(np.random.Philox(key=[4, 21]))
    df = pd.DataFrame(
        {
            "t": rng.choice(["a", "b", "c"], 5000),
            "u": rng.integers(0, 200, 5000).astype(np.int64),
        }
    )
    got = grouped_count_distinct(rd.from_pandas(df).repartition(6), "t", "u")
    want = df.groupby("t", sort=True)["u"].nunique()
    assert got["t"].tolist() == list(want.index)
    assert got["n_distinct"].tolist() == want.tolist()


def test_grouped_quantiles_bounded_exact(ray_session):
    """Counting-histogram quantiles == the integer rank rule computed
    directly; domain violations raise loudly."""
    import ray.data as rd

    from etl_data_validation_kio_ray.pipelines.relational import (
        grouped_quantiles_bounded,
    )

    rng = np.random.Generator(np.random.Philox(key=[9, 2]))
    df = pd.DataFrame(
        {
            "g": rng.choice(["x", "y"], 4000),
            "v": rng.integers(0, 1000, 4000).astype(np.int64),
        }
    )
    qs = [("p50", 1, 2), ("p90", 9, 10), ("p99", 99, 100)]
    got = grouped_quantiles_bounded(
        rd.from_pandas(df).repartition(5), "g", "v", qs, domain_max=1023
    )
    for _, row in got.iterrows():
        vals = np.sort(df.loc[df.g == row["g"], "v"].to_numpy())
        n = len(vals)
        for name, num, den in qs:
            rank = -(-num * n // den)  # ceil
            assert row[name] == vals[rank - 1], (row["g"], name)

    bad = pd.DataFrame({"g": ["x"], "v": [5000]})
    # the ValueError arrives wrapped in Ray's task-error envelope
    with pytest.raises(Exception, match="outside"):
        grouped_quantiles_bounded(
            rd.from_pandas(bad), "g", "v", qs, domain_max=1023
        )


def test_grouped_zscore_outliers_planted(ray_session):
    """A planted extreme value is flagged; boundary rows follow the
    exact integer rule (no float flip)."""
    import ray.data as rd

    from etl_data_validation_kio_ray.pipelines.relational import (
        grouped_zscore_outliers,
    )

    rng = np.random.Generator(np.random.Philox(key=[6, 6]))
    df = pd.DataFrame(
        {
            "g": ["a"] * 500 + ["b"] * 500,
            "rid": np.arange(1000, dtype=np.int64),
            "v": np.r_[
                rng.integers(95, 106, 500), rng.integers(495, 506, 500)
            ].astype(np.int64),
        }
    )
    df.loc[3, "v"] = 100_000  # planted outlier in group a
    from etl_data_validation_kio_ray.pipelines.relational import collect_sorted

    got = collect_sorted(
        grouped_zscore_outliers(
            rd.from_pandas(df).repartition(4), "g", "v", ["g", "rid", "v"], z=3
        ),
        ["g", "rid", "v"],
    )
    assert 3 in got["rid"].tolist()
    # oracle: exact integer criterion per group
    import math

    want = []
    for g, sub in df.groupby("g"):
        x = sub["v"].to_numpy()
        n, s1, s2 = len(x), int(x.sum()), int((x.astype(object) ** 2).sum())
        bound = math.isqrt(9 * (n * s2 - s1 * s1))
        d = n * x.astype(np.int64) - s1
        want.extend(sub.loc[np.abs(d) > bound, "rid"].tolist())
    assert sorted(got["rid"].tolist()) == sorted(want)


def test_rolling_window_agg_matches_pandas(ray_session):
    """Bucketed prefix-sum rolling window == pandas RANGE-window oracle,
    including (key, ts) ties (peer-inclusive) and exact 24h boundaries."""
    import ray.data as rd

    from etl_data_validation_kio_ray.pipelines.relational import rolling_window_agg

    rng = np.random.Generator(np.random.Philox(key=[8, 15]))
    n = 1500
    t0 = pd.Timestamp("2026-08-01")
    df = pd.DataFrame(
        {
            "uid": rng.integers(0, 30, n).astype(np.int64),
            "ts": t0 + pd.to_timedelta(rng.integers(0, 5 * 86_400, n), unit="s"),
            "v": rng.integers(1, 100, n).astype(np.int64),
            "rid": np.arange(n, dtype=np.int64),
        }
    )
    # planted ties: same (uid, ts), different values -> peers include
    # each other under RANGE semantics
    df.loc[1, ["uid", "ts"]] = df.loc[0, ["uid", "ts"]]
    # exact boundary: an event exactly 24h after another
    df.loc[2, "uid"] = 5
    df.loc[2, "ts"] = t0
    df.loc[3, "uid"] = 5
    df.loc[3, "ts"] = t0 + pd.Timedelta("24h")

    W = 24 * 3600 * 1_000_000
    from etl_data_validation_kio_ray.pipelines.relational import collect_sorted

    got = collect_sorted(
        rolling_window_agg(
            rd.from_pandas(df).repartition(6),
            "uid",
            "ts",
            "v",
            window_us=W,
            num_buckets=5,
            out_cols=["rid"],
        ),
        ["rid"],
    )

    # O(n^2) oracle: peer-inclusive RANGE window
    want_cnt, want_sum = [], []
    for r in df.itertuples(index=False):
        m = (df.uid == r.uid) & (df.ts <= r.ts) & (df.ts >= r.ts - pd.Timedelta(W, "us"))
        want_cnt.append(int(m.sum()))
        want_sum.append(int(df.loc[m, "v"].sum()))
    want = df.assign(w_count=want_cnt, w_sum=want_sum).sort_values("rid").reset_index(drop=True)
    assert got["w_count"].tolist() == want["w_count"].tolist()
    assert got["w_sum"].tolist() == want["w_sum"].tolist()
    # the exact-24h-boundary row includes its predecessor (inclusive)
    b = got.loc[got.rid == 3].iloc[0]
    assert b.w_count >= 2


def test_global_row_number_and_ntile(ray_session):
    """Block-offset global rank == pandas rank on a duplicate-heavy,
    multi-block input; NTILE bucketing matches the SQL tile-size rule."""
    import duckdb
    import ray.data as rd

    from etl_data_validation_kio_ray.pipelines.relational import (
        global_row_number,
        ntile_from_rank,
    )

    rng = np.random.Generator(np.random.Philox(key=[21, 4]))
    n = 4003  # deliberately not divisible by k
    df = pd.DataFrame(
        {
            "v": rng.integers(0, 50, n).astype(np.int64),  # heavy duplicates
            "uid": rng.permutation(n).astype(np.int64),  # unique tiebreak
        }
    )
    ranked, n_total = global_row_number(
        rd.from_pandas(df).repartition(7), ["v", "uid"], out_col="rn"
    )
    got = ranked.to_pandas().sort_values(["v", "uid"]).reset_index(drop=True)
    assert n_total == n
    want = df.sort_values(["v", "uid"]).reset_index(drop=True)
    assert got["rn"].tolist() == list(range(1, n + 1))
    assert got["uid"].tolist() == want["uid"].tolist()

    for k in (1, 7, 10, n, n + 5):
        tiles = ntile_from_rank(got["rn"].to_numpy(), n, k)
        sql = duckdb.sql(
            f"SELECT NTILE({k}) OVER (ORDER BY v, uid) FROM df"
        ).fetchnumpy()
        assert tiles.tolist() == next(iter(sql.values())).tolist()


def test_global_row_number_all_ties_still_a_permutation(ray_session):
    """With a degenerate (non-total-order) key that collapses into one
    sorted block, ranks are still a valid 1..n permutation; when ties
    straddle blocks, the offset builder refuses instead of mis-ranking."""
    import ray.data as rd

    from etl_data_validation_kio_ray.pipelines.relational import (
        _block_prefix_offsets,
        global_row_number,
    )

    df = pd.DataFrame({"v": np.zeros(500, dtype=np.int64)})
    ranked, n = global_row_number(rd.from_pandas(df).repartition(4), ["v"])
    assert n == 500
    assert sorted(ranked.to_pandas()["rn"].tolist()) == list(range(1, 501))

    dup = pd.DataFrame({"k0": [0, 0, 1], "n": [10, 5, 3]})
    with pytest.raises(ValueError, match="total order"):
        _block_prefix_offsets(dup, 1)
    omap, total = _block_prefix_offsets(
        pd.DataFrame({"k0": [3, 0, 1], "n": [10, 5, 3]}), 1
    )
    assert total == 18 and omap == {(0,): 0, (1,): 5, (3,): 8}


def test_grouped_lag_delta_stats_matches_pandas(ray_session):
    """Bucketed LAG-delta stats == pandas groupby-diff oracle, with
    (key, ts) ties broken by event id and single-event keys absent."""
    import ray.data as rd

    from etl_data_validation_kio_ray.pipelines.relational import (
        grouped_lag_delta_stats,
    )

    rng = np.random.Generator(np.random.Philox(key=[9, 33]))
    n = 1200
    df = pd.DataFrame(
        {
            "uid": rng.integers(0, 40, n).astype(np.int64),
            "ts": pd.Timestamp("2026-02-01")
            + pd.to_timedelta(rng.integers(0, 86_400, n), unit="s"),
            "eid": np.arange(n, dtype=np.int64),
        }
    )
    df.loc[5, ["uid", "ts"]] = df.loc[4, ["uid", "ts"]]  # tie -> gap 0
    df.loc[6, "uid"] = 999  # single-event key -> absent

    from etl_data_validation_kio_ray.pipelines.relational import collect_sorted

    got = collect_sorted(
        grouped_lag_delta_stats(
            rd.from_pandas(df).repartition(6), "uid", "ts", "eid", num_buckets=7
        ),
        ["uid"],
    )

    o = df.sort_values(["uid", "ts", "eid"])
    gaps = o.groupby("uid")["ts"].diff().dropna().dt.total_seconds() * 1_000_000
    g = gaps.astype(np.int64).groupby(o.loc[gaps.index, "uid"])
    want = pd.DataFrame(
        {"n_gaps": g.count(), "sum_gap_us": g.sum(), "max_gap_us": g.max()}
    ).reset_index()
    assert 999 not in set(got["uid"])
    pd.testing.assert_frame_equal(
        got.astype({"n_gaps": np.int64}), want.astype(got.dtypes.to_dict())
    )


def test_grouped_rollup_matches_duckdb(ray_session):
    import duckdb
    import ray.data as rd

    from etl_data_validation_kio_ray.pipelines.relational import grouped_rollup

    rng = np.random.Generator(np.random.Philox(key=[14, 2]))
    n = 900
    df = pd.DataFrame(
        {
            "a": rng.choice(["x", "y", "z"], n),
            "b": rng.integers(0, 4, n).astype(np.int64),
            "v": rng.integers(-50, 50, n).astype(np.int64),
        }
    )
    got = grouped_rollup(
        rd.from_pandas(df).repartition(5),
        ["a", "b"],
        {
            "n": ("v", "count"),
            "s": ("v", "sum"),
            "lo": ("v", "min"),
            "hi": ("v", "max"),
        },
    )
    want = duckdb.sql(
        """
        WITH t AS (SELECT a, CAST(b AS VARCHAR) AS b, v FROM df)
        SELECT COALESCE(a, 'ALL') AS a, COALESCE(b, 'ALL') AS b,
               CAST(count(*) AS BIGINT) AS n, CAST(sum(v) AS BIGINT) AS s,
               CAST(min(v) AS BIGINT) AS lo, CAST(max(v) AS BIGINT) AS hi
        FROM t GROUP BY ROLLUP(a, b) ORDER BY a, b
        """
    ).df()
    pd.testing.assert_frame_equal(got, want)

    with pytest.raises(ValueError, match="re-aggregable"):
        grouped_rollup(rd.from_pandas(df), ["a"], {"m": ("v", "mean")})


def test_grouped_cube_matches_duckdb(ray_session):
    import duckdb
    import ray.data as rd

    from etl_data_validation_kio_ray.pipelines.relational import grouped_cube

    rng = np.random.Generator(np.random.Philox(key=[14, 3]))
    n = 700
    df = pd.DataFrame(
        {
            "a": rng.choice(["x", "y", "z"], n),
            "b": rng.integers(0, 3, n).astype(np.int64),
            "v": rng.integers(-50, 50, n).astype(np.int64),
        }
    )
    got = grouped_cube(
        rd.from_pandas(df).repartition(4),
        ["a", "b"],
        {
            "n": ("v", "count"),
            "s": ("v", "sum"),
            "lo": ("v", "min"),
            "hi": ("v", "max"),
        },
    )
    want = duckdb.sql(
        """
        WITH t AS (SELECT a, CAST(b AS VARCHAR) AS b, v FROM df)
        SELECT COALESCE(a, 'ALL') AS a, COALESCE(b, 'ALL') AS b,
               CAST(count(*) AS BIGINT) AS n, CAST(sum(v) AS BIGINT) AS s,
               CAST(min(v) AS BIGINT) AS lo, CAST(max(v) AS BIGINT) AS hi
        FROM t GROUP BY CUBE(a, b) ORDER BY a, b
        """
    ).df()
    pd.testing.assert_frame_equal(got, want)

    with pytest.raises(ValueError, match="re-aggregable"):
        grouped_cube(rd.from_pandas(df), ["a"], {"m": ("v", "mean")})


def test_pivot_agg_missing_cell_and_guard(ray_session):
    import ray.data as rd

    from etl_data_validation_kio_ray.pipelines.relational import pivot_agg

    df = pd.DataFrame(
        {
            "idx": [1, 1, 2, 2, 2],
            "cat": ["a", "b", "a", "a", "b"],
            "v": [10.0, 20.0, 1.0, 2.0, 3.0],
        }
    )
    got = pivot_agg(
        rd.from_pandas(df).repartition(2),
        "idx",
        "cat",
        "v",
        pivot_values=["a", "b", "c"],  # 'c' absent everywhere -> NULL col
    )
    assert got.columns.tolist() == ["idx", "a", "b", "c"]
    assert got["a"].tolist() == [10.0, 3.0]
    assert got["c"].isna().all()

    with pytest.raises(ValueError, match="not in"):
        pivot_agg(rd.from_pandas(df), "idx", "cat", "v", pivot_values=["a"])


def test_grouped_corr_matches_numpy(ray_session):
    import ray.data as rd

    from etl_data_validation_kio_ray.pipelines.relational import grouped_corr

    rng = np.random.Generator(np.random.Philox(key=[6, 28]))
    n = 2000
    df = pd.DataFrame(
        {
            "g": rng.choice(["a", "b", "c"], n),
            "x": rng.integers(0, 1000, n).astype(np.int64),
        }
    )
    df["y"] = df["x"] // 2 + rng.integers(0, 300, n)
    const = pd.DataFrame({"g": ["z"] * 5, "x": [7] * 5, "y": [1, 2, 3, 4, 5]})
    df = pd.concat([df, const], ignore_index=True)

    got = grouped_corr(rd.from_pandas(df).repartition(6), "g", "x", "y")
    for row in got.itertuples(index=False):
        sub = df[df.g == row.g]
        assert row.n == len(sub)
        if row.g == "z":
            assert np.isnan(row.corr)  # zero x-variance -> NaN, not inf
        else:
            np.testing.assert_allclose(
                row.corr, np.corrcoef(sub.x, sub.y)[0, 1], rtol=1e-12
            )


def test_grouped_winsorized_sums_matches_pandas(ray_session):
    import ray.data as rd

    from etl_data_validation_kio_ray.pipelines.relational import (
        grouped_winsorized_sums,
    )

    rng = np.random.Generator(np.random.Philox(key=[11, 5]))
    n = 3000
    df = pd.DataFrame(
        {
            "g": rng.choice(["a", "b"], n),
            "v": rng.integers(0, 1000, n).astype(np.int64),
        }
    )
    got = grouped_winsorized_sums(
        rd.from_pandas(df).repartition(5), "g", "v", domain_max=1000
    )
    for row in got.itertuples(index=False):
        vals = np.sort(df.loc[df.g == row.g, "v"].to_numpy())
        m = len(vals)
        # integer rank rule: smallest v with cum*den >= num*n
        lo = vals[int(np.ceil(1 * m / 100)) - 1]
        hi = vals[int(np.ceil(99 * m / 100)) - 1]
        assert (row.lo, row.hi) == (lo, hi)
        assert row.n == m
        assert row.wsum == int(np.clip(vals, lo, hi).sum())
        assert row.n_clip_lo == int((vals < lo).sum())
        assert row.n_clip_hi == int((vals > hi).sum())


def test_grouped_lag_delta_stats_string_key_sparse_buckets(ray_session):
    """String group keys must survive buckets whose partial is empty
    (the empty-table schema used to hardcode int64 keys)."""
    import ray.data as rd

    from etl_data_validation_kio_ray.pipelines.relational import (
        grouped_lag_delta_stats,
    )

    df = pd.DataFrame(
        {
            "k": ["a", "a", "b"],  # many buckets will see <2 rows
            "ts": pd.to_datetime([0, 5, 9], unit="s"),
            "id": np.arange(3, dtype=np.int64),
        }
    )
    from etl_data_validation_kio_ray.pipelines.relational import collect_sorted

    got = collect_sorted(
        grouped_lag_delta_stats(
            rd.from_pandas(df).repartition(2), "k", "ts", "id", num_buckets=8
        ),
        ["k"],
    )
    assert got["k"].tolist() == ["a"]
    assert got["sum_gap_us"].tolist() == [5_000_000]


def test_bucketed_group_agg_matches_pandas(ray_session):
    """One bucket exchange + in-bucket Arrow aggregate == pandas
    groupby, including the post hook (key-complete per bucket) and
    string keys spread across many buckets."""
    import ray.data as rd

    from etl_data_validation_kio_ray.pipelines.relational import bucketed_group_agg

    rng = np.random.Generator(np.random.Philox(key=[19, 7]))
    n = 5000
    df = pd.DataFrame(
        {
            "k": [f"key{i}" for i in rng.integers(0, 700, n)],
            "v": rng.integers(-100, 100, n).astype(np.int64),
        }
    )
    df2 = df.assign(v_sum=df.v, v_max=df.v)
    got = (
        bucketed_group_agg(
            rd.from_pandas(df2).repartition(6),
            "k",
            [("v_sum", "sum"), ("v_max", "max")],
            num_buckets=16,
        )
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    want = (
        df.groupby("k", as_index=False)
        .agg(v_sum=("v", "sum"), v_max=("v", "max"))
        .sort_values("k")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want)

    # aggregating one column twice must fail loudly, not collide
    with pytest.raises(ValueError, match="collides"):
        bucketed_group_agg(rd.from_pandas(df), "k", [("v", "sum"), ("v", "max")])

    def post(t: pa.Table) -> pa.Table:  # key-level filter inside the bucket
        import pyarrow.compute as pc

        return t.filter(pc.greater(t[t.column_names[1]], 0))

    filtered = (
        bucketed_group_agg(
            rd.from_pandas(df).repartition(6), "k", [("v", "sum")], post=post
        )
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    want_f = want[want.v_sum > 0].reset_index(drop=True)
    assert filtered["k"].tolist() == want_f["k"].tolist()


def test_grouped_mode_tiebreak_and_nulls(ray_session):
    """Mode per group with (count DESC, value ASC) tiebreak; null
    values ignored, single-value groups fine, string keys spread over
    sparse buckets."""
    import ray.data as rd

    from etl_data_validation_kio_ray.pipelines.relational import grouped_mode

    df = pd.DataFrame(
        {
            "k": ["a"] * 6 + ["b"] * 4 + ["c"],
            "v": pd.array(
                [5, 5, 3, 3, 9, None, 7, 7, 2, 2, 1], dtype="Int64"
            ),
        }
    )
    got = grouped_mode(
        rd.from_pandas(df).repartition(3), "k", "v", num_buckets=8
    )
    # a: 5 and 3 tie at 2 -> smaller value 3; b: 7 and 2 tie -> 2
    assert got["k"].tolist() == ["a", "b", "c"]
    assert got["mode"].tolist() == [3, 2, 1]
    assert got["mode_count"].tolist() == [2, 2, 1]


def test_funnel_counts_ordering_rules(ray_session):
    """Step events BEFORE the prior step's first event don't count; a
    same-timestamp event does (>=); users split across buckets sum."""
    import ray.data as rd

    from etl_data_validation_kio_ray.pipelines.relational import funnel_counts

    t0 = pd.Timestamp("2026-01-01")
    rows = [
        # u1: view -> click -> purchase, in order: all 3 steps
        (1, t0, "view"), (1, t0 + pd.Timedelta("1h"), "click"),
        (1, t0 + pd.Timedelta("2h"), "purchase"),
        # u2: clicked BEFORE first view -> stops after step 1
        (2, t0 + pd.Timedelta("1h"), "view"), (2, t0, "click"),
        # u3: click at the SAME ts as the view counts (>=), no purchase
        (3, t0, "view"), (3, t0, "click"),
        # u4: never viewed -> counts nowhere even with click+purchase
        (4, t0, "click"), (4, t0 + pd.Timedelta("1h"), "purchase"),
        # noise event type ignored
        (1, t0, "error"),
    ]
    df = pd.DataFrame(rows, columns=["user_id", "ts", "event_type"])
    got = funnel_counts(
        rd.from_pandas(df).repartition(3),
        "user_id", "ts", "event_type",
        ["view", "click", "purchase"],
        num_buckets=8,
    )
    assert got["step_name"].tolist() == ["view", "click", "purchase"]
    assert got["n_users"].tolist() == [3, 2, 1]


def test_funnel_counts_no_matching_events(ray_session):
    import ray.data as rd

    from etl_data_validation_kio_ray.pipelines.relational import funnel_counts

    df = pd.DataFrame(
        {
            "user_id": [1, 2],
            "ts": pd.to_datetime([0, 1], unit="s"),
            "event_type": ["error", "signup"],  # none of the funnel steps
        }
    )
    got = funnel_counts(
        rd.from_pandas(df), "user_id", "ts", "event_type", ["view", "click"]
    )
    assert got["n_users"].tolist() in ([0, 0], [])  # empty-safe


def test_fact_dim_cogroup_inner_semantics(ray_session):
    """Keys present on only one side drop; fact partials split across
    batches sum; dim columns ride through; post hook runs key-complete."""
    import ray.data as rd

    from etl_data_validation_kio_ray.pipelines.relational import fact_dim_cogroup

    fact = pd.DataFrame(
        {
            "k": [1, 1, 2, 3],       # key 3 has no dim row
            "n": [1, 2, 1, 5],
            "v": [10, 20, 7, 9],
        }
    )
    dim = pd.DataFrame({"k": [1, 2, 4], "name": ["a", "b", "c"]})  # key 4 no facts
    out = (
        fact_dim_cogroup(
            rd.from_pandas(fact).repartition(3),
            rd.from_pandas(dim),
            key="k",
            fact_cols=["n", "v"],
            dim_cols=["name"],
            num_buckets=4,
        )
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    want = pd.DataFrame({"k": [1, 2], "n": [3, 1], "v": [30, 7], "name": ["a", "b"]})
    pd.testing.assert_frame_equal(out, want.astype(out.dtypes.to_dict()))


def test_resolve_num_buckets_scales_with_blocks(ray_session):
    """Default bucket count tracks the plan's block count (VERDICT r3 #4):
    more input blocks -> at least proportionally more buckets, floored at
    32 for small inputs; an explicit request always wins."""
    import ray.data as rd

    from etl_data_validation_kio_ray.pipelines.relational import (
        resolve_num_buckets,
    )

    small = rd.range(100).repartition(4)
    big = rd.range(100).repartition(96)
    assert resolve_num_buckets(small) == 32          # floor
    assert resolve_num_buckets(big) >= 96            # grows with blocks
    assert resolve_num_buckets(big) > resolve_num_buckets(small)
    assert resolve_num_buckets(big, 8) == 8          # explicit wins


def test_fact_dim_cogroup_normalizes_key_dtype(ray_session):
    """An int32 fact key joins an int64 dim key without caller-side
    casts: both sides canonicalize to int64 inside pad_fact/pad_dim
    (ADVICE r3)."""
    import ray.data as rd

    from etl_data_validation_kio_ray.pipelines.relational import fact_dim_cogroup

    fact = pa.table(
        {
            "k": pa.array([1, 1, 2], type=pa.int32()),
            "n": pa.array([1, 2, 1], type=pa.int64()),
        }
    )
    dim = pa.table(
        {
            "k": pa.array([1, 2], type=pa.int64()),
            "name": pa.array(["a", "b"]),
        }
    )
    out = (
        fact_dim_cogroup(
            rd.from_arrow(fact),
            rd.from_arrow(dim),
            key="k",
            fact_cols=["n"],
            dim_cols=["name"],
        )
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    assert out["k"].tolist() == [1, 2]
    assert out["n"].tolist() == [3, 1]
    assert out["name"].tolist() == ["a", "b"]


def test_key_value_diff(ray_session):
    """All four statuses with exact counts/extents; duplicate keys on
    either side raise loudly (both the two-same-side-rows and the
    three-rows shapes); values never matter beyond hash (in)equality."""
    import ray
    import ray.data as rd

    from etl_data_validation_kio_ray.pipelines.relational import key_value_diff

    left = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
            "text": pa.array(["a", "b", "c", "d", "e"]),
        }
    )
    right = pa.table(
        {
            "doc_id": pa.array([2, 3, 4, 5, 9], pa.int64()),
            "text": pa.array(["b", "CHANGED", "d", "ALSO", "new"]),
        }
    )
    out = key_value_diff(
        rd.from_arrow(left).repartition(2),
        rd.from_arrow(right).repartition(3),
        key_col="doc_id",
        value_col="text",
    )
    got = {r["status"]: (r["n_keys"], r["key_min"], r["key_max"])
           for _, r in out.iterrows()}
    assert got == {
        "equal": (2, 2, 4),
        "changed": (2, 3, 5),
        "left_only": (1, 1, 1),
        "right_only": (1, 9, 9),
    }

    dup_same_pair = pa.table(
        {"doc_id": pa.array([7, 7], pa.int64()), "text": pa.array(["x", "y"])}
    )
    with pytest.raises(ray.exceptions.RayTaskError, match="unique per side"):
        key_value_diff(
            rd.from_arrow(dup_same_pair),
            rd.from_arrow(right),
            key_col="doc_id",
            value_col="text",
        )
    trip = pa.table(
        {"doc_id": pa.array([2, 2], pa.int64()), "text": pa.array(["x", "y"])}
    )
    with pytest.raises(ray.exceptions.RayTaskError, match="more than once"):
        key_value_diff(
            rd.from_arrow(trip),
            rd.from_arrow(right),
            key_col="doc_id",
            value_col="text",
        )


def test_pareto_frontier_2d_matches_bruteforce(ray_session):
    import duckdb
    import ray.data as rd

    from etl_data_validation_kio_ray.pipelines.relational import (
        collect_sorted,
        pareto_frontier_2d,
    )

    rng = np.random.Generator(np.random.Philox(key=[14, 7]))
    n = 900
    df = pd.DataFrame(
        {
            "pk": np.arange(n, dtype=np.int64),
            # small domains force ties on each axis AND exact (cost, gain)
            # duplicates, the strict-dominance edge cases
            "cost": rng.integers(0, 40, n).astype(np.int64),
            "gain": rng.integers(0, 40, n).astype(np.int64),
        }
    )
    got = collect_sorted(
        pareto_frontier_2d(rd.from_pandas(df).repartition(5), "cost", "gain"),
        ["pk"],
    )
    want = duckdb.sql(
        """
        SELECT pk, cost, gain FROM df a
        WHERE NOT EXISTS (
          SELECT 1 FROM df b
          WHERE b.cost <= a.cost AND b.gain >= a.gain
            AND (b.cost < a.cost OR b.gain > a.gain)
        )
        ORDER BY pk
        """
    ).df()
    for c in want.columns:
        want[c] = want[c].astype("int64")
    pd.testing.assert_frame_equal(got, want)
    assert len(got) >= 1
    # duplicated frontier points must ALL be kept (no strict dominance)
    dup = df[df.duplicated(["cost", "gain"], keep=False)].merge(
        got[["cost", "gain"]].drop_duplicates(), on=["cost", "gain"]
    )
    if len(dup):
        assert set(dup["pk"]).issubset(set(got["pk"]))

    # single-row and single-level inputs
    one = pd.DataFrame({"pk": [1], "cost": [3], "gain": [5]})
    got1 = collect_sorted(pareto_frontier_2d(rd.from_pandas(one), "cost", "gain"), ["pk"])
    assert got1["pk"].tolist() == [1]


def test_grouped_transition_counts_matches_duckdb(ray_session):
    import duckdb
    import ray.data as rd

    from etl_data_validation_kio_ray.pipelines.relational import (
        grouped_transition_counts,
    )

    rng = np.random.default_rng(7)
    n = 1200
    df = pd.DataFrame(
        {
            "uid": rng.integers(0, 60, n).astype(np.int64),
            "ts": pd.to_datetime(
                rng.integers(0, 10**6, n), unit="s", origin="2024-01-01"
            ),
            "eid": np.arange(n, dtype=np.int64),
            "et": rng.choice(list("abcd"), n),
        }
    )
    got = (
        grouped_transition_counts(
            rd.from_pandas(df).repartition(7), "uid", "ts", "eid", "et",
            num_buckets=8,
        )
        .sort_values(["from_value", "to_value"])
        .reset_index(drop=True)
    )
    got["n"] = got["n"].astype("int64")
    want = duckdb.sql(
        """
        WITH s AS (
          SELECT et AS from_value,
                 LEAD(et) OVER (PARTITION BY uid ORDER BY ts, eid) AS to_value
          FROM df
        )
        SELECT from_value, to_value, CAST(COUNT(*) AS BIGINT) AS n
        FROM s WHERE to_value IS NOT NULL
        GROUP BY 1, 2 ORDER BY 1, 2
        """
    ).df()
    pd.testing.assert_frame_equal(got, want)
    # total transitions = rows - distinct keys (each key loses one)
    assert int(got["n"].sum()) == n - df["uid"].nunique()

    # single-event users contribute nothing
    one = pd.DataFrame(
        {
            "uid": [1, 2, 3],
            "ts": pd.to_datetime(["2024-01-01", "2024-01-02", "2024-01-03"]),
            "eid": [1, 2, 3],
            "et": ["a", "b", "c"],
        }
    )
    got1 = grouped_transition_counts(
        rd.from_pandas(one), "uid", "ts", "eid", "et", num_buckets=4
    )
    assert len(got1) == 0


def test_max_run_histogram_matches_bruteforce(ray_session):
    """Gaps-and-islands over randomized (key, val) pairs with dups vs a
    pure-python per-key longest-consecutive-run computation."""
    import ray.data as rd

    from etl_data_validation_kio_ray.pipelines.relational import (
        max_run_histogram,
    )

    rng = np.random.Generator(np.random.Philox(key=[11, 4]))
    n = 3000
    keys = rng.integers(0, 40, n).astype(np.int64)
    vals = rng.integers(0, 25, n).astype(np.int64)
    df = pd.DataFrame({"k": keys, "v": vals})

    def brute_best(vs):
        vs = sorted(set(vs))
        best = run = 1
        for a, b in zip(vs, vs[1:]):
            run = run + 1 if b == a + 1 else 1
            best = max(best, run)
        return best

    expect = (
        df.groupby("k")["v"]
        .apply(lambda s: brute_best(s.tolist()))
        .value_counts()
        .sort_index()
    )
    ds = rd.from_pandas(df).repartition(7)
    out = max_run_histogram(ds, "k", "v", num_buckets=5)
    got = dict(zip(out["run_len"], out["n_keys"]))
    assert got == {int(k): int(v) for k, v in expect.items()}
    assert out["run_len"].dtype == "int64" and out["n_keys"].dtype == "int64"


def test_max_run_histogram_empty(ray_session):
    import ray.data as rd

    from etl_data_validation_kio_ray.pipelines.relational import (
        max_run_histogram,
    )

    ds = rd.from_pandas(
        pd.DataFrame({"k": pd.Series([], dtype="int64"),
                      "v": pd.Series([], dtype="int64")})
    )
    out = max_run_histogram(ds, "k", "v")
    assert out.empty and list(out.columns) == ["run_len", "n_keys"]


def test_grouped_topk_distinct_matches_pandas(ray_session):
    """DENSE_RANK()<=k with-ties semantics vs a pandas reference,
    including cross-batch count merging and tie multiplicities."""
    import ray.data as rd

    from etl_data_validation_kio_ray.pipelines.relational import (
        collect_sorted,
        grouped_topk_distinct,
    )

    rng = np.random.Generator(np.random.Philox(key=[3, 9]))
    n = 4000
    df = pd.DataFrame(
        {
            "g": rng.integers(0, 12, n).astype(np.int64),
            "v": rng.integers(0, 30, n).astype(np.int64),
        }
    )
    k = 4
    out = collect_sorted(
        grouped_topk_distinct(
            rd.from_pandas(df).repartition(9), "g", "v", k, num_buckets=5
        ),
        ["g", "rk"],
    )
    exp_rows = []
    for g, sub in df.groupby("g"):
        counts = sub["v"].value_counts().sort_index(ascending=False)
        for rk, (v, c) in enumerate(counts.items(), start=1):
            if rk > k:
                break
            exp_rows.append((int(g), int(v), int(c), rk))
    exp = pd.DataFrame(exp_rows, columns=["g", "v", "n", "rk"])
    got = out[["g", "v", "n", "rk"]].astype("int64").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, exp.astype("int64"))


def test_grouped_topk_distinct_ascending_and_k1(ray_session):
    import ray.data as rd

    from etl_data_validation_kio_ray.pipelines.relational import (
        collect_sorted,
        grouped_topk_distinct,
    )

    df = pd.DataFrame(
        {"g": [1, 1, 1, 2, 2], "v": [5, 5, 9, 2, 7]}
    ).astype(np.int64)
    out = collect_sorted(
        grouped_topk_distinct(
            rd.from_pandas(df), "g", "v", 1, descending=False
        ),
        ["g"],
    )
    assert out[["g", "v", "n"]].values.tolist() == [[1, 5, 2], [2, 2, 1]]


def test_kcenter_greedy_matches_bruteforce(ray_session):
    """Distributed greedy farthest-point parity with a single-process
    numpy implementation, incl. deterministic id tie-breaks."""
    import ray.data as rd

    from etl_data_validation_kio_ray.similarity.ann import kcenter_greedy

    rng = np.random.Generator(np.random.Philox(key=[21, 2]))
    n, d, k = 200, 8, 6
    vecs = rng.normal(size=(n, d)).astype(np.float64)
    ids = np.arange(100, 100 + n, dtype=np.int64)
    df = pd.DataFrame({"vec_id": ids, "embedding": list(vecs)})
    ds = rd.from_pandas(df).repartition(7)
    got_ids, got_radii = kcenter_greedy(ds, k)

    # brute force with identical tie rules
    nrm = (vecs * vecs).sum(axis=1)
    seed = np.lexsort((ids, -nrm))[0]
    sel = [seed]
    radii = []
    for _ in range(k):
        c = vecs[sel]
        d2 = (
            (vecs * vecs).sum(axis=1)[:, None]
            - 2.0 * vecs @ c.T
            + (c * c).sum(axis=1)[None, :]
        ).min(axis=1)
        j = np.lexsort((ids, -d2))[0]
        radii.append(float(np.sqrt(max(d2[j], 0.0))))
        if len(sel) >= k:
            break
        sel.append(j)
    assert got_ids == [int(ids[s]) for s in sel]
    assert np.allclose(got_radii, radii, rtol=0, atol=0)
    assert all(b <= a + 1e-12 for a, b in zip(got_radii, got_radii[1:]))


def test_conversion_within_matches_bruteforce(ray_session):
    """Windowed conversion join vs an O(n^2) python reference over
    randomized event streams (incl. same-timestamp exclusion)."""
    import ray.data as rd

    from etl_data_validation_kio_ray.pipelines.relational import (
        conversion_within,
    )

    rng = np.random.Generator(np.random.Philox(key=[5, 14]))
    n = 2500
    base = pd.Timestamp("2026-02-01").value // 1000  # us
    df = pd.DataFrame(
        {
            "user_id": rng.integers(0, 60, n).astype(np.int64),
            "ts": (base + rng.integers(0, 86_400_000_000 * 10, n)),
            "event_type": rng.choice(["a", "b", "noise"], n),
        }
    )
    W = 6 * 3600 * 1_000_000
    ds = rd.from_pandas(
        df.assign(ts=pd.to_datetime(df["ts"], unit="us"))
    ).repartition(8)
    got = conversion_within(
        ds, "user_id", "ts", "event_type",
        from_type="a", to_type="b", window_us=W, num_buckets=4,
    )

    a = df[df["event_type"] == "a"]
    b = df[df["event_type"] == "b"]
    rows = {}
    for _, r in a.iterrows():
        day = int(r["ts"]) // 86_400_000_000
        hit = (
            (b["user_id"] == r["user_id"])
            & (b["ts"] > r["ts"])
            & (b["ts"] <= r["ts"] + W)
        ).any()
        d = rows.setdefault(day, [0, 0])
        d[0] += 1
        d[1] += int(hit)
    exp = pd.DataFrame(
        [(k, v[0], v[1]) for k, v in sorted(rows.items())],
        columns=["day", "n_from", "n_converted"],
    ).astype("int64")
    pd.testing.assert_frame_equal(got, exp)


def test_read_evolved_parquet_promotes_and_nullfills(ray_session, tmp_path):
    import pyarrow.parquet as pq
    import pytest

    from etl_data_validation_kio_ray.sources.evolve import (
        _superset_schema,
        read_evolved_parquet,
    )

    v1 = tmp_path / "v1"; v1.mkdir()
    v2 = tmp_path / "v2"; v2.mkdir()
    pq.write_table(
        pa.table({"id": pa.array([1, 2], pa.int32())}), v1 / "a.parquet"
    )
    pq.write_table(
        pa.table(
            {"id": pa.array([3], pa.int64()), "tag": pa.array(["x"])}
        ),
        v2 / "a.parquet",
    )
    ds = read_evolved_parquet([str(v1), str(v2)])
    out = ds.to_pandas().sort_values("id").reset_index(drop=True)
    assert out["id"].tolist() == [1, 2, 3]
    assert out["tag"].tolist()[:2] == [None, None] and out["tag"][2] == "x"
    # int32 promoted to int64 in the superset schema
    sch = _superset_schema(
        [pq.read_schema(v1 / "a.parquet"), pq.read_schema(v2 / "a.parquet")]
    )
    assert sch.field("id").type == pa.int64()
    # incompatible types raise loudly
    v3 = tmp_path / "v3"; v3.mkdir()
    pq.write_table(pa.table({"id": pa.array(["s"])}), v3 / "a.parquet")
    with pytest.raises(ValueError, match="incompatible"):
        read_evolved_parquet([str(v1), str(v3)])


def test_new_primitives_empty_inputs(ray_session):
    """Zero-row inputs produce typed empty results (the schemaless
    empty-dataset gotcha) for the session-10 primitives."""
    import ray.data as rd

    from etl_data_validation_kio_ray.pipelines.relational import (
        collect_sorted,
        conversion_within,
        grouped_topk_distinct,
    )

    empty_ev = rd.from_pandas(
        pd.DataFrame(
            {
                "user_id": pd.Series([], dtype="int64"),
                "ts": pd.Series([], dtype="datetime64[us]"),
                "event_type": pd.Series([], dtype="object"),
            }
        )
    )
    out = conversion_within(
        empty_ev, "user_id", "ts", "event_type",
        from_type="a", to_type="b", window_us=1000,
    )
    assert out.empty
    assert list(out.columns) == ["day", "n_from", "n_converted"]

    empty_kv = rd.from_pandas(
        pd.DataFrame(
            {
                "g": pd.Series([], dtype="object"),
                "v": pd.Series([], dtype="int64"),
            }
        )
    )
    got = collect_sorted(
        grouped_topk_distinct(empty_kv, "g", "v", 3), ["g", "rk"]
    )
    assert got.empty and list(got.columns) == ["g", "v", "n", "rk"]


def test_rank_and_prefix_layout_invariance(ray_session):
    """Block-layout invariance of the global ranking and prefix-sum
    primitives: the SAME logical input split 3 different ways must
    produce byte-identical rank/prefix columns (the property every
    driver-scored window query rests on)."""
    import ray.data as rd

    from etl_data_validation_kio_ray.pipelines.relational import (
        collect_sorted,
        global_prefix_sum,
        global_row_number,
    )

    rng = np.random.Generator(np.random.Philox(key=[31, 7]))
    n = 5000
    df = pd.DataFrame(
        {
            "id": np.arange(n, dtype=np.int64),
            "v": rng.integers(0, 400, n).astype(np.int64),
            "w": rng.integers(1, 9, n).astype(np.int64),
        }
    )
    outs = []
    for parts in (2, 7, 23):
        ds = rd.from_pandas(df).repartition(parts)
        ranked, n_total = global_row_number(ds, ["v", "id"], out_col="rn")
        assert n_total == n
        got = collect_sorted(ranked, ["rn"])[["id", "v", "rn"]]
        outs.append(got.reset_index(drop=True))
    pd.testing.assert_frame_equal(outs[0], outs[1])
    pd.testing.assert_frame_equal(outs[0], outs[2])

    pouts = []
    for parts in (3, 11):
        ds = rd.from_pandas(df).repartition(parts)
        ranked, totals = global_prefix_sum(
            ds, ["v", "id"], "w", out_col="pre"
        )
        got = collect_sorted(ranked, ["v", "id"])[["id", "pre"]]
        pouts.append((got.reset_index(drop=True), totals))
    pd.testing.assert_frame_equal(pouts[0][0], pouts[1][0])
    assert pouts[0][1] == pouts[1][1]


def test_ipc_source_roundtrip_and_schema_flag(ray_session, tmp_path):
    """IPC sink -> reader roundtrip preserves the nested token column
    bit-exact; a shard missing a required column surfaces in
    SCHEMA_ERROR_COL instead of killing the read."""
    import ray.data as rd

    from etl_data_validation_kio_ray.sources.ipc import (
        read_token_ipc,
        write_token_ipc,
    )
    from etl_data_validation_kio_ray.sources.jsonl import (
        SCHEMA_ERROR_COL,
        TOKEN_SCHEMA,
    )

    src = pa.table(
        {
            "doc_id": pa.array(["a1", "a2"], pa.string()),
            "tokens": pa.array([[1, 2, 3], []], pa.list_(pa.int32())),
            "n_tok": pa.array([3, 0], pa.int32()),
            "source": pa.array(["web", "books"], pa.string()),
        }
    )
    out = tmp_path / "ipc"
    manifest = write_token_ipc(rd.from_arrow(src), str(out))
    assert sum(m["rows"] for m in manifest) == 2
    t = pa.concat_tables(
        b
        for b in read_token_ipc(str(out), partition="pi").iter_batches(
            batch_format="pyarrow", batch_size=10
        )
    )
    t = t.sort_by("doc_id")
    assert t.schema.equals(TOKEN_SCHEMA)
    assert t["tokens"].to_pylist() == [[1, 2, 3], []]
    assert t["partition"].to_pylist() == ["pi", "pi"]

    bad_dir = tmp_path / "ipc_bad"
    write_token_ipc(rd.from_arrow(src.drop_columns(["tokens"])), str(bad_dir))
    bad = pa.concat_tables(
        b
        for b in read_token_ipc(str(bad_dir)).iter_batches(
            batch_format="pyarrow", batch_size=10
        )
    )
    assert SCHEMA_ERROR_COL in bad.column_names
    msgs = [m for m in bad[SCHEMA_ERROR_COL].to_pylist() if m]
    assert msgs and "tokens" in msgs[0]


def test_global_exclusive_running_max_matches_numpy(ray_session):
    """Exclusive running max over a shuffled order equals the numpy
    reference on every row, across arbitrary block splits."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from etl_data_validation_kio_ray.pipelines.relational import (
        INT64_MIN,
        global_exclusive_running_max,
    )

    rng = np.random.default_rng(7)
    n = 5000
    order = rng.permutation(n).astype(np.int64)
    vals = rng.integers(-10**9, 10**9, n).astype(np.int64)
    ds = rd.from_arrow(
        pa.table({"k": pa.array(order), "v": pa.array(vals)})
    ).repartition(13)
    out = (
        global_exclusive_running_max(ds, ["k"], "v", out_col="rm")
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    by_order = vals[np.argsort(order, kind="stable")]
    expect = np.r_[
        np.int64(INT64_MIN), np.maximum.accumulate(by_order)[:-1]
    ]
    assert (out["rm"].to_numpy() == expect).all()
    assert out["rm"].iloc[0] == INT64_MIN


def test_video_frame_sample_stage_geometry():
    """Frame sampler slices exactly every stride-th frame with correct
    per-frame byte sums, for both stride=1 (all frames) and stride=4."""
    import numpy as np
    import pyarrow as pa

    from etl_data_validation_kio_ray.multimodal.decode import (
        VideoFrameSampleStage,
        synthesize_video_batch,
    )

    src = pa.table({"doc_id": pa.array([str(i) for i in range(7)])})
    vids = synthesize_video_batch(src, algo="sha256")
    for stride in (1, 4):
        stage = VideoFrameSampleStage(stride=stride)
        out = stage(vids)
        # python reference over raw payload bytes
        rows = []
        for i in range(vids.num_rows):
            p = vids["payload"][i].as_py()
            nf = vids["n_frames"][i].as_py()
            fb = vids["frame_bytes"][i].as_py()
            assert len(p) == nf * fb
            for f in range(0, nf, stride):
                rows.append(
                    (
                        vids["doc_id"][i].as_py(),
                        f,
                        fb,
                        int(np.frombuffer(
                            p[f * fb : (f + 1) * fb], dtype=np.uint8
                        ).sum()),
                    )
                )
        got = list(
            zip(
                out["doc_id"].to_pylist(),
                out["frame_idx"].to_pylist(),
                out["f_len"].to_pylist(),
                out["f_energy"].to_pylist(),
            )
        )
        assert got == rows

    empty = vids.slice(0, 0)
    out0 = VideoFrameSampleStage(stride=4)(empty)
    assert out0.num_rows == 0


def test_triangle_stats_known_graph():
    from etl_data_validation_kio_ray.pipelines.graph import triangle_stats

    # K4 plus one pendant vertex plus one isolate
    adj = np.zeros((6, 6), dtype=bool)
    for i in range(4):
        for j in range(4):
            if i != j:
                adj[i, j] = True
    adj[3, 4] = adj[4, 3] = True
    st = triangle_stats(adj)
    assert st["n_nodes"] == 5
    assert st["n_edges"] == 7
    assert st["n_triangles"] == 4  # C(4,3)
    # degrees 3,3,3,4,1,0 -> wedges 3+3+3+6+0 = 15
    assert st["n_wedges"] == 15
    assert st["clustering_ppm"] == 3_000_000 * 4 // 15
    empty = triangle_stats(np.zeros((0, 0), dtype=bool))
    assert empty["n_triangles"] == 0 and empty["clustering_ppm"] == 0


def test_cooccurrence_adjacency_matches_bruteforce(ray_session):
    import ray.data as rd

    from etl_data_validation_kio_ray.pipelines.graph import (
        cooccurrence_adjacency,
    )

    rng = np.random.Generator(np.random.Philox(key=[3, 9]))
    n = 5_000
    df = pd.DataFrame(
        {
            "g": rng.integers(0, 800, n).astype(np.int64),
            "v": rng.integers(0, 40, n).astype(np.int64) * 3 + 1,
        }
    )
    nodes = np.sort(df["v"].unique())
    adj = cooccurrence_adjacency(
        rd.from_pandas(df).repartition(7), "g", "v", nodes
    )
    expect = np.zeros((len(nodes), len(nodes)), dtype=bool)
    pos = {k: i for i, k in enumerate(nodes)}
    for _, sub in df.groupby("g"):
        idx = [pos[v] for v in sub["v"].unique()]
        for a in idx:
            for b in idx:
                if a != b:
                    expect[a, b] = True
    assert np.array_equal(adj, expect)


def test_proration_preserves_order_totals(ray_session):
    """Largest-remainder invariant: every audited order's allocated
    cents sum EXACTLY to its total, and each share is within 1 cent of
    the exact proportional value."""
    import sys

    sys.path.insert(0, "/root/repo")
    import __ray_entry__ as m

    sf = "/root/testdata/sf0.001"
    out = m.q_order_price_proration(sf)
    orders = pd.read_parquet(
        f"{sf}/orders.parquet", columns=["o_orderkey", "o_totalprice"]
    )
    orders = orders[orders["o_orderkey"] % 16 == 0]
    tot = (orders["o_totalprice"] * 100).round().astype("int64")
    tot.index = orders["o_orderkey"].to_numpy()
    got = out.groupby("l_orderkey")["prorated_c"].sum()
    # inner-join semantics: audited orders that have lineitems
    common = got.index.intersection(tot.index)
    assert len(common) == len(got)
    assert (got.loc[common] == tot.loc[common]).all()


def test_skyline_mask_matches_bruteforce():
    """Planted ties (duplicate points, same-cost groups, same-gain
    chains) plus a seeded random sweep vs the O(n^2) dominance
    definition."""
    import numpy as np

    from etl_data_validation_kio_ray.pipelines.relational import skyline_mask

    def brute(cost, gain):
        n = len(cost)
        keep = np.ones(n, dtype=bool)
        for i in range(n):
            for j in range(n):
                if (
                    cost[j] <= cost[i]
                    and gain[j] >= gain[i]
                    and (cost[j] < cost[i] or gain[j] > gain[i])
                ):
                    keep[i] = False
                    break
        return keep

    planted = [
        (np.array([1, 1, 2, 2, 3]), np.array([5, 5, 6, 4, 7])),
        (np.array([1]), np.array([1])),
        (np.array([2, 2, 2]), np.array([3, 3, 3])),  # all duplicates
        (np.array([1, 2, 3]), np.array([3, 2, 1])),  # anti-correlated
        (np.array([1, 2, 3]), np.array([1, 2, 3])),  # dominated chain
    ]
    for cost, gain in planted:
        got = skyline_mask(cost.astype(np.int64), gain.astype(np.int64))
        assert (got == brute(cost, gain)).all(), (cost, gain)

    rng = np.random.default_rng(7)
    for _ in range(20):
        cost = rng.integers(0, 8, size=60).astype(np.int64)
        gain = rng.integers(0, 8, size=60).astype(np.int64)
        assert (skyline_mask(cost, gain) == brute(cost, gain)).all()

    assert skyline_mask(np.array([], np.int64), np.array([], np.int64)).size == 0


def test_key_containment_planted(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from etl_data_validation_kio_ray.pipelines.relational import (
        key_containment,
    )

    child = rd.from_arrow(
        pa.table({"k": pa.array([1, 2, 2, 3, None, 7], pa.int64())})
    )
    parent = rd.from_arrow(pa.table({"p": pa.array([2, 3, 4], pa.int32())}))
    n_child, n_contained = key_containment(child, parent, "k", "p")
    assert (n_child, n_contained) == (4, 2)  # {1,2,3,7}; {2,3} contained


def test_skyline_gather_cap_raises(ray_session, monkeypatch):
    """A full-frontier diagonal exceeding the gather cap must raise
    loudly, never truncate silently."""
    import numpy as np
    import pyarrow as pa
    import pytest
    import ray.data as rd

    import etl_data_validation_kio_ray.pipelines.relational as rel

    n = 100
    # pay-more-get-more diagonal: every point is on the frontier
    ds = rd.from_arrow(
        pa.table(
            {
                "cost": pa.array(np.arange(n, dtype=np.int64)),
                "gain": pa.array(np.arange(n, dtype=np.int64)),
            }
        )
    )
    monkeypatch.setattr(rel, "SKYLINE_MAX_CANDIDATES", 10)
    with pytest.raises(ValueError, match="gather cap"):
        rel.skyline_2d(ds, "cost", "gain")


def test_key_containment_empty_sides(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from etl_data_validation_kio_ray.pipelines.relational import (
        key_containment,
    )

    empty = rd.from_arrow(pa.table({"k": pa.array([], pa.int64())}))
    parent = rd.from_arrow(pa.table({"p": pa.array([1, 2], pa.int64())}))
    assert key_containment(empty, parent, "k", "p") == (0, 0)
    child = rd.from_arrow(pa.table({"k": pa.array([1, 2, 3], pa.int64())}))
    pempty = rd.from_arrow(pa.table({"p": pa.array([], pa.int64())}))
    assert key_containment(child, pempty, "k", "p") == (3, 0)


def test_storage_profile_multifile(ray_session, tmp_path):
    """Two files of one logical table fold into per-column totals that
    match reading each footer by hand."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from etl_data_validation_kio_ray.sources.storage import (
        _profile_one,
        storage_profile,
    )

    p1 = str(tmp_path / "a.parquet")
    p2 = str(tmp_path / "b.parquet")
    pq.write_table(pa.table({"x": list(range(1000)), "y": ["s"] * 1000}), p1)
    pq.write_table(pa.table({"x": [7], "y": ["t"]}), p2)
    prof = storage_profile({"a": p1, "b": p2})
    assert set(prof["tbl"]) == {"a", "b"}
    byhand = {(r["tbl"], r["column"]): r for r in _profile_one("a", p1)}
    for _i, row in prof[prof["tbl"] == "a"].iterrows():
        hb = byhand[("a", row["column"])]
        assert row["compressed"] == hb["compressed"]
        assert row["uncompressed"] == hb["uncompressed"]


# ------------------------------------------------- bucket exchange contract


@pytest.fixture()
def one_cpu(ray_session):
    """Ray Data executions limited to one CPU, the shape of a 1-CPU
    session (one task at a time, ranges finishing in order)."""
    from ray.data import DataContext, ExecutionResources

    opts = DataContext.get_current().execution_options
    prev = opts.resource_limits
    opts.resource_limits = ExecutionResources(cpu=1)
    yield
    opts.resource_limits = prev


EXCHANGE_SCHEMA = pa.schema([("k", pa.int64()), ("n", pa.int64())])


def _count_keys(rows: pa.Table, _b: int) -> pa.Table:
    g = rows.group_by("k").aggregate([("k", "count")])
    return pa.table([g["k"], g["k_count"]], schema=EXCHANGE_SCHEMA)


def _exchange_input(keys: np.ndarray, blocks: int = 4):
    import ray.data as rd

    parts = np.array_split(keys.astype(np.int64), blocks)
    return rd.from_arrow([pa.table({"k": pa.array(p, pa.int64())}) for p in parts])


def _check_typed(out, expected: pd.DataFrame):
    from etl_data_validation_kio_ray.pipelines.relational import (
        collect_sorted,
        dataset_arrow_schema,
    )

    assert dataset_arrow_schema(out) == EXCHANGE_SCHEMA
    got = collect_sorted(out, ["k"])
    assert list(got.columns) == ["k", "n"]
    assert (got.dtypes == np.dtype("int64")).all()
    exp = expected.sort_values("k").reset_index(drop=True).astype("int64")
    pd.testing.assert_frame_equal(got, exp)


def test_bucket_exchange_zero_row_input_is_typed(one_cpu):
    from etl_data_validation_kio_ray.pipelines.relational import bucket_exchange

    out = bucket_exchange(
        _exchange_input(np.array([], np.int64)), "k", _count_keys,
        schema=EXCHANGE_SCHEMA, num_buckets=8,
    )
    _check_typed(out, pd.DataFrame({"k": [], "n": []}))


@pytest.mark.parametrize(
    "keys", [np.full(200, 7), np.array([42])], ids=["hot", "one_row"]
)
def test_bucket_exchange_hot_key_and_one_row(one_cpu, keys):
    from etl_data_validation_kio_ray.pipelines.relational import bucket_exchange

    out = bucket_exchange(
        _exchange_input(keys), "k", _count_keys, schema=EXCHANGE_SCHEMA, num_buckets=8
    )
    _check_typed(out, pd.DataFrame({"k": [int(keys[0])], "n": [len(keys)]}))


def test_bucket_exchange_empty_buckets_and_bucket_id(one_cpu):
    """A reducer that returns no rows for the even buckets: the result
    is the odd buckets' keys, each bucket id is the one key_buckets
    gives, and the dataset stays typed."""
    from etl_data_validation_kio_ray.pipelines.relational import (
        bucket_exchange,
        key_buckets,
    )

    keys = np.arange(40, dtype=np.int64)
    seen = key_buckets(pa.array(keys), 8)

    def odd_only(rows: pa.Table, b: int) -> pa.Table:
        ks = rows["k"].to_numpy()
        assert (key_buckets(pa.array(ks), 8) == b).all()
        return _count_keys(rows, b) if b % 2 else EXCHANGE_SCHEMA.empty_table()

    out = bucket_exchange(
        _exchange_input(keys), "k", odd_only, schema=EXCHANGE_SCHEMA, num_buckets=8
    )
    kept = keys[seen % 2 == 1]
    assert 0 < len(kept) < len(keys)
    _check_typed(out, pd.DataFrame({"k": kept, "n": np.ones(len(kept), np.int64)}))


def test_bucket_exchange_rejects_output_off_schema(one_cpu):
    import pyarrow.compute as pc

    from etl_data_validation_kio_ray.pipelines.relational import bucket_exchange

    def wrong(rows: pa.Table, _b: int) -> pa.Table:
        return pa.table({"k": rows["k"], "n": pc.cast(rows["k"], pa.int32())})

    out = bucket_exchange(
        _exchange_input(np.arange(10)),
        "k",
        wrong,
        schema=EXCHANGE_SCHEMA,
        num_buckets=8,
    )
    off_schema = r"(?s)reducer \S*wrong returned.*does not match the declared schema"
    with pytest.raises(ValueError, match=off_schema):
        out.materialize()


def test_bucket_exchange_chained(one_cpu):
    """Two exchanges in a row: count rows per key, then count keys per
    count — the second stage packs inside the first one's reduce."""
    from etl_data_validation_kio_ray.pipelines.relational import bucket_exchange

    keys = np.repeat(np.arange(30), np.arange(30) % 4 + 1)

    def keys_per_count(rows: pa.Table, _b: int) -> pa.Table:
        g = rows.group_by("n").aggregate([("k", "count")])
        return pa.table([g["n"], g["k_count"]], schema=EXCHANGE_SCHEMA)

    stage1 = bucket_exchange(
        _exchange_input(keys), "k", _count_keys, schema=EXCHANGE_SCHEMA, num_buckets=8
    )
    out = bucket_exchange(
        stage1, "n", keys_per_count, schema=EXCHANGE_SCHEMA, num_buckets=8
    )
    per_count = pd.Series(np.arange(30) % 4 + 1).value_counts()
    _check_typed(out, pd.DataFrame({"k": per_count.index, "n": per_count.values}))
