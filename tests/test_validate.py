"""End-to-end validation pipeline vs the single-process oracle."""

import os

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

from etl_data_validation_kio_ray.pipelines.validate import ValidationPipeline
from etl_data_validation_kio_ray.sources.synth import (
    generate_token_table,
    make_partition,
)

from .oracle import load_df, oracle_violations

ALLOWED = ["web", "books", "code", "wiki"]  # forums absent (FIXTURES.md F2)


def violations_df(result) -> pd.DataFrame:
    t = result.violations()
    return pd.DataFrame({c: t[c].to_pylist() for c in t.column_names})


def assert_violations_equal(engine_df: pd.DataFrame, oracle_df: pd.DataFrame):
    e = engine_df.reset_index(drop=True)
    o = oracle_df.reset_index(drop=True)
    assert len(e) == len(o), f"{len(e)} engine vs {len(o)} oracle rows"
    pd.testing.assert_frame_equal(e, o, check_dtype=False)


def test_clean_table_verdicts(ray_session, tiny_table, tmp_path):
    pipe = ValidationPipeline(allowed_sources=ALLOWED, shard_size=2)
    res = pipe.run(tiny_table, str(tmp_path / "run"))
    assert len(res.partitions) == 4
    # clean data: only source_ref fails (forums rows exist by skew)
    by_rule = {}
    for c in res.verdicts:
        by_rule.setdefault(c.rule_id, []).append(c)
    assert all(c.status == "PASS" for c in by_rule["schema_types"])
    assert all(c.status == "PASS" for c in by_rule["row_invariants"])
    assert all(c.status == "PASS" for c in by_rule["doc_id_unique"])
    srcs = by_rule["source_ref"]
    assert any(c.status == "FAIL" for c in srcs)  # ~1% forums rows

    oracle = oracle_violations(tiny_table, allowed_sources=ALLOWED)
    assert_violations_equal(violations_df(res), oracle)

    # engine counts match oracle per rule
    eng_counts = {
        (c.partition, c.rule_id): c.rows_failed
        for c in res.verdicts
        if c.rule_id == "source_ref"
    }
    want = (
        oracle[oracle.rule_id == "source_ref"]
        .groupby("partition")
        .size()
        .to_dict()
    )
    for part in res.partitions:
        assert eng_counts[(part, "source_ref")] == want.get(part, 0)


def test_exact_stats_match_oracle(ray_session, tiny_table, tmp_path):
    pipe = ValidationPipeline(allowed_sources=ALLOWED)
    res = pipe.run(tiny_table, str(tmp_path / "run"))
    df = load_df(tiny_table)
    g = res.metrics["global"]
    assert g["rows_total"] == len(df)
    assert g["n_tok"]["min"] == int(df.n_tok.min())
    assert g["n_tok"]["max"] == int(df.n_tok.max())
    assert g["n_tok"]["sum"] == int(df.n_tok.sum())
    # exact counting-hist quantiles == duckdb quantile_disc
    import duckdb

    con = duckdb.connect()
    con.register("t", df[["n_tok"]])
    for q, key in [(0.5, "p50"), (0.95, "p95"), (0.99, "p99")]:
        want = con.execute(f"SELECT quantile_disc(n_tok, {q}) FROM t").fetchone()[0]
        assert g["n_tok"][key] == want
    # HLL estimate close to exact cardinality
    assert abs(g["doc_id_cardinality_est"] - df.doc_id.nunique()) / len(df) < 0.05


def test_resume_skips_completed(ray_session, tiny_table, tmp_path):
    out = str(tmp_path / "run")
    pipe = ValidationPipeline(allowed_sources=ALLOWED, shard_size=2)
    res1 = pipe.run(tiny_table, out)
    v1 = violations_df(res1)
    mtimes = {
        f: os.path.getmtime(os.path.join(out, "_manifests", f))
        for f in os.listdir(os.path.join(out, "_manifests"))
    }
    res2 = pipe.run(tiny_table, out, resume=True)  # no pending work
    v2 = violations_df(res2)
    pd.testing.assert_frame_equal(v1, v2)
    # narrow-pass shard outputs were not rebuilt (same stats re-read)
    assert res2.metrics["global"]["rows_total"] == res1.metrics["global"]["rows_total"]


def test_audit_trail_survives_crash_resume(ray_session, tiny_table, tmp_path):
    """The append-only audit journal (tech.etl_load_audit analog) keeps
    the FULL chronological event history across a crash + resume: both
    run_start/run_end pairs, the resume's skip event, and a second
    claim/finish for the re-validated partition — nothing overwritten."""
    from etl_data_validation_kio_ray.state.checkpoint import RunState
    from etl_data_validation_kio_ray.state.report import run_report

    out = str(tmp_path / "run")
    pipe = ValidationPipeline(allowed_sources=ALLOWED, shard_size=2)
    pipe.run(tiny_table, out)
    state = RunState(out)
    parts = sorted(m.partition for m in state.all_manifests())
    # simulate a crash that lost one partition's manifest commit
    lost = parts[0]
    os.remove(os.path.join(out, "_manifests", f"{lost}.json"))
    pipe.run(tiny_table, out, resume=True)

    ev = state.audit.events()
    kinds = [e["event"] for e in ev]
    assert kinds.count("run_start") == 2
    assert kinds.count("run_end") == 2
    # the lost partition was claimed in BOTH runs, the others only once
    claim_parts = [e["partition"] for e in ev if e["event"] == "claim"]
    assert claim_parts.count(lost) == 2
    assert all(claim_parts.count(p) == 1 for p in parts[1:])
    # the resume logged exactly the completed partitions as skipped
    skips = [e for e in ev if e["event"] == "resume_skip"]
    assert len(skips) == 1 and sorted(skips[0]["partitions"]) == parts[1:]
    # after the second run_start, the lost partition was re-finished
    second_start = max(i for i, k in enumerate(kinds) if k == "run_start")
    refinished = {
        e["partition"] for e in ev[second_start:] if e["event"] == "finish"
    }
    assert lost in refinished
    # chronological: timestamps never decrease
    ts = [e["ts"] for e in ev]
    assert ts == sorted(ts)
    # the journal surfaces in the run report
    assert "audit trail" in run_report(out)


def test_batching_invariance(ray_session, tiny_table, tmp_path):
    """Violations identical regardless of batch size / shard grouping."""
    a = ValidationPipeline(allowed_sources=ALLOWED, shard_size=1, batch_size=64).run(
        tiny_table, str(tmp_path / "a")
    )
    b = ValidationPipeline(allowed_sources=ALLOWED, shard_size=4, batch_size=997).run(
        tiny_table, str(tmp_path / "b")
    )
    pd.testing.assert_frame_equal(violations_df(a), violations_df(b))


def test_generator_determinism(tmp_path):
    t1 = make_partition(3, 100)
    t2 = make_partition(3, 100)
    assert t1.equals(t2)
    # per-row token-array equality of generated vs re-generated data
    assert t1["tokens"].to_pylist() == t2["tokens"].to_pylist()


def test_cross_check_agreement(ray_session, tmp_path):
    """DuckDB second-executor agreement: clean AND mutated inputs must
    produce identical per-(partition, rule) counts from both executors;
    a doctored engine verdict must be flagged as disagreement."""
    from etl_data_validation_kio_ray.pipelines.crosscheck import cross_check_run
    from etl_data_validation_kio_ray.pipelines.validate import ValidationPipeline
    from etl_data_validation_kio_ray.sources.mutations import mutate_table
    from etl_data_validation_kio_ray.sources.synth import generate_token_table

    clean = generate_token_table(str(tmp_path / "c"), partitions=4, rows_per_partition=150)
    pipe = ValidationPipeline(allowed_sources=["web", "books", "code", "wiki"])
    res = pipe.run(clean, str(tmp_path / "o1"))
    agree = cross_check_run(clean, res, pipe.rules)
    assert len(agree) > 0 and agree.agree.all(), agree[~agree.agree]
    # covers every narrow rule + stats + global uniqueness
    assert {"schema_types", "completeness_nulls", "row_invariants",
            "source_ref", "column_stats", "doc_id_unique"} <= set(agree.rule_id)

    for action in ("corrupt_id", "unknown_source", "duplicate_first", "drop_required"):
        mut = mutate_table(clean, str(tmp_path / f"m_{action}"), action)
        pipe2 = ValidationPipeline(allowed_sources=["web", "books", "code", "wiki"])
        res2 = pipe2.run(mut, str(tmp_path / f"o_{action}"))
        a2 = cross_check_run(mut, res2, pipe2.rules)
        assert a2.agree.all(), (action, a2[~a2.agree])

    # sampled partitions: subset checked, run-scope rule skipped
    sub = cross_check_run(clean, res, pipe.rules, partitions=["part-0001"])
    assert set(sub.partition) == {"part-0001"}
    assert "doc_id_unique" not in set(sub.rule_id)

    # a wrong engine count MUST surface as disagreement
    import copy

    bad = copy.deepcopy(res)
    for c in bad.verdicts:
        if c.rule_id == "row_invariants" and c.partition == "part-0000":
            c.rows_failed += 7
    a3 = cross_check_run(clean, bad, pipe.rules)
    assert not a3[
        (a3.partition == "part-0000") & (a3.rule_id == "row_invariants")
    ].agree.any()


def test_row_gate_quarantines_before_rules(ray_session, tmp_path):
    """Declarative row gate (the reference's http_status-BETWEEN gating
    filter analog): failing rows are counted + emitted as violations
    and EXCLUDED from every downstream rule's totals."""
    from etl_data_validation_kio_ray.core.specs import RuleSpec, default_rules
    from etl_data_validation_kio_ray.pipelines.validate import ValidationPipeline
    from etl_data_validation_kio_ray.sources.synth import generate_token_table

    clean = generate_token_table(str(tmp_path / "c"), partitions=2, rows_per_partition=120)
    rules = dict(default_rules(allowed_sources=["web", "books", "code", "wiki", "forums"]))
    rules["row_gate"] = RuleSpec(
        "row_gate",
        "invariants",
        "warning",
        params={"predicates": [("source", "not_in", ["web"]), ("n_tok", ">=", 1)]},
    )
    pipe = ValidationPipeline(rules)
    res = pipe.run(clean, str(tmp_path / "o"))

    gate_checks = [c for c in res.verdicts if c.rule_id == "row_gate"]
    assert gate_checks and sum(c.rows_failed for c in gate_checks) > 0
    # downstream stats only saw surviving rows
    gated_total = sum(c.rows_failed for c in gate_checks)
    assert res.metrics["global"]["rows_total"] == 240 - gated_total
    v = res.violations().to_pandas()
    gate_rows = v[v.rule_id == "row_gate"]
    assert len(gate_rows) == gated_total
    assert gate_rows.reason.str.startswith("gated: failed source not_in").all()
    # without the gate the same input validates all 240 rows
    res2 = ValidationPipeline(
        default_rules(allowed_sources=["web", "books", "code", "wiki", "forums"])
    ).run(clean, str(tmp_path / "o2"))
    assert res2.metrics["global"]["rows_total"] == 240


@pytest.mark.parametrize("driver_max", [None, 0])
def test_duplicate_confirm_counts_only_gated_through_rows(
    ray_session, tmp_path, monkeypatch, driver_max
):
    """The doc_id_unique confirm applies the row gate the engine
    applied: part-0000 holds two non-web rows with one id, part-0001 a
    web row with the same id, under ``source not_in [web]`` — so the
    id appears 2 times (not 3) and part-0001 has no duplicate. Both
    confirm paths (driver read, Ray dataset) agree with the SQL twin."""
    import pyarrow as pa

    from etl_data_validation_kio_ray.core.specs import RuleSpec, default_rules
    from etl_data_validation_kio_ray.pipelines import validate as V
    from etl_data_validation_kio_ray.pipelines.crosscheck import cross_check_run
    from etl_data_validation_kio_ray.sources.synth import partition_file

    if driver_max is not None:
        monkeypatch.setattr(V, "DRIVER_UNIQUE_MAX_BYTES", driver_max)

    def with_rows(t, rows, doc_id, source):
        ids, src = t["doc_id"].to_pylist(), t["source"].to_pylist()
        for i in rows:
            ids[i], src[i] = doc_id, source
        t = t.set_column(0, "doc_id", pa.array(ids, pa.string()))
        return t.set_column(3, "source", pa.array(src, pa.string()))

    d = str(tmp_path / "in")
    os.makedirs(d)
    part0 = with_rows(make_partition(0, 60), [0, 1], "dup-x", "books")
    part1 = with_rows(make_partition(1, 60), [0], "dup-x", "web")
    pq.write_table(part0, partition_file(d, 0))
    pq.write_table(part1, partition_file(d, 1))
    rules = dict(default_rules(allowed_sources=ALLOWED + ["forums"]))
    rules["row_gate"] = RuleSpec(
        "row_gate", "invariants", "warning",
        params={"predicates": [("source", "not_in", ["web"])]},
    )
    res = ValidationPipeline(rules).run(d, str(tmp_path / "o"))

    v = res.violations().to_pandas()
    dup = v[v.rule_id == "doc_id_unique"]
    assert len(dup) == 2
    assert set(dup.partition) == {"part-0000"}
    assert (dup.reason == "doc_id appears 2 times").all()
    failed = {
        c.partition: c.rows_failed for c in res.verdicts if c.rule_id == "doc_id_unique"
    }
    assert failed == {"part-0000": 2, "part-0001": 0}
    agree = cross_check_run(d, res, rules)
    uniq = agree[agree.rule_id == "doc_id_unique"]
    assert len(uniq) and uniq.agree.all(), uniq[~uniq.agree]


def test_cross_check_with_gate_and_extra_columns(ray_session, tmp_path):
    """Cross-check must mirror the row-gate quarantine (downstream
    twins count only surviving rows) and must ignore extra physical
    columns the engine never reads."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from etl_data_validation_kio_ray.core.specs import RuleSpec, default_rules
    from etl_data_validation_kio_ray.pipelines.crosscheck import cross_check_run
    from etl_data_validation_kio_ray.pipelines.validate import ValidationPipeline
    from etl_data_validation_kio_ray.sources.synth import generate_token_table

    clean = generate_token_table(str(tmp_path / "c"), partitions=3, rows_per_partition=100)

    # add an extra nullable column to one partition file
    import glob as _glob

    f0 = sorted(_glob.glob(clean + "/*.parquet"))[0]
    t = pq.read_table(f0)
    extra = pa.array([None if i % 3 == 0 else "x" for i in range(t.num_rows)], pa.string())
    pq.write_table(t.append_column("extra_note", extra), f0)

    rules = dict(default_rules(allowed_sources=["web", "books", "code", "wiki", "forums"]))
    rules["row_gate"] = RuleSpec(
        "row_gate", "invariants", "warning",
        params={"predicates": [("source", "not_in", ["web"]), ("n_tok", ">=", 2)]},
    )
    pipe = ValidationPipeline(rules)
    res = pipe.run(clean, str(tmp_path / "o"))
    gated = sum(c.rows_failed for c in res.verdicts if c.rule_id == "row_gate")
    assert gated > 0

    agree = cross_check_run(clean, res, pipe.rules)
    assert agree.agree.all(), agree[~agree.agree]
    assert "row_gate" in set(agree.rule_id)  # the gate itself is cross-checked
    # downstream totals reflect the quarantine
    rt = agree[(agree.rule_id == "column_stats") & (agree.metric == "rows_total")]
    assert rt.engine_value.sum() == 300 - gated


def test_cross_check_gate_edge_cases(ray_session, tmp_path):
    """Gate predicates on engine-invisible columns, empty membership
    sets, and NULL literals must all mirror the engine (which gates
    everything / nothing) instead of crashing or diverging."""
    from etl_data_validation_kio_ray.core.specs import RuleSpec, default_rules
    from etl_data_validation_kio_ray.pipelines.crosscheck import cross_check_run
    from etl_data_validation_kio_ray.pipelines.validate import ValidationPipeline
    from etl_data_validation_kio_ray.sources.synth import generate_token_table

    clean = generate_token_table(str(tmp_path / "c"), partitions=2, rows_per_partition=60)

    def run_with(preds, out):
        rules = dict(
            default_rules(allowed_sources=["web", "books", "code", "wiki", "forums"])
        )
        rules["row_gate"] = RuleSpec(
            "row_gate", "invariants", "warning", params={"predicates": preds}
        )
        pipe = ValidationPipeline(rules)
        res = pipe.run(clean, str(tmp_path / out))
        return pipe, res

    # engine-invisible column: engine gates ALL rows; twins must agree
    pipe, res = run_with([("nonexistent_col", "not_null", None)], "o_invis")
    gated = sum(c.rows_failed for c in res.verdicts if c.rule_id == "row_gate")
    assert gated == 120
    a = cross_check_run(clean, res, pipe.rules)
    assert a.agree.all(), a[~a.agree]
    assert set(a[a.rule_id == "doc_id_unique"].sql_value) <= {0}

    # empty in-set gates everything; empty not_in gates nothing
    pipe2, res2 = run_with([("source", "in", [])], "o_emptyin")
    assert sum(c.rows_failed for c in res2.verdicts if c.rule_id == "row_gate") == 120
    a2 = cross_check_run(clean, res2, pipe2.rules)
    assert a2.agree.all(), a2[~a2.agree]

    pipe3, res3 = run_with([("source", "not_in", [])], "o_emptynot")
    assert sum(c.rows_failed for c in res3.verdicts if c.rule_id == "row_gate") == 0
    a3 = cross_check_run(clean, res3, pipe3.rules)
    assert a3.agree.all(), a3[~a3.agree]

    # NULL comparison literal gates everything on both sides
    pipe4, res4 = run_with([("source", "!=", None)], "o_null")
    assert sum(c.rows_failed for c in res4.verdicts if c.rule_id == "row_gate") == 120
    a4 = cross_check_run(clean, res4, pipe4.rules)
    assert a4.agree.all(), a4[~a4.agree]


def test_cross_check_gate_null_in_set(ray_session, tmp_path):
    """None inside in/not_in value sets must mirror pc.is_in's
    null-matching semantics (SQL IN/NOT IN alone would diverge), and
    float/out-of-range literals must match nothing on both sides."""
    import pyarrow.parquet as pq

    from etl_data_validation_kio_ray.core.specs import RuleSpec, default_rules
    from etl_data_validation_kio_ray.pipelines.crosscheck import cross_check_run
    from etl_data_validation_kio_ray.pipelines.validate import ValidationPipeline
    from etl_data_validation_kio_ray.sources.synth import generate_token_table

    clean = generate_token_table(str(tmp_path / "c"), partitions=2, rows_per_partition=50)
    # plant some NULL sources in one file
    import glob as _glob

    import pyarrow as pa

    f0 = sorted(_glob.glob(clean + "/*.parquet"))[0]
    t = pq.read_table(f0)
    src = t["source"].to_pylist()
    for i in range(0, len(src), 7):
        src[i] = None
    t = t.set_column(t.column_names.index("source"), "source", pa.array(src, pa.string()))
    pq.write_table(t, f0)

    cases = [
        [("source", "in", ["web", None])],        # nulls PASS the gate
        [("source", "not_in", ["web", None])],    # nulls gated
        [("source", "not_in", ["web"])],          # nulls pass
        [("n_tok", "in", [2.5])],                 # float literal: matches nothing
        [("n_tok", "in", [2**40])],               # out-of-range: matches nothing
    ]
    for i, preds in enumerate(cases):
        rules = dict(
            default_rules(allowed_sources=["web", "books", "code", "wiki", "forums"])
        )
        rules["row_gate"] = RuleSpec(
            "row_gate", "invariants", "warning", params={"predicates": preds}
        )
        pipe = ValidationPipeline(rules)
        res = pipe.run(clean, str(tmp_path / f"o{i}"))
        a = cross_check_run(clean, res, pipe.rules)
        assert a.agree.all(), (preds, a[~a.agree])


def test_audit_log_filter_and_torn_tail(tmp_path):
    """events(event=...) filters; a torn final line (crash mid-append)
    is skipped, not fatal."""
    from etl_data_validation_kio_ray.state.checkpoint import AuditLog

    log = AuditLog(str(tmp_path))
    log.append("claim", partition="p0", attempts=1)
    log.append("finish", partition="p0", verdict="PASS")
    log.append("claim", partition="p1", attempts=1)
    with open(log.path, "a") as f:
        f.write('{"ts": 1, "event": "fai')  # torn write
    assert [e["partition"] for e in log.events(event="claim")] == ["p0", "p1"]
    assert len(log.events()) == 3


def test_writable_blob_hashes_inplace_dup_scan_matches_readonly():
    """The driver-tail candidate scan sorts IN PLACE inside the Arrow
    buffer (fresh np.sort copies fault catastrophically on fragmented
    hosts); the in-place path must produce identical duplicates and the
    zero-copy view must actually alias the column's buffer."""
    import pyarrow as pa

    from etl_data_validation_kio_ray.stages.uniqueness import (
        blob_hashes,
        dup_values,
        writable_blob_hashes,
    )

    rng = np.random.default_rng(7)
    vals = rng.integers(-(2**62), 2**62, 1000, dtype=np.int64)
    vals[10] = vals[500]
    vals[20] = vals[30] = vals[600]
    blobs = [vals[i : i + 100].tobytes() for i in range(0, 1000, 100)]
    col = pa.chunked_array(
        [pa.array(blobs[:5], pa.binary()), pa.array(blobs[5:], pa.binary())]
    )
    ro = blob_hashes(col)
    w, keepalive = writable_blob_hashes(col)
    assert np.array_equal(ro, np.asarray(w))
    if keepalive is not None:  # zero-copy: mutating the view hits the buffer
        assert w.flags.writeable
    expect = dup_values(np.asarray(ro).copy())
    got = dup_values(w, sort_inplace=True)
    assert np.array_equal(expect, got)
    assert set(expect.tolist()) == {int(vals[500]), int(vals[600])}
    # empty column round-trips
    e, ka = writable_blob_hashes(pa.array([], pa.binary()))
    assert len(e) == 0 and len(dup_values(e, sort_inplace=True)) == 0


def test_storage_profile_matches_duckdb_metadata(ray_session):
    """Footer-only storage profile vs DuckDB's parquet_metadata() —
    byte totals, row-group counts and the ppm ratio must agree exactly
    for every (table, column)."""
    import duckdb

    from etl_data_validation_kio_ray.sources.storage import storage_profile

    sf = "/root/testdata/sf0.001"
    tables = {t: f"{sf}/{t}.parquet" for t in ("orders", "nation", "documents")}
    got = storage_profile(tables)
    con = duckdb.connect()
    want = con.execute(
        " UNION ALL ".join(
            f"""
            SELECT '{t}' AS tbl, path_in_schema AS column,
                   CAST(COUNT(*) AS BIGINT) AS n_rowgroups,
                   CAST(SUM(total_compressed_size) AS BIGINT) AS compressed,
                   CAST(SUM(total_uncompressed_size) AS BIGINT) AS uncompressed,
                   CAST(SUM(total_compressed_size) * 1000000
                        // SUM(total_uncompressed_size) AS BIGINT) AS ratio_ppm
            FROM parquet_metadata('{p}') GROUP BY path_in_schema
            """
            for t, p in tables.items()
        )
        + " ORDER BY tbl, \"column\""
    ).df()
    con.close()
    assert got.reset_index(drop=True).equals(
        want.reset_index(drop=True)
    ), (got, want)


def test_interchange_suite_roundtrip():
    """RuleSpecs -> GE suite JSON -> RuleSpecs is lossless (params ride
    meta.engine_params); a foreign suite without our meta maps onto
    the standard rules."""
    import json

    from etl_data_validation_kio_ray.core.interchange import (
        rules_to_soda_checks,
        rules_to_suite,
        suite_to_rules,
    )
    from etl_data_validation_kio_ray.core.specs import default_rules

    rules = default_rules(
        min_len=2, max_len=4096, allowed_sources=["web", "books"]
    )
    suite = rules_to_suite(rules)
    json.dumps(suite)  # serializable
    back = suite_to_rules(suite)
    assert back == rules
    # foreign suite (no meta): standard expectations map to specs
    foreign = {
        "expectation_suite_name": "ext",
        "expectations": [
            {
                "expectation_type": "expect_column_values_to_be_unique",
                "kwargs": {"column": "doc_id"},
            },
            {
                "expectation_type": "expect_column_values_to_be_in_set",
                "kwargs": {"column": "source", "value_set": ["web"]},
            },
            {
                "expectation_type": "expect_column_values_to_be_between",
                "kwargs": {"column": "n_tok", "min_value": 1, "max_value": 99},
            },
        ],
    }
    ext = suite_to_rules(foreign)
    assert ext["source_ref"].params["allowed_sources"] == ["web"]
    assert ext["row_invariants"].params["max_len"] == 99
    # soda export carries the enabled checks
    soda = rules_to_soda_checks(rules)
    assert "duplicate_count(doc_id) = 0" in soda
    assert "valid values: [web, books]" in soda
    assert "min(n_tok) >= 2" in soda


def test_interchange_imported_rules_drive_pipeline(ray_session, tmp_path):
    """A GE suite imported through the interchange drives the engine to
    the same verdicts as the native RuleSpecs (the reference's
    cross-tool agreement, at the config layer)."""
    from etl_data_validation_kio_ray.core.interchange import (
        rules_to_suite,
        suite_to_rules,
    )
    from etl_data_validation_kio_ray.core.specs import default_rules
    from etl_data_validation_kio_ray.pipelines.validate import (
        ValidationPipeline,
    )
    from etl_data_validation_kio_ray.sources.mutations import mutate_table
    from etl_data_validation_kio_ray.sources.synth import (
        generate_token_table,
    )

    clean = generate_token_table(
        str(tmp_path / "clean"), partitions=3, rows_per_partition=200
    )
    mut = mutate_table(clean, str(tmp_path / "mut"), "corrupt_id")
    native = default_rules(allowed_sources=["web", "books", "code", "wiki"])
    imported = suite_to_rules(rules_to_suite(native))
    res_a = ValidationPipeline(rules=native, shard_size=2).run(
        mut, str(tmp_path / "out_a")
    )
    res_b = ValidationPipeline(rules=imported, shard_size=2).run(
        mut, str(tmp_path / "out_b")
    )
    assert res_a.run_verdict == res_b.run_verdict == "FAIL"
    va = res_a.violations().to_pandas()[["rule_id", "doc_id", "reason"]]
    vb = res_b.violations().to_pandas()[["rule_id", "doc_id", "reason"]]
    pd.testing.assert_frame_equal(
        va.sort_values(["rule_id", "doc_id", "reason"]).reset_index(drop=True),
        vb.sort_values(["rule_id", "doc_id", "reason"]).reset_index(drop=True),
    )


def test_cli_export_rules_roundtrip(tmp_path):
    from etl_data_validation_kio_ray.cli import main

    suite = str(tmp_path / "suite.json")
    assert main(["export-rules", "--out", suite, "--allowed-sources", "web"]) == 0
    suite2 = str(tmp_path / "suite2.json")
    assert main(["export-rules", "--out", suite2, "--import-suite", suite]) == 0
    import json as _json

    assert _json.load(open(suite)) == _json.load(open(suite2))
    soda = str(tmp_path / "checks.yml")
    assert main(["export-rules", "--out", soda, "--format", "soda"]) == 0
    assert "checks for sequences:" in open(soda).read()


def test_snapshot_shares_the_run_vocab(ray_session, tmp_path):
    """A drift snapshot bins tokens on the run's vocab: validating the
    very table the snapshot was built from must show no drift, also when
    row_invariants declares a vocab other than the default."""
    from etl_data_validation_kio_ray.core.specs import default_rules

    clean = generate_token_table(str(tmp_path / "c"), partitions=3, rows_per_partition=400)
    rules = default_rules(vocab_size=60000, allowed_sources=ALLOWED + ["forums"])
    snap = str(tmp_path / "snap")
    ValidationPipeline(rules).build_snapshot(clean, snap)
    res = ValidationPipeline(rules, baseline_snapshot_dir=snap).run(clean, str(tmp_path / "o"))
    drift = [c for c in res.verdicts if c.rule_id == "drift_ks_psi"]
    assert len(drift) == 3
    assert all(c.status == "PASS" and c.metrics["psi_tokens"] == 0.0 for c in drift)
    assert res.run_verdict == "PASS"


def test_score_drift_rejects_other_bins():
    """KS/PSI compare bin by bin: histograms on another domain fail
    loudly instead of scoring as drift."""
    from etl_data_validation_kio_ray.sketches import FixedHistogram
    from etl_data_validation_kio_ray.stages.drift import SNAPSHOT_VERSION, score_drift

    def stats(hi):
        h = FixedHistogram(0, hi, 4, np.array([1, 2, 3, 4], dtype=np.int64)).to_state()
        return {"n_tok_fixed": h, "token_hists": {"web": h}}

    base = {"version": SNAPSHOT_VERSION, "stats": {"p": stats(8)}}
    assert score_drift({"p": stats(8)}, base)["p"]["psi_tokens"] == 0.0
    with pytest.raises(ValueError, match="bins"):
        score_drift({"p": stats(16)}, base)
    cur = stats(8)
    cur["token_hists"] = {"web": FixedHistogram(0, 8, 8).to_state()}
    with pytest.raises(ValueError, match=r"tokens\[web\]"):
        score_drift({"p": cur}, base)


@pytest.mark.parametrize("driver_max_bytes", ["default", 0])
def test_stale_unowned_shard_dir_is_ignored(ray_session, tmp_path, monkeypatch, driver_max_bytes):
    """Every raw-output reader (violations, partials, id hashes) keeps a
    partition's rows only from the shard its SUCCESS manifest names: a
    copy of a committed shard under an unowned name changes nothing."""
    import json
    import shutil

    from etl_data_validation_kio_ray.pipelines import validate as V
    from etl_data_validation_kio_ray.sources.mutations import mutate_table
    from etl_data_validation_kio_ray.state.checkpoint import RunState

    if driver_max_bytes != "default":
        monkeypatch.setattr(V, "DRIVER_UNIQUE_MAX_BYTES", driver_max_bytes)
    clean = generate_token_table(str(tmp_path / "c"), partitions=4, rows_per_partition=200)
    mut = mutate_table(clean, str(tmp_path / "m"), "duplicate_first")
    out = str(tmp_path / "o")

    def run():
        ValidationPipeline(allowed_sources=ALLOWED, shard_size=2).run(mut, out, resume=True)
        with open(os.path.join(out, "summary.json")) as f:
            checks = json.load(f)["checks"]
        cand = V._candidate_hashes(out, RunState(out).shard_owners())
        return checks, V.load_violations(out).to_pandas(), cand

    checks, vio, cand = run()
    assert (vio.rule_id == "doc_id_unique").sum() > 0
    raw = os.path.join(out, "raw")
    assert sorted(os.listdir(raw)) == ["shard-part-0000", "shard-part-0002"]
    shutil.copytree(os.path.join(raw, "shard-part-0002"), os.path.join(raw, "shard-part-0001"))
    checks2, vio2, cand2 = run()
    assert checks2 == checks
    pd.testing.assert_frame_equal(vio2, vio)
    assert cand2.equals(cand)


def test_readers_refuse_a_missing_run(tmp_path):
    """A directory that holds no run (no ``_manifests``) is an error for
    every reader, never an answer of "no violations", and reading it
    creates nothing there."""
    from etl_data_validation_kio_ray.pipelines.validate import load_violations
    from etl_data_validation_kio_ray.state.report import (
        run_report,
        summary_rows,
        write_html_report,
    )

    readers = (load_violations, summary_rows, run_report, write_html_report)
    missing = tmp_path / "no_run"
    for read in readers:
        with pytest.raises(FileNotFoundError, match="no_run"):
            read(str(missing))
    assert not missing.exists()
    missing.mkdir()  # a directory without manifests is not a run either
    for read in readers:
        with pytest.raises(FileNotFoundError, match="no_run"):
            read(str(missing))
    assert os.listdir(missing) == []


def test_manifests_are_written_once_per_commit(ray_session, tiny_table, tmp_path, monkeypatch):
    """A fresh run writes each partition's manifest twice, at claim and
    at commit, and none after its narrow pass: the checks are written
    once, in summary.json."""
    from etl_data_validation_kio_ray.state.checkpoint import RunState

    saves = []
    save = RunState.save

    def counted(self, m):
        saves.append((m.partition, m.status))
        save(self, m)

    monkeypatch.setattr(RunState, "save", counted)
    pipe = ValidationPipeline(allowed_sources=ALLOWED, shard_size=2)
    narrow_pass = pipe.narrow_pass
    after_pass = []

    def recorded(*args, **kwargs):
        jobs = narrow_pass(*args, **kwargs)
        after_pass.append(len(saves))
        return jobs

    monkeypatch.setattr(pipe, "narrow_pass", recorded)
    res = pipe.run(tiny_table, str(tmp_path / "run"))
    assert len(saves) == 8
    assert after_pass == [8]
    assert sorted(saves) == sorted(
        (p, status) for p in res.partitions for status in ("PROCESSING", "SUCCESS")
    )


def test_manifests_of_older_runs_still_resume(ray_session, tiny_table, tmp_path):
    """Manifests of older runs also carried ``verdict``, ``rows_total``
    and ``checks``. A run over them resumes, and the reports read them."""
    import json

    from etl_data_validation_kio_ray.state.checkpoint import RunState
    from etl_data_validation_kio_ray.state.report import (
        run_report,
        summary_rows,
        write_html_report,
    )

    out = str(tmp_path / "run")
    pipe = ValidationPipeline(allowed_sources=ALLOWED, shard_size=2)
    first = _run_outputs(out, pipe.run(tiny_table, out))

    def reports():
        with open(write_html_report(out)) as f:
            html = f.read()
        return (
            summary_rows(out),
            run_report(out).split("partitions:")[1].split("audit trail")[0],
            html.split("<h2>partitions</h2>")[1],
        )

    before = reports()
    with open(os.path.join(out, "summary.json")) as f:
        checks = json.load(f)["checks"]
    for name in os.listdir(os.path.join(out, "_manifests")):
        path = os.path.join(out, "_manifests", name)
        with open(path) as f:
            m = json.load(f)
        own = [c for c in checks if c["partition"] == m["partition"]]
        m.update(verdict="PASS", rows_total=250, checks=own)
        with open(path, "w") as f:
            json.dump(m, f)
    assert reports() == before
    assert RunState(out, read_only=True).completed() == set(first[0]["partitions"])
    _assert_same(_run_outputs(out, pipe.run(tiny_table, out, resume=True)), first)
    assert [e["event"] for e in RunState(out).audit.events()].count("claim") == 4


def test_reports_count_an_unreadable_partition(ray_session, tmp_path):
    """The reports take the run's checks from summary.json, so the
    schema_types FAIL of an unreadable input file counts there, as it
    does in ``RunResult.verdicts``, although its manifest is FAILED."""
    from etl_data_validation_kio_ray.state.report import run_report, summary_rows

    from .test_read_sizing import _edge_corpus

    corpus = str(tmp_path / "in")
    _edge_corpus(corpus)
    out = str(tmp_path / "out")
    res = ValidationPipeline(allowed_sources=ALLOWED).run(corpus, out)
    schema_fails = [
        c.partition for c in res.verdicts if c.rule_id == "schema_types" and c.status == "FAIL"
    ]
    assert sorted(schema_fails) == ["part-0005", "part-0007", "part-0008"]
    (schema,) = [r for r in summary_rows(out) if r["rule_group"] == "schema"]
    assert (schema["checks_failed"], schema["rows_failed"]) == (3, 40 + 50 + 1)
    report = run_report(out)
    assert "part-0008: FAILED verdict=FAIL rows=0 attempts=1" in report
    assert "unreadable input file" in report


def test_file_without_partition_column_counts_in_run_scope_checks(ray_session, tmp_path):
    """A file that lost its ``partition`` column is validated as its own
    partition (the file stem): a copy of another partition's rows must
    fire doc_id_unique on both files, and the missing column still fails
    schema_types."""
    import json

    from etl_data_validation_kio_ray.pipelines.validate import load_violations
    from etl_data_validation_kio_ray.sources.synth import partition_file

    d = str(tmp_path / "in")
    os.makedirs(d)
    for p in range(4):
        pq.write_table(make_partition(p, 200), partition_file(d, p))
    pq.write_table(
        pq.read_table(partition_file(d, 2)).drop_columns(["partition"]), partition_file(d, 4)
    )
    out = str(tmp_path / "out")
    res = ValidationPipeline(allowed_sources=ALLOWED + ["forums"]).run(d, out)
    status = {(c.partition, c.rule_id): (c.status, c.rows_failed) for c in res.verdicts}
    assert status["part-0002", "doc_id_unique"] == ("FAIL", 200)
    assert status["part-0004", "doc_id_unique"] == ("FAIL", 200)
    assert status["part-0004", "schema_types"] == ("FAIL", 200)
    assert status["part-0004", "column_stats"][0] == "PASS"
    assert res.run_verdict == "FAIL"
    v = load_violations(out).to_pandas()
    dup = v[v.rule_id == "doc_id_unique"]
    assert dup.groupby("partition").size().to_dict() == {"part-0002": 200, "part-0004": 200}
    assert v[v.rule_id == "schema_types"].values.tolist() == [
        ["schema_types", None, "part-0004", "column 'partition' missing"]
    ]
    with open(os.path.join(out, "summary.json")) as f:
        assert "part-0004" in json.load(f)["partitions"]


# ---------------------------------------------------------------- reuse


def _run_outputs(out: str, res) -> tuple:
    """What a run reports: summary checks (without timings), its
    violation rows and its metrics (without phases)."""
    import json

    from etl_data_validation_kio_ray.pipelines.validate import load_violations

    with open(os.path.join(out, "summary.json")) as f:
        s = json.load(f)
    s.pop("duration_s")
    for c in s["checks"]:
        c.pop("duration_ms", None)
    metrics = {k: v for k, v in res.metrics.items() if k != "phases"}
    return s, load_violations(out).to_pandas(), metrics


def _reused(out: str) -> dict[str, str]:
    from etl_data_validation_kio_ray.state.checkpoint import RunState

    return {m.partition: m.reused_from for m in RunState(out).all_manifests() if m.reused_from}


def _assert_same(a: tuple, b: tuple) -> None:
    assert a[0] == b[0]
    pd.testing.assert_frame_equal(a[1], b[1])
    assert a[2] == b[2]


def _reuse_corpus(d: str, parts: int = 6, rows: int = 120, **write_kw) -> str:
    from etl_data_validation_kio_ray.sources.synth import partition_file

    os.makedirs(d)
    for p in range(parts):
        pq.write_table(make_partition(p, rows), partition_file(d, p), **write_kw)
    return d


def _with_foreign_ids(src: str, dst: str) -> str:
    """A copy of ``src`` whose part-0002 carries 10 of part-0001's ids
    (still keyed part-0002): doc_id_unique fires across a reused and a
    re-validated partition."""
    import shutil

    import pyarrow as pa
    import pyarrow.compute as pc

    from etl_data_validation_kio_ray.sources.synth import partition_file

    shutil.copytree(src, dst)
    t = pq.read_table(partition_file(src, 2))
    ids = pq.read_table(partition_file(src, 1))["doc_id"].to_pylist()[:10]
    new_ids = pa.array(ids + t["doc_id"].to_pylist()[10:], pa.string())
    t = t.set_column(t.schema.get_field_index("doc_id"), "doc_id", new_ids)
    pq.write_table(t, partition_file(dst, 2))
    assert pc.sum(pc.is_in(t["doc_id"], pa.array(ids))).as_py() == 10
    return dst


@pytest.mark.parametrize("corpus", ["clean", "foreign", "edge"])
def test_reuse_changes_no_result(ray_session, tmp_path, corpus):
    """Reusing a source run's outputs gives the run it would have given
    without reuse. On a clean corpus every unchanged partition is
    reused. A file carrying another partition's rows blocks reuse
    altogether, and so does the edge corpus (empty, foreign-partition,
    partition-less and unreadable files). There the file carrying
    part-0001's rows changes, so reusing the unchanged part-0001 file's
    outputs would count its old rows."""
    from etl_data_validation_kio_ray.sources.synth import partition_file

    from .test_read_sizing import _edge_corpus

    src_in = str(tmp_path / "src_in")
    foreign = {"clean": None, "foreign": 6, "edge": 5}[corpus]
    if corpus == "edge":
        _edge_corpus(src_in)
    else:
        _reuse_corpus(src_in)
    if corpus == "foreign":
        pq.write_table(make_partition(1, 40), partition_file(src_in, foreign))
    mut_in = _with_foreign_ids(src_in, str(tmp_path / "mut_in"))
    if foreign is not None:
        pq.write_table(make_partition(1, 30), partition_file(mut_in, foreign))
    pipe = lambda: ValidationPipeline(allowed_sources=ALLOWED)  # noqa: E731
    src = str(tmp_path / "src")
    pipe().run(src_in, src, reuse_from=[])
    outs = {}
    for name, reuse in (("plain", None), ("reuse", [src])):
        out = str(tmp_path / name)
        outs[name] = _run_outputs(out, pipe().run(mut_in, out, reuse_from=reuse))
    _assert_same(outs["reuse"], outs["plain"])
    vio = outs["reuse"][1]
    assert set(vio[vio.rule_id == "doc_id_unique"].partition) >= {"part-0001", "part-0002"}
    reused = _reused(str(tmp_path / "reuse"))
    if corpus == "clean":
        assert reused == {f"part-{p:04d}": src for p in (0, 1, 3, 4, 5)}
    else:
        assert reused == {}


def test_reuse_off_hashes_nothing(ray_session, tmp_path, monkeypatch):
    from etl_data_validation_kio_ray.pipelines import validate as V
    from etl_data_validation_kio_ray.state.checkpoint import RunState

    def refuse(path):
        raise AssertionError(f"read {path}")

    monkeypatch.setattr(V, "_file_sha256", refuse)
    monkeypatch.setattr(V, "_carries_only_own_partition", refuse)
    out = str(tmp_path / "out")
    ValidationPipeline(allowed_sources=ALLOWED).run(_reuse_corpus(str(tmp_path / "in"), 3), out)
    assert [m.key for m in RunState(out).all_manifests()] == [None] * 3


def test_reuse_needs_the_same_bytes_not_size_and_mtime(ray_session, tmp_path):
    """A file rewritten with the same size and mtime but other bytes is
    validated again."""
    import pyarrow as pa

    from etl_data_validation_kio_ray.sources.synth import partition_file

    plain = dict(compression="none", use_dictionary=False)
    d = _reuse_corpus(str(tmp_path / "in"), 3, 100, **plain)
    src = str(tmp_path / "src")
    ValidationPipeline(allowed_sources=ALLOWED).run(d, src, reuse_from=[])

    f = partition_file(d, 1)
    st = os.stat(f)
    t = pq.read_table(f)
    tokens = t["tokens"].to_pylist()
    tokens[3] = [-7] + tokens[3][1:]  # a vocab violation, same width
    t = t.set_column(
        t.schema.get_field_index("tokens"), "tokens", pa.array(tokens, t.schema.field("tokens").type)
    )
    pq.write_table(t, f, **plain)
    os.utime(f, ns=(st.st_atime_ns, st.st_mtime_ns))
    assert (os.stat(f).st_size, os.stat(f).st_mtime_ns) == (st.st_size, st.st_mtime_ns)

    out = str(tmp_path / "out")
    res = ValidationPipeline(allowed_sources=ALLOWED).run(d, out, reuse_from=[src])
    assert _reused(out) == {"part-0000": src, "part-0002": src}
    inv = [c for c in res.verdicts if c.rule_id == "row_invariants" and c.status == "FAIL"]
    assert [(c.partition, c.rows_failed) for c in inv] == [("part-0001", 1)]


@pytest.mark.parametrize("change", ["allowed_sources", "vocab_size"])
def test_reuse_needs_the_same_engine_config(ray_session, tmp_path, change):
    from etl_data_validation_kio_ray.core.specs import default_rules

    d = _reuse_corpus(str(tmp_path / "in"), 3)
    src = str(tmp_path / "src")
    ValidationPipeline(allowed_sources=ALLOWED).run(d, src, reuse_from=[])
    same = str(tmp_path / "same")
    ValidationPipeline(allowed_sources=ALLOWED).run(d, same, reuse_from=[src])
    assert len(_reused(same)) == 3
    if change == "allowed_sources":
        other = ValidationPipeline(allowed_sources=ALLOWED + ["forums"])
    else:
        other = ValidationPipeline(
            default_rules(vocab_size=60000, allowed_sources=ALLOWED), allowed_sources=ALLOWED
        )
    out = str(tmp_path / "out")
    other.run(d, out, reuse_from=[src])
    assert _reused(out) == {}


def test_reuse_run_resumes_and_outlives_its_source(ray_session, tmp_path):
    """A resumed reuse run gives the same outputs, and deleting the
    source run afterwards changes none of them."""
    import shutil

    src_in = _reuse_corpus(str(tmp_path / "src_in"))
    mut_in = _with_foreign_ids(src_in, str(tmp_path / "mut_in"))
    src = str(tmp_path / "src")
    ValidationPipeline(allowed_sources=ALLOWED).run(src_in, src, reuse_from=[])
    out = str(tmp_path / "out")

    def run():
        res = ValidationPipeline(allowed_sources=ALLOWED, shard_size=4).run(
            mut_in, out, reuse_from=[src]
        )
        return _run_outputs(out, res)

    first = run()
    reused = _reused(out)
    assert len(reused) == 5
    # lose a reused and a validated partition's manifests: resume redoes both
    for p in ("part-0001", "part-0002"):
        os.remove(os.path.join(out, "_manifests", f"{p}.json"))
    _assert_same(run(), first)
    assert _reused(out) == reused
    shutil.rmtree(src)
    from etl_data_validation_kio_ray.pipelines.validate import load_violations

    pd.testing.assert_frame_equal(load_violations(out).to_pandas(), first[1])


def test_keyless_rerun_leaves_no_stale_key(ray_session, tmp_path):
    """A run that keys nothing records no content key, also over a run
    dir whose manifests an earlier run keyed: its changed input must not
    be reused under the old file's key."""
    import shutil

    from etl_data_validation_kio_ray.sources.mutations import mutate_table
    from etl_data_validation_kio_ray.state.checkpoint import RunState

    clean = generate_token_table(str(tmp_path / "clean"), partitions=3)
    x = str(tmp_path / "x")
    shutil.copytree(clean, x)
    pipe = lambda: ValidationPipeline(allowed_sources=ALLOWED)  # noqa: E731
    d = str(tmp_path / "d")
    pipe().run(x, d, reuse_from=[])
    mutate_table(clean, x, "out_of_range")  # rewrites x/part-0000
    pipe().run(x, d, resume=False)

    fresh = str(tmp_path / "fresh")
    e = str(tmp_path / "e")
    want = _run_outputs(fresh, pipe().run(clean, fresh))
    got = _run_outputs(e, pipe().run(clean, e, reuse_from=[d]))
    assert len(got[1]) == len(want[1])
    _assert_same(got, want)
    assert [m.key for m in RunState(d).all_manifests()] == [None] * 3
    assert _reused(e) == {}


# ---------------------------------------------------------------- shared narrow pass


def _saved_outputs(out: str) -> tuple:
    """``_run_outputs`` of a finished run dir, its metrics read from
    ``metrics.json``."""
    import json
    import types

    with open(os.path.join(out, "metrics.json")) as f:
        return _run_outputs(out, types.SimpleNamespace(metrics=json.load(f)))


def test_experiment_matches_runs_one_at_a_time(ray_session, tmp_path):
    """The shared narrow pass of ``run_experiment`` changes no result:
    each mutated run reports what a ``run`` of it alone, reusing the
    same baseline, reports. Iteration durations are positive and, with
    the baseline run, fit in the experiment's wall time."""
    import json
    import time

    from etl_data_validation_kio_ray.pipelines.experiment import run_experiment
    from etl_data_validation_kio_ray.sources.mutations import EXPECTED_DETECTION

    clean = generate_token_table(str(tmp_path / "c"), partitions=3, rows_per_partition=150)
    snap = str(tmp_path / "snap")
    ValidationPipeline(allowed_sources=ALLOWED + ["forums"]).build_snapshot(clean, snap)

    def pipe():
        return ValidationPipeline(allowed_sources=ALLOWED + ["forums"], baseline_snapshot_dir=snap)

    exp = str(tmp_path / "exp")
    t0 = time.time()
    res = run_experiment(clean, exp, pipeline_factory=pipe, keep_mutated=True)
    wall = time.time() - t0
    assert [i.action for i in res.iterations] == list(EXPECTED_DETECTION)
    assert res.all_detected, [i.to_dict() for i in res.iterations]

    base = os.path.join(exp, "baseline")
    for it in res.iterations:
        alone = str(tmp_path / "alone" / it.action)
        one = pipe().run(os.path.join(exp, f"input_{it.action}"), alone, reuse_from=[base])
        _assert_same(_saved_outputs(it.run_dir), _saved_outputs(alone))
        fired = sorted(
            {c.rule_id for c in one.verdicts if c.status in ("FAIL", "WARN") and c.rows_failed}
        )
        assert it.fired_rules == fired

    with open(os.path.join(base, "summary.json")) as f:
        base_s = json.load(f)["duration_s"]
    durations = [i.duration_s for i in res.iterations]
    assert all(d > 0 for d in durations)
    assert base_s + sum(durations) <= wall


def _with_part0(src: str, dst: str, edit) -> str:
    """A copy of ``src`` (files linked) whose part-0000 is ``edit(table)``."""
    from etl_data_validation_kio_ray.sources.synth import partition_file

    os.makedirs(dst)
    for name in os.listdir(src):
        os.link(os.path.join(src, name), os.path.join(dst, name))
    f = partition_file(dst, 0)
    t = edit(pq.read_table(f))
    os.remove(f)
    pq.write_table(t, f)
    return dst


def _shared_jobs(tmp_path) -> tuple[list[tuple[str, str]], str]:
    """Three jobs over one source run: two whose changed part-0000 files
    share a stem and a schema group (one with a vocab violation, one
    with part-0001's ids), and the edge corpus (a foreign-partition, a
    partition-less, an empty and an unreadable file), which reuses
    nothing."""
    import pyarrow as pa

    from etl_data_validation_kio_ray.sources.synth import partition_file

    from .test_read_sizing import _edge_corpus

    src_in = _reuse_corpus(str(tmp_path / "src_in"))
    src = str(tmp_path / "src")
    ValidationPipeline(allowed_sources=ALLOWED).run(src_in, src, reuse_from=[])

    def vocab(t):
        tokens = t["tokens"].to_pylist()
        tokens[3] = [-7] + tokens[3][1:]
        return t.set_column(
            t.schema.get_field_index("tokens"), "tokens",
            pa.array(tokens, t.schema.field("tokens").type),
        )

    def dup_ids(t):
        ids = pq.read_table(partition_file(src_in, 1))["doc_id"].to_pylist()[:10]
        new_ids = pa.array(ids + t["doc_id"].to_pylist()[10:], pa.string())
        return t.set_column(t.schema.get_field_index("doc_id"), "doc_id", new_ids)

    ins = [
        _with_part0(src_in, str(tmp_path / "in_vocab"), vocab),
        _with_part0(src_in, str(tmp_path / "in_dup"), dup_ids),
        str(tmp_path / "in_edge"),
    ]
    _edge_corpus(ins[2])
    return [(d, str(tmp_path / f"out{k}")) for k, d in enumerate(ins)], src


def _alone(tmp_path, jobs, src) -> list[tuple]:
    outs = []
    for k, (d, _) in enumerate(jobs):
        out = str(tmp_path / f"alone{k}")
        res = ValidationPipeline(allowed_sources=ALLOWED).run(d, out, reuse_from=[src])
        outs.append(_run_outputs(out, res))
    return outs


def test_narrow_pass_routes_rows_by_file(ray_session, tmp_path):
    """One narrow pass over three jobs, then ``run`` on each, gives each
    run's outputs alone. Two jobs' part-0000 rows carry the same
    partition value in one read, so only routing by file keeps them
    apart."""
    jobs, src = _shared_jobs(tmp_path)
    pipe = ValidationPipeline(allowed_sources=ALLOWED)
    done = pipe.narrow_pass(jobs, reuse_from=[src])
    assert [sorted(j.reused) for j in done] == [[f"part-{p:04d}" for p in range(1, 6)]] * 2 + [[]]
    # the two changed part-0000 files and the edge corpus's full-schema
    # files were validated in one read
    assert os.listdir(os.path.join(jobs[0][1], "raw", "_shared"))
    shared = [_run_outputs(out, pipe.run(d, out, reuse_from=[src])) for d, out in jobs]
    for got, want in zip(shared, _alone(tmp_path, jobs, src)):
        _assert_same(got, want)
    inv = shared[0][1]
    assert list(inv[inv.rule_id == "row_invariants"].partition) == ["part-0000"]
    dup = shared[1][1]
    assert set(dup[dup.rule_id == "doc_id_unique"].partition) == {"part-0000", "part-0001"}
    assert not len(shared[0][1][shared[0][1].rule_id == "doc_id_unique"])


def test_narrow_pass_failure_fails_every_job(ray_session, tmp_path, monkeypatch):
    """A shared execution that raises marks every partition claimed for
    it, in every job, FAILED; a rerun into the same dirs gives each
    run's outputs alone."""
    from etl_data_validation_kio_ray.pipelines import validate as V
    from etl_data_validation_kio_ray.state.checkpoint import FAILED, SUCCESS, RunState

    jobs, src = _shared_jobs(tmp_path)
    orig = V.ValidationPipeline._map_engine

    def broken(self, ds, engine_kwargs):
        def boom(t):
            if {"path", "partition"} <= set(t.column_names):
                raise RuntimeError("injected failure")
            return t

        return orig(self, ds.map_batches(boom, batch_format="pyarrow"), engine_kwargs)

    monkeypatch.setattr(V.ValidationPipeline, "_map_engine", broken)
    pipe = ValidationPipeline(allowed_sources=ALLOWED)
    with pytest.raises(Exception, match="injected failure"):
        pipe.narrow_pass(jobs, reuse_from=[src])
    status = [{m.partition: m.status for m in RunState(out).all_manifests()} for _, out in jobs]
    reused = {f"part-{p:04d}": SUCCESS for p in range(1, 6)}
    assert status[:2] == [{"part-0000": FAILED, **reused}] * 2
    assert status[2] == {f"part-{p:04d}": FAILED for p in range(9)}

    monkeypatch.setattr(V.ValidationPipeline, "_map_engine", orig)
    pipe.narrow_pass(jobs, reuse_from=[src])
    shared = [_run_outputs(out, pipe.run(d, out, reuse_from=[src])) for d, out in jobs]
    for got, want in zip(shared, _alone(tmp_path, jobs, src)):
        _assert_same(got, want)
    # a rerun whose shards take new (-rN) names overwrites the staging
    # output instead of adding to it
    staging = os.path.join(jobs[0][1], "raw", "_shared")
    before = sorted(os.listdir(staging))
    pipe.narrow_pass(jobs, resume=False, reuse_from=[src])
    assert any(n.endswith("-r1") for n in os.listdir(os.path.join(jobs[0][1], "raw")))
    assert sorted(os.listdir(staging)) == before


# ---------------------------------------------------------------- run(job=...)


def _with_copied_id(src_in: str, dst: str) -> str:
    """A copy of ``src_in`` whose part-0000 carries part-0001's first
    id in its first row."""
    import pyarrow as pa

    from etl_data_validation_kio_ray.sources.synth import partition_file

    def copy_id(t):
        ids = t["doc_id"].to_pylist()
        ids[0] = pq.read_table(partition_file(src_in, 1))["doc_id"][0].as_py()
        col = t.schema.get_field_index("doc_id")
        return t.set_column(col, "doc_id", pa.array(ids, pa.string()))

    return _with_part0(src_in, dst, copy_id)


@pytest.mark.parametrize("driver_max_bytes", ["default", 0])
def test_run_goes_on_from_the_pass_job(ray_session, tmp_path, monkeypatch, driver_max_bytes):
    """A changed partition that copies an id of an unchanged, reused
    partition fails doc_id_unique in both, through ``narrow_pass`` and
    ``run(job=...)``, as a fresh run without reuse does. The pass reads
    the linked source shard's partials once for both jobs, and the runs
    read none again."""
    from etl_data_validation_kio_ray.pipelines import validate as V

    if driver_max_bytes != "default":
        monkeypatch.setattr(V, "DRIVER_UNIQUE_MAX_BYTES", driver_max_bytes)
    src_in = _reuse_corpus(str(tmp_path / "src_in"))
    src = str(tmp_path / "src")
    ValidationPipeline(allowed_sources=ALLOWED).run(src_in, src, reuse_from=[])
    ins = [_with_copied_id(src_in, str(tmp_path / f"in{k}")) for k in range(2)]
    outs = [str(tmp_path / f"out{k}") for k in range(2)]

    reads = []
    read_partials = V._read_partials

    def counted(files):
        reads.append(sorted({os.path.relpath(f, str(tmp_path)).split(os.sep)[2] for f in files}))
        return read_partials(files)

    monkeypatch.setattr(V, "_read_partials", counted)
    pipe = ValidationPipeline(allowed_sources=ALLOWED)
    jobs = pipe.narrow_pass(list(zip(ins, outs)), reuse_from=[src])
    # the linked baseline shard once, then each job's new shard
    assert reads == [["reused-0-shard-part-0000"], ["shard-part-0000"], ["shard-part-0000"]]
    assert [sorted(j.reused) for j in jobs] == [[f"part-{p:04d}" for p in range(1, 6)]] * 2
    got = [_run_outputs(out, pipe.run(d, out, job=j)) for d, out, j in zip(ins, outs, jobs)]
    assert len(reads) == 3

    fresh = str(tmp_path / "fresh")
    want = _run_outputs(fresh, ValidationPipeline(allowed_sources=ALLOWED).run(ins[0], fresh))
    for g in got:
        _assert_same(g, want)
    vio = got[0][1]
    dup = vio[vio.rule_id == "doc_id_unique"]
    assert sorted(dup.partition) == ["part-0000", "part-0001"]
    assert set(dup.reason) == {"doc_id appears 2 times"} and dup.doc_id.nunique() == 1
    failed = [
        c["partition"]
        for c in got[0][0]["checks"]
        if c["rule_id"] == "doc_id_unique" and c["status"] == "FAIL"
    ]
    assert sorted(failed) == ["part-0000", "part-0001"]


def test_driver_confirm_reads_holders_and_foreign_files(ray_session, tmp_path, monkeypatch):
    """The driver confirm reads only the partitions whose hashes hold a
    candidate, plus every file that may carry another partition's rows:
    part-0003's file also carries 30 rows of part-0002, which duplicate
    part-0002's ids. The violation rows equal the distributed path's."""
    import json

    import pyarrow as pa

    from etl_data_validation_kio_ray.pipelines import validate as V
    from etl_data_validation_kio_ray.sources.synth import partition_file

    d = _reuse_corpus(str(tmp_path / "in"), 4)
    pq.write_table(
        pa.concat_tables([make_partition(3, 120), make_partition(2, 30)]), partition_file(d, 3)
    )
    read = []
    read_keys = V._read_keys

    def recorded(key_files, *gate):
        read.append(sorted(os.path.basename(f) for fs in key_files.values() for f in fs))
        return read_keys(key_files, *gate)

    monkeypatch.setattr(V, "_read_keys", recorded)

    def run(name):
        out = str(tmp_path / name)
        ValidationPipeline(allowed_sources=ALLOWED, shard_size=2).run(d, out)
        with open(os.path.join(out, "summary.json")) as f:
            checks = [c for c in json.load(f)["checks"] if c["rule_id"] == "doc_id_unique"]
        return checks, V.load_violations(out).to_pandas()

    checks, vio = run("driver")
    assert read == [["part-0002.parquet", "part-0003.parquet"]]
    dup = vio[vio.rule_id == "doc_id_unique"]
    assert len(dup) == 60 and set(dup.partition) == {"part-0002"}

    monkeypatch.setattr(V, "DRIVER_UNIQUE_MAX_BYTES", 0)
    checks0, vio0 = run("distributed")
    assert len(read) == 1
    assert checks0 == checks
    pd.testing.assert_frame_equal(vio0, vio)


def test_run_refuses_another_dirs_job(ray_session, tmp_path):
    pipe = ValidationPipeline(allowed_sources=ALLOWED)
    d = _reuse_corpus(str(tmp_path / "in"), 2)
    (job,) = pipe.narrow_pass([(d, str(tmp_path / "a"))])
    with pytest.raises(ValueError, match="job"):
        pipe.run(d, str(tmp_path / "b"), job=job)
    assert not os.path.exists(tmp_path / "b")
