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
    # t-digest agrees with exact quantiles within tolerance
    assert abs(g["n_tok_tdigest"]["p50"] - df.n_tok.quantile(0.5)) <= max(
        2.0, 0.02 * df.n_tok.quantile(0.5)
    )


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
