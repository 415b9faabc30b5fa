"""Second-executor cross-check: a DuckDB runner for the same RuleSpecs.

The reference's core experimental axis is running ONE spec through
several independent executors and checking they agree (cross-tool
agreement, /root/reference/src/app2/etl_validation/runner.py:94-135
executing the same StageChecks via sql/gx/soda/dbt and comparing
verdicts). This module is that idea re-expressed for the Ray engine:
every enabled rule's SQL twin runs in DuckDB directly over the input
partition parquet files, and the per-(partition, rule) violation
counts must agree with the engine's verdicts — an independent
execution path (different scan, different kernel implementations,
different aggregation) over the same declarative specs.

Sampling: pass ``partitions=[...]`` to check a subset (the reference
samples too); the run-scope ``doc_id_unique`` rule is only
cross-checked when the whole input is covered, since a sampled global
uniqueness count is not well-defined.
"""

from __future__ import annotations

from typing import Any

import numpy as np
import pandas as pd
import pyarrow as pa

from ..core.specs import RuleSpec
from ..stages.rule_engine import ENGINE_COLS, EXPECTED_SCHEMA, rules_vocab_size
from .validate import RunResult, discover_partition_files

# ENGINE_COLS is what the engine actually reads — the completeness twin
# must not OR-over extra physical file columns the engine never sees
EXPECTED_COLS = tuple(EXPECTED_SCHEMA.names)
EXPECTED_TYPES = {f.name: f.type for f in EXPECTED_SCHEMA}


def _sql_lit(v: Any) -> str:
    if v is None:
        return "NULL"  # comparisons with NULL gate the row, like the engine
    if isinstance(v, str):
        return "'" + v.replace("'", "''") + "'"
    if isinstance(v, bool):
        return "TRUE" if v else "FALSE"
    return str(v)


def _gate_where(
    rules: dict[str, RuleSpec], engine_names: list[str]
) -> tuple[str | None, bool]:
    """SQL WHERE mirroring the engine's row_gate quarantine (rows the
    downstream rules actually see), or None when the gate is off.
    ``engine_names`` must be the columns the ENGINE sees (its pruned
    read), not the physical file schema. Returns 'FALSE' when a
    predicate column is outside them (the engine gates every row
    then). SQL NULL comparison semantics match the engine's
    fill_null(False); empty in/not_in sets match pc.is_in on an empty
    value set (nothing / everything passes).

    Second return value ``null_gates``: True iff the WHERE also GATES
    rows whose predicate columns are NULL — which is what a
    union_by_name NULL-fill produces for files MISSING a predicate
    column, the case the engine gates wholesale. False only for
    clauses that pass NULLs (in-with-None membership, dropped empty
    not_in), where a global NULL-filled query cannot mirror per-file
    missing-column gating."""
    gate = rules.get("row_gate")
    if not gate or not gate.enabled:
        return None, True
    preds = gate.params.get("predicates", [])
    if not preds:
        return None, True
    null_gates = True
    clauses = []
    for col, op, value in preds:
        if col not in engine_names:
            return "FALSE", True
        q = f'"{col}"'
        if op == "not_null":
            clauses.append(f"{q} IS NOT NULL")
        elif op in ("in", "not_in"):
            # mirror pc.is_in semantics exactly: a None in the value
            # set MATCHES null column values (SQL IN/NOT IN would
            # instead yield NULL), so null membership splits out into
            # an IS NULL / IS NOT NULL clause. A None VALUE (vs [None])
            # is an empty set, like the engine's falsy check.
            value = value or []
            has_null = any(x is None for x in value)
            vals = [x for x in value if x is not None]
            inner = (
                f"{q} IN ({', '.join(_sql_lit(x) for x in vals)})"
                if vals
                else "FALSE"
            )
            if op == "in":
                if has_null:
                    null_gates = False  # NULL-filled rows would PASS
                clauses.append(
                    f"({inner} OR {q} IS NULL)" if has_null else inner
                )
            else:
                # engine not_in passes a row iff is_in is false: null
                # column values match the set only when the set
                # contains null
                if has_null:
                    clauses.append(f"NOT ({inner} OR {q} IS NULL)")
                elif vals:
                    # NULLs pass this clause (as in the engine), so
                    # NULL-filled missing columns are NOT gated
                    null_gates = False
                    clauses.append(f"({q} NOT IN ({', '.join(_sql_lit(x) for x in vals)}) OR {q} IS NULL)")
                else:
                    # empty not_in set: every row (incl. nulls)
                    # passes — no clause
                    null_gates = False
        elif op in ("==", "!=", "<", "<=", ">", ">="):
            sql_op = "=" if op == "==" else op
            clauses.append(f"{q} {sql_op} {_sql_lit(value)}")
        else:
            raise ValueError(f"row_gate: unknown op {op!r}")
    return (" AND ".join(clauses) if clauses else None), null_gates


def _agree_row(
    part: str, rule: str, metric: str, eng, sql,
    engine_ms: float | None = None, sql_ms: float | None = None,
) -> dict[str, Any]:
    return {
        "partition": part,
        "rule_id": rule,
        "metric": metric,
        "engine_value": int(eng),
        "sql_value": int(sql),
        "agree": bool(int(eng) == int(sql)),
        # cost comparison (reference: per-tool duration metrics in
        # validation_summary CSV / tech.validation_check_result)
        "engine_ms": engine_ms,
        "sql_ms": sql_ms,
    }


def cross_check_run(
    input_path: str,
    result: RunResult,
    rules: dict[str, RuleSpec],
    *,
    partitions: list[str] | None = None,
) -> pd.DataFrame:
    """Compare the engine's per-(partition, rule) violation counts with
    a DuckDB re-execution of each rule's SQL twin over the raw input
    files. Returns one row per (partition, rule, metric) with
    ``agree``; disagreement means one of the two executors is wrong —
    the reference's cross-tool agreement oracle."""
    import duckdb
    import pyarrow.parquet as pq

    files = discover_partition_files(input_path)
    keep = set(partitions) if partitions is not None else None
    parts = [p for p in sorted(files) if keep is None or p in keep]

    eng: dict[tuple[str, str], int] = {}
    eng_ms: dict[tuple[str, str], float] = {}
    stats: dict[str, dict] = {}
    for c in result.verdicts:
        eng[(c.partition, c.rule_id)] = int(c.rows_failed)
        if c.duration_ms is not None:
            eng_ms[(c.partition, c.rule_id)] = round(float(c.duration_ms), 3)
        if c.rule_id == "column_stats" and c.metrics:
            stats[c.partition] = c.metrics

    inv = rules.get("row_invariants")
    min_len = int(inv.params.get("min_len", 1)) if inv else 1
    max_len = int(inv.params.get("max_len", 8192)) if inv else 8192
    vocab = rules_vocab_size(rules)
    ref = rules.get("source_ref")
    allowed = ref.params.get("allowed_sources") if ref else None

    con = duckdb.connect()
    rows: list[dict] = []
    gate_spec = rules.get("row_gate")
    gate_cols = (
        {c for c, _, _ in gate_spec.params.get("predicates", [])}
        if gate_spec and gate_spec.enabled
        else set()
    )
    # files whose schema lacks a gate predicate column: the engine
    # gates ALL their rows, which one global union query cannot mirror
    het_gate_files = False

    def timed(sql: str):
        import time

        t0 = time.perf_counter()
        out = con.execute(sql).fetchone()[0]
        return int(out), round((time.perf_counter() - t0) * 1000, 3)

    try:
        for p in parts:
            f = files[p].replace("'", "''")
            try:
                sch = pq.read_schema(files[p])
                nrows = pq.read_metadata(files[p]).num_rows
            except Exception:  # noqa: BLE001 — unreadable: engine said FAIL too
                continue
            names = list(sch.names)
            # only engine-universe predicate columns can be missing
            # PER-FILE (a column outside ENGINE_COLS gates uniformly
            # everywhere, which WHERE FALSE mirrors exactly)
            if (gate_cols & set(ENGINE_COLS)) - set(names):
                het_gate_files = True
            raw_rel = f"read_parquet('{f}')"
            # gate predicates resolve against the ENGINE's pruned read,
            # not the physical file schema (a column outside ENGINE_COLS
            # is invisible to the engine even if the file has it)
            gate, _ = _gate_where(rules, [c for c in names if c in ENGINE_COLS])
            # downstream twins see only rows surviving the gate, exactly
            # like the engine's quarantine-before-validate
            rel = (
                f"(SELECT * FROM {raw_rel} WHERE {gate})" if gate else raw_rel
            )

            def enabled(rule_id: str) -> bool:
                r = rules.get(rule_id)
                return bool(r and r.enabled and (p, rule_id) in eng)

            eff_rows = nrows  # post-gate row total the engine sees
            if gate is not None:
                surviving, gate_ms = timed(f"SELECT count(*) FROM {rel}")
                eff_rows = surviving
                if enabled("row_gate"):
                    rows.append(
                        _agree_row(
                            p, "row_gate", "rows_failed",
                            eng[(p, "row_gate")], nrows - surviving,
                            eng_ms.get((p, "row_gate")), gate_ms,
                        )
                    )

            if enabled("schema_types"):
                sqlv = 0
                for c in EXPECTED_COLS:
                    if c not in names:
                        sqlv += eff_rows
                        continue
                    actual = sch.field(c).type
                    want = EXPECTED_TYPES[c]
                    if actual != want and not (
                        pa.types.is_large_list(actual)
                        and want == pa.list_(pa.int32())
                        and actual.value_type == pa.int32()
                    ):
                        sqlv += eff_rows
                null_cols = [c for c in ("doc_id", "tokens") if c in names]
                ms = None
                if null_cols:
                    q = " + ".join(
                        f'(SELECT count(*) FROM {rel} WHERE "{c}" IS NULL)'
                        for c in null_cols
                    )
                    v, ms = timed(f"SELECT {q}")
                    sqlv += v
                rows.append(
                    _agree_row(
                        p, "schema_types", "rows_failed",
                        eng[(p, "schema_types")], sqlv,
                        eng_ms.get((p, "schema_types")), ms,
                    )
                )

            if enabled("completeness_nulls") and names:
                seen = [c for c in names if c in ENGINE_COLS]
                pred = " OR ".join(f'"{c}" IS NULL' for c in seen) or "FALSE"
                sqlv, ms = timed(f"SELECT count(*) FROM {rel} WHERE {pred}")
                rows.append(
                    _agree_row(
                        p, "completeness_nulls", "rows_failed",
                        eng[(p, "completeness_nulls")], sqlv,
                        eng_ms.get((p, "completeness_nulls")), ms,
                    )
                )

            if enabled("row_invariants") and "tokens" in names:
                has_ntok = "n_tok" in names
                mism = (
                    f"(SELECT count(*) FROM {rel} WHERE n_tok IS NOT NULL AND "
                    f"n_tok >= 0 AND tokens IS NOT NULL AND n_tok != len(tokens))"
                    if has_ntok
                    else "0"
                )
                rng = (
                    f"(SELECT count(*) FROM {rel} WHERE n_tok IS NOT NULL AND "
                    f"n_tok >= 0 AND (n_tok < {min_len} OR n_tok > {max_len}))"
                    if has_ntok
                    else "0"
                )
                voc = (
                    f"(SELECT count(*) FROM {rel} WHERE tokens IS NOT NULL AND "
                    f"len(list_filter(tokens, x -> x < 0 OR x >= {vocab})) > 0)"
                )
                sqlv, ms = timed(f"SELECT {mism} + {rng} + {voc}")
                rows.append(
                    _agree_row(
                        p, "row_invariants", "rows_failed",
                        eng[(p, "row_invariants")], sqlv,
                        eng_ms.get((p, "row_invariants")), ms,
                    )
                )

            if enabled("source_ref") and allowed is not None and "source" in names:
                vals = ", ".join(_sql_lit(str(s)) for s in allowed)
                sqlv, ms = timed(
                    f"SELECT count(*) FROM {rel} WHERE source IS NULL "
                    f"OR source NOT IN ({vals})"
                )
                rows.append(
                    _agree_row(
                        p, "source_ref", "rows_failed",
                        eng[(p, "source_ref")], sqlv,
                        eng_ms.get((p, "source_ref")), ms,
                    )
                )

            if (p, "column_stats") in eng and p in stats and "n_tok" in names:
                got = stats[p]
                sqlrow = con.execute(
                    f"SELECT count(*), coalesce(sum(n_tok), 0), min(n_tok), "
                    f"max(n_tok) FROM {rel}"
                ).fetchone()
                rows.append(_agree_row(p, "column_stats", "rows_total", got["rows_total"], sqlrow[0]))
                nt = got.get("n_tok") or {}
                # empty (e.g. fully gated) partitions have None min/max
                # on BOTH sides — compare only defined stats
                for key, idx in (("sum", 1), ("min", 2), ("max", 3)):
                    if nt.get(key) is not None and sqlrow[idx] is not None:
                        rows.append(
                            _agree_row(
                                p, "column_stats", f"n_tok_{key}", nt[key], sqlrow[idx]
                            )
                        )

        # run-scope uniqueness: only meaningful over the FULL input
        uniq = rules.get("doc_id_unique")
        if keep is None and uniq and uniq.enabled:
            import os

            src = input_path.replace("'", "''").rstrip("/")
            if not os.path.isfile(input_path):
                src = src + "/*.parquet"
            glob_rel = f"read_parquet('{src}', union_by_name=true)"
            # gate resolves against the engine's column universe. A
            # predicate OUTSIDE it gates everything -> WHERE FALSE
            # (mirrors the engine's zero emitted hashes exactly). Files
            # missing a predicate column are a case one global query
            # cannot mirror for every op (an empty not_in emits no
            # clause but the engine still gates missing-column rows) —
            # skip LOUDLY then, never silently diverge.
            gate, null_gates = _gate_where(rules, list(ENGINE_COLS))
            if gate_cols and het_gate_files and not null_gates:
                import logging

                logging.getLogger(__name__).warning(
                    "cross_check_run: skipping the global doc_id_unique "
                    "cross-check — some input files lack row_gate predicate "
                    "column(s) %s and this gate passes NULL rows, so one "
                    "union query cannot mirror per-file gating",
                    sorted(gate_cols),
                )
                return _finish(rows)
            if gate:
                glob_rel = f"(SELECT * FROM {glob_rel} WHERE {gate})"
            try:
                dup = con.execute(
                    f"""
                    WITH t AS (SELECT doc_id, "partition" FROM {glob_rel}),
                    d AS (SELECT doc_id FROM t GROUP BY doc_id HAVING count(*) > 1)
                    SELECT "partition", count(*) FROM t
                    WHERE doc_id IN (SELECT doc_id FROM d) GROUP BY "partition"
                    """
                ).fetchall()
            except Exception:  # noqa: BLE001 — heterogeneous/corrupt inputs
                dup = None
            if dup is not None:
                per = {str(k): int(v) for k, v in dup}
                for p in parts:
                    if (p, "doc_id_unique") in eng:
                        rows.append(
                            _agree_row(
                                p, "doc_id_unique", "rows_failed",
                                eng[(p, "doc_id_unique")], per.get(p, 0),
                            )
                        )
    finally:
        con.close()

    return _finish(rows)


def _finish(rows: list[dict]) -> pd.DataFrame:
    out = pd.DataFrame(
        rows,
        columns=[
            "partition", "rule_id", "metric", "engine_value", "sql_value",
            "agree", "engine_ms", "sql_ms",
        ],
    )
    return out.sort_values(["partition", "rule_id", "metric"]).reset_index(drop=True)
