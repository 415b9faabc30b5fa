"""End-to-end validation pipeline orchestration.

The Ray-Data re-expression of the reference's run lifecycle
(/root/reference/scripts/run_manual_experiments.py:539-662 and the
suite runner /root/reference/src/app2/validators/runner.py:109-228):

  read_parquet(pending partition files, pruned columns)
    -> map_batches(CachedEngineFn(RuleEngine))    # all narrow rules, fused into
                                                  # the read task; small files share
                                                  # a task (core/resources.read_tasks)
    -> write_parquet(raw/<shard>/, partition_cols=['kind'])
                          # violations + stat partials + doc_id hash blobs
  kind=hash blobs -> id hashes seen twice        # the wide rule: a driver
                                                 # sort below DRIVER_UNIQUE_MAX_BYTES,
                                                 # else the bucketed blob exchange
    -> read_parquet(columns=[doc_id]) exact confirm of the candidates only
  merge partials -> verdicts / metrics / drift -> manifests + summary

Every reader of the raw/ outputs goes through ``_owned_outputs``: a
partition's rows count only from the shard its SUCCESS manifest names
(the manifests are the run's lineage), so leftovers of a crashed attempt
never double-count.

Resume: input is one Parquet file per partition; partitions whose
manifest is already SUCCESS are pruned from the read (the file is never
opened again) — the file-level analog of the reference's
``only_unprocessed`` discovery filter (discovery.py:203-223). Work is
chunked into shards of ``shard_size`` partitions, each committed
atomically, bounding recomputation after a crash.
"""

from __future__ import annotations

import glob
import json
import os
import pickle
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads

from ..core.resources import CachedEngineFn, read_args
from ..core.specs import RuleSpec, default_rules
from ..core.verdicts import CheckResult, gate_status, partition_verdict
from ..sketches import CountingHist, FixedHistogram, HyperLogLog, TDigest
from ..stages.drift import load_baseline_snapshot, score_drift, build_baseline_snapshot
from ..stages.rule_engine import ENGINE_COLS, ID_COL, PARTITION_COL, RuleEngine, rules_vocab_size
from ..stages.uniqueness import (
    candidate_hashes_from_blobs,
    confirm_duplicates,
    duplicate_violations,
)
from ..state.checkpoint import RunState

VIOLATION_COLS = ["rule_id", "doc_id", "partition", "reason"]
PARTIAL_COLS = ["rule_id", "partition", "payload"]
HASH_COLS = ["partition", "payload"]


@dataclass
class RunResult:
    out_dir: str
    verdicts: list[CheckResult]
    metrics: dict[str, Any]
    partitions: list[str]
    duration_s: float
    run_verdict: str = "PASS"
    drift: dict[str, Any] = field(default_factory=dict)

    def violations(self) -> pa.Table:
        """All violation rows, sorted by (rule_id, doc_id, reason) for
        deterministic comparison regardless of block order
        (SURVEY.md §7.4 'exactness under distribution')."""
        return load_violations(self.out_dir)


def load_violations(out_dir: str) -> pa.Table:
    owners = RunState(out_dir, read_only=True).shard_owners()
    tables = [
        _owned_rows(pads.dataset(files).to_table(columns=VIOLATION_COLS), owned)
        for _, files, owned in _owned_outputs(out_dir, "violation", owners)
    ]
    for extra in ("unique_violations", "schema_violations"):
        d = os.path.join(out_dir, extra)
        if os.path.isdir(d) and glob.glob(os.path.join(d, "*.parquet")):
            tables.append(pads.dataset(d).to_table(columns=VIOLATION_COLS))
    if not tables:
        return pa.table({c: pa.array([], pa.string()) for c in VIOLATION_COLS})
    t = pa.concat_tables(tables).combine_chunks()
    order = pc.sort_indices(
        t,
        sort_keys=[("rule_id", "ascending"), ("doc_id", "ascending"), ("reason", "ascending")],
        null_placement="at_start",
    )
    return t.take(order)


def _merge_stats(a: dict, b: dict) -> dict:
    """Merge two column_stats partial states (mergeable-summary pattern)."""
    out = dict(a)
    out["rows_total"] = a.get("rows_total", 0) + b.get("rows_total", 0)
    out["rows_failed"] = a.get("rows_failed", 0) + b.get("rows_failed", 0)
    if "duration_ms" in a or "duration_ms" in b:
        out["duration_ms"] = a.get("duration_ms", 0.0) + b.get("duration_ms", 0.0)
    if "null_counts" in a or "null_counts" in b:
        nc = dict(a.get("null_counts", {}))
        for k, v in b.get("null_counts", {}).items():
            nc[k] = nc.get(k, 0) + v
        out["null_counts"] = nc
    if "schema_errors" in a or "schema_errors" in b:
        out["schema_errors"] = sorted(
            set(a.get("schema_errors", [])) | set(b.get("schema_errors", []))
        )
    for key, cls in (
        ("n_tok_hist", CountingHist),
        ("n_tok_fixed", FixedHistogram),
        ("doc_id_hll", HyperLogLog),
        ("n_tok_tdigest", TDigest),
    ):
        if key in a and key in b:
            out[key] = cls.from_state(a[key]).merge(cls.from_state(b[key])).to_state()
        elif key in b:
            out[key] = b[key]
    if "token_hists" in a or "token_hists" in b:
        th = dict(a.get("token_hists", {}))
        for src, st in b.get("token_hists", {}).items():
            if src in th:
                th[src] = (
                    FixedHistogram.from_state(th[src])
                    .merge(FixedHistogram.from_state(st))
                    .to_state()
                )
            else:
                th[src] = st
        out["token_hists"] = th
    return out


def _stats_metrics(state: dict) -> dict[str, Any]:
    """Human/JSON-facing metrics from a merged stats state."""
    m: dict[str, Any] = {"rows_total": state.get("rows_total", 0)}
    if "null_counts" in state:
        rt = max(1, m["rows_total"])
        m["null_rates"] = {k: v / rt for k, v in state["null_counts"].items()}
    if "n_tok_hist" in state:
        h = CountingHist.from_state(state["n_tok_hist"])
        m["n_tok"] = {
            "min": h.min(),
            "max": h.max(),
            "sum": h.sum(),
            "mean": (h.sum() / h.n) if h.n else None,
            "p50": h.quantile(0.5),
            "p95": h.quantile(0.95),
            "p99": h.quantile(0.99),
        }
    if "n_tok_tdigest" in state:
        td = TDigest.from_state(state["n_tok_tdigest"])
        m["n_tok_tdigest"] = {
            "p50": td.quantile(0.5),
            "p95": td.quantile(0.95),
            "p99": td.quantile(0.99),
        }
    if "doc_id_hll" in state:
        m["doc_id_cardinality_est"] = HyperLogLog.from_state(state["doc_id_hll"]).estimate()
    return m


class ValidationPipeline:
    def __init__(
        self,
        rules: dict[str, RuleSpec] | None = None,
        *,
        allowed_sources: list[str] | None = None,
        baseline_snapshot_dir: str | None = None,
        batch_size: int | None = None,
        shard_size: int = 64,
    ):
        self.rules = rules or default_rules(allowed_sources=allowed_sources)
        if allowed_sources is not None and "source_ref" in self.rules:
            p = dict(self.rules["source_ref"].params)
            p["allowed_sources"] = allowed_sources
            from dataclasses import replace

            self.rules = {**self.rules, "source_ref": replace(self.rules["source_ref"], params=p)}
        self.baseline_snapshot_dir = baseline_snapshot_dir
        self.batch_size = batch_size
        self.shard_size = shard_size

    # ------------------------------------------------------------ helpers

    def _engine_kwargs(self, allowed_ref) -> dict:
        """RuleEngine kwargs of every engine this pipeline runs. The
        vocab is stated here, not left to each rule set: the drift
        snapshot's stats-only engine has no row_invariants, yet must bin
        tokens on the same domain as the runs scored against it."""
        return dict(
            rules=self.rules,
            allowed_sources=allowed_ref,
            vocab_size=rules_vocab_size(self.rules),
        )

    def _allowed_ref(self):
        import ray

        spec = self.rules.get("source_ref")
        allowed = spec.params.get("allowed_sources") if spec else None
        return ray.put(allowed) if allowed is not None else None

    def _map_engine(self, ds, engine_kwargs: dict):
        """Apply the rule engine to a Dataset: a task-based
        ``map_batches`` with the engine built once per worker
        (core/resources.CachedEngineFn), so Ray fuses ReadParquet ->
        engine -> Write into one task and the decoded token column
        never crosses the object store."""
        return ds.map_batches(
            CachedEngineFn(RuleEngine, **engine_kwargs),
            batch_format="pyarrow",
            zero_copy_batch=True,
            batch_size=self.batch_size,
        )

    def _missing_state_checks(
        self, part: str, input_file: str | None
    ) -> list[CheckResult]:
        """Checks for a partition that produced NO batch output.

        Truly empty file -> completeness WARNING (reference:
        completeness_suite/matches_completeness.py:14-15 'list
        non-empty'). UNREADABLE file (footer metadata read raises) ->
        schema FAIL with an ``unreadable_input`` metric: a file that
        became corrupt must not masquerade as benign emptiness. File
        WITH rows -> schema FAIL: its rows were keyed under another
        partition value (e.g. the partition column is missing, so the
        engine attributed them to 'all') — that must surface loudly,
        not masquerade as an empty partition."""
        nrows = 0
        if input_file:
            try:
                import pyarrow.parquet as pq

                nrows = pq.read_metadata(input_file).num_rows
            except Exception:  # noqa: BLE001 — unreadable file
                nrows = -1
        if nrows == -1:
            return [
                CheckResult(
                    part,
                    "schema_types",
                    gate_status("error", 1),
                    1,
                    0,
                    "error",
                    metrics={"unreadable_input": True},
                )
            ]
        if nrows == 0:
            return [
                CheckResult(
                    part,
                    "completeness_nulls",
                    gate_status("warning", 1),
                    1,
                    0,
                    "warning",
                    metrics={"empty_partition": True},
                )
            ]
        return [
            CheckResult(
                part,
                "schema_types",
                gate_status("error", nrows),
                nrows,
                nrows,
                "error",
                metrics={"unattributed_rows": True},
            )
        ]

    def _narrow_checks(
        self,
        part: str,
        rules_states: dict[str, dict],
        *,
        input_file: str | None = None,
    ) -> list[CheckResult]:
        """CheckResults for the single-pass rules of one partition (the
        run's final pass adds the run-scope doc_id_unique and
        drift_ks_psi checks)."""
        if not rules_states:
            return self._missing_state_checks(part, input_file)
        checks = []
        for rule_id, spec in self.rules.items():
            if not spec.enabled or rule_id in ("doc_id_unique", "drift_ks_psi"):
                continue
            st = rules_states.get(rule_id)
            if st is None:
                continue
            checks.append(
                CheckResult(
                    part, rule_id,
                    gate_status(spec.severity, st.get("rows_failed", 0)),
                    st.get("rows_failed", 0), st.get("rows_total", 0),
                    spec.severity,
                    metrics=_stats_metrics(st) if rule_id == "column_stats" else None,
                    duration_ms=st.get("duration_ms"),
                )
            )
        return checks

    # ------------------------------------------------------------ snapshot

    def build_snapshot(self, input_path: str, snapshot_dir: str) -> str:
        """Run the stats pass over (unmutated) input and persist the
        drift baseline (reference analog: run.py:490-501)."""
        import ray.data as rd

        file_list = sorted(discover_partition_files(input_path).values())
        ds = rd.read_parquet(file_list, columns=list(ENGINE_COLS), **read_args(file_list))
        # stats-only rule set, on the run's engine config (vocab)
        stats_rules = {
            "column_stats": self.rules.get("column_stats") or default_rules()["column_stats"]
        }
        mapped = self._map_engine(ds, {**self._engine_kwargs(None), "rules": stats_rules})
        reduced = _reduce_partials(
            t.filter(pc.equal(t["kind"], "partial"))
            for t in mapped.iter_batches(batch_format="pyarrow", batch_size=4096)
        )
        partials = {part: rules["column_stats"] for part, rules in reduced.items()}
        partials["__global__"] = _merge_all(partials.values())
        return build_baseline_snapshot(
            partials, snapshot_dir, meta={"input": input_path}
        )

    # ------------------------------------------------------------ run

    def run(self, input_path: str, out_dir: str, *, resume: bool = True) -> RunResult:
        import ray.data as rd

        t0 = time.time()
        phases: dict[str, float] = {}
        os.makedirs(out_dir, exist_ok=True)
        state = RunState(out_dir)
        files = discover_partition_files(input_path)
        all_parts = sorted(files)
        done = state.completed() if resume else set()
        pending = [p for p in all_parts if p not in done]
        state.audit.append(
            "run_start",
            input=input_path,
            partitions=len(all_parts),
            pending=len(pending),
            resume=resume,
        )
        if done:
            state.audit.append(
                "resume_skip", partitions=sorted(done), n=len(done)
            )

        allowed_ref = self._allowed_ref()

        # partial states of shards processed THIS run, kept in memory so
        # the post-loop reduce only re-reads shards from PRIOR (resumed)
        # runs
        fresh_shard_stats: dict[str, dict[str, dict[str, dict]]] = {}

        # owners snapshot read ONCE (each read walks every manifest);
        # kept current incrementally as this run commits shards
        owners = state.shard_owners()

        # partitions whose input file is unreadable: their verdict rows
        # stay visible (schema FAIL, unreadable_input) but the manifest
        # is marked FAILED — not SUCCESS — so a resumed run after the
        # file is repaired re-validates it instead of skipping it
        unreadable_parts: dict[str, list[CheckResult]] = {}

        t_narrow = time.time()
        for i in range(0, len(pending), self.shard_size):
            shard = pending[i : i + self.shard_size]
            state.claim_many(shard)
            # shard dir is keyed by its first partition; if a resumed
            # run regroups partitions, an existing dir of that name may
            # still be OWNED by other partitions' SUCCESS manifests —
            # deleting it would destroy their committed violation rows.
            # Pick the first name that is either free or unowned
            # (crashed leftovers); owners-filtering at read time keeps
            # stale rows of reclaimed partitions from double-counting.
            owned_dirs = set(owners.values())
            base = f"shard-{shard[0]}"
            shard_name, k = base, 0
            while shard_name in owned_dirs:
                k += 1
                shard_name = f"{base}-r{k}"
            shard_dir = os.path.join(out_dir, "raw", shard_name)
            if os.path.isdir(shard_dir):
                import shutil

                shutil.rmtree(shard_dir)  # leftovers of a crashed attempt
            try:
                # files may disagree on schema (a column dropped upstream
                # is itself a finding): group by footer schema, read each
                # group with the columns it actually has — the engine's
                # schema rule reports the gap
                for j, (cols, group_files) in enumerate(
                    _schema_groups([files[p] for p in shard], list(ENGINE_COLS))
                ):
                    # whole files per task, small ones packed up to
                    # READ_TASK_BYTES (core/resources.read_tasks): each
                    # task runs ReadParquet -> engine -> Write fused (no
                    # object-store hop for the decoded token column).
                    # Files are never split: a multi-GB partition file
                    # would need splitting instead.
                    ds = rd.read_parquet(group_files, columns=cols, **read_args(group_files))
                    mapped = self._map_engine(ds, self._engine_kwargs(allowed_ref))
                    mapped.write_parquet(
                        os.path.join(shard_dir, f"g{j}"), partition_cols=["kind"]
                    )
                # commit this shard: per-partition manifests with the
                # narrow-rule checks (run-scope checks appended later)
                part_files = _kind_files(shard_dir, "partial")
                merged = _reduce_partials(
                    [pads.dataset(part_files).to_table(columns=PARTIAL_COLS)]
                    if part_files
                    else []
                )
                fresh_shard_stats[shard_name] = merged
                items = []
                for p in shard:
                    checks = self._narrow_checks(
                        p, merged.get(p, {}), input_file=files.get(p)
                    )
                    if any(
                        (c.metrics or {}).get("unreadable_input") for c in checks
                    ):
                        state.fail(p, f"unreadable input file: {files.get(p)}")
                        unreadable_parts[p] = checks
                        continue
                    items.append((p, {**_manifest(checks), "shard": shard_name}))
                state.finish_many(items)
                for p, _ in items:
                    owners[p] = shard_name
            except Exception as e:  # noqa: BLE001 — manifest records the failure
                for p in shard:
                    state.fail(p, repr(e))
                raise

        phases["narrow_pass"] = round(time.time() - t_narrow, 3)
        t_phase = time.time()

        # all partitions' merged stats (this run + prior resumed runs),
        # each from its OWNING shard: this run's from memory, prior
        # runs' re-read from their tiny kind=partial outputs
        shard_stats: dict[str, dict[str, dict]] = {}
        for shard_name, part_files, owned in _owned_outputs(out_dir, "partial", owners):
            reduced = fresh_shard_stats.get(shard_name)
            if reduced is None:
                reduced = _reduce_partials(
                    [pads.dataset(part_files).to_table(columns=PARTIAL_COLS)]
                )
            shard_stats.update((p, reduced[p]) for p in owned if p in reduced)
        # partitions claimed by a committed shard but with NO batch
        # output are EMPTY inputs — keep them visible with a WARN
        for part in all_parts:
            if part not in shard_stats and part in owners:
                shard_stats[part] = {}
        processed = [p for p in all_parts if p in shard_stats]
        # the run's global stats state, folded once: metrics and drift
        # both read it
        global_stats = _merge_all(
            shard_stats[p].get("column_stats") for p in processed
        )

        # ---- schema-level violations: one row per (partition, issue)
        schema_rows = []
        for part in sorted(shard_stats):
            for msg in shard_stats[part].get("schema_types", {}).get("schema_errors", []):
                schema_rows.append(("schema_types", None, part, msg))
        sv_dir = os.path.join(out_dir, "schema_violations")
        if os.path.isdir(sv_dir):
            import shutil

            shutil.rmtree(sv_dir)
        if schema_rows:
            os.makedirs(sv_dir, exist_ok=True)
            import pyarrow.parquet as pq

            pq.write_table(
                pa.table(
                    {
                        c: pa.array([r[i] for r in schema_rows], pa.string())
                        for i, c in enumerate(VIOLATION_COLS)
                    }
                ),
                os.path.join(sv_dir, "part-0.parquet"),
            )

        phases["reduce_partials"] = round(time.time() - t_phase, 3)
        t_phase = time.time()

        # ---- wide rule: global doc_id uniqueness over ALL partitions.
        # Input is the tiny kind=hash rows the engine emitted (8 bytes
        # per id), owners-filtered per shard — the heavy input files are
        # NOT re-read unless candidate duplicates need string-level
        # confirmation (stages/uniqueness.py).
        dup_violation_counts: dict[str, int] = {}
        uniq_spec = self.rules.get("doc_id_unique")
        if uniq_spec and uniq_spec.enabled:
            cand = _candidate_hashes(out_dir, owners)
            if cand is None:
                cand = pa.table({"h": pa.array([], pa.int64())})
            dup_table = pa.table(
                {
                    ID_COL: pa.array([], pa.string()),
                    "dup_count": pa.array([], pa.int64()),
                }
            )
            # input files by whether they carry a partition column (an
            # unreadable file carries no ids)
            key_files: dict[bool, list[str]] = {}
            if cand.num_rows:
                for f in sorted(files.values()):
                    names = _footer_names(f) or set()
                    if ID_COL in names:
                        key_files.setdefault(PARTITION_COL in names, []).append(f)
                id_files = sorted(f for fs in key_files.values() for f in fs)
                keys = rd.read_parquet(id_files, columns=[ID_COL], **read_args(id_files))
                dup_table = confirm_duplicates(keys, cand, ID_COL)
            uniq_dir = os.path.join(out_dir, "unique_violations")
            if os.path.isdir(uniq_dir):
                import shutil

                shutil.rmtree(uniq_dir)  # run-scope check is recomputed whole
            if dup_table.num_rows:
                # rows of a file without the column count under "all",
                # as the rule engine keys them
                first, *rest = (
                    rd.read_parquet(
                        fs, columns=[ID_COL, PARTITION_COL] if has else [ID_COL], **read_args(fs)
                    )
                    for has, fs in sorted(key_files.items(), reverse=True)
                )
                keys = first.union(*rest) if rest else first
                vio = duplicate_violations(keys, dup_table, ID_COL, PARTITION_COL)
                vio.write_parquet(uniq_dir)
                vt = pads.dataset(uniq_dir).to_table(columns=["partition"])
                vals, counts = np.unique(
                    np.asarray(vt["partition"].to_pylist()), return_counts=True
                )
                dup_violation_counts = {str(v): int(c) for v, c in zip(vals, counts)}
            else:
                os.makedirs(uniq_dir, exist_ok=True)

        phases["uniqueness"] = round(time.time() - t_phase, 3)
        t_phase = time.time()

        # ---- drift scoring
        drift_scores: dict[str, Any] = {}
        drift_spec = self.rules.get("drift_ks_psi")
        if drift_spec and drift_spec.enabled and self.baseline_snapshot_dir:
            baseline = load_baseline_snapshot(self.baseline_snapshot_dir)
            cur = {
                part: rules["column_stats"]
                for part, rules in shard_stats.items()
                if rules.get("column_stats")
            }
            if cur:
                drift_scores = score_drift(
                    {**cur, "__global__": global_stats},
                    baseline,
                    psi_threshold=float(drift_spec.params.get("psi_threshold", 0.2)),
                    ks_threshold=float(drift_spec.params.get("ks_threshold", 0.15)),
                )

        phases["drift"] = round(time.time() - t_phase, 3)
        t_phase = time.time()

        # ---- verdicts per partition: the narrow checks plus the two
        # run-scope ones, in rule order
        rule_order = {rule_id: i for i, rule_id in enumerate(self.rules)}
        verdicts: list[CheckResult] = []
        metrics: dict[str, Any] = {"partitions": {}}
        finish_items: list[tuple[str, dict]] = []
        for part in processed:
            rules_states = shard_stats[part]
            stats_rows = rules_states.get("column_stats", {}).get("rows_total", 0)
            checks = self._narrow_checks(part, rules_states, input_file=files.get(part))
            if uniq_spec and uniq_spec.enabled:
                rf = dup_violation_counts.get(part, 0)
                checks.append(
                    CheckResult(
                        part, "doc_id_unique", gate_status(uniq_spec.severity, rf), rf,
                        stats_rows, uniq_spec.severity,
                    )
                )
            if part in drift_scores:
                sc = drift_scores[part]
                rf = 1 if sc["drifted"] else 0
                checks.append(
                    CheckResult(
                        part, "drift_ks_psi", gate_status(drift_spec.severity, rf), rf,
                        stats_rows, drift_spec.severity,
                        metrics={"ks_n_tok": sc["ks_n_tok"], "psi_tokens": sc["psi_tokens"]},
                    )
                )
            checks.sort(key=lambda c: rule_order.get(c.rule_id, -1))
            finish_items.append((part, _manifest(checks)))
            verdicts.extend(checks)
            if "column_stats" in rules_states:
                metrics["partitions"][part] = _stats_metrics(rules_states["column_stats"])
        state.finish_many(finish_items)
        if global_stats:
            metrics["global"] = _stats_metrics(global_stats)

        # unreadable inputs: verdict rows visible, manifests FAILED
        for part in sorted(unreadable_parts):
            verdicts.extend(unreadable_parts[part])

        phases["verdicts"] = round(time.time() - t_phase, 3)
        metrics["phases"] = phases

        run_verdict = partition_verdict(verdicts) if verdicts else "PASS"
        result = RunResult(
            out_dir=out_dir,
            verdicts=verdicts,
            metrics=metrics,
            partitions=processed,
            duration_s=time.time() - t0,
            run_verdict=run_verdict,
            drift=drift_scores,
        )
        summary = {
            "run_verdict": run_verdict,
            "partitions": processed,
            "duration_s": result.duration_s,
            "checks": [c.to_dict() for c in verdicts],
            "metrics_global": metrics.get("global"),
        }
        tmp = os.path.join(out_dir, "summary.json.tmp")
        with open(tmp, "w") as f:
            json.dump(summary, f, indent=2, default=str)
        os.replace(tmp, os.path.join(out_dir, "summary.json"))
        with open(os.path.join(out_dir, "metrics.json"), "w") as f:
            json.dump(metrics, f, indent=2, default=str)
        state.audit.append(
            "run_end",
            run_verdict=run_verdict,
            partitions=len(processed),
            duration_s=round(result.duration_s, 3),
        )
        return result


def discover_partition_files(input_path: str) -> dict[str, str]:
    """Map partition name -> parquet file. Input layout: one file per
    partition (FIXTURES.md F1), or a single parquet file (one logical
    partition named after the file stem)."""
    if os.path.isfile(input_path):
        name = os.path.splitext(os.path.basename(input_path))[0]
        return {name: input_path}
    out = {}
    for f in sorted(glob.glob(os.path.join(input_path, "*.parquet"))):
        out[os.path.splitext(os.path.basename(f))[0]] = f
    if not out:
        raise FileNotFoundError(f"no .parquet files under {input_path}")
    return out


def _kind_files(shard_dir: str, kind: str) -> list[str]:
    """Parquet files of one output kind ('violation', 'partial' or
    'hash') under a raw shard dir, across its schema groups."""
    return sorted(
        glob.glob(os.path.join(shard_dir, "**", f"kind={kind}", "*.parquet"), recursive=True)
    )


def _owned_outputs(
    out_dir: str, kind: str, owners: dict[str, str]
) -> list[tuple[str, list[str], list[str]]]:
    """[(shard, files, owned partitions)] of one output kind, for every
    raw shard dir that owns a partition and holds such files.

    The one shard-ownership rule of the run: a partition's rows count
    only from the shard its SUCCESS manifest names (``owners``, from
    RunState.shard_owners). A crashed attempt or a regrouped resume may
    leave the same partition's rows in another shard dir; readers keep
    those out by reading only these files and, within them, only the
    owned partitions' rows (``_owned_rows``)."""
    by_shard: dict[str, list[str]] = {}
    for part, shard in sorted(owners.items()):
        by_shard.setdefault(shard, []).append(part)
    out = []
    for shard, owned in sorted(by_shard.items()):
        files = _kind_files(os.path.join(out_dir, "raw", shard), kind)
        if files:
            out.append((shard, files, owned))
    return out


def _owned_rows(t: pa.Table, owned: list[str]) -> pa.Table:
    return t.filter(pc.is_in(t["partition"], value_set=pa.array(owned, pa.string())))


def _manifest(checks: list[CheckResult]) -> dict:
    """RunState.finish fields of one partition from its checks."""
    return dict(
        verdict=partition_verdict(checks),
        rows_total=max((c.rows_total for c in checks), default=0),
        checks=[c.to_dict() for c in checks],
    )


# below this, the candidate scan runs on the DRIVER (one exact
# np.unique over all id hashes) instead of the distributed bucketed
# blob exchange — the broadcast-vs-shuffle style size cutoff. 1 GiB of
# hash blobs ≈ 130M ids; beyond that the distributed path keeps
# driver memory bounded.
DRIVER_UNIQUE_MAX_BYTES = 1 << 30


def _candidate_hashes(out_dir: str, owners: dict[str, str]) -> pa.Table | None:
    """Small table ("h": int64) of id hashes seen more than once, or
    None when no hash rows exist. Chooses driver-side exact scan vs
    distributed bucket shuffle by total hash volume."""
    groups = _owned_outputs(out_dir, "hash", owners)
    if not groups:
        return None
    total = sum(os.path.getsize(f) for _, files, _ in groups for f in files)
    if total <= DRIVER_UNIQUE_MAX_BYTES:
        from ..stages.uniqueness import dup_values, writable_blob_hashes

        # writable views sorted IN PLACE inside the freshly-read Arrow
        # buffers: a fresh np.sort copy's first-touch page faults cost
        # ~4x the sort on fragmented hosts, and this scan is the serial
        # driver tail of EVERY run (the tables are function-local and
        # discarded, so mutating their payload buffers is safe)
        chunks: list = []
        keepalive: list = []
        for _, files, owned in groups:
            t = _owned_rows(pads.dataset(files).to_table(columns=HASH_COLS), owned)
            h, ka = writable_blob_hashes(t["payload"])
            if len(h):
                chunks.append(h)
                keepalive.append(ka)
        if not chunks:
            return pa.table({"h": pa.array([], pa.int64())})
        # single group: sort its own buffer; several: the concat copy is
        # freshly owned, sort that in place instead
        h = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
        out = pa.table({"h": pa.array(dup_values(h, sort_inplace=True), pa.int64())})
        del h, chunks, keepalive
        return out

    import ray.data as rd

    parts_ds = [
        rd.read_parquet(files, columns=HASH_COLS).map_batches(
            lambda t, owned=owned: _owned_rows(t, owned), batch_format="pyarrow"
        )
        for _, files, owned in groups
    ]
    ds, *rest = parts_ds
    return candidate_hashes_from_blobs(ds.union(*rest) if rest else ds)


def _schema_groups(paths: list[str], want: list[str]):
    """Group parquet files by (footer column ∩ wanted) signature so each
    group can be read with a consistent column list. Footer reads are
    I/O-bound metadata fetches — done on a thread pool so a shard of
    hundreds of files doesn't serialize on the driver.

    UNREADABLE files (corrupt footer) are excluded from every group
    rather than crashing the shard: their partitions produce no batch
    output, so ``_missing_state_checks`` classifies them as
    ``unreadable_input`` schema FAILs — one bad file must not take down
    the other partitions of its shard."""
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=min(16, max(1, len(paths)))) as ex:
        name_sets = list(ex.map(_footer_names, paths))
    groups: dict[tuple, list[str]] = {}
    for p, names in zip(paths, name_sets):
        if names is None:
            continue
        cols = tuple(c for c in want if c in names)
        groups.setdefault(cols, []).append(p)
    return [(list(cols), files) for cols, files in sorted(groups.items())]


def _footer_names(path: str) -> set[str] | None:
    """Column names in a parquet footer; None for an unreadable file,
    which ``_missing_state_checks`` classifies (``unreadable_input``)."""
    import pyarrow.parquet as pq

    try:
        return set(pq.read_schema(path).names)
    except Exception:  # noqa: BLE001 — unreadable file, classified later
        return None


def _reduce_partials(tables) -> dict[str, dict[str, dict]]:
    """The one row fold: merge partial rows (rule_id, partition,
    payload) of the given tables per (partition, rule)."""
    out: dict[str, dict[str, dict]] = {}
    for t in tables:
        for rule_id, part, payload in zip(
            t["rule_id"].to_pylist(), t["partition"].to_pylist(), t["payload"].to_pylist()
        ):
            st = pickle.loads(payload)
            slot = out.setdefault(part, {})
            slot[rule_id] = _merge_stats(slot[rule_id], st) if rule_id in slot else st
    return out


def _merge_all(states) -> dict:
    """The one global fold: merge the given stats states ({} for none;
    empty or None states are skipped)."""
    g: dict = {}
    for st in states:
        if st:
            g = _merge_stats(g, st) if g else st
    return g
