"""End-to-end validation pipeline orchestration.

The Ray-Data re-expression of the reference's run lifecycle
(/root/reference/scripts/run_manual_experiments.py:539-662 and the
suite runner /root/reference/src/app2/validators/runner.py:109-228):

  narrow_pass(jobs): the pending partition files of one run (run()) or
  of several runs at once (e.g. an experiment's mutated runs)
    -> reuse (reuse_from=[...] only): a partition whose content key
       (file stem, sha256 of the file, engine config) matches a SUCCESS
       partition of a source run links that run's raw outputs into
       raw/reused-*/ instead of being read; each distinct file is hashed
       once per call, and each linked source shard's partials are read
       once per call, shared by every job that links it
    read_parquet(the other pending files of every job, pruned columns)
      -> map_batches(CachedEngineFn(RuleEngine))  # all narrow rules, fused into
                                                  # the read task; small files share
                                                  # a task (core/resources.read_tasks)
      -> write_parquet(raw/<shard>/, partition_cols=['kind'])
                          # violations + stat partials + doc_id hash blobs;
                          # a read spanning several jobs writes to the first
                          # job's raw/_shared/ with each row's file, and each
                          # job's shard gets its own files' rows
    -> per-partition manifests: lineage only (status, shard, content key)
    -> one NarrowJob per job: its files, shard owners and merged partials
  run(): narrow_pass([its one job]), or run(job=...) goes on from a job
  an earlier narrow_pass returned; then the run-scope checks
    kind=hash blobs -> id hashes seen twice     # the wide rule: a driver
                                                # sort below DRIVER_UNIQUE_MAX_BYTES,
                                                # else the bucketed blob exchange;
                                                # the driver sort also finds the
                                                # partitions holding a candidate
      -> one exact confirm scan of (doc_id, partition): the counts and the
         violation rows. It reads only the holders' files, plus any file
         whose footer does not show it carries only its own partition;
         probed on the driver when those key columns total at most
         DRIVER_UNIQUE_MAX_BYTES, else in a Ray read
    merge partials -> every check, built once: narrow + run-scope
      -> metrics / drift -> summary.json (its ``checks`` list is the
         run's one check table; the manifests are not written again)

Every reader of the raw/ outputs goes through ``_owned_outputs``: a
partition's rows count only from the shard its SUCCESS manifest names
(the manifests are the run's lineage), so leftovers of a crashed attempt
never double-count.

Reuse needs every file of both runs to carry only its own partition
value (footer statistics): the engine keys rows by that value, so only
then are a partition's outputs a function of its own file.

Resume: input is one Parquet file per partition; partitions whose
manifest is already SUCCESS are pruned from the read (the file is never
opened again) — the file-level analog of the reference's
``only_unprocessed`` discovery filter (discovery.py:203-223). So a run()
over a run dir that a shared narrow_pass filled reads no input file
again: it builds the checks from the committed partial states and adds
the run-scope ones. Given that pass's job, it does not even re-read the
manifests or the partials: they are in memory. Work is chunked into
shards of ``shard_size`` partitions, each committed atomically, bounding
recomputation after a crash.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import pickle
import shutil
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads

from .. import __version__
from ..core.resources import CachedEngineFn, read_args
from ..core.specs import RuleSpec, default_rules
from ..core.verdicts import CheckResult, gate_status, partition_verdict
from ..sketches import CountingHist, FixedHistogram, HyperLogLog
from ..stages.drift import load_baseline_snapshot, score_drift, build_baseline_snapshot
from ..sources.storage import link_or_copy
from ..stages.rule_engine import (
    ENGINE_COLS,
    EXPECTED_SCHEMA,
    ID_COL,
    PARTITION_COL,
    PATH_COL,
    RuleEngine,
    file_partition,
    gate_mask,
    rules_vocab_size,
)
from ..stages.uniqueness import (
    candidate_hashes_from_blobs,
    confirm_duplicates,
    occurrence_violations,
)
from ..state.checkpoint import SUCCESS, RunState

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


@dataclass
class NarrowJob:
    """One run's share of a narrow pass: what ``run`` goes on from."""

    out_dir: str
    state: RunState
    files: dict[str, str]
    pending: list[str]
    # partition -> owning raw shard, kept current as shards commit
    owners: dict[str, str]
    content_keys: dict[str, str] = field(default_factory=dict)
    reused: dict[str, tuple[str, str]] = field(default_factory=dict)
    # shard -> partition -> rule -> merged partial state, for the shards
    # this pass committed or linked
    shard_stats: dict[str, dict[str, dict[str, dict]]] = field(default_factory=dict)
    # partitions whose input file is unreadable: their checks stay
    # visible, their manifests are FAILED
    unreadable: dict[str, list[CheckResult]] = field(default_factory=dict)
    phases: dict[str, float] = field(default_factory=dict)


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

    def _allowed(self) -> list[str] | None:
        spec = self.rules.get("source_ref")
        return spec.params.get("allowed_sources") if spec else None

    def _allowed_ref(self):
        import ray

        allowed = self._allowed()
        return ray.put(allowed) if allowed is not None else None

    def _engine_key(self) -> str:
        """Digest of everything that decides a partition's raw outputs
        besides its file: the rules, the allowed sources, the vocab, the
        batching, the engine's columns and schema, and the package
        version. Built from values, not from the engine kwargs (their
        per-run ``ray.put`` ref differs every run). The drift snapshot
        is left out: drift is scored run-scope."""
        blob = pickle.dumps(
            (
                self.rules,
                self._allowed(),
                rules_vocab_size(self.rules),
                self.batch_size,
                ENGINE_COLS,
                EXPECTED_SCHEMA.to_string(),
                __version__,
            ),
            protocol=4,
        )
        return hashlib.sha256(blob).hexdigest()

    def _key_jobs(self, jobs: list[NarrowJob]) -> None:
        """Content key of each pending partition of each job: its file
        stem, a sha256 of its file's bytes and the engine key. A job is
        keyed only when every one of its files is shown by its footer to
        carry only its own partition: the engine keys rows by their
        ``partition`` value, so only then are a partition's outputs a
        function of its own file alone. A file that several jobs link is
        gated and hashed once per call, by (st_dev, st_ino); nothing is
        kept from one call to the next."""
        jobs = [j for j in jobs if j.pending]
        ident = {f: _file_id(f) for j in jobs for f in j.files.values()}
        # the gate compares the footer with the name, so a file linked
        # under another name is gated again
        gates: dict[tuple, str] = {}
        for f, fid in ident.items():
            gates.setdefault((fid, file_partition(f)), f)
        with ThreadPoolExecutor(max_workers=min(16, max(1, len(gates)))) as ex:
            ok = dict(zip(gates, ex.map(_carries_only_own_partition, gates.values())))
            keyed = [
                j for j in jobs
                if all(ok[ident[f], file_partition(f)] for f in j.files.values())
            ]
            todo: dict[tuple, str] = {}
            for j in keyed:
                for p in j.pending:
                    todo.setdefault(ident[j.files[p]], j.files[p])
            digests = dict(zip(todo, ex.map(_file_sha256, todo.values())))
        engine = self._engine_key()
        for j in keyed:
            j.content_keys = {
                p: hashlib.sha256(
                    f"{p}\0{digests[ident[j.files[p]]]}\0{engine}".encode()
                ).hexdigest()
                for p in j.pending
            }

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
        WITH rows -> schema FAIL: its rows carry another partition's
        value, so the engine keyed them there — that must surface
        loudly, not masquerade as an empty partition."""
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

    # ------------------------------------------------------------ narrow pass

    def narrow_pass(
        self,
        jobs: list[tuple[str, str]],
        *,
        resume: bool = True,
        reuse_from: list[str] | None = None,
    ) -> list[NarrowJob]:
        """Validate the narrow rules of the pending partitions of several
        runs, each job an ``(input_path, out_dir)``, and commit their
        manifests; ``run`` over such a run dir (``resume=True``) finds
        them SUCCESS, builds the checks from their partial states and
        adds the run-scope ones. ``resume`` and ``reuse_from`` are
        ``run``'s, for every job.

        Shard ``k`` of every job is validated in one read -> engine ->
        write execution per footer schema group. A read that spans
        several jobs carries its file paths: the engine tags each row
        with its file, and each job's shard gets the rows of its own
        files (never routed by the ``partition`` value, which two jobs'
        files may share). If the execution raises, every partition
        claimed for it, of every job, is marked FAILED."""
        outs = [os.path.realpath(out_dir) for _, out_dir in jobs]
        if len(set(outs)) < len(outs):
            raise ValueError("narrow_pass: two jobs share an out_dir")
        runs = [_open_job(input_path, out_dir, resume) for input_path, out_dir in jobs]
        if reuse_from is not None:
            t_phase = time.time()
            self._key_jobs(runs)
            index = _reuse_index(reuse_from) if any(j.content_keys for j in runs) else {}
            for j in runs:
                j.reused = {p: index[k] for p, k in j.content_keys.items() if k in index}
                j.phases["reuse_keys"] = round(time.time() - t_phase, 3)

        t_narrow = time.time()
        # (source run, source shard) -> its merged partials, read once
        # for every job that links that shard
        linked: dict[tuple[str, str], dict] = {}
        for j in runs:
            self._link_reused(j, reuse_from, linked)
        # round k validates shard k of every job: each job's shards
        # commit one at a time, bounding recomputation after a crash
        shards = []
        for j in runs:
            fresh = [p for p in j.pending if p not in j.reused]
            shards.append(
                [fresh[i : i + self.shard_size] for i in range(0, len(fresh), self.shard_size)]
            )
        rounds = max(map(len, shards), default=0)
        allowed_ref = self._allowed_ref() if rounds else None
        for k in range(rounds):
            self._validate_round(
                [(j, s[k]) for j, s in zip(runs, shards) if k < len(s)], allowed_ref
            )
        for j in runs:
            j.phases["narrow_pass"] = round(time.time() - t_narrow, 3)
        return runs

    def _link_reused(
        self, job: NarrowJob, reuse_from: list[str] | None, linked: dict[tuple[str, str], dict]
    ) -> None:
        """Link each source shard's outputs into a shard of the job's
        run, which the reused partitions' manifests name; the ownership
        readers keep only their rows. Nothing is claimed. A source
        shard's partials are read once per ``linked`` (one narrow pass)
        and shared by every job that links it: no fold mutates a
        state, ``_merge_stats`` and ``_merge_all`` build new ones."""
        by_source: dict[tuple[str, str], list[str]] = {}
        for p in sorted(job.reused):
            by_source.setdefault(job.reused[p], []).append(p)
        for (src, src_shard), parts in sorted(by_source.items()):
            shard_name, shard_dir = _unowned_shard_dir(
                job.out_dir, f"reused-{reuse_from.index(src)}-{src_shard}", job.owners
            )
            _link_outputs(os.path.join(src, "raw", src_shard), shard_dir)
            if (src, src_shard) not in linked:
                linked[src, src_shard] = _read_partials(_kind_files(shard_dir, "partial"))
            job.shard_stats[shard_name] = linked[src, src_shard]
            job.state.finish_many(
                [
                    (p, {"shard": shard_name, "key": job.content_keys[p], "reused_from": src})
                    for p in parts
                ]
            )
            job.owners.update((p, shard_name) for p in parts)

    def _validate_round(self, shards: list[tuple[NarrowJob, list[str]]], allowed_ref) -> None:
        """Validate one shard of each of several jobs, then commit each."""
        import ray.data as rd

        claimed = []
        for job, shard in shards:
            job.state.claim_many(shard)
            claimed.append(
                (job, shard, *_unowned_shard_dir(job.out_dir, f"shard-{shard[0]}", job.owners))
            )
        try:
            # input file -> the shard dirs (one per job) that take its rows
            takers: dict[str, list[str]] = {}
            for job, shard, _, shard_dir in claimed:
                for p in shard:
                    takers.setdefault(job.files[p], []).append(shard_dir)
            # files may disagree on schema (a column dropped upstream is
            # itself a finding): group by footer schema, read each group
            # with the columns it actually has — the engine's schema
            # rule reports the gap
            for g, (cols, group_files) in enumerate(
                _schema_groups(list(takers), list(ENGINE_COLS))
            ):
                dirs = sorted({d for f in group_files for d in takers[f]})
                shared = len(dirs) > 1
                # whole files per task, small ones packed up to
                # READ_TASK_BYTES (core/resources.read_tasks): each task
                # runs ReadParquet -> engine -> Write fused (no
                # object-store hop for the decoded token column). Files
                # are never split: a multi-GB partition file would need
                # splitting instead. A read that spans several jobs, or
                # a file without the partition column, is read with its
                # paths: the engine checks file by file and tags its rows
                # with the file (keyed by its stem when it has no
                # partition column).
                ds = rd.read_parquet(
                    group_files,
                    columns=cols,
                    include_paths=shared or PARTITION_COL not in cols,
                    **read_args(group_files),
                )
                mapped = self._map_engine(ds, self._engine_kwargs(allowed_ref))
                if not shared:
                    mapped.write_parquet(os.path.join(dirs[0], f"g{g}"), partition_cols=["kind"])
                    continue
                # the shared execution writes to the first job's
                # raw/_shared/, named by the shard's first partition so
                # that a rerun overwrites it; each job's shard gets a
                # copy of its rows. The staging output is left in place:
                # perfbench/spans.py counts the engine's output rows
                # from each shard write's directory after the pass.
                job0, shard0 = claimed[0][:2]
                staging = os.path.join(job0.out_dir, "raw", "_shared", f"shard-{shard0[0]}-g{g}")
                if os.path.isdir(staging):
                    shutil.rmtree(staging)
                mapped.write_parquet(staging, partition_cols=["kind"])
                _route_by_file(
                    staging,
                    {f: [os.path.join(d, f"g{g}") for d in takers[f]] for f in group_files},
                )
            for job, shard, shard_name, shard_dir in claimed:
                self._commit_shard(job, shard, shard_name, shard_dir)
        except Exception as e:  # noqa: BLE001 — manifests record the failure
            for job, shard, _, _ in claimed:
                for p in shard:
                    job.state.fail(p, repr(e))
            raise

    def _commit_shard(
        self, job: NarrowJob, shard: list[str], shard_name: str, shard_dir: str
    ) -> None:
        """Commit a validated shard: each partition's manifest names the
        shard and the content key, and holds no checks (``run`` builds
        them all once). A partition with no output whose input file is
        unreadable keeps its checks in ``job.unreadable`` and its
        manifest is marked FAILED — not SUCCESS — so a resumed run after
        the file is repaired validates it again."""
        merged = job.shard_stats[shard_name] = _read_partials(_kind_files(shard_dir, "partial"))
        done = []
        for p in shard:
            if not merged.get(p):
                checks = self._missing_state_checks(p, job.files[p])
                if any((c.metrics or {}).get("unreadable_input") for c in checks):
                    job.state.fail(p, f"unreadable input file: {job.files[p]}")
                    job.unreadable[p] = checks
                    continue
            done.append(p)
        job.state.finish_many(
            [(p, {"shard": shard_name, "key": job.content_keys.get(p)}) for p in done]
        )
        job.owners.update((p, shard_name) for p in done)

    # ------------------------------------------------------------ run

    def run(
        self,
        input_path: str,
        out_dir: str,
        *,
        resume: bool = True,
        reuse_from: list[str] | None = None,
        job: NarrowJob | None = None,
    ) -> RunResult:
        """Validate every partition file under ``input_path`` into
        ``out_dir``: the narrow rules (``narrow_pass``), then the
        run-scope uniqueness and drift checks and the verdicts.

        ``reuse_from``: None validates every pending partition and hashes
        nothing. A list (``[]`` included) records each partition's
        content key in its manifest, and a partition whose key matches a
        SUCCESS partition of one of the listed runs is not read: that
        run's raw outputs are linked into this run's ``raw/`` instead.

        ``job``: the ``NarrowJob`` that a ``narrow_pass`` over
        ``(input_path, out_dir)`` returned (``resume`` and ``reuse_from``
        were that pass's). The run then makes no pass of its own: it
        takes the merged partial states, shard owners, input files and
        unreadable inputs from the job, and its ``phases`` hold only its
        own run-scope phases. The job is data, not configuration: the
        result is the same without it. A job of another run dir raises
        ValueError."""
        t0 = time.time()
        if job is None:
            os.makedirs(out_dir, exist_ok=True)
            RunState(out_dir).audit.append("run_start", input=input_path, resume=resume)
            job = self.narrow_pass([(input_path, out_dir)], resume=resume, reuse_from=reuse_from)[0]
            phases = job.phases
        elif os.path.realpath(job.out_dir) != os.path.realpath(out_dir):
            raise ValueError(f"run: the job is {job.out_dir}'s, not {out_dir}'s")
        else:
            job.state.audit.append("run_start", input=input_path, resume=resume)
            phases = {}
        state, files, owners = job.state, job.files, job.owners
        all_parts = sorted(files)
        t_phase = time.time()

        # all partitions' merged stats (this run + prior resumed runs),
        # each from its OWNING shard: this run's from memory, prior
        # runs' re-read from their tiny kind=partial outputs
        shard_stats: dict[str, dict[str, dict]] = {}
        for shard_name, part_files, owned in _owned_outputs(out_dir, "partial", owners):
            reduced = job.shard_stats.get(shard_name)
            if reduced is None:
                reduced = _read_partials(part_files)
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
            # partitions whose id hashes hold a candidate: only their
            # files need the confirm scan. A row gate hashes only the
            # rows it passes, so then every file is scanned and the
            # confirm counts only the rows the gate passes
            gate = self.rules.get("row_gate")
            preds = gate.params.get("predicates", []) if gate and gate.enabled else []
            holders: set[str] | None = None if gate and gate.enabled else set()
            cand = _candidate_hashes(out_dir, owners, holders)
            uniq_dir = os.path.join(out_dir, "unique_violations")
            if os.path.isdir(uniq_dir):
                shutil.rmtree(uniq_dir)  # run-scope check is recomputed whole
            os.makedirs(uniq_dir)
            # one scan of (doc_id, partition) gives both the counts and
            # the violation rows; rows of a file without the column
            # count under its stem, as the rule engine keys them
            key_files, nbytes = (
                _confirm_files(files, holders, preds)
                if cand is not None and cand.num_rows
                else ({}, 0)
            )
            if key_files:
                keys = (
                    _read_keys(key_files, preds)
                    if nbytes <= DRIVER_UNIQUE_MAX_BYTES
                    else _key_dataset(key_files, preds)
                )
                dup_table = confirm_duplicates(keys, cand, ID_COL, PARTITION_COL)
                if dup_table.num_rows:
                    import pyarrow.parquet as pq

                    vio = occurrence_violations(dup_table, ID_COL, PARTITION_COL)
                    pq.write_table(vio, os.path.join(uniq_dir, "part-0.parquet"))
                    counts = pc.value_counts(vio["partition"])
                    dup_violation_counts = dict(
                        zip(counts.field("values").to_pylist(), counts.field("counts").to_pylist())
                    )

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

        # ---- every check of the run, built once per partition: the
        # narrow checks plus the two run-scope ones, in rule order;
        # summary.json is the only place they are written
        rule_order = {rule_id: i for i, rule_id in enumerate(self.rules)}
        verdicts: list[CheckResult] = []
        metrics: dict[str, Any] = {"partitions": {}}
        for part in processed:
            rules_states = shard_stats[part]
            stats_rows = rules_states.get("column_stats", {}).get("rows_total", 0)
            checks = self._narrow_checks(part, rules_states, input_file=files.get(part))
            stats_check = next((c for c in checks if c.rule_id == "column_stats"), None)
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
            verdicts.extend(checks)
            if stats_check is not None:
                metrics["partitions"][part] = stats_check.metrics
            elif "column_stats" in rules_states:
                metrics["partitions"][part] = _stats_metrics(rules_states["column_stats"])
        if global_stats:
            metrics["global"] = _stats_metrics(global_stats)

        # unreadable inputs: verdict rows visible, manifests FAILED
        for part in sorted(job.unreadable):
            verdicts.extend(job.unreadable[part])

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
        return {file_partition(input_path): input_path}
    out = {}
    for f in sorted(glob.glob(os.path.join(input_path, "*.parquet"))):
        out[file_partition(f)] = f
    if not out:
        raise FileNotFoundError(f"no .parquet files under {input_path}")
    return out


def _unowned_shard_dir(out_dir: str, base: str, owners: dict[str, str]) -> tuple[str, str]:
    """(name, path) of an empty raw shard dir named after ``base``.

    If a resumed run regroups partitions, an existing dir of that name
    may still be OWNED by other partitions' SUCCESS manifests — deleting
    it would destroy their committed rows. So the first name that is
    free or unowned (crashed leftovers, deleted here) is taken;
    owners-filtering at read time keeps stale rows of reclaimed
    partitions from double-counting."""
    owned_dirs = set(owners.values())
    name, k = base, 0
    while name in owned_dirs:
        k += 1
        name = f"{base}-r{k}"
    path = os.path.join(out_dir, "raw", name)
    if os.path.isdir(path):
        shutil.rmtree(path)
    return name, path


def _link_outputs(src_shard_dir: str, shard_dir: str) -> None:
    """Link every raw output file (each ``kind``) of a shard of another
    run into ``shard_dir``, keeping its layout."""
    os.makedirs(shard_dir)
    for f in _kind_files(src_shard_dir, "*"):
        dst = os.path.join(shard_dir, os.path.relpath(f, src_shard_dir))
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        link_or_copy(f, dst)


def _reuse_index(sources: list[str]) -> dict[str, tuple[str, str]]:
    """content key -> (source run, its shard) of every partition that a
    source run finished (SUCCESS); the first listed source wins. A
    source counts only when it keyed every one of its partitions (all
    its files carried only their own partition); a source that holds no
    run is skipped."""
    found: dict[str, tuple[str, str]] = {}
    for src in sources:
        if not os.path.isdir(os.path.join(src, "_manifests")):
            continue
        manifests = RunState(src, read_only=True).all_manifests()
        if any(m.key is None for m in manifests):
            continue
        for m in manifests:
            if (
                m.key not in found
                and m.status == SUCCESS
                and m.shard
                and os.path.isdir(os.path.join(src, "raw", m.shard))
            ):
                found[m.key] = (src, m.shard)
    return found


def _open_job(input_path: str, out_dir: str, resume: bool) -> NarrowJob:
    """A narrow-pass job: its run dir, input files and the partitions
    still to validate (all of them unless ``resume``)."""
    os.makedirs(out_dir, exist_ok=True)
    state = RunState(out_dir)
    files = discover_partition_files(input_path)
    done = state.completed() if resume else set()
    pending = [p for p in sorted(files) if p not in done]
    state.audit.append(
        "narrow_start", input=input_path, partitions=len(files), pending=len(pending), resume=resume
    )
    if done:
        state.audit.append("resume_skip", partitions=sorted(done), n=len(done))
    return NarrowJob(out_dir, state, files, pending, state.shard_owners())


def _route_by_file(staging: str, dests: dict[str, list[str]]) -> None:
    """Copy the output rows of a read that spanned several jobs, under
    ``staging`` (one ``kind=*`` dir each), into the dirs ``dests`` names
    for the file each row came from (its ``path`` column)."""
    import pyarrow.parquet as pq

    by_dest: dict[str, list[str]] = {}
    for f, dirs in dests.items():
        for d in dirs:
            by_dest.setdefault(d, []).append(f)
    for kind_dir in sorted(glob.glob(os.path.join(staging, "kind=*"))):
        t = pads.dataset(kind_dir, format="parquet").to_table()
        paths = t[PATH_COL]
        t = t.drop_columns([PATH_COL])
        for d, fs in sorted(by_dest.items()):
            rows = t.filter(pc.is_in(paths, value_set=pa.array(fs, pa.string())))
            if rows.num_rows:
                os.makedirs(os.path.join(d, os.path.basename(kind_dir)))
                pq.write_table(rows, os.path.join(d, os.path.basename(kind_dir), "routed.parquet"))


def _carries_only_own_partition(path: str) -> bool:
    """True when the footer statistics of ``path`` show every row's
    ``partition`` equal to the file stem (min == max == stem, no nulls,
    in every row group with rows). False for a file without the column
    or without statistics, and for an unreadable one."""
    import pyarrow.parquet as pq

    stem = file_partition(path)
    try:
        md = pq.read_metadata(path)
    except Exception:  # noqa: BLE001 — unreadable file
        return False
    cols = [md.schema.column(j).path for j in range(md.num_columns)]
    if PARTITION_COL not in cols:
        return False
    groups = [md.row_group(i) for i in range(md.num_row_groups)]
    stats = [g.column(cols.index(PARTITION_COL)).statistics for g in groups if g.num_rows]
    return all(
        st is not None
        and st.has_min_max
        and st.has_null_count
        and st.null_count == 0
        and st.min == stem == st.max
        for st in stats
    )


def _file_id(path: str) -> tuple[int, int]:
    st = os.stat(path)
    return st.st_dev, st.st_ino


def _file_sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.file_digest(f, "sha256").hexdigest()


def _partition_from_path(t: pa.Table) -> pa.Table:
    """(doc_id, partition) of ids read with their file path."""
    paths = t[PATH_COL].combine_chunks().dictionary_encode()
    stems = pa.array([file_partition(p) for p in paths.dictionary.to_pylist()], pa.string())
    return pa.table({ID_COL: t[ID_COL], PARTITION_COL: stems.take(paths.indices)})


def _kind_files(shard_dir: str, kind: str) -> list[str]:
    """Parquet files of one output kind ('violation', 'partial' or
    'hash'; '*' for all) under a raw shard dir, across its schema
    groups."""
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


# below this, the candidate scan runs on the DRIVER (one exact
# np.unique over all id hashes) instead of the distributed bucketed
# blob exchange — the broadcast-vs-shuffle style size cutoff. 1 GiB of
# hash blobs ≈ 130M ids; beyond that the distributed path keeps
# driver memory bounded.
DRIVER_UNIQUE_MAX_BYTES = 1 << 30


def _candidate_hashes(
    out_dir: str, owners: dict[str, str], holders: set[str] | None = None
) -> pa.Table | None:
    """Small table ("h": int64) of id hashes seen more than once, or
    None when no hash rows exist. Chooses driver-side exact scan vs
    distributed bucket shuffle by total hash volume.

    ``holders``, when given, gets the owned partitions whose hash rows
    hold a candidate: exactly on the driver path when the hashes of
    several shards are scanned; every partition of the one shard when
    its hashes are sorted in place, and every owned partition on the
    distributed path, which does not know them."""
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
        # per chunk: the partition and the hash count of each blob row
        rows: list[tuple[pa.Array, np.ndarray]] = []
        for _, files, owned in groups:
            t = _owned_rows(pads.dataset(files).to_table(columns=HASH_COLS), owned)
            h, ka = writable_blob_hashes(t["payload"])
            if len(h):
                chunks.append(h)
                keepalive.append(ka)
                valid = pc.is_valid(t["payload"])
                lens = pc.binary_length(t["payload"].filter(valid)).to_numpy() // 8
                rows.append((t["partition"].filter(valid), lens))
        if not chunks:
            return pa.table({"h": pa.array([], pa.int64())})
        # single group: sort its own buffer; several: the concat copy is
        # freshly owned, sort that in place instead (the chunks keep
        # each row's hashes, so the holders are exact)
        h = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
        dups = dup_values(h, sort_inplace=True)
        if holders is not None and len(dups):
            if len(chunks) == 1:
                holders.update(rows[0][0].to_pylist())
            else:
                for c, (parts, lens) in zip(chunks, rows):
                    at = np.flatnonzero(np.isin(c, dups))
                    row = np.searchsorted(np.cumsum(lens), at, side="right")
                    holders.update(parts.take(pa.array(row)).to_pylist())
        out = pa.table({"h": pa.array(dups, pa.int64())})
        del h, chunks, keepalive
        return out

    import ray.data as rd

    if holders is not None:
        holders.update(owners)
    parts_ds = [
        rd.read_parquet(files, columns=HASH_COLS).map_batches(
            lambda t, owned=owned: _owned_rows(t, owned), batch_format="pyarrow"
        )
        for _, files, owned in groups
    ]
    ds, *rest = parts_ds
    return candidate_hashes_from_blobs(ds.union(*rest) if rest else ds)


def _confirm_files(
    files: dict[str, str], holders: set[str] | None, preds=()
) -> tuple[dict[bool, list[str]], int]:
    """The input files the duplicate confirm must scan, by whether they
    carry a partition column, and the uncompressed size of their
    ``doc_id``/``partition`` and row-gate ``preds`` column chunks
    (footer). With ``holders`` (None: every file), a file whose footer
    shows it carries only its own partition is scanned only when that
    partition holds a candidate; any other file may hold rows keyed
    under any partition, so it is scanned. An unreadable file carries
    no ids, and a file without a gate column has all its rows gated."""
    import pyarrow.parquet as pq

    key_files: dict[bool, list[str]] = {}
    nbytes = 0
    for f in sorted(files.values()):
        try:
            md = pq.read_metadata(f)
        except Exception:  # noqa: BLE001 — unreadable file
            continue
        names = set(md.schema.to_arrow_schema().names)
        if ID_COL not in names or not _gate_cols(preds) <= names:
            continue
        if (
            holders is not None
            and file_partition(f) not in holders
            and _carries_only_own_partition(f)
        ):
            continue
        key_files.setdefault(PARTITION_COL in names, []).append(f)
        want = {ID_COL, PARTITION_COL} | _gate_cols(preds)
        cols = [j for j in range(md.num_columns) if md.schema.column(j).path in want]
        nbytes += sum(
            md.row_group(i).column(j).total_uncompressed_size
            for i in range(md.num_row_groups)
            for j in cols
        )
    return key_files, nbytes


def _gate_cols(preds) -> set[str]:
    return {col for col, _op, _value in preds}


def _gated(t: pa.Table, preds) -> pa.Table:
    """The rows of ``t`` the row gate ``preds`` passes (all if none)."""
    return t.filter(pa.array(gate_mask(t, preds)[0])) if preds else t


def _read_keys(key_files: dict[bool, list[str]], preds=()) -> pa.Table:
    """(doc_id, partition) of the rows of the given files that the row
    gate ``preds`` passes, read on the driver."""
    import pyarrow.parquet as pq

    gcols = sorted(_gate_cols(preds) - {ID_COL, PARTITION_COL})
    tables = []
    for has, fs in sorted(key_files.items(), reverse=True):
        for f in fs:
            if has:
                t = pq.ParquetFile(f).read(columns=[ID_COL, PARTITION_COL, *gcols])
                tables.append(_gated(t, preds).select([ID_COL, PARTITION_COL]))
            else:
                t = pq.ParquetFile(f).read(columns=[ID_COL, *gcols])
                ids = _gated(t, preds)[ID_COL]
                stems = pa.array([file_partition(f)] * len(ids), pa.string())
                tables.append(pa.table({ID_COL: ids, PARTITION_COL: stems}))
    return pa.concat_tables(tables)


def _key_dataset(key_files: dict[bool, list[str]], preds=()):
    """(doc_id, partition) of the rows of the given files that the row
    gate ``preds`` passes, as one Ray Dataset."""
    import ray.data as rd

    gcols = sorted(_gate_cols(preds) - {ID_COL, PARTITION_COL})

    def read(fs, cols, **kw):
        ds = rd.read_parquet(fs, columns=cols + gcols, **kw, **read_args(fs))
        if preds:
            keep = cols + ([PATH_COL] if kw else [])
            ds = ds.map_batches(
                lambda t: _gated(t, preds).select(keep), batch_format="pyarrow"
            )
        return ds

    first, *rest = (
        read(fs, [ID_COL, PARTITION_COL])
        if has
        else read(fs, [ID_COL], include_paths=True).map_batches(
            _partition_from_path, batch_format="pyarrow"
        )
        for has, fs in sorted(key_files.items(), reverse=True)
    )
    return first.union(*rest) if rest else first


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


def _read_partials(files: list[str]) -> dict[str, dict[str, dict]]:
    """``_reduce_partials`` of the given kind=partial files."""
    return _reduce_partials(
        [pads.dataset(files).to_table(columns=PARTIAL_COLS)] if files else []
    )


def _merge_all(states) -> dict:
    """The one global fold: merge the given stats states ({} for none;
    empty or None states are skipped)."""
    g: dict = {}
    for st in states:
        if st:
            g = _merge_stats(g, st) if g else st
    return g
