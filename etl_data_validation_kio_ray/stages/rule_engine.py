"""The single-pass rule engine — a stateful ``map_batches`` stage.

Re-expresses the reference's per-suite validators
(/root/reference/src/app2/validators/{stg,dds}/*_suite/*.py) and the
declarative StageChecks (/root/reference/src/app2/etl_validation/specs.py:20-333)
as ONE vectorized pass over zero-copy Arrow batches. Like the
reference's module-level compiled ``Draft7Validator`` singletons
(schema_suite/matches_schema.py:56), all rule compilation — expected
schema, allowed-source set, baseline drift snapshot — happens once per
worker process in ``__init__`` (broadcast via ``ray.put`` ObjectRefs;
the instance is cached per worker by core/resources.CachedEngineFn),
never per batch.

Output is a union table so ONE scan of the input produces both
violation rows and mergeable stat partials (at 100 TB a second scan is
the thing to avoid):

    kind:      'violation' | 'partial' | 'hash'
    rule_id:   string
    partition: string
    doc_id:    string  (null for partials and hashes)
    reason:    string  (null for partials and hashes)
    payload:   binary  (pickled partial state; for 'hash', the batch's
                        64-bit doc_id hashes back to back; null for
                        violations)

Rows are keyed by their ``partition`` value. A batch read with the
reader's ``path`` column (``read_parquet(..., include_paths=True)``) is
checked file by file, and every output row carries its file's ``path``,
so a read that spans several runs can hand each run its own files' rows.
A file without the ``partition`` column is keyed by its stem, the
partition the file stands for, and its schema check reports the missing
column.

Wide rules (doc_id uniqueness) cannot be computed in a narrow pass: the
engine emits one 'hash' row per (batch, partition) and the run-scope
scan in pipelines/validate.py finds repeats among them
(stages/uniqueness.py confirms them exactly). Drift partials are
produced here and scored against the baseline in stages/drift.py.
"""

from __future__ import annotations

import os
import pickle
import time
from typing import Any

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..core.specs import RuleSpec
from ..functions.grouping import run_starts
from ..sketches import CountingHist, FixedHistogram, HyperLogLog
from ..sketches.hll import hash64

UNION_SCHEMA = pa.schema(
    [
        ("kind", pa.string()),
        ("rule_id", pa.string()),
        ("partition", pa.string()),
        ("doc_id", pa.string()),
        ("reason", pa.string()),
        ("payload", pa.binary()),
    ]
)

# the token table's columns (FIXTURES.md F1), in the order the engine
# reads them: every stage of the flagship names them through this
ENGINE_COLS = ("doc_id", "tokens", "n_tok", "source", "partition")
ID_COL, TOKEN_COL, LEN_COL, SOURCE_COL, PARTITION_COL = ENGINE_COLS
PATH_COL = "path"  # the file column of read_parquet(include_paths=True)
# output of a batch read with its paths: each row names its file
PATH_SCHEMA = UNION_SCHEMA.append(pa.field(PATH_COL, pa.string()))
EXPECTED_SCHEMA = pa.schema(
    [
        (ID_COL, pa.string()),
        (TOKEN_COL, pa.list_(pa.int32())),
        (LEN_COL, pa.int32()),
        (SOURCE_COL, pa.string()),
    ]
)

VOCAB_SIZE = 50257  # token vocabulary when row_invariants sets none

# drift histogram shapes (FIXTURES.md F3)
NTOK_BINS = 64
TOKEN_BINS = 256


def bin_width(vocab_size: int) -> int:
    """Integer token-hist bin width: ceil(vocab/TOKEN_BINS). The
    histogram domain is [0, bin_width*TOKEN_BINS), slightly wider than
    the vocab — bin edges stay integral so binning is one int32
    divide."""
    return -(-vocab_size // TOKEN_BINS)


def rules_vocab_size(rules: dict[str, RuleSpec]) -> int:
    """Token vocabulary a rule set declares: ``row_invariants``'
    ``vocab_size`` when that rule is enabled, else VOCAB_SIZE."""
    inv = rules.get("row_invariants")
    if inv is None or not inv.enabled:
        return VOCAB_SIZE
    return int(inv.params.get("vocab_size", VOCAB_SIZE))


def file_partition(path: str) -> str:
    """The partition a file stands for: its stem."""
    return os.path.splitext(os.path.basename(path))[0]


def _file_runs(paths) -> list[tuple[str, int, int]]:
    """(path, start, stop) of each run of equal consecutive values of a
    ``path`` column; a reader block holds each file's rows together."""
    enc = pc.dictionary_encode(
        paths.combine_chunks() if isinstance(paths, pa.ChunkedArray) else paths
    )
    idx = enc.indices.to_numpy(zero_copy_only=False)
    starts = run_starts(idx).tolist()
    return [
        (enc.dictionary[int(idx[a])].as_py(), a, b)
        for a, b in zip(starts, [*starts[1:], len(idx)])
    ]


def _empty_like(n: int) -> dict[str, list]:
    return {k.name: [] for k in UNION_SCHEMA}


_GATE_OPS = {
    "==": pc.equal,
    "!=": pc.not_equal,
    "<": pc.less,
    "<=": pc.less_equal,
    ">": pc.greater,
    ">=": pc.greater_equal,
}


def gate_mask(t: pa.Table, predicates) -> tuple[np.ndarray, np.ndarray]:
    """The row gate, stated once for the engine and the duplicate
    confirm: ``(keep, reason)`` where ``keep[i]`` iff row i satisfies
    ALL ``predicates = [(col, op, value), ...]`` (op in ==, !=, <, <=,
    >, >=, in, not_in, not_null) and ``reason[i]`` is the index of the
    first predicate it fails (-1 if kept). A missing column or a null
    predicate value fails its predicate."""
    nrows = t.num_rows
    keep = np.ones(nrows, dtype=bool)
    reason = np.full(nrows, -1, dtype=np.int32)
    for pi, (col, op, value) in enumerate(predicates):
        if col not in t.column_names:
            ok = np.zeros(nrows, dtype=bool)  # column gone: all gated
        else:
            arr = t[col].combine_chunks()
            if op == "not_null":
                m = pc.is_valid(arr)
            elif op in ("in", "not_in"):
                # INFERRED set type (numeric promotion compares exact
                # values, so 2.5 or out-of-range ints simply match
                # nothing — forcing arr.type would truncate or
                # overflow); empty sets need the column type because
                # pa.array([]) is null-typed. The whole construction
                # sits in the try so mixed-type value lists also get
                # the contextual error.
                try:
                    vs = pa.array(list(value)) if value else pa.array([], type=arr.type)
                    m = pc.is_in(arr, value_set=vs)
                except (
                    pa.ArrowTypeError,
                    pa.ArrowInvalid,
                    pa.ArrowNotImplementedError,
                ) as e:
                    raise ValueError(
                        f"row_gate: values {value!r} not comparable to "
                        f"column {col!r} of type {arr.type}: {e}"
                    ) from e
                if op == "not_in":
                    m = pc.invert(m)
            elif op in _GATE_OPS:
                m = _GATE_OPS[op](arr, pa.scalar(value))
            else:
                raise ValueError(f"row_gate: unknown op {op!r}")
            ok = pc.fill_null(m, False).to_numpy(zero_copy_only=False)
        reason[keep & ~ok] = pi
        keep &= ok
    return keep, reason


class RuleEngine:
    """Per-batch-pure callable for ``map_batches(CachedEngineFn(RuleEngine,
    **engine_kwargs), batch_format='pyarrow')``: a fused task with the
    engine built once per worker (core/resources.py)."""

    def __init__(
        self,
        rules: dict[str, RuleSpec],
        *,
        allowed_sources: Any = None,  # list | ObjectRef | None
        vocab_size: int | None = None,
    ):
        import ray

        self.rules = {r.rule_id: r for r in rules.values() if r.enabled}

        inv = self.rules.get("row_invariants")
        self.min_len = int(inv.params.get("min_len", 1)) if inv else 1
        self.max_len = int(inv.params.get("max_len", 8192)) if inv else 8192
        # ``vocab_size`` overrides the rule's: it also sets the token
        # histogram domain, which a stats-only engine (drift snapshot)
        # must share with the full rule set it is compared against
        self.vocab_size = vocab_size if vocab_size is not None else rules_vocab_size(rules)
        # stats histogram domain is independent of the invariant range:
        # a tight max_len must not clip the n_tok distribution stats
        stats = self.rules.get("column_stats")
        self.stats_hi = int((stats.params.get("hist_max") if stats else None) or 8192)

        # broadcast small side: resolve ObjectRef once per worker
        ref = self.rules.get("source_ref")
        allowed = allowed_sources
        if allowed is None and ref is not None:
            allowed = ref.params.get("allowed_sources")
        if allowed is not None and isinstance(allowed, ray.ObjectRef):
            allowed = ray.get(allowed)
        self.allowed_sources = (
            pa.array(sorted(set(allowed)), pa.string()) if allowed is not None else None
        )

    # ------------------------------------------------------------------ util

    def _emit_violation(self, out, rule_id, partition, doc_ids, reasons):
        n = len(doc_ids)
        out["kind"].extend(["violation"] * n)
        out["rule_id"].extend([rule_id] * n)
        out["partition"].extend([partition] * n)
        out["doc_id"].extend(doc_ids)
        out["reason"].extend(reasons)
        out["payload"].extend([None] * n)

    def _emit_partial(self, out, rule_id, partition, state: dict):
        out["kind"].append("partial")
        out["rule_id"].append(rule_id)
        out["partition"].append(partition)
        out["doc_id"].append(None)
        out["reason"].append(None)
        out["payload"].append(pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL))

    # ------------------------------------------------------------------ main

    def __call__(self, batch: pa.Table) -> pa.Table:
        if PATH_COL not in batch.column_names:
            return self._check(batch)
        outs = [PATH_SCHEMA.empty_table()]
        for path, start, stop in _file_runs(batch[PATH_COL]):
            sub = batch.slice(start, stop - start).drop_columns([PATH_COL])
            t = self._check(sub, path)
            outs.append(t.append_column(PATH_COL, pa.array([path] * t.num_rows, pa.string())))
        return pa.concat_tables(outs)

    def _check(self, batch: pa.Table, path: str | None = None) -> pa.Table:
        """Output rows of one batch; ``path``: the file all its rows
        come from, if known."""
        out = _empty_like(0)
        if PARTITION_COL in batch.column_names:
            keys = batch[PARTITION_COL]
            parts = pc.unique(keys)
            if len(parts) == 1:
                self._process(batch, parts[0].as_py(), out)
            else:
                for pval in sorted(p.as_py() for p in parts):
                    self._process(batch.filter(pc.equal(keys, pa.scalar(pval))), pval, out)
        elif path is not None:
            self._process(batch, file_partition(path), out, from_path=True)
        else:
            self._process(batch, "all", out)
        return pa.table(
            {k.name: pa.array(out[k.name], k.type) for k in UNION_SCHEMA},
            schema=UNION_SCHEMA,
        )

    def _process(self, sub: pa.Table, partition: str, out, from_path: bool = False) -> None:
        # gate rule FIRST: rows failing the declarative predicate are
        # quarantined (violation rows + count) and excluded from every
        # downstream rule — the reference's HTTP-status gating filter
        # (experiments/stg_copy.py:67 `http_status BETWEEN 200 AND 299`,
        # etl_validation/specs.py:36) re-expressed declaratively
        if "row_gate" in self.rules:
            sub = self._rule_gate(sub, partition, out)
        nrows = sub.num_rows
        cols = set(sub.column_names)

        # ids stay Arrow; materialized to Python ONLY for the (rare)
        # violating rows via take — never a full to_pylist per batch
        ids_arr = sub[ID_COL].combine_chunks() if ID_COL in cols else None

        def take_ids(idx: np.ndarray) -> list:
            if ids_arr is None:
                return [None] * len(idx)
            return ids_arr.take(pa.array(idx, pa.int64())).to_pylist()

        def id_at(i: int) -> str | None:
            return ids_arr[int(i)].as_py() if ids_arr is not None else None

        # tokens: flat view once, reused by invariants + stats; no
        # int64 widening. When the ListArray is dense (unsliced,
        # offsets covering the whole child array — the normal case for
        # parquet-decoded blocks) the child `.values` IS the flattened
        # array, zero-copy; otherwise fall back to list_flatten (copy).
        tokens = lens_np = flat_np = None
        if TOKEN_COL in cols:
            tokens = sub[TOKEN_COL].combine_chunks()
            lens = pc.list_value_length(tokens)
            lens_np = (
                pc.fill_null(lens, -1).to_numpy(zero_copy_only=False).astype(np.int64)
            )
            flat_np = None
            if (
                isinstance(tokens, pa.ListArray)
                and tokens.offset == 0
                and tokens.null_count == 0
                and tokens.values.null_count == 0
            ):
                offs = tokens.offsets
                if (
                    len(offs)
                    and offs[0].as_py() == 0
                    and offs[-1].as_py() == len(tokens.values)
                ):
                    flat_np = tokens.values.to_numpy(zero_copy_only=False)
            if flat_np is None:
                flat_np = pc.list_flatten(tokens).to_numpy(zero_copy_only=False)

        n_tok_np = None
        if LEN_COL in cols:
            n_tok = sub[LEN_COL].combine_chunks()
            n_tok_np = (
                pc.fill_null(n_tok, -1).to_numpy(zero_copy_only=False).astype(np.int64)
            )

        # one max-reduction over the flat tokens (read-only, no
        # temporaries): the uint32 view maps negatives to huge values,
        # so `tok_max_u < vocab_size` proves EVERY token in-range —
        # letting the vocab check and the histogram clip skip their
        # full-array passes on clean data (the common case; bytes per
        # token is the scaling cost of this stage)
        tok_max_u = None
        if (
            flat_np is not None
            and len(flat_np)
            and flat_np.dtype == np.int32
            and ("row_invariants" in self.rules or "column_stats" in self.rules)
        ):
            tok_max_u = int(flat_np.view(np.uint32).max())

        # doc_id hashes: computed once, shared by the HLL stat and the
        # uniqueness rule's hash emission
        ids_hash = None
        if ids_arr is not None and (
            "doc_id_unique" in self.rules or "column_stats" in self.rules
        ):
            from ..sketches.hll import hash64

            valid_ids = ids_arr.drop_null()
            if len(valid_ids):
                ids_hash = hash64(valid_ids.to_numpy(zero_copy_only=False))
            else:
                ids_hash = np.empty(0, dtype=np.uint64)

        if "schema_types" in self.rules:
            self._rule_schema(sub, partition, out, take_ids, nrows, from_path)
        if "completeness_nulls" in self.rules:
            self._rule_completeness(sub, partition, out, nrows)
        if "row_invariants" in self.rules and tokens is not None:
            self._rule_invariants(
                partition, out, take_ids, nrows, lens_np, n_tok_np, flat_np,
                tok_max_u=tok_max_u,
            )
        if "source_ref" in self.rules and self.allowed_sources is not None and SOURCE_COL in cols:
            self._rule_source_ref(sub, partition, out, take_ids)
        if "column_stats" in self.rules or "drift_ks_psi" in self.rules:
            self._rule_stats(
                sub, partition, out, nrows, lens_np, n_tok_np, flat_np, ids_hash,
                tok_max_u=tok_max_u,
            )
        if "doc_id_unique" in self.rules and ids_hash is not None:
            # one 'hash' row per (batch, partition): the raw 64-bit id
            # hashes as a binary blob. The uniqueness shuffle later
            # reads ONLY these small rows back — the id strings are
            # never re-decoded from the input (stages/uniqueness.py)
            out["kind"].append("hash")
            out["rule_id"].append("doc_id_unique")
            out["partition"].append(partition)
            out["doc_id"].append(None)
            out["reason"].append(None)
            out["payload"].append(ids_hash.tobytes())

    # ------------------------------------------------------------- kernels

    def _rule_gate(self, sub: pa.Table, partition: str, out) -> pa.Table:
        """Declarative row gate (:func:`gate_mask`): failing (or
        null-predicate) rows are quarantined: emitted as violations,
        counted in the partial, and EXCLUDED from downstream rules."""
        t0 = time.perf_counter()
        preds = self.rules["row_gate"].params.get("predicates", [])
        nrows = sub.num_rows
        keep, per_row_reason = gate_mask(sub, preds)
        why = [f"{col} {op} {value!r}" for col, op, value in preds]
        gated = np.flatnonzero(~keep)
        if len(gated):
            ids_arr = (
                sub[ID_COL].combine_chunks()
                if ID_COL in sub.column_names
                else None
            )
            ids = (
                ids_arr.take(pa.array(gated, pa.int64())).to_pylist()
                if ids_arr is not None
                else [None] * len(gated)
            )
            self._emit_violation(
                out, "row_gate", partition, ids,
                [f"gated: failed {why[per_row_reason[i]]}" for i in gated],
            )
        self._emit_partial(
            out, "row_gate", partition,
            {
                "rows_total": nrows,
                "rows_failed": int(len(gated)),
                "duration_ms": (time.perf_counter() - t0) * 1000,
            },
        )
        return sub.filter(pa.array(keep)) if len(gated) else sub

    def _rule_schema(self, sub, partition, out, take_ids, nrows, from_path=False):
        """Arrow-schema + required-field checks — analog of the Draft-7
        suites (schema_suite/matches_schema.py:59-88: required keys,
        types, minItems). ``from_path``: the rows were keyed by their
        file, which lacks the partition column."""
        t0 = time.perf_counter()
        rows_failed = 0
        # schema-level issues are emitted as PARTIAL state (one violation
        # row per partition at reduce time, not one per batch — exactness
        # under any batching, SURVEY.md §7.4)
        schema_errors: list[str] = []
        # reader-recorded nested-schema findings (sources/jsonl.py
        # SCHEMA_ERROR_COL): one violation per flagged row, with the
        # reader's precise reason — never silently dropped
        if "__schema_error" in sub.column_names:
            err = sub["__schema_error"]
            if isinstance(err, pa.ChunkedArray):
                err = err.combine_chunks()
            if err.null_count < len(err):
                bad = np.flatnonzero(
                    pc.is_valid(err).to_numpy(zero_copy_only=False)
                )
                reasons = err.take(pa.array(bad, pa.int64())).to_pylist()
                self._emit_violation(
                    out, "schema_types", partition, take_ids(bad), reasons
                )
                rows_failed += len(bad)
        if from_path:
            schema_errors.append(f"column '{PARTITION_COL}' missing")
            rows_failed += nrows
        for f in EXPECTED_SCHEMA:
            if f.name not in sub.column_names:
                schema_errors.append(f"column '{f.name}' missing")
                rows_failed += nrows
                continue
            actual = sub.schema.field(f.name).type
            if actual != f.type and not (
                pa.types.is_large_list(actual) and f.type == pa.list_(pa.int32())
                and actual.value_type == pa.int32()
            ):
                schema_errors.append(
                    f"column '{f.name}' type {actual} != expected {f.type}"
                )
                rows_failed += nrows
        # required (non-null) id + tokens
        for col in (ID_COL, TOKEN_COL):
            if col not in sub.column_names:
                continue
            arr = sub[col]
            if arr.null_count:
                bad = np.flatnonzero(
                    pc.is_null(arr).combine_chunks().to_numpy(zero_copy_only=False)
                )
                self._emit_violation(
                    out, "schema_types", partition,
                    take_ids(bad),
                    [f"{col} is null"] * len(bad),
                )
                rows_failed += len(bad)
        self._emit_partial(
            out, "schema_types", partition,
            {
                "rows_total": nrows,
                "rows_failed": rows_failed,
                "schema_errors": sorted(set(schema_errors)),
                "duration_ms": (time.perf_counter() - t0) * 1000,
            },
        )

    def _rule_completeness(self, sub, partition, out, nrows):
        """Null-rate per column + empty-partition detection — analog of
        completeness_suite/matches_completeness.py:7-32 (list non-empty,
        declared count vs actual)."""
        t0 = time.perf_counter()
        null_counts = {
            c: int(sub[c].null_count)
            for c in sub.column_names
            if not c.startswith("__")  # reader-internal columns
        }
        any_null = np.zeros(nrows, dtype=bool)
        for c in null_counts:
            if null_counts[c]:
                any_null |= pc.is_null(sub[c]).combine_chunks().to_numpy(
                    zero_copy_only=False
                )
        self._emit_partial(
            out, "completeness_nulls", partition,
            {
                "rows_total": nrows,
                "rows_failed": int(any_null.sum()),
                "null_counts": null_counts,
                "duration_ms": (time.perf_counter() - t0) * 1000,
            },
        )

    def _rule_invariants(
        self, partition, out, take_ids, nrows, lens_np, n_tok_np, flat_np,
        tok_max_u=None,
    ):
        """Row-level predicates — analog of the consistency suites
        (consistency_suite/matches_consistency.py:18-50) and the
        out-of-range matchday check (etl_validation/specs.py:72-109).

        Three sub-conditions, one violation row per failed condition
        (mirrors one StageCheck per predicate in specs.py):
          len_mismatch : n_tok != len(tokens)
          len_range    : n_tok outside [min_len, max_len]
          vocab_range  : any token outside [0, vocab_size)

        ``tok_max_u``: precomputed unsigned max over the flat tokens
        (see _process) — skips the vocab compare entirely when clean.
        """
        t0 = time.perf_counter()
        rows_failed = 0
        if n_tok_np is not None:
            valid = (lens_np >= 0) & (n_tok_np >= 0)  # nulls handled by schema rule
            mism = np.flatnonzero(valid & (n_tok_np != lens_np))
            self._emit_violation(
                out, "row_invariants", partition,
                take_ids(mism),
                [
                    f"n_tok={n_tok_np[i]} != len(tokens)={lens_np[i]}"
                    for i in mism
                ],
            )
            rows_failed += len(mism)

            rng = np.flatnonzero(
                (n_tok_np >= 0)
                & ((n_tok_np < self.min_len) | (n_tok_np > self.max_len))
            )
            self._emit_violation(
                out, "row_invariants", partition,
                take_ids(rng),
                [
                    f"n_tok={n_tok_np[i]} out of range [{self.min_len},{self.max_len}]"
                    for i in rng
                ],
            )
            rows_failed += len(rng)

        if flat_np is not None and len(flat_np):
            if tok_max_u is not None:
                # precomputed max-reduction (read-only): all tokens
                # proven in-range -> no compare pass, no bool temporary
                bad_tok = (
                    None
                    if tok_max_u < self.vocab_size
                    else flat_np.view(np.uint32) >= np.uint32(self.vocab_size)
                )
            elif flat_np.dtype == np.int32:
                # one unsigned compare catches both negatives (wrap to
                # huge uint32) and >= vocab — single pass over the flat
                # token array instead of two compares + an OR
                bad_tok = flat_np.view(np.uint32) >= np.uint32(self.vocab_size)
            else:
                bad_tok = (flat_np < 0) | (flat_np >= self.vocab_size)
            if bad_tok is not None and bad_tok.any():
                # row index of each flat token — built ONLY when
                # violations exist (rare path)
                row_of_flat = np.repeat(
                    np.arange(nrows), np.where(lens_np < 0, 0, lens_np)
                )
                per_row = np.bincount(row_of_flat[bad_tok], minlength=nrows)
                bad_rows = np.flatnonzero(per_row)
                self._emit_violation(
                    out, "row_invariants", partition,
                    take_ids(bad_rows),
                    [
                        f"{per_row[i]} tokens out of vocab range [0,{self.vocab_size})"
                        for i in bad_rows
                    ],
                )
                rows_failed += len(bad_rows)

        self._emit_partial(
            out, "row_invariants", partition,
            {
                "rows_total": nrows,
                "rows_failed": rows_failed,
                "duration_ms": (time.perf_counter() - t0) * 1000,
            },
        )

    def _rule_source_ref(self, sub, partition, out, take_ids):
        """Broadcast hash semi-join probe against the allowed-sources
        dimension — analog of the FK NOT EXISTS anti-joins
        (dds/referential_suite/fact_match_fk.py:16-62): the small dim
        side is broadcast once per worker; violations are rows whose
        ``source`` has no match."""
        t0 = time.perf_counter()
        src = sub[SOURCE_COL].combine_chunks()
        ok = pc.is_in(src, value_set=self.allowed_sources)
        bad_mask = pc.fill_null(pc.invert(ok), True)
        bad = np.flatnonzero(bad_mask.to_numpy(zero_copy_only=False))
        if len(bad):
            vals = src.take(pa.array(bad)).to_pylist()
            self._emit_violation(
                out, "source_ref", partition,
                take_ids(bad),
                [f"source '{v}' not in allowed_sources" for v in vals],
            )
        self._emit_partial(
            out, "source_ref", partition,
            {
                "rows_total": sub.num_rows,
                "rows_failed": int(len(bad)),
                "duration_ms": (time.perf_counter() - t0) * 1000,
            },
        )

    def _rule_stats(
        self, sub, partition, out, nrows, lens_np, n_tok_np, flat_np, ids_hash=None,
        tok_max_u=None,
    ):
        """Mergeable per-batch stat partials — replaces the reference's
        exact count_sql scalars + mart aggregates (specs.py:421-426,
        mart_views.sql:62-95) with the sketch partials the north star
        requires: count/null-rate, min/max, exact counting-hist
        quantiles, HLL doc_id cardinality, and the drift
        histograms (n_tok 64 bins, per-source token values 256 bins)."""
        t0 = time.perf_counter()
        state: dict[str, Any] = {"rows_total": nrows, "rows_failed": 0}
        if n_tok_np is not None:
            valid = n_tok_np[n_tok_np >= 0]
            ch = CountingHist(1, self.stats_hi).update(valid)
            nh = FixedHistogram(1, self.stats_hi + 1, NTOK_BINS).update(valid)
            state["n_tok_hist"] = ch.to_state()
            state["n_tok_fixed"] = nh.to_state()
        if ids_hash is None and ID_COL in sub.column_names:
            arr = sub[ID_COL].combine_chunks()
            vals = arr.drop_null().to_numpy(zero_copy_only=False)
            ids_hash = hash64(vals)
        if ids_hash is not None:
            state["doc_id_hll"] = HyperLogLog().update_hashed(ids_hash).to_state()
        if flat_np is not None and SOURCE_COL in sub.column_names and lens_np is not None:
            # per-source token histograms in ONE vectorized pass:
            # dictionary-encode source -> small int codes, repeat per
            # token, then a single 2-D bincount over
            # (code * TOKEN_BINS + token_bin) — no per-source scans of
            # the flat token array. All-int32 in-place arithmetic with
            # an INTEGER bin width (ceil(vocab/bins)) keeps memory
            # traffic at ~2 int32 passes over the flat array instead of
            # a float64 round-trip — this stage runs on every token of
            # the corpus, so bytes-per-token is the scaling cost.
            src = sub[SOURCE_COL].combine_chunks()
            dict_arr = pc.dictionary_encode(src)
            names = dict_arr.dictionary.to_pylist()
            # fill_null BEFORE to_numpy: null indices otherwise surface
            # as float NaN whose int cast is platform-dependent
            codes = (
                pc.fill_null(dict_arr.indices, len(names))
                .to_numpy(zero_copy_only=False)
                .astype(np.int32)
            )
            flat_codes = np.repeat(codes, np.where(lens_np < 0, 0, lens_np))
            bin_w = np.int32(bin_width(self.vocab_size))
            bins = flat_np // bin_w  # int32; invalid tokens land outside
            if tok_max_u is None or tok_max_u >= self.vocab_size:
                # clip guards only INVALID tokens; the precomputed max
                # proves clean batches need no read+write clip pass
                np.clip(bins, 0, TOKEN_BINS - 1, out=bins)
            bins = bins.astype(np.int32, copy=False)
            flat_codes *= np.int32(TOKEN_BINS)
            flat_codes += bins
            counts = np.bincount(
                flat_codes, minlength=(len(names) + 1) * TOKEN_BINS
            ).reshape(len(names) + 1, TOKEN_BINS)
            token_hists: dict[str, dict] = {}
            for ci, name in enumerate([*names, None]):
                if counts[ci].sum() == 0 and name is None:
                    continue
                key = "" if name is None else str(name)
                row = counts[ci].astype(np.int64)
                if key in token_hists:  # null bucket merges with a real ""
                    row = row + np.asarray(token_hists[key]["counts"])
                h = FixedHistogram(0, int(bin_w) * TOKEN_BINS, TOKEN_BINS, row)
                token_hists[key] = h.to_state()
            state["token_hists"] = token_hists
        state["duration_ms"] = (time.perf_counter() - t0) * 1000
        self._emit_partial(out, "column_stats", partition, state)
