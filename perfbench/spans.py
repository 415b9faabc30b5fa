"""In-memory span tracer and the layer wrappers that feed it.

Spans are recorded only from outside the program: ``Patches`` wraps the
public functions of each layer where their caller looks them up (a name a
module imported by value is patched in that module, not where it is
defined), Ray Data's streaming executor is wrapped to count executions,
tasks and all-to-all operators and to keep each execution's
``Dataset.stats()`` for the fused rule-engine operator, and
``replay_partition`` re-runs one partition through ``pq.read_table`` ->
``RuleEngine.__call__`` in process.

Each span has a name, start, end, the span that caused it and the pass it
belongs to. A layer's self time is its span's duration minus the time its
child spans cover. Counters are recorded at the same boundaries.

The wrappers only take timestamps, bump counters and keep references
(paths, returned objects, executor stats). Everything that reads files or
serialises state to count rows and bytes runs in ``Patches.account`` after
the pass has returned, so none of it lands inside the program's spans.
"""

from __future__ import annotations

import json
import os
import pickle
import re
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

# (name, unit) of every per-layer metric, in report order
LAYER_METRICS = [
    # Ray Data execution floor
    ("ray_data.executions", "count"),
    ("ray_data.exec_p50_s", "s"),
    ("ray_data.all_to_all", "count"),
    ("ray_data.tasks", "count"),
    # parquet decode + fused rule-engine map
    ("parquet.decode_s", "s"),
    ("rule_engine.kernel_s", "s"),
    ("rule_engine.remote_s", "s"),
    ("rule_engine.rows_in", "count"),
    ("rule_engine.violation_rows", "count"),
    ("rule_engine.partial_rows", "count"),
    ("rule_engine.hash_rows", "count"),
    # Ray-written parquet
    ("sink.bytes_written", "bytes"),
    ("sink.files_written", "count"),
    # pipelines.validate: the program's own phases, and the spans that split them
    ("validate.discover_s", "s"),
    ("validate.narrow_s", "s"),
    ("validate.shard_exec_s", "s"),
    ("validate.reduce_partials_s", "s"),
    ("validate.uniqueness_s", "s"),
    ("validate.drift_s", "s"),
    ("validate.verdicts_s", "s"),
    ("validate.residual_s", "s"),
    # state.checkpoint
    ("checkpoint.claim_s", "s"),
    ("checkpoint.finish_s", "s"),
    ("checkpoint.scan_s", "s"),
    ("checkpoint.manifest_writes", "count"),
    ("checkpoint.audit_lines", "count"),
    # sketches folded on the driver
    ("sketches.merges", "count"),
    ("sketches.merge_s", "s"),
    ("sketches.state_bytes", "bytes"),
    # stages.uniqueness
    ("uniqueness.hash_rows", "count"),
    ("uniqueness.candidates", "count"),
    ("uniqueness.confirmed", "count"),
    ("uniqueness.confirm_ratio", "ratio"),
    ("uniqueness.dup_values_s", "s"),
    ("uniqueness.confirm_s", "s"),
    # stages.drift
    ("drift.load_s", "s"),
    ("drift.score_s", "s"),
    ("drift.partitions_scored", "count"),
    # sources.mutations
    ("mutations.mutate_s", "s"),
    ("mutations.bytes_copied", "bytes"),
    # context, computed by the runner
    ("host.steal_s", "s"),
    ("trace.overhead_s", "s"),
]

# span name -> per-layer metric that sums its duration
SPAN_METRICS = {
    "validate.discover": "validate.discover_s",
    "validate.shard_exec": "validate.shard_exec_s",
    "validate.reduce_partials": "validate.reduce_partials_s",
    "checkpoint.claim": "checkpoint.claim_s",
    "checkpoint.finish": "checkpoint.finish_s",
    "checkpoint.scan": "checkpoint.scan_s",
    "uniqueness.dup_values": "uniqueness.dup_values_s",
    "uniqueness.confirm": "uniqueness.confirm_s",
    "drift.load": "drift.load_s",
    "drift.score": "drift.score_s",
    "mutations.mutate": "mutations.mutate_s",
}

# ValidationPipeline.run's own metrics["phases"] -> per-layer metric
PHASE_METRICS = {
    "narrow_pass": "validate.narrow_s",
    "uniqueness": "validate.uniqueness_s",
    "drift": "validate.drift_s",
    "verdicts": "validate.verdicts_s",
}

ENGINE_OP = re.compile(r"(CachedEngineFn|RuleEngine)")
REMOTE_WALL = re.compile(r"Remote wall time: .*?([0-9.]+)(us|ms|s) total")


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.spans: list[dict] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._lock = threading.Lock()

    def _open(self, name: str, attrs: dict) -> dict:
        with self._lock:
            rec = {
                "id": len(self.spans),
                "parent": self._stack[-1] if self._stack else None,
                "pass": self.pass_id,
                "name": name,
                "t0": time.perf_counter(),
                "t1": None,
                "attrs": attrs,
            }
            self.spans.append(rec)
            return rec

    @contextmanager
    def span(self, name: str, **attrs):
        """Nested span: child of the innermost open span. One operation runs
        at a time, so a single stack serves the op thread and the main one."""
        rec = self._open(name, attrs)
        with self._lock:
            self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["t1"] = time.perf_counter()
            with self._lock:
                if rec["id"] in self._stack:
                    self._stack.remove(rec["id"])

    def leaf(self, name: str, **attrs) -> dict:
        """Span closed later by its owner, possibly from another thread (an
        execution ends when its executor shuts down)."""
        return self._open(name, attrs)

    def count(self, key: str, n: float = 1) -> None:
        with self._lock:
            self.counters[key] += n

    def closed(self) -> list[dict]:
        return [s for s in self.spans if s["t1"] is not None]


def write_span_log(path: str, tracers: list[Tracer]) -> None:
    """One JSON line per closed span of every traced pass."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        for tr in tracers:
            for s in tr.closed():
                f.write(json.dumps(s, default=str) + "\n")


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["t0"], s["t1"]))
    out = {}
    for s in spans:
        covered, end = 0.0, s["t0"]
        for a, b in sorted(children.get(s["id"], [])):
            a, b = max(a, end), min(b, s["t1"])
            if b > a:
                covered += b - a
                end = b
        out[s["id"]] = (s["t1"] - s["t0"]) - covered
    return out


def self_time_by_layer(tracer: Tracer) -> dict[str, float]:
    """Span name -> summed self seconds. Over a pass's root spans the
    values add up to the roots' wall time."""
    spans = tracer.closed()
    selfs = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s["name"]] += selfs[s["id"]]
    return dict(sorted(out.items()))


def _dir_bytes(path: str) -> tuple[int, int]:
    files = size = 0
    for root, _, names in os.walk(path):
        for n in names:
            files += 1
            size += os.path.getsize(os.path.join(root, n))
    return files, size


def remote_seconds(stats_text: str) -> float:
    """Total remote wall time of the fused rule-engine operator, parsed
    from the executor's ``Dataset.stats()`` text."""
    total = 0.0
    for block in re.split(r"\n(?=Operator \d+ )", stats_text):
        if not ENGINE_OP.search(block.split("\n", 1)[0]):
            continue
        m = REMOTE_WALL.search(block)
        if m:
            total += float(m.group(1)) * {"us": 1e-6, "ms": 1e-3, "s": 1.0}[m.group(2)]
    return total


class Patches:
    """Wraps layer entry points for the life of a ``with`` block and records
    into ``self.tracer``, which the caller swaps for each traced pass."""

    def __init__(self):
        self.tracer: Tracer | None = None
        self._saved: list[tuple[object, str, object]] = []
        # (partition file, columns, engine kwargs) of the first shard seen
        self.replay_source: tuple[str, list[str], dict] | None = None
        self._reset_refs()

    def _reset_refs(self) -> None:
        # what ``account`` reads after the pass
        self._writes: list[tuple[str, bool]] = []
        self._partials: list[dict] = []
        self._executors: list[tuple[dict, object]] = []

    def _wrap(self, owner, attr: str, make):
        orig = getattr(owner, attr)
        self._saved.append((owner, attr, orig))
        setattr(owner, attr, make(orig))

    def _timed(self, owner, attr: str, span: str, after=None):
        def make(orig):
            def wrapper(*a, **kw):
                with self.tracer.span(span):
                    out = orig(*a, **kw)
                if after:
                    after(out, a)
                return out

            return wrapper

        self._wrap(owner, attr, make)

    def _counted(self, owner, attr: str, key: str):
        def make(orig):
            def wrapper(*a, **kw):
                self.tracer.count(key)
                return orig(*a, **kw)

            return wrapper

        self._wrap(owner, attr, make)

    def __enter__(self):
        import ray.data
        from ray.data._internal.execution import streaming_executor as se

        from etl_data_validation_kio_ray.pipelines import experiment as experiment_mod
        from etl_data_validation_kio_ray.pipelines import validate as validate_mod
        from etl_data_validation_kio_ray.stages import uniqueness as uniqueness_mod
        from etl_data_validation_kio_ray.state import checkpoint as checkpoint_mod

        vp = validate_mod.ValidationPipeline

        # ---- pipelines.validate: run root, its own phases, discovery
        def run_wrap(orig):
            def run(pipe, *a, **kw):
                with self.tracer.span("validate.run"):
                    res = orig(pipe, *a, **kw)
                for phase, key in PHASE_METRICS.items():
                    self.tracer.count(key, res.metrics.get("phases", {}).get(phase, 0.0))
                return res

            return run

        self._wrap(vp, "run", run_wrap)
        self._timed(validate_mod, "discover_partition_files", "validate.discover")

        # a mutated input is deleted after its iteration, so input rows are
        # read from the footers here, in a span that keeps it out of the
        # program's self time
        def groups_after(out, a):
            import pyarrow.parquet as pq

            with self.tracer.span("trace.hooks"):
                for cols, files in out:
                    if self.replay_source is None:
                        self.replay_source = (files[0], cols, {})
                    for f in files:
                        self.tracer.count("rule_engine.rows_in", pq.read_metadata(f).num_rows)

        self._timed(validate_mod, "_schema_groups", "validate.schema_groups", groups_after)

        def map_wrap(orig):
            def map_engine(pipe, ds, engine_kwargs):
                if self.replay_source is not None and not self.replay_source[2]:
                    f, cols, _ = self.replay_source
                    self.replay_source = (f, cols, dict(engine_kwargs))
                return orig(pipe, ds, engine_kwargs)

            return map_engine

        self._wrap(vp, "_map_engine", map_wrap)
        self._timed(vp, "_narrow_checks", "validate.narrow_checks")

        # ---- sink: Ray-written parquet; the shard write runs the fused
        # ReadParquet -> RuleEngine -> Write task
        def write_wrap(orig):
            def write_parquet(ds, path, *a, **kw):
                shard = kw.get("partition_cols") == ["kind"]
                with self.tracer.span("validate.shard_exec" if shard else "sink.write"):
                    out = orig(ds, path, *a, **kw)
                self._writes.append((path, shard))
                return out

            return write_parquet

        self._wrap(ray.data.Dataset, "write_parquet", write_wrap)

        # ---- state.checkpoint
        rs = checkpoint_mod.RunState
        self._timed(rs, "claim_many", "checkpoint.claim")
        self._timed(rs, "finish_many", "checkpoint.finish")
        self._timed(rs, "completed", "checkpoint.scan")
        self._timed(rs, "shard_owners", "checkpoint.scan")
        self._counted(rs, "save", "checkpoint.manifest_writes")
        self._counted(checkpoint_mod.AuditLog, "append", "checkpoint.audit_lines")

        # ---- sketches: the driver-side fold of partial states
        self._timed(
            validate_mod, "_reduce_partials", "validate.reduce_partials",
            lambda out, a: self._partials.append(out),
        )

        def merge_wrap(orig):
            def merge(x, y):
                t0 = time.perf_counter()
                out = orig(x, y)
                self.tracer.count("sketches.merges")
                self.tracer.count("sketches.merge_s", time.perf_counter() - t0)
                return out

            return merge

        self._wrap(validate_mod, "_merge_stats", merge_wrap)

        # ---- stages.uniqueness: confirm_duplicates is imported by value into
        # pipelines.validate; dup_values is imported there at call time
        self._timed(
            validate_mod, "_candidate_hashes", "uniqueness.candidate_hashes",
            lambda out, a: self.tracer.count(
                "uniqueness.candidates", out.num_rows if out is not None else 0
            ),
        )
        self._timed(
            uniqueness_mod, "dup_values", "uniqueness.dup_values",
            lambda out, a: self.tracer.count("uniqueness.hash_rows", len(a[0])),
        )
        self._timed(
            validate_mod, "confirm_duplicates", "uniqueness.confirm",
            lambda out, a: self.tracer.count("uniqueness.confirmed", out.num_rows),
        )

        # ---- stages.drift (both imported by value into pipelines.validate)
        self._timed(validate_mod, "load_baseline_snapshot", "drift.load")
        self._timed(
            validate_mod, "score_drift", "drift.score",
            lambda out, a: self.tracer.count("drift.partitions_scored", len(out)),
        )

        # ---- sources.mutations (imported by value into pipelines.experiment).
        # The mutated copy is deleted after its iteration, so its size is
        # taken here, in a span of its own that keeps it out of the program's.
        def mutated_size(out, a):
            with self.tracer.span("trace.hooks"):
                self.tracer.count("mutations.bytes_copied", _dir_bytes(a[1])[1])

        self._timed(experiment_mod, "mutate_table", "mutations.mutate", mutated_size)

        # ---- Ray Data: one streaming executor per execution
        def execute_wrap(orig):
            def execute(executor, *a, **kw):
                executor._perfbench_span = self.tracer.leaf("ray_data.exec")
                return orig(executor, *a, **kw)

            return execute

        def shutdown_wrap(orig):
            def shutdown(executor, *a, **kw):
                out = orig(executor, *a, **kw)
                rec = getattr(executor, "_perfbench_span", None)
                if rec is not None and rec["t1"] is None:
                    rec["t1"] = time.perf_counter()
                    self._executors.append((rec, executor))
                return out

            return shutdown

        self._wrap(se.StreamingExecutor, "execute", execute_wrap)
        self._wrap(se.StreamingExecutor, "shutdown", shutdown_wrap)
        return self

    def __exit__(self, *exc):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()
        return False

    def account(self) -> None:
        """Turn what the wrappers kept during the pass into counters of the
        current tracer. Run after the pass, outside its timing."""
        import pyarrow.parquet as pq
        from ray.data._internal.execution.operators.base_physical_operator import (
            AllToAllOperator,
        )
        from ray.data._internal.execution.operators.hash_shuffle import (
            HashShufflingOperatorBase,
        )

        tr = self.tracer
        for path, shard in self._writes:
            files, size = _dir_bytes(path)
            tr.count("sink.files_written", files)
            tr.count("sink.bytes_written", size)
            if not shard:
                continue
            for kind in ("violation", "partial", "hash"):
                d = os.path.join(path, f"kind={kind}")
                if os.path.isdir(d):
                    tr.count(
                        f"rule_engine.{kind}_rows",
                        sum(pq.read_metadata(os.path.join(d, n)).num_rows for n in os.listdir(d)),
                    )
        for out in self._partials:
            tr.count("sketches.state_bytes", len(pickle.dumps(out)))
        for rec, executor in self._executors:
            ops = list(executor._topology or [])
            stats = executor._final_stats
            rec["attrs"] = {
                "tasks": sum(op.metrics.num_tasks_submitted for op in ops),
                "all_to_all": sum(
                    isinstance(op, (AllToAllOperator, HashShufflingOperatorBase)) for op in ops
                ),
                "engine_remote_s": remote_seconds(
                    stats.to_summary().to_string(include_parent=False)
                )
                if stats is not None
                else 0.0,
            }
        self._reset_refs()


def replay_partition(source: tuple[str, list[str], dict], repeats: int = 3) -> dict:
    """Decode one partition file and run the rule engine on it in process;
    median of ``repeats`` rounds."""
    import pyarrow.parquet as pq

    from etl_data_validation_kio_ray.stages.rule_engine import RuleEngine

    path, cols, engine_kwargs = source
    engine = RuleEngine(**engine_kwargs)
    decode, kernel = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        table = pq.read_table(path, columns=cols)
        t1 = time.perf_counter()
        engine(table)
        t2 = time.perf_counter()
        decode.append(t1 - t0)
        kernel.append(t2 - t1)
    return {"rows": table.num_rows, "decode_s": median(decode), "kernel_s": median(kernel)}


def median(xs) -> float:
    xs = sorted(xs)
    m = len(xs) // 2
    return xs[m] if len(xs) % 2 else (xs[m - 1] + xs[m]) / 2


def pass_metrics(tracer: Tracer, replay: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass (``host.steal_s`` and
    ``trace.overhead_s`` come from the runner). A layer whose wrapper was
    installed but never called reads 0."""
    spans = tracer.closed()
    out = {name: 0.0 for name, _ in LAYER_METRICS if name not in ("host.steal_s", "trace.overhead_s")}
    out.update(tracer.counters)
    for s in spans:
        key = SPAN_METRICS.get(s["name"])
        if key:
            out[key] += s["t1"] - s["t0"]
    execs = [s for s in spans if s["name"] == "ray_data.exec"]
    out["ray_data.executions"] = len(execs)
    out["ray_data.exec_p50_s"] = median(s["t1"] - s["t0"] for s in execs) if execs else 0.0
    for key, attr in (
        ("ray_data.tasks", "tasks"),
        ("ray_data.all_to_all", "all_to_all"),
        ("rule_engine.remote_s", "engine_remote_s"),
    ):
        out[key] = sum(s["attrs"][attr] for s in execs)
    selfs = self_times(spans)
    out["validate.residual_s"] = sum(selfs[s["id"]] for s in spans if s["name"] == "validate.run")
    cand = out["uniqueness.candidates"]
    # useful share of candidate hashes; no candidates means nothing was wasted
    out["uniqueness.confirm_ratio"] = out["uniqueness.confirmed"] / cand if cand else 1.0
    # the one-partition replay, scaled to the rows this pass validated
    scale = out["rule_engine.rows_in"] / replay["rows"]
    out["parquet.decode_s"] = replay["decode_s"] * scale
    out["rule_engine.kernel_s"] = replay["kernel_s"] * scale
    return out
