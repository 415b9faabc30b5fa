"""The benchmark's workloads.

Each workload owns a corpus made from the seed (generated once per seed and
kept under the work directory), a set-up step (drift snapshot and one
warm-up validation), one operation that is timed, and a check of that
operation's output that runs outside the timing.

Cached state each workload reads: its seeded corpus, and the drift
snapshot built from it in set-up. Every operation writes into a fresh
output directory, so no run resumes another's checkpoints.
"""

from __future__ import annotations

import hashlib
import os
import shutil
from dataclasses import dataclass

ALLOWED = ["web", "books", "code", "wiki"]


@dataclass
class Outcome:
    """What one operation (a call of ``Workload.run``) did."""

    attempted: int
    failed: int
    latencies: list[float]
    rows: int


class Workload:
    name = ""
    partitions = 0
    rows_per_partition = 0
    # operations counted per call of ``run``
    ops_per_call = 1

    def __init__(self, work_dir: str, seed: int):
        self.seed = seed
        self.corpus = os.path.join(work_dir, "corpus", f"{self.name}-seed{seed}")
        self.state = os.path.join(work_dir, f"state-{os.getpid()}")
        self.snapshot = os.path.join(self.state, "snapshot")
        corpus_root = os.path.dirname(self.corpus)
        if os.path.isdir(corpus_root):
            # one cached corpus per workload: drop those of other seeds
            for d in os.listdir(corpus_root):
                if d.startswith(f"{self.name}-seed") and d != os.path.basename(self.corpus):
                    shutil.rmtree(os.path.join(corpus_root, d), ignore_errors=True)

    @property
    def rows(self) -> int:
        return self.partitions * self.rows_per_partition

    def generate(self) -> None:
        from etl_data_validation_kio_ray.sources.synth import generate_token_table

        generate_token_table(
            self.corpus,
            partitions=self.partitions,
            rows_per_partition=self.rows_per_partition,
            seed=self.seed,
            max_workers=1,
        )

    def pipeline(self):
        raise NotImplementedError

    def setup(self) -> None:
        """Drift snapshot of the corpus, then one warm-up validation of its
        first partition so worker processes exist and imports are done."""
        from etl_data_validation_kio_ray.sources.synth import partition_file

        shutil.rmtree(self.state, ignore_errors=True)
        self.pipeline().build_snapshot(self.corpus, self.snapshot)
        self.warm_up(partition_file(self.corpus, 0))

    def warm_up(self, input_path: str) -> None:
        out = os.path.join(self.state, "warm")
        shutil.rmtree(out, ignore_errors=True)
        self.pipeline().run(input_path, out, resume=False)

    def prepare_check(self) -> None:
        """Expected outputs, computed once after set-up."""

    def run(self, out_dir: str):
        raise NotImplementedError

    def check(self, result, wall: float) -> Outcome:
        raise NotImplementedError

    def cleanup(self) -> None:
        shutil.rmtree(self.state, ignore_errors=True)


def _digest(rows) -> str:
    """Order-insensitive digest of violation rows."""
    h = hashlib.sha256()
    for r in sorted(tuple("" if v is None else str(v) for v in r) for r in rows):
        h.update("\x1f".join(r).encode())
        h.update(b"\x1e")
    return h.hexdigest()


class Bulk(Workload):
    """One ``ValidationPipeline.run(resume=False)`` over a corpus of large
    partition files: the fused read -> rule engine -> write task does the
    work; checkpoint, uniqueness and drift do little."""

    name = "bulk"
    partitions = 8
    rows_per_partition = 25_000

    def pipeline(self):
        from etl_data_validation_kio_ray.pipelines.validate import ValidationPipeline

        # forums is left out of the allowed sources, so its ~1% of rows are
        # the corpus's known source_ref violations
        return ValidationPipeline(allowed_sources=ALLOWED, baseline_snapshot_dir=self.snapshot)

    def prepare_check(self) -> None:
        """Recompute every rule of the corpus independently with DuckDB.
        The synthetic corpus breaks only ``source_ref``: the other row rules
        must find nothing, and the violation rows must be exactly the rows
        whose source is not allowed."""
        import duckdb

        from etl_data_validation_kio_ray.core.specs import default_rules

        inv = default_rules()["row_invariants"].params
        lo, hi, vocab = int(inv["min_len"]), int(inv["max_len"]), int(inv["vocab_size"])
        src = os.path.join(self.corpus, "*.parquet")
        con = duckdb.connect()
        try:
            bad, dup_ids = con.execute(
                f"""
                SELECT
                  count(*) FILTER (
                    WHERE doc_id IS NULL OR tokens IS NULL OR n_tok IS NULL
                       OR n_tok <> len(tokens) OR n_tok < {lo} OR n_tok > {hi}
                       OR list_min(tokens) < 0 OR list_max(tokens) >= {vocab}),
                  count(*) - count(DISTINCT doc_id)
                FROM read_parquet('{src}')
                """
            ).fetchone()
            if bad or dup_ids:
                raise RuntimeError(
                    f"corpus breaks rules the check does not model: {bad} rows, {dup_ids} dup ids"
                )
            allowed = ", ".join(f"'{s}'" for s in ALLOWED)
            rows = con.execute(
                f"""
                SELECT 'source_ref', doc_id, partition,
                       'source ''' || source || ''' not in allowed_sources'
                FROM read_parquet('{src}') WHERE source NOT IN ({allowed})
                """
            ).fetchall()
        finally:
            con.close()
        self.expected_rows = len(rows)
        self.expected_digest = _digest(rows)

    def run(self, out_dir: str):
        return self.pipeline().run(self.corpus, out_dir, resume=False)

    def check(self, res, wall: float) -> Outcome:
        v = res.violations()
        got = _digest(zip(*(v[c].to_pylist() for c in ("rule_id", "doc_id", "partition", "reason"))))
        failed_rules = {c.rule_id for c in res.verdicts if c.status == "FAIL"}
        ok = (
            got == self.expected_digest
            and len(res.partitions) == self.partitions
            and res.run_verdict == "FAIL"
            and failed_rules == {"source_ref"}
        )
        return Outcome(1, 0 if ok else 1, [wall], self.rows)


class MutationMatrix(Workload):
    """``run_experiment``: one clean baseline run plus one run per mutation
    of ``sources.mutations``, over many small partitions."""

    name = "mutation_matrix"
    partitions = 16
    rows_per_partition = 1_000

    def __init__(self, work_dir: str, seed: int):
        from etl_data_validation_kio_ray.sources.mutations import EXPECTED_DETECTION

        super().__init__(work_dir, seed)
        self.actions = list(EXPECTED_DETECTION)
        self.ops_per_call = 1 + len(self.actions)

    def pipeline(self):
        from etl_data_validation_kio_ray.pipelines.validate import ValidationPipeline

        # every source allowed, so the baseline validates clean; the snapshot
        # lets shift_distribution be scored for drift
        return ValidationPipeline(
            allowed_sources=ALLOWED + ["forums"], baseline_snapshot_dir=self.snapshot
        )

    def run(self, out_dir: str):
        from etl_data_validation_kio_ray.pipelines.experiment import run_experiment

        return run_experiment(self.corpus, out_dir, pipeline_factory=self.pipeline)

    def check(self, res, wall: float) -> Outcome:
        """The ten expected outcomes: a clean baseline and every mutation
        detected (``swap_like``: correctly invisible)."""
        done = {i.action: i for i in res.iterations}
        failed = int(res.baseline_verdict != "PASS")
        failed += sum(1 for a in self.actions if a not in done or not done[a].detected)
        iters = [i.duration_s for i in res.iterations]
        # the baseline run is what the experiment spent outside its iterations
        latencies = [wall - sum(iters)] + iters
        return Outcome(self.ops_per_call, failed, latencies, self.rows * self.ops_per_call)


WORKLOADS = {w.name: w for w in (Bulk, MutationMatrix)}
