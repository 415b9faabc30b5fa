"""Per-partition lineage + resume state.

Replaces the reference's ``tech`` tables with a manifest directory:

- batch state machine NEW -> PROCESSING -> SUCCESS/FAILED with an
  ``attempts`` counter   (/root/reference/src/app2/db/batch.py:5-43,
  sql/initdb/tech_tables.sql:24-41)
- ``only_unprocessed`` resume filter
  (/root/reference/src/app2/etl_validation/discovery.py:203-223)

A manifest holds lineage only: status, attempts, timestamps, error, the
owning raw shard, the content key and ``reused_from`` — how the
partition's outputs were made, not what they say. The per-check rows
(tech.validation_check_result, sql/initdb/tech_tables.sql:65-81) are
built once per run and written once, as the ``checks`` list of the run's
``summary.json`` (state/report.py reads them from there).

The reference claims batches with ``FOR UPDATE SKIP LOCKED``
(db/batch.py:45-78); with files the equivalent is atomic
write-to-temp + ``os.replace`` publish, so a manifest either exists
complete or not at all, and a partition marked PROCESSING by a dead
run is reclaimable (attempts increments on re-claim).

Manifests are written one after another on the driver (``claim_many``,
``finish_many``): each write is one small file replace. A run scans its
manifests once, when its narrow pass opens it (``completed``,
``shard_owners``); ``run(job=...)`` goes on from the owners that pass
kept current and scans nothing again.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, fields
from typing import Any

NEW, PROCESSING, SUCCESS, FAILED = "NEW", "PROCESSING", "SUCCESS", "FAILED"


class AuditLog:
    """Append-only chronological event journal for one run — the
    Ray-native analog of the reference's ``tech.etl_load_audit`` table
    (/root/reference/sql/initdb/tech_tables.sql:9-40): one JSON line
    per lifecycle event (``run_start``, ``claim``, ``finish``,
    ``fail``, ``resume_skip``, ``run_end``), each stamped with wall
    time. Unlike the per-partition manifests (current state, atomically
    replaced), this file only ever grows, so a crash-resume leaves the
    full history of every attempt readable in order.

    Appends are driver-side only (manifest lifecycle runs on the
    driver), guarded by a process-local lock for callers that share a
    run's log across threads, O_APPEND for crash-interleaving safety
    across resumed processes.
    """

    def __init__(self, run_dir: str):
        self.path = os.path.join(run_dir, "_audit.jsonl")
        import threading

        self._lock = threading.Lock()

    def append(self, event: str, **fields: Any) -> None:
        # the timestamp is read INSIDE the lock: two threads that
        # stamped first and appended second would otherwise interleave
        # so file order disagrees with ts order (observed as a 3 ms
        # inversion in the crash-resume test)
        with self._lock:
            rec = {"ts": time.time(), "event": event, **fields}
            # default=str: an unexpected field type (numpy scalar, Arrow
            # timestamp) degrades to its string form instead of raising
            # inside claim/finish and killing the run mid-pipeline
            line = json.dumps(rec, sort_keys=True, default=str) + "\n"
            with open(self.path, "a") as f:
                f.write(line)

    def events(self, *, event: str | None = None) -> list[dict[str, Any]]:
        """All events in append order (optionally one event kind).
        Tolerates a torn final line from a crash mid-append."""
        if not os.path.exists(self.path):
            return []
        out = []
        with open(self.path) as f:
            for line in f:
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn tail line of a crashed writer
                if event is None or rec.get("event") == event:
                    out.append(rec)
        return out


@dataclass
class PartitionManifest:
    partition: str
    status: str = NEW
    attempts: int = 0
    started_at: float | None = None
    finished_at: float | None = None
    error: str | None = None
    # name of the raw shard directory holding this partition's outputs;
    # readers keep only rows from the OWNING shard, so stale outputs of
    # a crashed attempt that regrouped partitions can never double-count
    shard: str | None = None
    # content key of the partition's input (file stem, file bytes, engine
    # config), recorded by runs that may be reused from; ``reused_from``
    # names the run whose outputs ``shard`` links instead of validating
    key: str | None = None
    reused_from: str | None = None

    def to_dict(self) -> dict[str, Any]:
        # every field is a scalar: no deep copy needed
        return {f.name: getattr(self, f.name) for f in fields(self)}


class RunState:
    """Manifest directory for one validation run.

    The run writes it (``read_only=False`` creates the directory);
    a reader opens it with ``read_only=True``, which creates nothing and
    raises FileNotFoundError when ``run_dir`` holds no run, so a
    mistyped path never reads as a run without violations."""

    def __init__(self, run_dir: str, *, read_only: bool = False):
        self.run_dir = run_dir
        self.manifest_dir = os.path.join(run_dir, "_manifests")
        if not read_only:
            os.makedirs(self.manifest_dir, exist_ok=True)
        elif not os.path.isdir(self.manifest_dir):
            raise FileNotFoundError(f"no validation run under {run_dir} (no _manifests)")
        self.audit = AuditLog(run_dir)

    def _path(self, partition: str) -> str:
        return os.path.join(self.manifest_dir, f"{partition}.json")

    def load(self, partition: str) -> PartitionManifest:
        path = self._path(partition)
        if not os.path.exists(path):
            return PartitionManifest(partition=partition)
        return _read_manifest(path)

    def save(self, m: PartitionManifest) -> None:
        path = self._path(m.partition)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w") as f:
            json.dump(m.to_dict(), f)
        os.replace(tmp, path)  # atomic publish — manifest is all-or-nothing

    def claim(self, partition: str) -> PartitionManifest:
        """NEW/FAILED/stale-PROCESSING -> PROCESSING, attempts += 1."""
        m = self.load(partition)
        m.status = PROCESSING
        m.attempts += 1
        m.started_at = time.time()
        m.error = None
        self.save(m)
        self.audit.append("claim", partition=partition, attempts=m.attempts)
        return m

    def finish(
        self,
        partition: str,
        *,
        shard: str,
        key: str | None = None,
        reused_from: str | None = None,
    ) -> PartitionManifest:
        """Mark ``partition`` SUCCESS, its outputs in raw shard ``shard``.
        The manifest records exactly the ``key`` and ``reused_from`` it is
        given: a run that keys nothing leaves no key from an earlier run."""
        m = self.load(partition)
        m.status = SUCCESS
        m.finished_at = time.time()
        m.shard, m.key, m.reused_from = shard, key, reused_from
        self.save(m)
        self.audit.append(
            "finish",
            partition=partition,
            attempts=m.attempts,
            shard=shard,
            reused_from=reused_from,
        )
        return m

    def shard_owners(self) -> dict[str, str]:
        """partition -> owning raw-shard dir name (SUCCESS only)."""
        return {
            m.partition: m.shard
            for m in self.all_manifests()
            if m.status == SUCCESS and m.shard
        }

    def claim_many(self, partitions: list[str]) -> None:
        """Claim a batch of partitions, one after another: a manifest
        write is a small file replace, and a thread pool per call cost
        more than the writes it spread (measured on 1 CPU)."""
        for p in partitions:
            self.claim(p)

    def finish_many(self, items: list[tuple[str, dict]]) -> None:
        """Finish a batch of (partition, finish-kwargs), one after
        another (see ``claim_many``)."""
        for partition, kwargs in items:
            self.finish(partition, **kwargs)

    def fail(self, partition: str, error: str) -> PartitionManifest:
        m = self.load(partition)
        m.status = FAILED
        m.finished_at = time.time()
        m.error = error
        self.save(m)
        self.audit.append(
            "fail", partition=partition, attempts=m.attempts, error=error
        )
        return m

    def completed(self) -> set[str]:
        """Partitions already SUCCESS — the resume skip-set
        (analog of discovery.py:203-223 only_unprocessed)."""
        return {m.partition for m in self.all_manifests() if m.status == SUCCESS}

    def all_manifests(self) -> list[PartitionManifest]:
        return [
            _read_manifest(os.path.join(self.manifest_dir, name))
            for name in sorted(os.listdir(self.manifest_dir))
            if name.endswith(".json")
        ]


def _read_manifest(path: str) -> PartitionManifest:
    """The manifest in ``path``, keeping only PartitionManifest's fields:
    manifests of older runs also carried ``verdict``, ``rows_total`` and
    ``checks``."""
    with open(path) as f:
        d = json.load(f)
    names = {f.name for f in fields(PartitionManifest)}
    return PartitionManifest(**{k: v for k, v in d.items() if k in names})
