"""Verdict model.

Mirrors the reference's in-memory ``ValidationResult``
(/root/reference/src/app2/validators/models.py:1-7 — status INFO/WARNING/
ERROR with errors/warnings/infos lists) and the per-check result rows of
``tech.validation_check_result``
(/root/reference/sql/initdb/tech_tables.sql:65-81 — run, check name,
status, rows_failed, duration).

Severity gating reproduces /root/reference/src/app2/validators/runner.py:173-205:
a failing error-severity check fails the partition; a failing
warning-severity check leaves it PASS-with-warnings. Unlike the
reference (which raises on first error), we always compute complete
``rows_failed`` per partition and gate the verdict afterwards
(SURVEY.md §7.4 "fail-fast vs full-scan").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

PASS, WARN, FAIL = "PASS", "WARN", "FAIL"


def gate_status(severity: str, rows_failed: int) -> str:
    """Map (severity, rows_failed) -> PASS/WARN/FAIL."""
    if rows_failed <= 0:
        return PASS
    if severity == "error":
        return FAIL
    if severity == "warning":
        return WARN
    return PASS  # info-severity checks never gate


@dataclass
class CheckResult:
    """One (partition, rule) verdict row."""

    partition: str
    rule_id: str
    status: str
    rows_failed: int
    rows_total: int
    severity: str
    metrics: dict[str, Any] | None = None
    duration_ms: float | None = None

    def to_dict(self) -> dict[str, Any]:
        """The check as a JSON-ready dict, in field order. ``metrics`` is
        copied one level; its nested values are shared, not deep-copied
        (nothing mutates them)."""
        return {
            "partition": self.partition,
            "rule_id": self.rule_id,
            "status": self.status,
            "rows_failed": self.rows_failed,
            "rows_total": self.rows_total,
            "severity": self.severity,
            "metrics": dict(self.metrics) if self.metrics is not None else None,
            "duration_ms": self.duration_ms,
        }


def partition_verdict(results: list[CheckResult]) -> str:
    """Overall verdict for a partition: FAIL > WARN > PASS."""
    statuses = {r.status for r in results}
    if FAIL in statuses:
        return FAIL
    if WARN in statuses:
        return WARN
    return PASS
