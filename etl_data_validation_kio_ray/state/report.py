"""Run reporting sinks.

Mirrors the reference's exported artifacts:
- summary CSV aggregating ``tech.validation_run``
  (/root/reference/scripts/run_manual_experiments.py:353-415, sample
  /root/reference/output/validation_summary_20260213_093525.csv) —
  here one row per (run, rule_group) from the per-partition manifests;
- plain-text run log export
  (/root/reference/scripts/run_manual_experiments.py:457-536) — here a
  readable report of partition verdicts, failed checks, and metrics.

Both read ONLY the tiny manifest/summary artifacts — never the data.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from typing import Any

from .checkpoint import RunState


def _load_summary(run_dir: str) -> dict[str, Any]:
    path = os.path.join(run_dir, "summary.json")
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        return json.load(f)


def summary_rows(run_dir: str) -> list[dict[str, Any]]:
    """One row per (run, rule_group): checks, failures, rows_failed —
    the shape of the reference's validation_summary CSV."""
    state = RunState(run_dir, read_only=True)
    agg: dict[tuple, dict[str, Any]] = defaultdict(
        lambda: {
            "checks_total": 0,
            "checks_failed": 0,
            "rows_failed": 0,
            "rows_total": 0,
            "duration_ms": 0.0,
        }
    )
    from ..core.specs import default_rules

    groups = {r.rule_id: r.rule_group for r in default_rules().values()}
    for m in state.all_manifests():
        for c in m.checks:
            group = groups.get(c.get("rule_id"), c.get("rule_id"))
            slot = agg[(group,)]
            slot["checks_total"] += 1
            slot["checks_failed"] += 1 if c.get("status") == "FAIL" else 0
            slot["rows_failed"] += int(c.get("rows_failed", 0))
            slot["rows_total"] = max(slot["rows_total"], int(c.get("rows_total", 0)))
            slot["duration_ms"] += float(c.get("duration_ms") or 0.0)
    rows = []
    for (group,), slot in sorted(agg.items()):
        slot["duration_ms"] = round(slot["duration_ms"], 3)
        rows.append({"run_dir": run_dir, "rule_group": group, **slot})
    return rows


def write_summary_csv(run_dirs: list[str] | str, out_path: str) -> str:
    """Aggregate one or more runs into a CSV (driver-side; manifest
    data only)."""
    import csv

    if isinstance(run_dirs, str):
        run_dirs = [run_dirs]
    rows: list[dict[str, Any]] = []
    for d in run_dirs:
        rows.extend(summary_rows(d))
    os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
    fields = [
        "run_dir", "rule_group", "checks_total", "checks_failed",
        "rows_failed", "rows_total", "duration_ms",
    ]
    tmp = out_path + ".tmp"
    with open(tmp, "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=fields)
        w.writeheader()
        w.writerows(rows)
    os.replace(tmp, out_path)
    return out_path


def run_report(run_dir: str) -> str:
    """Human-readable run report (the DB-log export analog)."""
    state = RunState(run_dir, read_only=True)
    summary = _load_summary(run_dir)
    lines = [
        f"validation run: {run_dir}",
        f"run verdict: {summary.get('run_verdict', '?')}",
        f"duration_s: {summary.get('duration_s', '?')}",
        "",
        "partitions:",
    ]
    for m in state.all_manifests():
        lines.append(
            f"  {m.partition}: {m.status} verdict={m.verdict} "
            f"rows={m.rows_total} attempts={m.attempts}"
        )
        for c in m.checks:
            if c.get("status") != "PASS":
                lines.append(
                    f"    {c.get('rule_id')}: {c.get('status')} "
                    f"rows_failed={c.get('rows_failed')}"
                )
        if m.error:
            lines.append(f"    error: {m.error}")
    g = summary.get("metrics_global") or {}
    if g:
        lines += ["", "global metrics:"]
        for k, v in sorted(g.items()):
            lines.append(f"  {k}: {v}")
    events = state.audit.events()
    if events:
        # the chronological journal (tech.etl_load_audit analog): every
        # attempt across crashed + resumed runs, in append order
        lines += ["", f"audit trail ({len(events)} events):"]
        from datetime import datetime, timezone

        for e in events:
            ts = datetime.fromtimestamp(e["ts"], tz=timezone.utc).strftime(
                "%Y-%m-%d %H:%M:%S"
            )
            detail = {
                k: v for k, v in e.items() if k not in ("ts", "event")
            }
            lines.append(f"  {ts} {e['event']}: {detail}")
    return "\n".join(lines)


def write_run_report(run_dir: str, out_path: str | None = None) -> str:
    out_path = out_path or os.path.join(run_dir, "report.txt")
    tmp = out_path + ".tmp"
    with open(tmp, "w") as f:
        f.write(run_report(run_dir) + "\n")
    os.replace(tmp, out_path)
    return out_path


def _esc(v: Any) -> str:
    import html

    return html.escape(str(v))


def write_html_report(run_dir: str, out_path: str | None = None) -> str:
    """Self-contained HTML run report — the analog of the reference's
    mutation-experiment HTML report
    (/root/reference/src/app2/experiments/report.py:709+), stdlib-only:
    run verdict banner, per-partition verdict table with failing
    checks, global metrics, drift scores, and (when the run dir is an
    experiment output containing experiment_summary.json) the
    per-iteration detection table."""
    exp_path = os.path.join(run_dir, "experiment_summary.json")
    # an experiment's own dir holds its summary, not a run of its own
    manifests = (
        []
        if os.path.exists(exp_path) and not os.path.isdir(os.path.join(run_dir, "_manifests"))
        else RunState(run_dir, read_only=True).all_manifests()
    )
    summary = _load_summary(run_dir)
    verdict = summary.get("run_verdict", "?")
    color = {"PASS": "#1a7f37", "WARN": "#b58105", "FAIL": "#cf222e"}.get(
        verdict, "#57606a"
    )
    parts: list[str] = [
        "<!doctype html><html><head><meta charset='utf-8'>",
        "<title>validation report</title>",
        "<style>body{font:14px/1.45 system-ui,sans-serif;margin:2em;color:#1f2328}",
        "table{border-collapse:collapse;margin:1em 0}",
        "td,th{border:1px solid #d0d7de;padding:4px 10px;text-align:left}",
        "th{background:#f6f8fa}.fail{color:#cf222e;font-weight:600}",
        ".warn{color:#b58105}.pass{color:#1a7f37}</style></head><body>",
        f"<h1>validation run <code>{_esc(run_dir)}</code></h1>",
        f"<p><strong style='color:{color}'>run verdict: {_esc(verdict)}</strong>"
        f" &middot; duration {_esc(summary.get('duration_s', '?'))}s</p>",
        "<h2>partitions</h2>",
        "<table><tr><th>partition</th><th>status</th><th>verdict</th>"
        "<th>rows</th><th>failing checks</th></tr>",
    ]
    for m in manifests:
        fails = "; ".join(
            f"{c.get('rule_id')} ({c.get('status')}, rows_failed={c.get('rows_failed')})"
            for c in m.checks
            if c.get("status") != "PASS"
        )
        if m.error:
            fails = (fails + "; " if fails else "") + f"error: {m.error}"
        cls = {"FAIL": "fail", "WARN": "warn"}.get(m.verdict or "", "pass")
        parts.append(
            f"<tr><td>{_esc(m.partition)}</td><td>{_esc(m.status)}</td>"
            f"<td class='{cls}'>{_esc(m.verdict)}</td><td>{_esc(m.rows_total)}</td>"
            f"<td>{_esc(fails) or '—'}</td></tr>"
        )
    parts.append("</table>")

    g = summary.get("metrics_global") or {}
    if g:
        parts.append("<h2>global metrics</h2><table><tr><th>metric</th><th>value</th></tr>")
        for k, v in sorted(g.items()):
            parts.append(f"<tr><td>{_esc(k)}</td><td><code>{_esc(v)}</code></td></tr>")
        parts.append("</table>")

    # drift scores live on the drift_ks_psi checks inside manifests
    drift_rows = []
    for m in manifests:
        for c in m.checks:
            met = c.get("metrics") or {}
            if c.get("rule_id") == "drift_ks_psi" and "ks_n_tok" in met:
                drift_rows.append(
                    (m.partition, met["ks_n_tok"], met["psi_tokens"], c.get("status"))
                )
    if drift_rows:
        parts.append(
            "<h2>drift vs baseline</h2><table><tr><th>partition</th>"
            "<th>KS(n_tok)</th><th>PSI(tokens)</th><th>status</th></tr>"
        )
        for p, ks, psi, st in sorted(drift_rows):
            cls = {"FAIL": "fail", "WARN": "warn"}.get(st or "", "pass")
            parts.append(
                f"<tr><td>{_esc(p)}</td><td>{_esc(round(float(ks), 5))}</td>"
                f"<td>{_esc(round(float(psi), 5))}</td>"
                f"<td class='{cls}'>{_esc(st)}</td></tr>"
            )
        parts.append("</table>")

    if os.path.exists(exp_path):
        with open(exp_path) as f:
            exp = json.load(f)
        parts.append(
            "<h2>mutation experiment</h2>"
            f"<p>all detected: <strong>{_esc(exp.get('all_detected'))}</strong></p>"
            "<table><tr><th>action</th><th>expected rule</th><th>fired</th>"
            "<th>verdict</th><th>detected</th><th>duration (s)</th></tr>"
        )
        for it in exp.get("iterations", []):
            cls = "pass" if it.get("detected") else "fail"
            parts.append(
                f"<tr><td>{_esc(it.get('action'))}</td>"
                f"<td>{_esc(it.get('expected_rule') or '—')}</td>"
                f"<td>{_esc(', '.join(it.get('fired_rules') or []) or '—')}</td>"
                f"<td>{_esc(it.get('run_verdict'))}</td>"
                f"<td class='{cls}'>{_esc(it.get('detected'))}</td>"
                f"<td>{_esc(it.get('duration_s'))}</td></tr>"
            )
        parts.append("</table>")

    parts.append("</body></html>")
    out_path = out_path or os.path.join(run_dir, "report.html")
    tmp = out_path + ".tmp"
    with open(tmp, "w") as f:
        f.write("\n".join(parts) + "\n")
    os.replace(tmp, out_path)
    return out_path


def aggregate_runs(run_dirs: list[str]):
    """Cross-run summary statistics: mean/std of per-rule-group
    duration and failure counts over multiple runs — the reference's
    AVG/STDDEV summary over ``tech.validation_run``
    (/root/reference/scripts/run_manual_experiments.py:359-381).
    Returns a pandas DataFrame with one row per rule_group."""
    import pandas as pd

    rows: list[dict[str, Any]] = []
    for d in run_dirs:
        rows.extend(summary_rows(d))
    if not rows:
        return pd.DataFrame(
            columns=[
                "rule_group", "runs", "duration_ms_mean", "duration_ms_std",
                "rows_failed_mean", "rows_failed_std", "checks_failed_total",
            ]
        )
    df = pd.DataFrame(rows)
    g = df.groupby("rule_group", sort=True)
    out = pd.DataFrame(
        {
            "runs": g.size(),
            "duration_ms_mean": g.duration_ms.mean(),
            "duration_ms_std": g.duration_ms.std(ddof=0),
            "rows_failed_mean": g.rows_failed.mean(),
            "rows_failed_std": g.rows_failed.std(ddof=0),
            "checks_failed_total": g.checks_failed.sum(),
        }
    ).reset_index()
    return out
