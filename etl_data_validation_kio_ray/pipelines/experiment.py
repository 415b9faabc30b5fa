"""Mutation (fault-injection) experiment runner.

The reference's flagship workflow
(/root/reference/src/app2/experiments/run.py:478-900 driven by
/root/reference/config/mutation_experiment.yml:16-164): take a clean
baseline, apply one configured corruption per iteration, run the full
validation suite, and record whether the EXPECTED check caught it.
Detection power of the rule set is the experiment's product — the
reference's test strategy (SURVEY.md §5) as a first-class pipeline.

The runner writes a mutated copy of the baseline table per action (the
unchanged files are hard links to the baseline's). The baseline run
records each partition's content key, so a mutated run reuses the
baseline's outputs for every partition whose file is unchanged
(``reuse_from=[baseline]``) and validates only the changed ones. All
mutated runs validate their changed partitions together, in one
``ValidationPipeline.narrow_pass`` (one Ray execution per footer schema
group, rows routed back to each run by file). ``run`` over each mutated
input then goes on from that pass's job (``run(..., job=...)``): it
reads nothing the pass already holds (each baseline shard's partials
are read once per pass, not once per run) and adds only the run-scope
checks (uniqueness, drift) and the verdicts. Each iteration's run dir is
per-partition resumable like any other run. The runner scores:

    expected_rule fired AND its rows_failed INCREASED
        vs the baseline run                          -> "detected"
    expected None (semantic corruption)              -> "invisible" iff
        nothing fired beyond the baseline's intrinsic findings (the
        reference's *_disabled SUCCESS iterations)

Results land in ``experiment_summary.json`` + a CSV row per iteration
(the validation_summary CSV analog).
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import time
from dataclasses import dataclass, field
from typing import Any

from ..sources.mutations import EXPECTED_DETECTION, mutate_table
from .validate import ValidationPipeline


def _rows_failed_by_rule(res) -> dict[str, int]:
    out: dict[str, int] = {}
    for c in res.verdicts:
        out[c.rule_id] = out.get(c.rule_id, 0) + int(c.rows_failed)
    return out


@dataclass
class IterationResult:
    action: str
    expected_rule: str | None
    fired_rules: list[str]
    run_verdict: str
    detected: bool
    duration_s: float
    run_dir: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "action": self.action,
            "expected_rule": self.expected_rule,
            "fired_rules": self.fired_rules,
            "run_verdict": self.run_verdict,
            "detected": self.detected,
            "duration_s": round(self.duration_s, 3),
            "run_dir": self.run_dir,
        }


@dataclass
class ExperimentResult:
    out_dir: str
    baseline_verdict: str
    iterations: list[IterationResult] = field(default_factory=list)

    @property
    def all_detected(self) -> bool:
        return all(i.detected for i in self.iterations)


def run_experiment(
    clean_input: str,
    out_dir: str,
    *,
    actions: list[str] | None = None,
    pipeline_factory=None,
    keep_mutated: bool = False,
) -> ExperimentResult:
    """Run the fault-injection matrix over a clean input table.

    ``pipeline_factory() -> ValidationPipeline`` builds the baseline's
    pipeline and one more, which serves the shared narrow pass and every
    mutated run, so their rules and config cannot differ. Default:
    standard rules with the synthetic allowed-sources dim.

    An iteration's ``duration_s`` is its mutation time, plus its
    ``run`` time, plus an even share of the shared narrow pass; with the
    baseline run they add up to the experiment's wall time.
    """
    if pipeline_factory is None:
        def pipeline_factory():
            return ValidationPipeline(
                allowed_sources=["web", "books", "code", "wiki"]
            )

    actions = list(actions or EXPECTED_DETECTION)
    unknown = set(actions) - set(EXPECTED_DETECTION)
    if unknown:
        raise KeyError(f"unknown mutation actions: {sorted(unknown)}")

    os.makedirs(out_dir, exist_ok=True)
    # baseline pass: the clean table must validate clean before fault
    # injection means anything (run.py:482-501 baseline snapshot step)
    # the baseline records each partition's content key, so every
    # mutated run validates only the partitions its mutation changed
    base_dir = os.path.join(out_dir, "baseline")
    base_res = pipeline_factory().run(clean_input, base_dir, resume=True, reuse_from=[])
    base_fired = sorted(
        {
            c.rule_id
            for c in base_res.verdicts
            if c.status in ("FAIL", "WARN") and c.rows_failed
        }
    )
    base_rows = _rows_failed_by_rule(base_res)

    results = ExperimentResult(out_dir=out_dir, baseline_verdict=base_res.run_verdict)
    dirs = {
        a: (os.path.join(out_dir, f"input_{a}"), os.path.join(out_dir, f"run_{a}"))
        for a in actions
    }
    spent: dict[str, float] = {}
    for action in actions:
        t0 = time.time()
        mutate_table(clean_input, dirs[action][0], action)
        spent[action] = time.time() - t0
    pipe = pipeline_factory()
    t0 = time.time()
    jobs = pipe.narrow_pass(list(dirs.values()), resume=True, reuse_from=[base_dir])
    shared = (time.time() - t0) / max(1, len(actions))
    for action, job in zip(actions, jobs):
        t0 = time.time()
        expected = EXPECTED_DETECTION[action]
        mut_dir, run_dir = dirs[action]
        res = pipe.run(mut_dir, run_dir, resume=True, reuse_from=[base_dir], job=job)
        fired = sorted(
            {
                c.rule_id
                for c in res.verdicts
                if c.status in ("FAIL", "WARN") and c.rows_failed
            }
        )
        if expected is None:
            # semantic corruption: it must not fire anything BEYOND the
            # baseline's intrinsic findings (caught only by per-row
            # token equality against a trusted copy) — the reference's
            # *_disabled expect-SUCCESS iterations
            detected = fired == base_fired and res.run_verdict == base_res.run_verdict
        else:
            # detected = the expected rule fired AND its total
            # rows_failed INCREASED vs the clean-baseline run — a rule
            # already firing at the same rate on the baseline's
            # intrinsic findings is not a detection of THIS mutation
            # (robust to baselines that are not pristine, unlike a
            # run-verdict-degradation test)
            run_rows = _rows_failed_by_rule(res)
            detected = expected in fired and run_rows.get(
                expected, 0
            ) > base_rows.get(expected, 0)
        results.iterations.append(
            IterationResult(
                action=action,
                expected_rule=expected,
                fired_rules=fired,
                run_verdict=res.run_verdict,
                detected=detected,
                duration_s=spent[action] + shared + (time.time() - t0),
                run_dir=run_dir,
            )
        )
        if not keep_mutated:
            shutil.rmtree(mut_dir, ignore_errors=True)

    summary = {
        "baseline_verdict": results.baseline_verdict,
        "all_detected": results.all_detected,
        "iterations": [i.to_dict() for i in results.iterations],
    }
    tmp = os.path.join(out_dir, "experiment_summary.json.tmp")
    with open(tmp, "w") as f:
        json.dump(summary, f, indent=2)
    os.replace(tmp, os.path.join(out_dir, "experiment_summary.json"))
    with open(os.path.join(out_dir, "experiment_summary.csv"), "w", newline="") as f:
        w = csv.DictWriter(
            f,
            fieldnames=[
                "action", "expected_rule", "fired_rules", "run_verdict",
                "detected", "duration_s", "run_dir",
            ],
        )
        w.writeheader()
        for i in results.iterations:
            row = i.to_dict()
            row["fired_rules"] = ";".join(row["fired_rules"])
            w.writerow(row)
    return results
