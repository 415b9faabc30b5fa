from .rule_engine import RuleEngine, UNION_SCHEMA
from .uniqueness import duplicate_id_counts
from .drift import build_baseline_snapshot, score_drift

__all__ = [
    "RuleEngine",
    "UNION_SCHEMA",
    "duplicate_id_counts",
    "build_baseline_snapshot",
    "score_drift",
]
