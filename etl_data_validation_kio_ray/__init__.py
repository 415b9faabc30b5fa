"""Ray-Data-native schema + constraint validation engine.

A from-scratch re-expression of the validation semantics of the reference
repo (maxwjiill/etl-data-validation-kio — a Postgres/SQL ETL-validation
harness) as an idiomatic Ray Data engine: every check is a vectorized
Arrow batch transform inside ``Dataset.map_batches``, stateful stages are
fused tasks with a per-worker instance cache (core.resources), wide
checks (uniqueness) are hash-partitioned groupbys, and small dimension
sides are broadcast via ``ray.put``.

Primary input table (see FIXTURES.md F1):
    doc_id: string, tokens: list<int32>, n_tok: int32, source: string

Reference semantics reproduced (citations are /root/reference paths):
  - declarative check specs        -> core.specs          (src/app2/etl_validation/specs.py:6-14)
  - verdict / severity model       -> core.verdicts       (src/app2/validators/models.py:1-7)
  - schema / completeness /
    consistency / uniqueness /
    referential suites             -> stages.rule_engine  (src/app2/validators/*)
  - baseline snapshot drift        -> stages.drift        (src/app2/experiments/report.py:546-706)
  - batch status / resume          -> state.checkpoint    (src/app2/db/batch.py:5-78)
"""

__version__ = "0.1.0"


def _tune_allocator() -> None:
    """Keep large glibc allocations on the brk heap instead of fresh
    mmap regions (mallopt(M_MMAP_THRESHOLD, 1 GiB)).

    On some virtualized kernels, faulting in newly mmap'd pages is
    orders of magnitude slower than extending the heap; numpy's large
    temporaries (every astype/bincount over a flattened token column)
    are malloc'd and freed per batch, so with the default dynamic
    threshold each batch re-faults hundreds of MB. Heap pages are
    faulted once per high-water mark and then reused. Runs in every
    process that imports this package — the driver and each Ray worker.
    No-op on non-glibc platforms.
    """
    import os

    if os.environ.get("ETL_KIO_NO_MALLOPT"):
        return  # embedders can opt out of the allocator retune
    try:
        import ctypes

        libc = ctypes.CDLL("libc.so.6", use_errno=True)
        libc.mallopt(ctypes.c_int(-3), ctypes.c_int(1 << 30))  # M_MMAP_THRESHOLD
    except Exception:  # noqa: BLE001 — best-effort tuning only
        pass


_tune_allocator()

from .core.specs import RuleSpec, default_rules
from .core.verdicts import CheckResult, gate_status

__all__ = [
    "RuleSpec",
    "default_rules",
    "CheckResult",
    "gate_status",
    "__version__",
]
