"""How stateful stages run, and what CPUs they reserve — decided here only.

Every stateful ``map_batches`` (a class whose ``__init__`` compiles
rules, resolves a broadcast ObjectRef or derives seeded state) runs as
a plain TASK through :class:`CachedEngineFn`: the instance is built once
per worker process and reused by every task that worker executes. A
task fuses with the read that feeds it (``ReadParquet->MapBatches``)
and reserves nothing between batches, so no stage can hold the CPU its
own input needs — the wedge an actor pool hits on a 1-CPU session,
where the pool's one actor takes the only CPU and the read task that
feeds it never schedules.

The only actors left are the aggregators of Ray's hash-shuffle join;
:func:`join_args` sizes the exchange and their reservation so a
whole-CPU read task always still fits.

How many tasks a read of whole partition files runs is decided here
too, by :func:`read_tasks`: small files share a task up to
``READ_TASK_BYTES``, large ones keep a task each.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import uuid
from typing import Any

import numpy as np

# per-worker-process instance cache, keyed by CachedEngineFn.cache_key
_WORKER_ENGINES: dict[str, Any] = {}
_MAX_CACHED = 8  # bound worker-lifetime growth: past this, keep the newest 4


class CachedEngineFn:
    """Picklable ``map_batches`` callable that lazily builds ``cls(**kwargs)``
    once per worker process and applies it to each batch.

    The cached instance is shared by every task the worker runs with
    the same key, so ``cls`` must be per-batch pure after ``__init__``:
    ``__call__`` may read its state but must not carry anything from
    one batch to the next."""

    def __init__(self, cls, /, **kwargs):
        self.cls = cls
        self.kwargs = kwargs
        self.cache_key = _cache_key(cls, kwargs)

    def __call__(self, batch):
        inst = _WORKER_ENGINES.get(self.cache_key)
        if inst is None:
            inst = _WORKER_ENGINES[self.cache_key] = self.cls(**self.kwargs)
            if len(_WORKER_ENGINES) > _MAX_CACHED:
                for k in list(_WORKER_ENGINES)[:-4]:
                    del _WORKER_ENGINES[k]
        return inst(batch)


def _cache_key(cls, kwargs: dict) -> str:
    """Content key for a module-level class and picklable kwargs, so
    equally configured stages (e.g. the flagship's shards and runs)
    share one instance per worker; an ObjectRef pickles as its id. A
    class defined inside a function (its closure is part of its state)
    or unpicklable kwargs get a fresh key, so no two such stages ever
    share an instance."""
    try:
        blob = pickle.dumps((cls, kwargs), protocol=pickle.HIGHEST_PROTOCOL)
    except (pickle.PicklingError, AttributeError, TypeError):
        return uuid.uuid4().hex  # a local class, or unpicklable kwargs
    return hashlib.md5(blob).hexdigest()


# Bytes of parquet (on disk) one read task takes before the next file
# gets a task of its own. Measured on a 1-CPU host, a task costs ~65 ms
# of Ray overhead against ~10 ms to decode and check a 1k-row (0.7 MB)
# file, so small files share tasks. At 16 MiB the benchmark's 25k-row
# files (12.7 MB) and bench.py's 62.5k-row files (44 MB) still get one
# task each; multi-file tasks were measured slower at that size.
READ_TASK_BYTES = 16 << 20


def read_tasks(sizes, cpus: int, target: int = READ_TASK_BYTES) -> int:
    """Number of tasks to read whole files of the given byte sizes with.

    Ray's ``read_parquet(override_num_blocks=k)`` cuts the ordered file
    list into ``k`` runs whose file counts differ by at most one
    (``np.array_split``), so the rule is stated in file counts: ``m`` is
    the most files that any run of consecutive files fits in ``target``
    bytes, and ``ceil(n / m)`` tasks hold at most ``m`` files each. So
    small files are packed, and no task reads more than ``target``
    bytes unless it reads a single file. A file of ``target`` bytes or
    more makes ``m`` 1: every file of that read gets its own task. A
    session never gets fewer tasks than min(files, cpus). 0 for no
    files."""
    n = len(sizes)
    if n == 0:
        return 0
    ends = np.concatenate([[0], np.cumsum(sizes, dtype=np.int64)])
    lo, hi = 1, n  # the largest m whose every m-file window fits; windows grow with m
    while lo < hi:
        m = (lo + hi + 1) // 2
        if (ends[m:] - ends[:-m]).max() <= target:
            lo = m
        else:
            hi = m - 1
    return max(-(-n // lo), min(n, cpus))


def read_args(files: list[str]) -> dict:
    """``read_parquet`` kwargs that read ``files`` with
    :func:`read_tasks` tasks on this session's CPUs."""
    sizes = [os.path.getsize(f) for f in files]
    return {"override_num_blocks": read_tasks(sizes, int(_session_cpus()))}


def _session_cpus() -> float:
    import ray

    return float(ray.cluster_resources().get("CPU", 0)) if ray.is_initialized() else 0.0


def join_args() -> dict:
    """``num_partitions`` and ``aggregator_ray_remote_args`` for
    ``Dataset.join``, which keeps one aggregator actor per partition
    alive for the whole exchange.

    One partition per cluster CPU: each aggregator is a worker process,
    so more of them than CPUs only adds start-up cost. The aggregators
    together reserve Ray's default half of the cluster's CPUs, but
    never more than all CPUs but one, so a whole-CPU read task feeding
    the join can always schedule (0 on a 1-CPU session)."""
    total = _session_cpus()
    n = max(1, int(total))
    budget = max(0.0, min(total / 2, total - 1))
    return {
        "num_partitions": n,
        "aggregator_ray_remote_args": {"num_cpus": min(1.0, budget / n)},
    }
