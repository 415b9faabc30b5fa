"""Deterministic synthetic tokenized-sequence table (FIXTURES.md F1/F2).

Stands in for the reference's bundled 116-payload conformance corpus
(/root/reference/input/raw_football_api/.../manifest.json) — a fixed,
regenerable input that every check is exercised against. One Parquet
file per partition; a counter-based PRNG (numpy Philox keyed by
(seed, partition)) makes every (partition, row) value reproducible
independent of write order or process.

Schema (BASELINE.json input_hint):
    doc_id: string        "d{partition:04d}-{row:08d}"  (unique)
    tokens: list<int32>   uniform [0, vocab)
    n_tok:  int32         lognormal-ish clipped to [1, max_len]
    source: string        skewed categorical (web 70%, books 15%,
                          code 10%, wiki 4%, forums 1%)
    partition: string     "part-{partition:04d}"
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

VOCAB = 50257
MAX_LEN = 8192
SOURCES = np.array(["web", "books", "code", "wiki", "forums"])
SOURCE_P = np.array([0.70, 0.15, 0.10, 0.04, 0.01])

SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("tokens", pa.list_(pa.int32())),
        ("n_tok", pa.int32()),
        ("source", pa.string()),
        ("partition", pa.string()),
    ]
)


def partition_name(p: int) -> str:
    return f"part-{p:04d}"


def partition_file(out_dir: str, p: int) -> str:
    return os.path.join(out_dir, f"{partition_name(p)}.parquet")


def make_partition(
    p: int,
    rows: int,
    *,
    seed: int = 42,
    vocab: int = VOCAB,
    max_len: int = MAX_LEN,
    mean_log: float = 5.0,
    sigma_log: float = 1.0,
) -> pa.Table:
    rng = np.random.Generator(np.random.Philox(key=[seed, p]))
    n_tok = np.clip(
        np.round(rng.lognormal(mean_log, sigma_log, size=rows)), 1, max_len
    ).astype(np.int32)
    flat = rng.integers(0, vocab, size=int(n_tok.sum()), dtype=np.int32)
    offsets = np.zeros(rows + 1, dtype=np.int32)
    np.cumsum(n_tok, out=offsets[1:])
    tokens = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), pa.array(flat))
    source = rng.choice(SOURCES, size=rows, p=SOURCE_P)
    doc_id = np.char.add(
        f"d{p:04d}-", np.char.zfill(np.arange(rows).astype("U8"), 8)
    )
    return pa.table(
        {
            "doc_id": pa.array(doc_id.tolist(), pa.string()),
            "tokens": tokens,
            "n_tok": pa.array(n_tok, pa.int32()),
            "source": pa.array(source.tolist(), pa.string()),
            "partition": pa.array([partition_name(p)] * rows, pa.string()),
        },
        schema=SCHEMA,
    )


def _write_partition(args) -> None:
    out_dir, p, rows, seed, kw = args
    path = partition_file(out_dir, p)
    table = make_partition(p, rows, seed=seed, **kw)
    tmp = f"{path}.tmp.{os.getpid()}"
    pq.write_table(table, tmp)
    os.replace(tmp, path)  # atomic publish


def generate_token_table(
    out_dir: str,
    partitions: int = 4,
    rows_per_partition: int = 250,
    *,
    seed: int = 42,
    overwrite: bool = False,
    max_workers: int | None = None,
    **kw,
) -> str:
    """Write the table (one file per partition); returns out_dir.
    Skips files that already exist (generation itself is resumable);
    the counter-based PRNG keyed by (seed, partition) makes output
    independent of write order, so partitions generate on a process
    pool."""
    os.makedirs(out_dir, exist_ok=True)
    todo = [
        p
        for p in range(partitions)
        if overwrite or not os.path.exists(partition_file(out_dir, p))
    ]
    if not todo:
        return out_dir
    args = [(out_dir, p, rows_per_partition, seed, kw) for p in todo]
    if len(todo) <= 4:
        for a in args:
            _write_partition(a)
        return out_dir
    from concurrent.futures import ProcessPoolExecutor

    if max_workers is None:
        max_workers = min(16, os.cpu_count() or 4)
    with ProcessPoolExecutor(max_workers=max_workers) as ex:
        list(ex.map(_write_partition, args, chunksize=4))
    return out_dir
