"""Fault-injection harness (FIXTURES.md F4).

Mirrors the reference's mutation experiment machinery: the STG payload
corruptions (/root/reference/src/app2/mutators/stg_mutations.py:28-93 —
duplicate_first, drop_required, corrupt_id, matchday_out_of_range,
drop_matches_key, swap_teams), the DDS fault injections
(/root/reference/src/app2/mutators/dds_mutations.py:93-178) and the
deterministic per-run seeding (stg_mutations.py:107). Each action
rewrites one target partition of the baseline table into a mutated
directory and hard-links the others there (a copy where linking fails) —
the semantics of the reference's copy of the baseline run into a new
``exp_*`` run (src/app2/experiments/stg_copy.py:47-97)
without paying for it. The rewrites work on the Arrow list offsets and
flat values with numpy; no column is turned into Python lists.

The expected-detection mapping (which rule must catch which action)
follows config/mutation_experiment.yml:16-164 and is encoded in
``EXPECTED_DETECTION`` for the tests.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from .storage import link_or_copy

# action -> rule_id that must flag it (None: only per-row token equality
# against the oracle detects it — the swap_teams analog, a semantic
# corruption that schema/stats checks must NOT flag)
EXPECTED_DETECTION = {
    "duplicate_first": "doc_id_unique",
    "drop_required": "schema_types",
    "corrupt_id": "row_invariants",
    "out_of_range": "row_invariants",
    "drop_key": "schema_types",
    "unknown_source": "source_ref",
    "vocab_violation": "row_invariants",
    "shift_distribution": "drift_ks_psi",
    "swap_like": None,
}


def _rng(seed: int, action: str, partition: int) -> np.random.Generator:
    # action index (not hash()) so the stream is stable across processes
    idx = sorted(EXPECTED_DETECTION).index(action)
    return np.random.Generator(
        np.random.Philox(key=[seed, idx * 1_000_003 + partition])
    )


def mutate_table(
    src_dir: str,
    dst_dir: str,
    action: str,
    *,
    seed: int = 7,
    target_partition: int = 0,
    k_rows: int = 5,
) -> str:
    """Copy ``src_dir`` to ``dst_dir`` applying ``action`` to the target
    partition. Deterministic for a given (seed, action, partition).
    Unchanged files are hard links to the baseline's (a copy where the
    file system refuses a link)."""
    if action not in EXPECTED_DETECTION:
        raise KeyError(f"unknown mutation action {action!r}")
    os.makedirs(dst_dir, exist_ok=True)
    files = sorted(f for f in os.listdir(src_dir) if f.endswith(".parquet"))
    target = files[target_partition]
    for f in files:
        src, dst = os.path.join(src_dir, f), os.path.join(dst_dir, f)
        # never write through an earlier call's link into the baseline
        if os.path.lexists(dst):
            os.remove(dst)
        if f != target:
            link_or_copy(src, dst)
            continue
        t = pq.read_table(src)
        t = _apply(t, action, _rng(seed, action, target_partition), k_rows)
        # plain-encoded: dictionary-encoding out_of_range's 5M tokens
        # took 0.16 s of its 0.21 s (1k-row partition, 1 CPU)
        pq.write_table(t, dst, use_dictionary=False)
    return dst_dir


def _with_rows(tokens: pa.Array, new: dict[int, np.ndarray]) -> pa.ListArray:
    """``tokens`` (list<int32>) with the rows in ``new`` replaced by the
    given values, built on the list offsets and flat values."""
    lens = pc.fill_null(pc.list_value_length(tokens), 0).to_numpy().astype(np.int64)
    flat = pc.list_flatten(tokens).to_numpy(zero_copy_only=False)
    offs = np.concatenate([[0], np.cumsum(lens)])
    pieces, prev = [], 0
    for r in sorted(new):
        pieces += [flat[offs[prev] : offs[r]], new[r]]
        lens[r] = len(new[r])
        prev = r + 1
    pieces.append(flat[offs[prev] :])
    return pa.ListArray.from_arrays(
        pa.array(np.concatenate([[0], np.cumsum(lens)]), pa.int32()),
        pa.array(np.concatenate(pieces).astype(np.int32, copy=False), pa.int32()),
        mask=pc.is_null(tokens) if tokens.null_count else None,
    )


def _row_tokens(tokens: pa.Array, rows) -> dict[int, np.ndarray]:
    """{row: a writable copy of its tokens} for the given rows."""
    return {
        r: tokens[r].values.to_numpy(zero_copy_only=False).copy()
        for r in rows
        if tokens[r].is_valid
    }


def _apply(t: pa.Table, action: str, rng: np.random.Generator, k: int) -> pa.Table:
    cols = {c: t[c].combine_chunks() for c in t.column_names}
    n = t.num_rows

    def rebuild(**overrides) -> pa.Table:
        arrays, names = [], []
        for c in t.column_names:
            names.append(c)
            arrays.append(overrides.get(c, cols[c]))
        return pa.table(dict(zip(names, arrays)))

    def at(rows) -> pa.Array:
        mask = np.zeros(n, dtype=bool)
        mask[rows] = True
        return pa.array(mask)

    if action == "duplicate_first":
        # append a copy of the first row (same doc_id) — stg_mutations.py:36-38
        first = t.slice(0, 1)
        return pa.concat_tables([t, first])

    if action == "drop_required":
        # null out doc_id in the first row — stg_mutations.py:39-45
        ids = pc.if_else(at([0]), pa.scalar(None, pa.string()), cols["doc_id"])
        return rebuild(doc_id=ids.cast(pa.string()))

    if action == "corrupt_id":
        # n_tok no longer equals len(tokens) — corrupt_id analog :46-49
        nt = cols["n_tok"].to_numpy(zero_copy_only=False).copy()
        rows = rng.choice(n, size=min(k, n), replace=False)
        nt[rows] = nt[rows] + 1
        return rebuild(n_tok=pa.array(nt, pa.int32()))

    if action == "out_of_range":
        # n_tok = 999999 with tokens resized to match (matchday 999
        # analog :50-53) — range violated, len consistent
        rows = sorted(rng.choice(n, size=min(k, n), replace=False).tolist())
        nt = cols["n_tok"].to_numpy(zero_copy_only=False).copy()
        nt[rows] = 999_999
        # each row's tokens repeated cyclically up to 999,999 (an empty
        # row stays empty)
        new = {
            r: np.resize(v, 999_999) if len(v) else v
            for r, v in _row_tokens(cols["tokens"], rows).items()
        }
        return rebuild(
            n_tok=pa.array(nt, pa.int32()), tokens=_with_rows(cols["tokens"], new)
        )

    if action == "drop_key":
        # whole column missing — drop_matches_key analog :31-34
        return t.drop_columns(["tokens"])

    if action == "unknown_source":
        rows = rng.choice(n, size=min(k, n), replace=False)
        src = pc.if_else(at(rows), pa.scalar("MUTATED", pa.string()), cols["source"])
        return rebuild(source=src.cast(pa.string()))

    if action == "vocab_violation":
        # token values outside [0, vocab): negative and >= vocab on k
        # rows; lengths unchanged so ONLY the vocab-range sub-check
        # fires (the matchday-out-of-range analog applied per token)
        rows = sorted(rng.choice(n, size=min(k, n), replace=False).tolist())
        new = _row_tokens(cols["tokens"], rows)
        for j, r in enumerate(rows):
            if len(new.get(r, ())):
                new[r][0] = -7 if j % 2 == 0 else 2_000_000_000
        return rebuild(tokens=_with_rows(cols["tokens"], new))

    if action == "shift_distribution":
        # +512 to n_tok and pad tokens on ~30% of one source's rows —
        # the drift analog of the mart snapshot diff
        web = pc.fill_null(pc.equal(cols["source"], "web"), False)
        candidates = np.flatnonzero(web.to_numpy(zero_copy_only=False))
        rows = set(
            candidates[rng.random(len(candidates)) < 0.3].tolist()
        )
        old = _row_tokens(cols["tokens"], rows)
        nt = cols["n_tok"].to_numpy(zero_copy_only=False).copy()
        new = {}
        # one pad drawn per row, in the set's iteration order
        for r in rows:
            pad = rng.integers(0, 50257, size=512, dtype=np.int32)
            new[r] = np.concatenate([old[r], pad])
            nt[r] = nt[r] + 512
        return rebuild(
            n_tok=pa.array(nt, pa.int32()), tokens=_with_rows(cols["tokens"], new)
        )

    if action == "swap_like":
        # reverse token arrays on k rows: semantically corrupted but
        # schema/stats-invisible (swap_teams analog :54-92)
        rows = set(rng.choice(n, size=min(k, n), replace=False).tolist())
        new = {r: v[::-1] for r, v in _row_tokens(cols["tokens"], rows).items()}
        return rebuild(tokens=_with_rows(cols["tokens"], new))

    raise AssertionError(action)
