"""Distribution-drift rule: KS / PSI against a baseline snapshot.

Analog of the reference's baseline-vs-iteration mart snapshot diff
(/root/reference/src/app2/experiments/run.py:490-501 captures the
baseline once; /root/reference/src/app2/experiments/report.py:546-706
diffs every iteration against it). Their diff is exact row matching on
200-row snapshots; at 10^12 rows the comparable artifact is a binned
distribution snapshot (FIXTURES.md F3): global + per-partition n_tok
histograms (64 bins) and per-source token-value histograms (256 bins).

The snapshot is produced by the same RuleEngine stats pass (its
``column_stats`` partials), merged and persisted; scoring compares the
current run's merged histograms against it. Unlike the reference —
which silently skips views that error during snapshotting
(report.py:687-693) — a snapshot/schema mismatch here FAILS the drift
check loudly (SURVEY.md §7.4).
"""

from __future__ import annotations

import json
import os
import pickle

import numpy as np

from ..sketches import FixedHistogram
from ..sketches.hist import ks_stat, psi
from .rule_engine import ID_COL, VOCAB_SIZE, RuleEngine

# v2: token-histogram domain became [0, ceil(vocab/bins)*bins) with
# integer bin widths (rule_engine.bin_width) — v1 snapshots bin on the
# old [0, vocab) float edges and must not be compared silently
SNAPSHOT_VERSION = 2


def build_baseline_snapshot(
    merged_stats: dict[str, dict],
    out_dir: str,
    *,
    meta: dict | None = None,
) -> str:
    """Persist merged column_stats (per partition + '__global__') as the
    versioned drift baseline. ``merged_stats[partition]`` holds keys
    ``n_tok_fixed`` and ``token_hists`` (see RuleEngine._rule_stats)."""
    os.makedirs(out_dir, exist_ok=True)
    payload = {
        "version": SNAPSHOT_VERSION,
        "stats": merged_stats,
        "meta": meta or {},
    }
    tmp = os.path.join(out_dir, "snapshot.pkl.tmp")
    with open(tmp, "wb") as f:
        pickle.dump(payload, f, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(tmp, os.path.join(out_dir, "snapshot.pkl"))
    manifest = {
        "version": SNAPSHOT_VERSION,
        "partitions": sorted(k for k in merged_stats if k != "__global__"),
        **(meta or {}),
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=2)
    return out_dir


def load_baseline_snapshot(snapshot) -> dict:
    """The versioned baseline payload from a snapshot dir, or from a
    ``ray.put`` ObjectRef of that payload. Raises on a version mismatch."""
    import ray

    if isinstance(snapshot, ray.ObjectRef):
        payload = ray.get(snapshot)
    else:
        with open(os.path.join(snapshot, "snapshot.pkl"), "rb") as f:
            payload = pickle.load(f)
    if payload.get("version") != SNAPSHOT_VERSION:
        raise ValueError(
            f"baseline snapshot version {payload.get('version')} != {SNAPSHOT_VERSION}"
        )
    return payload


class DriftScorer:
    """Stateful ``map_batches`` stage holding the baseline snapshot:
    loaded ONCE per worker in ``__init__`` (from disk or a ``ray.put``
    ObjectRef), never per batch.

    Emits one row per (batch, partition) with streaming KS/PSI scores —
    an early-warning signal while data flows. The exact per-partition
    verdict still comes from :func:`score_drift` over fully merged
    partials (a batch is a sample of its partition; per-batch scores
    are noisier by design and use the same thresholds only as hints).

        ds.map_batches(CachedEngineFn(DriftScorer, snapshot=snap_dir_or_ref),
           batch_format="pyarrow", zero_copy_batch=True)

    (``CachedEngineFn`` from core/resources.py: a fused task that loads
    the snapshot once per worker.)
    """

    def __init__(
        self,
        snapshot,
        *,
        vocab_size: int = VOCAB_SIZE,
        psi_threshold: float = 0.2,
        ks_threshold: float = 0.15,
        min_tokens_per_source: int = 2560,
    ):
        self.base = load_baseline_snapshot(snapshot)["stats"]
        self.psi_threshold = psi_threshold
        self.ks_threshold = ks_threshold
        # a batch is a SAMPLE: a source with few tokens in this batch
        # cannot fill a 256-bin histogram, so its PSI vs the full
        # baseline is pure sampling noise — skip it in streaming mode
        # (the exact per-partition pass still covers every source)
        self.min_tokens_per_source = min_tokens_per_source

        # the stats kernel is compiled once per worker too (it would
        # otherwise rebuild rule specs on every batch of the hot path)
        from ..core.specs import default_rules

        self._engine = RuleEngine(
            {"column_stats": default_rules()["column_stats"]}, vocab_size=vocab_size
        )

    def __call__(self, batch):
        import pyarrow as pa

        if ID_COL in batch.column_names:
            # the doc_id HLL is no drift signal: keep the kernel off it
            batch = batch.drop_columns([ID_COL])
        union = self._engine(batch)
        rows = {"partition": [], "ks_n_tok": [], "psi_tokens": [], "drifted": []}
        for part, blob in zip(
            union["partition"].to_pylist(), union["payload"].to_pylist()
        ):
            st = pickle.loads(blob)
            if "n_tok_fixed" not in st:
                continue
            th = st.get("token_hists") or {}
            st = {
                **st,
                "token_hists": {
                    s: h
                    for s, h in th.items()
                    if int(np.asarray(h["counts"]).sum()) >= self.min_tokens_per_source
                },
            }
            scored = score_drift(
                {part: st},
                {"version": SNAPSHOT_VERSION, "stats": self.base},
                psi_threshold=self.psi_threshold,
                ks_threshold=self.ks_threshold,
            )[part]
            rows["partition"].append(part)
            rows["ks_n_tok"].append(scored["ks_n_tok"])
            rows["psi_tokens"].append(scored["psi_tokens"])
            rows["drifted"].append(scored["drifted"])
        return pa.table(
            {
                "partition": pa.array(rows["partition"], pa.string()),
                "ks_n_tok": pa.array(rows["ks_n_tok"], pa.float64()),
                "psi_tokens": pa.array(
                    [min(v, 1e9) for v in rows["psi_tokens"]], pa.float64()
                ),
                "drifted": pa.array(rows["drifted"], pa.bool_()),
            }
        )


def _same_shape(base: dict, cur: dict, what: str) -> tuple[FixedHistogram, FixedHistogram]:
    """Both histogram states, or ValueError when their bins differ: KS and
    PSI compare bin by bin, so a snapshot binned on another domain (say,
    another vocab_size) would score as drift instead of failing."""
    b, c = FixedHistogram.from_state(base), FixedHistogram.from_state(cur)
    if (b.lo, b.hi, b.nbins) != (c.lo, c.hi, c.nbins):
        raise ValueError(
            f"drift histogram {what}: baseline bins (lo, hi, nbins)="
            f"{(b.lo, b.hi, b.nbins)} != current {(c.lo, c.hi, c.nbins)}"
        )
    return b, c


def score_drift(
    current: dict[str, dict],
    baseline: dict,
    *,
    psi_threshold: float = 0.2,
    ks_threshold: float = 0.15,
) -> dict[str, dict]:
    """Per-partition (and global) KS on n_tok + max per-source PSI on
    token-value histograms. Returns {partition: {ks_n_tok, psi_tokens,
    drifted, detail}}; raises ValueError on a baseline bin mismatch."""
    base_stats = baseline["stats"]
    out: dict[str, dict] = {}
    for part, cur in current.items():
        base = base_stats.get(part) or base_stats.get("__global__")
        if base is None:
            raise ValueError(f"baseline snapshot has no stats for partition {part!r}")
        res: dict = {"ks_n_tok": 0.0, "psi_tokens": 0.0, "per_source_psi": {}}
        if "n_tok_fixed" in cur and "n_tok_fixed" in base:
            res["ks_n_tok"] = ks_stat(
                *_same_shape(base["n_tok_fixed"], cur["n_tok_fixed"], f"{part} n_tok")
            )
        cur_th = cur.get("token_hists") or {}
        base_th = base.get("token_hists") or {}
        worst = 0.0
        for src, state in cur_th.items():
            if src not in base_th:
                # unseen source: referential rule flags it; drift treats
                # it as maximal shift
                res["per_source_psi"][src] = float("inf")
                worst = float("inf")
                continue
            v = psi(*_same_shape(base_th[src], state, f"{part} tokens[{src}]"))
            res["per_source_psi"][src] = v
            worst = max(worst, v)
        res["psi_tokens"] = worst
        res["drifted"] = bool(
            res["ks_n_tok"] > ks_threshold or res["psi_tokens"] > psi_threshold
        )
        out[part] = res
    return out
