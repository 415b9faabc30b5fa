"""Exact n-gram Jaccard similarity for candidate pairs — the verifier
used after MinHash/SimHash candidate generation, and a standalone
all-pairs tool for small inputs."""

from __future__ import annotations

import pandas as pd


def shingles(text: str, k: int = 3) -> set:
    ws = str(text).lower().split(" ")
    return {tuple(ws[i : i + k]) for i in range(max(0, len(ws) - k + 1))}


def jaccard(a: set, b: set) -> float:
    u = len(a | b)
    return len(a & b) / u if u else 0.0


def jaccard_pairs_exact(
    df: pd.DataFrame, text_col="text", id_col="doc_id", *, k=3, threshold=0.8
) -> pd.DataFrame:
    """All-pairs exact n-gram Jaccard (driver-side; for tests and small
    candidate sets — the scale path is minhash_dedup_pairs)."""
    if len(df) > 20_000:
        raise ValueError(
            f"jaccard_pairs_exact is an O(n^2) driver-side verifier for "
            f"SMALL candidate sets (got {len(df)} rows); use "
            f"minhash_dedup_pairs for the distributed scale path"
        )
    sets = {r[id_col]: shingles(r[text_col], k) for _, r in df.iterrows()}
    ids = sorted(sets)
    rows = []
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            j = jaccard(sets[a], sets[b])
            if j >= threshold:
                rows.append((a, b, j))
    return pd.DataFrame(rows, columns=["id_a", "id_b", "jaccard"])


def semi_join_docs(
    probe_ds,
    build_ds,
    *,
    id_col: str,
    key_col: str = "g",
    num_partitions: int = 32,
):
    """Distributed SEMI-join: the ``id_col`` values of probe rows whose
    ``key_col`` appears anywhere in the build side. One hash-bucketed
    co-group (tagged union on hash(key) % num_partitions), then a
    per-bucket MEMBERSHIP test (``pc.is_in``) of probe keys against the
    bucket's build keys. Because membership is idempotent, duplicate
    build keys — e.g. a Zipfian-hot gram that survives per-batch dedup
    in B different build batches — cannot amplify a probe row B× the
    way an inner join on the key would (the skewed-key join blow-up at
    corpus scale). The build side never needs a global distinct: the
    one exchange here IS the distinct's exchange, minus its reduce.

    Returns a lazy Dataset of per-bucket-distinct ``id_col`` rows: a
    given id appears at most once per bucket (its keys may hash to
    several buckets), so callers do the cheap global distinct.
    """
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from ..pipelines.relational import bucket_exchange, dataset_arrow_schema

    id_type = dataset_arrow_schema(probe_ds).field(id_col).type

    def _tag(t: pa.Table, is_probe: bool) -> pa.Table:
        ids = t[id_col] if is_probe else pa.nulls(t.num_rows, id_type)
        return pa.table(
            {
                key_col: t[key_col],
                id_col: ids,
                "__p": pa.array(np.full(t.num_rows, is_probe)),
            }
        )

    both = [
        side.map_batches(
            lambda t, p=is_probe: _tag(t, p),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        for side, is_probe in ((build_ds, False), (probe_ds, True))
    ]

    def _semi(g: pa.Table, _b: int) -> pa.Table:
        p = g["__p"]
        if isinstance(p, pa.ChunkedArray):
            p = p.combine_chunks()
        probe = g.filter(p)
        build_keys = g.filter(pc.invert(p))[key_col]
        if isinstance(build_keys, pa.ChunkedArray):
            build_keys = build_keys.combine_chunks()
        hit = pc.is_in(probe[key_col], value_set=build_keys)
        out = probe.filter(hit).select([id_col])
        return out.group_by(id_col).aggregate([])

    return bucket_exchange(
        both,
        key_col,
        _semi,
        schema=pa.schema([(id_col, id_type)]),
        num_buckets=num_partitions,
    )


def gram_occurrences(
    t, *, text_col: str = "text", k: int = 3, carry: list[str] | None = None
):
    """One row per word-k-gram OCCURRENCE in the batch (no dedup):
    column ``g`` (the lowercased space-joined gram) plus each ``carry``
    column taken from the occurrence's row. Fully vectorized: one
    split_pattern over the batch's char buffer, k shifted slices joined
    element-wise, and doc-boundary windows masked with k-1 vectorized
    passes over the offsets — never a per-document Python loop."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    carry = carry or []
    text = t[text_col]
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    words = pc.split_pattern(pc.utf8_lower(pc.fill_null(text, "")), " ")
    flat = (
        words.values
        if not isinstance(words, pa.ChunkedArray)
        else words.combine_chunks().values
    )
    off = np.asarray(words.offsets, dtype=np.int64)
    off = off - off[0]
    n = len(flat)
    empty_cols = {"g": pa.array([], pa.string())}
    for c in carry:
        empty_cols[c] = pa.array([], t[c].type)
    if n < k:
        return pa.table(empty_cols)
    parts = [flat.slice(i, n - k + 1) for i in range(k)]
    grams = pc.binary_join_element_wise(*parts, " ")
    valid = np.ones(n - k + 1, dtype=bool)
    # windows straddling a doc boundary: starts s-j for j in 1..k-1
    # (vectorized over boundaries; k-1 passes, never per-document)
    for j in range(1, k):
        b = off[1:-1] - j
        b = b[(b >= 0) & (b <= n - k)]
        valid[b] = False
    vmask = pa.array(valid)
    cols = {"g": grams.filter(vmask)}
    if carry:
        counts = np.diff(off)
        docidx = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
        take_idx = pa.array(docidx[: n - k + 1][valid])
        for c in carry:
            vals = t[c]
            if isinstance(vals, pa.ChunkedArray):
                vals = vals.combine_chunks()
            cols[c] = vals.take(take_idx)
    return pa.table(cols)


def dup_gram_stats(
    ds,
    *,
    text_col: str = "text",
    group_col: str = "source",
    k: int = 3,
    num_partitions: int | None = None,
):
    """Per-group duplicated-n-gram occurrence counts — the corpus
    quality metric "what fraction of this source's k-gram occurrences
    are duplicated somewhere in the corpus" (within- OR cross-document
    repeats both count; an occurrence is duplicated iff its gram's
    GLOBAL occurrence count is >= 2).

    Scale shape: each batch collapses its occurrences to (g, group,
    cnt) partials with one Arrow hash-aggregate, so the single
    hash-bucket exchange carries distinct-per-batch rows, never one row
    per occurrence. Each bucket owns its grams entirely (hash(g)
    buckets), so the global per-gram total is computable in-bucket;
    the bucket then emits <= |groups| partial rows and the final
    groupby is driver-trivial. Grams travel as exact strings
    (bit-identical to the SQL twin) as in cross_corpus_contamination.

    Returns a lazy Dataset of per-bucket partials (group_col, n_grams,
    dup_grams); callers sum per group (e.g. via relational.grouped_agg).

    Reference analog: the reference's duplicate-detection family
    (/root/reference/src/app2/validators/dds/rules_suite checks) at
    n-gram granularity rather than row granularity.
    """
    import pyarrow as pa
    import pyarrow.compute as pc

    from ..pipelines.relational import bucket_exchange

    def _partial(t: pa.Table) -> pa.Table:
        occ = gram_occurrences(t, text_col=text_col, k=k, carry=[group_col])
        part = occ.group_by(["g", group_col]).aggregate([([], "count_all")])
        return part.rename_columns(["g", group_col, "cnt"])

    def _reduce(g: pa.Table, _b: int) -> pa.Table:
        cnt = g["cnt"]
        if isinstance(cnt, pa.ChunkedArray):
            cnt = cnt.combine_chunks()
        cnt = pc.cast(cnt, pa.int64())
        tot = g.group_by("g").aggregate([("cnt", "sum")])
        dup_g = tot.filter(pc.greater(tot["cnt_sum"], 1))["g"]
        if isinstance(dup_g, pa.ChunkedArray):
            dup_g = dup_g.combine_chunks()
        isdup = pc.is_in(g["g"], value_set=dup_g)
        dup_cnt = pc.if_else(isdup, cnt, pa.scalar(0, pa.int64()))
        out = pa.table(
            {group_col: g[group_col], "n_grams": cnt, "dup_grams": dup_cnt}
        )
        out = out.group_by(group_col).aggregate(
            [("n_grams", "sum"), ("dup_grams", "sum")]
        )
        return out.rename_columns([group_col, "n_grams", "dup_grams"])

    return bucket_exchange(
        ds.map_batches(_partial, batch_format="pyarrow", zero_copy_batch=True),
        "g",
        _reduce,
        schema=lambda s: pa.schema(
            [
                (group_col, s.field(group_col).type),
                ("n_grams", pa.int64()),
                ("dup_grams", pa.int64()),
            ]
        ),
        num_buckets=num_partitions,
    )


def cross_corpus_contamination(
    train_ds,
    test_ds,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    k: int = 3,
    num_partitions: int = 32,
):
    """Train/test contamination check: how many TEST documents share at
    least one exact word-k-gram with the TRAIN corpus — the leakage
    screen an LLM data pipeline runs before holding out an eval set.

    Scale shape: each batch reduces to DISTINCT grams (train side) /
    DISTINCT (doc, gram) pairs (test side) with one Arrow hash-aggregate
    — raw text never rides the exchange, and within-batch repeats are
    collapsed before the shuffle. The sides then meet in ONE
    hash-bucketed co-group (tagged union on hash(g) % num_partitions)
    where the test rows are filtered by MEMBERSHIP (``pc.is_in``)
    against the bucket's train grams — a true semi-join, so a gram
    that survives per-batch dedup in B train batches can never
    multiply a matching test row B× the way an inner join would
    (Zipfian hot grams at corpus scale made that a skewed-key blow-up).
    Grams travel as exact strings (bit-identical to the SQL twin); for
    corpora where the distinct-gram exchange dominates, the
    hashed-signature path is the MinHash family in this package
    (collision-free exactness is this operator's contract; MinHash
    trades it for traffic).

    Returns a one-row DataFrame (n_test_docs, n_contaminated): test
    docs with at least one gram (< k words -> no grams, excluded), and
    those sharing a gram with train.
    """
    import pyarrow as pa

    def _grams(t: pa.Table, with_doc: bool) -> pa.Table:
        carry = [id_col] if with_doc else []
        occ = gram_occurrences(t, text_col=text_col, k=k, carry=carry)
        keys = carry + ["g"]
        return occ.group_by(keys).aggregate([]).select(["g"] + carry)

    train_grams = train_ds.map_batches(
        lambda t: _grams(t, False), batch_format="pyarrow", zero_copy_batch=True
    )
    # materialized: both the doc count and the join consume it, and the
    # gram extraction is the expensive stage
    test_pairs = test_ds.map_batches(
        lambda t: _grams(t, True), batch_format="pyarrow", zero_copy_batch=True
    ).materialize()

    # per-batch shrink to distinct doc ids, then a global distinct —
    # NOT a per-block count-and-sum: Ray splits large map outputs at
    # arbitrary row offsets (target_max_block_size), so one doc's pairs
    # can straddle blocks and a per-block count would double-count
    def _docs_only(t: pa.Table) -> pa.Table:
        return t.select([id_col]).group_by(id_col).aggregate([])

    n_test = (
        test_pairs.map_batches(
            _docs_only, batch_format="pyarrow", zero_copy_batch=True
        )
        .groupby(id_col)
        .count()
        .count()
    )
    matched_docs = semi_join_docs(
        test_pairs,
        train_grams,
        id_col=id_col,
        key_col="g",
        num_partitions=num_partitions,
    )
    n_contaminated = matched_docs.groupby(id_col).count().count()
    import pandas as pd

    return pd.DataFrame(
        {"n_test_docs": [int(n_test)], "n_contaminated": [int(n_contaminated)]}
    )


def ngram_jaccard_pairs(
    ds,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    k: int = 3,
    df_cap: int = 64,
    tau_num: int = 1,
    tau_den: int = 2,
    num_partitions: int | None = None,
    measure: str = "jaccard",
):
    """Exact n-gram-Jaccard near-duplicate pair mining — the third
    dedup family next to MinHash (probabilistic candidates) and exact
    content hash: every pair of documents whose word-k-gram sets have
    Jaccard >= tau_num/tau_den over the DISCRIMINATIVE gram universe
    (grams held by <= ``df_cap`` distinct docs; boilerplate grams above
    the cap are excluded from sets and intersections alike, so the
    measure is exact for that declared universe — the SQL twin applies
    the identical cap).

    Scale shape — three hash-bucket exchanges, nothing ever touches the
    driver:

      1. gram-owned: per-batch DISTINCT (g, doc) rows (a doc is one row,
         so per-batch dedup is globally exact) meet in hash(g) buckets;
         each bucket computes df in-bucket, drops g with df > df_cap,
         and emits (a) per-doc SIZE partials and (b) per-(a,b) PAIR
         partials enumerated with the size-classed triu expansion
         (df <= df_cap bounds a gram's pairs at C(df_cap, 2) — the
         declared-universe cap IS the blow-up guard, never silent:
         excluded grams are excluded from the semantics, not sampled);
      2. doc_a-owned: intersection partials for (a, b) all land in
         hash(a)'s bucket and sum exactly; size partials for doc a land
         in the same bucket and attach as size_a (a shares >= 1 kept
         gram with b, so its size row provably exists — a miss raises);
      3. doc_b-owned: size rows re-scatter by doc, pairs by b; size_b
         attaches, union = size_a + size_b - inter, and the threshold
         is the exact integer test inter * tau_den >= tau_num * union.

    Returns a LAZY Dataset with one row per qualifying pair:
    (doc_a, doc_b, inter, size_a, size_b, jac_x1e6) — all int64,
    jac_x1e6 = inter * 1_000_000 // union (floor; exact on both
    engines). doc_a < doc_b. Callers sort/collect small results via
    ``relational.collect_sorted``.

    Reference analog: the duplicate-detection rule family
    (/root/reference/src/app2/validators/dds rules) at set-similarity
    rather than exact-equality granularity.
    """
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc

    from ..pipelines.relational import (
        bucket_exchange,
        key_buckets,
        resolve_num_buckets,
    )

    nb = resolve_num_buckets(ds, num_partitions)
    partial = pa.schema(
        [
            ("kind", pa.int8()),  # 0 = size row, 1 = pair row
            ("a", pa.int64()),
            ("b", pa.int64()),
            ("inter", pa.int64()),
            ("size_a", pa.int64()),
        ]
    )

    def _mk(kind, a, b, inter, size_a) -> pa.Table:
        return pa.table(
            [np.full(len(a), kind, np.int8)]
            + [np.asarray(v, np.int64) for v in (a, b, inter, size_a)],
            schema=partial,
        )

    def distinct_doc_grams(t: pa.Table) -> pa.Table:
        occ = gram_occurrences(t, text_col=text_col, k=k, carry=[id_col])
        return occ.group_by(["g", id_col]).aggregate([])

    def gram_bucket(g: pa.Table, _b: int) -> pa.Table:
        g = g.sort_by([("g", "ascending"), (id_col, "ascending")])
        codes_arr = pc.dictionary_encode(g["g"].combine_chunks())
        codes = codes_arr.indices.to_numpy(zero_copy_only=False)
        docs = g[id_col].combine_chunks().to_numpy(zero_copy_only=False)
        n = len(codes)
        starts = np.r_[np.int64(0), np.flatnonzero(np.diff(codes)) + 1]
        sizes = np.diff(np.r_[starts, n])
        kept = sizes <= df_cap
        # per-doc size partials over kept grams
        row_kept = np.repeat(kept, sizes)
        sdocs, scnt = np.unique(docs[row_kept], return_counts=True)
        out = [_mk(0, sdocs, np.full(len(sdocs), -1), scnt, np.zeros(len(sdocs)))]
        # pair partials from kept grams with df >= 2 (size-classed triu)
        pstarts = starts[kept & (sizes >= 2)]
        psizes = sizes[kept & (sizes >= 2)]
        pa_l, pb_l = [], []
        for s in np.unique(psizes):
            sel = pstarts[psizes == s]
            mat = sel[:, None] + np.arange(int(s))[None, :]
            iu, ju = np.triu_indices(int(s), k=1)
            pa_l.append(docs[mat[:, iu]].ravel())
            pb_l.append(docs[mat[:, ju]].ravel())
        if pa_l:
            grp = (
                pd.DataFrame({"a": np.concatenate(pa_l), "b": np.concatenate(pb_l)})
                .groupby(["a", "b"], sort=False)
                .size()
                .reset_index(name="c")
            )
            out.append(
                _mk(1, grp["a"].to_numpy(), grp["b"].to_numpy(),
                    grp["c"].to_numpy(), np.zeros(len(grp)))
            )
        return pa.concat_tables(out)

    def a_bucket(g: pa.Table, _b: int) -> pa.Table:
        kind = g["kind"].combine_chunks().to_numpy(zero_copy_only=False)
        sz = g.filter(pa.array(kind == 0))
        sz = sz.group_by("a").aggregate([("inter", "sum")])  # partial sizes sum
        sdocs = sz["a"].combine_chunks().to_numpy(zero_copy_only=False)
        ssizes = sz["inter_sum"].combine_chunks().to_numpy(zero_copy_only=False)
        order = np.argsort(sdocs, kind="stable")  # searchsorted needs order
        sdocs, ssizes = sdocs[order], ssizes[order]
        pr = g.filter(pa.array(kind == 1))
        out = [_mk(0, sdocs, np.full(len(sdocs), -1), ssizes, np.zeros(len(sdocs)))]
        if pr.num_rows:
            agg = pr.group_by(["a", "b"]).aggregate([("inter", "sum")])
            av = agg["a"].combine_chunks().to_numpy(zero_copy_only=False)
            bv = agg["b"].combine_chunks().to_numpy(zero_copy_only=False)
            iv = agg["inter_sum"].combine_chunks().to_numpy(zero_copy_only=False)
            pos = np.searchsorted(sdocs, av)
            if np.any(pos >= len(sdocs)) or np.any(sdocs[np.minimum(pos, len(sdocs) - 1)] != av):
                raise RuntimeError(
                    "ngram_jaccard_pairs: pair's doc_a has no size row in "
                    "its own bucket — routing invariant broken"
                )
            out.append(_mk(1, av, bv, iv, ssizes[pos]))
        return pa.concat_tables(out)

    def by_doc_then_b(t: pa.Table, n: int) -> np.ndarray:
        # stage-3 routing: sizes re-scatter by doc (a), pairs by b
        kind0 = pc.equal(t["kind"], pa.scalar(0, pa.int8()))
        return key_buckets(pc.if_else(kind0, t["a"], t["b"]), n)

    out_score = "cont_x1e6" if measure == "containment" else "jac_x1e6"
    out_schema = pa.schema(
        [
            (c, pa.int64())
            for c in ("doc_a", "doc_b", "inter", "size_a", "size_b", out_score)
        ]
    )

    def b_bucket(g: pa.Table, _b: int) -> pa.Table:
        kind = g["kind"].combine_chunks().to_numpy(zero_copy_only=False)
        sz = g.filter(pa.array(kind == 0))
        sdocs = sz["a"].combine_chunks().to_numpy(zero_copy_only=False)
        ssizes = sz["inter"].combine_chunks().to_numpy(zero_copy_only=False)
        order = np.argsort(sdocs, kind="stable")
        sdocs, ssizes = sdocs[order], ssizes[order]
        pr = g.filter(pa.array(kind == 1))
        if not pr.num_rows:
            return out_schema.empty_table()
        av = pr["a"].combine_chunks().to_numpy(zero_copy_only=False)
        bv = pr["b"].combine_chunks().to_numpy(zero_copy_only=False)
        iv = pr["inter"].combine_chunks().to_numpy(zero_copy_only=False)
        sa = pr["size_a"].combine_chunks().to_numpy(zero_copy_only=False)
        pos = np.searchsorted(sdocs, bv)
        if len(sdocs) == 0 or np.any(pos >= len(sdocs)) or np.any(
            sdocs[np.minimum(pos, len(sdocs) - 1)] != bv
        ):
            raise RuntimeError(
                "ngram_jaccard_pairs: pair's doc_b has no size row in its "
                "bucket — routing invariant broken"
            )
        sb = ssizes[pos]
        # measure denominator: union (Jaccard) or the SMALLER set
        # (containment — catches a doc wholly embedded in a larger one,
        # which symmetric Jaccard dilutes); both exact-int tests
        if measure == "containment":
            den = np.minimum(sa, sb)
        else:
            den = sa + sb - iv
        keep = iv * np.int64(tau_den) >= np.int64(tau_num) * den
        score = iv[keep] * np.int64(1_000_000) // den[keep]
        return pa.table(
            {
                "doc_a": pa.array(av[keep]),
                "doc_b": pa.array(bv[keep]),
                "inter": pa.array(iv[keep]),
                "size_a": pa.array(sa[keep]),
                "size_b": pa.array(sb[keep]),
                out_score: pa.array(score),
            }
        )

    s2 = bucket_exchange(
        ds.map_batches(
            distinct_doc_grams, batch_format="pyarrow", zero_copy_batch=True
        ),
        "g",
        gram_bucket,
        schema=partial,
        num_buckets=nb,
    )
    s3 = bucket_exchange(s2, "a", a_bucket, schema=partial, num_buckets=nb)
    return bucket_exchange(
        s3, by_doc_then_b, b_bucket, schema=out_schema, num_buckets=nb
    )
