"""Text-analysis batch functions: quality scoring, language ID, token
counting, document fingerprinting.

These extend the engine beyond the reference's validation checks into
the training-data-pipeline operations the north star lists. All are
vectorized per-batch map functions (Arrow/numpy kernels; the only
bounded Python loops are over languages / n-gram positions, never
rows).
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .hashing import polynomial_fingerprint, stable_hash64

STOPWORDS = {
    "en": {"the", "and", "of", "a", "to", "in", "is", "it", "that", "for"},
    "de": {"der", "die", "das", "und", "ist", "ein", "eine", "zu", "mit", "nicht"},
    "fr": {"le", "la", "les", "et", "est", "un", "une", "de", "que", "pour"},
    "es": {"el", "la", "los", "las", "y", "es", "un", "una", "de", "que"},
}

# BPE-ish pretokenizer: words, numbers, punctuation runs (public GPT-2
# pattern simplified to stdlib `re`)
BPE_RE = re.compile(r"[A-Za-z]+|\d+|[^\sA-Za-z\d]+")

# DuckDB mirror of the tokens-column fingerprint (functions/hashing.py
# polynomial_fingerprint): kept adjacent so they evolve together.
FINGERPRINT_SQL = (
    "list_reduce(list_prepend(CAST(0 AS BIGINT), tokens), "
    "(a, b) -> (a*31 + b) % 1000000007)"
)


def _flat_words(text: pa.Array):
    words = pc.split_pattern(text, " ")
    flat = pc.list_flatten(words)
    offsets = np.asarray(words.offsets, dtype=np.int64)
    return words, flat, offsets


def text_features(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Append quality-scoring columns: n_chars, n_words, mean_word_len,
    stopword_ratio (en), punct_ratio, digit_ratio, token_count_bpe."""
    text = batch[text_col]
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    n = len(text)
    n_chars = pc.utf8_length(text)
    words, flat, offsets = _flat_words(text)
    lens = np.diff(offsets)
    n_words = lens.astype(np.int64)

    wl = pc.utf8_length(flat).to_numpy(zero_copy_only=False).astype(np.float64)
    sums = np.zeros(n, dtype=np.float64)
    nz = lens > 0
    if nz.any() and len(wl):
        sums[nz] = np.add.reduceat(wl, offsets[:-1][nz])
    mean_word_len = np.divide(sums, n_words, out=np.zeros(n), where=n_words > 0)

    stop = pa.array(sorted(STOPWORDS["en"]), pa.string())
    is_stop = pc.is_in(pc.utf8_lower(flat), value_set=stop)
    stop_np = is_stop.to_numpy(zero_copy_only=False).astype(np.float64)
    stop_sums = np.zeros(n, dtype=np.float64)
    if nz.any() and len(stop_np):
        stop_sums[nz] = np.add.reduceat(stop_np, offsets[:-1][nz])
    stopword_ratio = np.divide(stop_sums, n_words, out=np.zeros(n), where=n_words > 0)

    nc = n_chars.to_numpy(zero_copy_only=False).astype(np.float64)
    punct = pc.count_substring_regex(text, r"[^\w\s]").to_numpy(zero_copy_only=False)
    digit = pc.count_substring_regex(text, r"\d").to_numpy(zero_copy_only=False)
    punct_ratio = np.divide(punct, nc, out=np.zeros(n), where=nc > 0)
    digit_ratio = np.divide(digit, nc, out=np.zeros(n), where=nc > 0)

    # BPE-ish token count: Arrow RE2 kernel — no pandas per-row regex
    # engine. NOTE: RE2 character classes (\s, \d) are ASCII here while
    # Python re's are Unicode, so counts differ on e.g. non-breaking
    # spaces or Arabic digits; the RE2 semantics are the contract (the
    # vectorized kernel IS the engine's definition of a token)
    token_count_bpe = (
        pc.fill_null(pc.count_substring_regex(text, BPE_RE.pattern), 0)
        .to_numpy(zero_copy_only=False)
        .astype(np.int64)
    )

    return (
        batch.append_column("n_chars_f", pc.cast(n_chars, pa.int64()))
        .append_column("n_words", pa.array(n_words))
        .append_column("mean_word_len", pa.array(mean_word_len))
        .append_column("stopword_ratio", pa.array(stopword_ratio))
        .append_column("punct_ratio", pa.array(punct_ratio))
        .append_column("digit_ratio", pa.array(digit_ratio))
        .append_column("token_count_bpe", pa.array(token_count_bpe))
    )


def lang_id_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Heuristic language ID: CJK codepoint share -> zh; else the
    stopword set with the most hits (ties -> en). Appends ``lang_pred``."""
    text = batch[text_col]
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    n = len(text)
    words, flat, offsets = _flat_words(text)
    lens = np.diff(offsets)
    nz = lens > 0
    low = pc.utf8_lower(flat)

    scores = np.zeros((n, len(STOPWORDS)), dtype=np.float64)
    langs = list(STOPWORDS)
    for i, lang in enumerate(langs):  # 4 languages, vectorized inner
        sw = pa.array(sorted(STOPWORDS[lang]), pa.string())
        hit = pc.is_in(low, value_set=sw).to_numpy(zero_copy_only=False).astype(np.float64)
        if nz.any() and len(hit):
            scores[nz, i] = np.add.reduceat(hit, offsets[:-1][nz])

    cjk = pc.count_substring_regex(text, r"[一-鿿]").to_numpy(
        zero_copy_only=False
    )
    best = np.asarray(langs, dtype=object)[scores.argmax(axis=1)]
    best[scores.max(axis=1) == 0] = "en"
    best[cjk > 0] = "zh"
    return batch.append_column("lang_pred", pa.array(best.tolist(), pa.string()))


def fingerprint_tokens(batch: pa.Table, token_col: str = "tokens") -> pa.Table:
    """Append ``fingerprint``: rolling polynomial hash of the token list
    (SQL mirror: FINGERPRINT_SQL)."""
    tokens = batch[token_col]
    if isinstance(tokens, pa.ChunkedArray):
        tokens = tokens.combine_chunks()
    flat = pc.list_flatten(tokens).to_numpy(zero_copy_only=False)
    offsets = np.asarray(tokens.offsets, dtype=np.int64)
    fp = polynomial_fingerprint(flat, offsets)
    return batch.append_column("fingerprint", pa.array(fp, pa.int64()))


# radix-overflow guard for shingle_stats key building; module-level so
# tests can lower it to force the dense-rank compaction path
_RADIX_LIMIT = 1 << 62


def _dense_ranks(a: np.ndarray) -> tuple[np.ndarray, int]:
    """Dense 0-based ranks of ``a`` (sort-based — np.unique's extra
    passes are pathologically slow on this host, see
    stages/uniqueness.dup_values). Returns (ranks, cardinality)."""
    if len(a) == 0:
        return np.empty(0, np.int64), 0
    order = np.argsort(a, kind="stable")
    s = a[order]
    new = np.empty(len(s), dtype=bool)
    new[0] = True
    np.not_equal(s[1:], s[:-1], out=new[1:])
    r = np.cumsum(new) - 1
    out = np.empty(len(a), np.int64)
    out[order] = r
    return out, int(r[-1]) + 1


def shingle_stats(batch: pa.Table, text_col: str = "text", k: int = 3) -> pa.Table:
    """Append ``n_shingles``: the number of DISTINCT word-k-grams per
    document (lowercased, space-split) — the shingling primitive behind
    MinHash/Jaccard dedup, exposed as an exact per-doc statistic with a
    DuckDB list-function oracle.

    EXACT and fully vectorized — no hashing (a hash collision would
    undercount vs the SQL twin) and no Python loop over rows: words are
    dictionary-encoded to int codes (exact identity), each k-window is
    combined into one radix key (compacted via dense ranks whenever the
    radix could overflow int64), the window's row id joins the radix as
    the top digit, cross-row windows (only the last k-1 positions of
    each row — a tiny scatter, never a windows-sized mask) are stamped
    with a sort-to-the-end sentinel, and distinct-per-row falls out of
    ONE np.sort + adjacent-difference + bincount."""
    text = batch[text_col]
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    n = len(text)
    words = pc.split_pattern(pc.utf8_lower(text), " ")
    flat = pc.list_flatten(words)
    offsets = np.asarray(words.offsets, dtype=np.int64)
    lens = np.diff(offsets)
    m = len(flat)
    counts = np.zeros(n, dtype=np.int64)
    nwin = m - k + 1  # global window count (cross-row windows dropped below)
    if m and nwin > 0:
        enc = pc.dictionary_encode(flat)
        codes = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        card = max(len(enc.dictionary), 1)
        key = codes[:nwin].copy()
        kcard = card
        for j in range(1, k):
            if kcard * card >= _RADIX_LIMIT:  # compact before radix overflow
                key, kcard = _dense_ranks(key)
            key *= card
            key += codes[j : nwin + j]
            kcard *= card
        if n * kcard >= _RADIX_LIMIT:  # room for the row digit on top
            key, kcard = _dense_ranks(key)
        comp = np.repeat(np.arange(n, dtype=np.int64) * kcard, lens)[:nwin]
        comp += key
        sent = np.iinfo(np.int64).max
        n_inv = 0
        for j in range(1, k):  # (k-1)-bounded tiny scatters
            tgt = offsets[1:] - j
            ok = (tgt >= offsets[:-1]) & (tgt < nwin)
            comp[tgt[ok]] = sent
            n_inv += int(ok.sum())
        s = np.sort(comp)[: nwin - n_inv]
        if len(s):
            first = np.empty(len(s), dtype=bool)
            first[0] = True
            np.not_equal(s[1:], s[:-1], out=first[1:])
            counts = np.bincount(s[first] // kcard, minlength=n).astype(np.int64)
    return batch.append_column("n_shingles", pa.array(counts, pa.int64()))


def word_doc_freq(ds, *, text_col: str = "text", doc_col: str = "doc_id", k: int = 40):
    """Corpus-wide word statistics — the TF-IDF / document-frequency
    building block: for each lowercased whitespace word, total term
    frequency and document frequency, top-``k`` by (df DESC, tf DESC,
    word ASC) — a total order, so the LIMIT boundary is deterministic.

    Scale shape: the exploded (doc, word) pairs NEVER ride a shuffle —
    each batch collapses them with two Arrow C++ hash-aggregates
    (doc×word, then word), so the exchange carries per-batch word
    partials only; df partials are mergeable by sum because a document
    never spans batches. Final pass is a word-level groupby + sort +
    limit. Dataset-level companion to the per-batch kernels above.
    """
    import pandas as pd

    def partial(t: pa.Table) -> pa.Table:
        text = t[text_col]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        # NULL text yields no words (SQL: unnest(NULL) -> no rows)
        words = pc.split_pattern(pc.utf8_lower(pc.fill_null(text, "")), " ")
        flat = pc.list_flatten(words)
        offsets = np.asarray(words.offsets, dtype=np.int64)
        di = np.repeat(
            np.arange(len(offsets) - 1, dtype=np.int64), np.diff(offsets)
        )
        pairs = pa.table({"di": pa.array(di), "word": flat}).filter(
            pc.not_equal(flat, "")
        )
        per_doc = pairs.group_by(["di", "word"]).aggregate([("word", "count")])
        per_word = per_doc.group_by("word").aggregate(
            [("word_count", "sum"), ("word_count", "count")]
        )
        return pa.table(
            {
                "word": per_word["word"],
                "tf": per_word["word_count_sum"],
                "df": per_word["word_count_count"],
            }
        )

    from ..pipelines.relational import bucketed_group_agg

    topk = (
        bucketed_group_agg(
            ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
            "word",
            [("tf", "sum"), ("df", "sum")],
        )
        .sort(["df", "tf", "word"], descending=[True, True, False])
        .limit(k)
        .to_pandas()
    )
    topk["tf"] = topk["tf"].astype("int64")
    topk["df"] = topk["df"].astype("int64")
    return topk[["word", "df", "tf"]].reset_index(drop=True)


def tfidf_top_terms(
    ds,
    *,
    text_col: str = "text",
    group_col: str = "source",
    k: int = 5,
    num_partitions: int | None = None,
):
    """Top-``k`` terms per group by an exact-integer tf-idf variant:
    score_x1e9 = tf(group, word) * 10^9 // df(word), i.e. term
    frequency weighted by inverse document frequency WITHOUT the log
    damping — chosen because the ranking is then pure int64 arithmetic,
    bit-identical in any engine (no libm, no float ties). The multiply
    is overflow-CHECKED: past ~9.2e9 occurrences of one term in one
    group it raises loudly rather than mis-rank (at that scale drop the
    scale factor, the ranking is unchanged).

    Scale shape: per-batch Arrow hash-aggregates collapse the exploded
    words to (group, word, tf, df) partials — df partials are exact
    because each ROW is one whole document, so a per-batch distinct
    (row, word) count is a per-batch document count regardless of how
    Ray splits blocks. One hash-bucket exchange on word; each bucket
    owns its words, computes global df in-bucket, scores, and emits
    only its per-group top-k (valid because a (group, word) pair lives
    in exactly one bucket); the driver merges bucket-top-k partials.

    Total order: (group ASC, score DESC, term ASC) — (group, term) is
    unique, so the LIMIT boundary is deterministic.
    """
    import pandas as pd

    from ..pipelines.relational import bucket_exchange

    def partial(t: pa.Table) -> pa.Table:
        text = t[text_col]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        words = pc.split_pattern(pc.utf8_lower(pc.fill_null(text, "")), " ")
        flat = pc.list_flatten(words)
        offsets = np.asarray(words.offsets, dtype=np.int64)
        di = np.repeat(np.arange(len(offsets) - 1, dtype=np.int64), np.diff(offsets))
        grp = t[group_col]
        if isinstance(grp, pa.ChunkedArray):
            grp = grp.combine_chunks()
        pairs = pa.table(
            {"di": pa.array(di), group_col: grp.take(pa.array(di)), "word": flat}
        ).filter(pc.not_equal(flat, ""))
        per_doc = pairs.group_by(["di", group_col, "word"]).aggregate(
            [("word", "count")]
        )
        sw = per_doc.group_by([group_col, "word"]).aggregate(
            [("word_count", "sum"), ("word_count", "count")]
        )
        return pa.table(
            {
                group_col: sw[group_col],
                "word": sw["word"],
                "tf": pc.cast(sw["word_count_sum"], pa.int64()),
                "dfp": pc.cast(sw["word_count_count"], pa.int64()),
            }
        )

    def reduce_bucket(g: pa.Table, _b: int) -> pa.Table:
        sw = g.group_by([group_col, "word"]).aggregate(
            [("tf", "sum"), ("dfp", "sum")]
        )
        dfw = sw.group_by("word").aggregate([("dfp_sum", "sum")])
        idx = pc.index_in(sw["word"], value_set=dfw["word"].combine_chunks())
        df = pc.take(pc.cast(dfw["dfp_sum_sum"], pa.int64()), idx)
        tf = pc.cast(sw["tf_sum"], pa.int64())
        score = pc.divide(
            pc.multiply_checked(tf, pa.scalar(1_000_000_000, pa.int64())), df
        )
        pdf = pa.table(
            {
                group_col: sw[group_col],
                "term": sw["word"],
                "tf": tf,
                "df": df,
                "score_x1e9": score,
            }
        ).to_pandas()
        pdf = pdf.sort_values(
            [group_col, "score_x1e9", "term"], ascending=[True, False, True]
        )
        return pa.Table.from_pandas(
            pdf.groupby(group_col, sort=False).head(k), preserve_index=False
        )

    parts = bucket_exchange(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        "word",
        reduce_bucket,
        schema=lambda s: pa.schema(
            [(group_col, s.field(group_col).type), ("term", s.field("word").type)]
            + [(c, pa.int64()) for c in ("tf", "df", "score_x1e9")]
        ),
        num_buckets=num_partitions,
    ).to_pandas()
    parts = parts.sort_values(
        [group_col, "score_x1e9", "term"], ascending=[True, False, True]
    )
    out = parts.groupby(group_col, sort=False).head(k).reset_index(drop=True)
    for c in ("tf", "df", "score_x1e9"):
        out[c] = out[c].astype("int64")
    return out[[group_col, "term", "tf", "df", "score_x1e9"]]


def _bigram_partial(
    t: pa.Table, *, token_col: str = "tokens", vocab: int = 50257
) -> pa.Table:
    """Per-batch bigram kernel of :func:`token_bigram_topk`: encode
    adjacent token pairs as ``t1 * vocab + t2`` zero-copy from the
    flattened list buffer, mask pairs that straddle a document
    boundary (vectorized over the list offsets), and collapse codes to
    (code, cnt) partials with one sort + run-length count. Extracted
    so the property-test suite exercises the PRODUCTION boundary
    masking, not a re-implementation."""
    from .grouping import group_reduce

    col = t[token_col]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    flat = pc.list_flatten(col).to_numpy(zero_copy_only=False).astype(np.int64)
    if len(flat) < 2:
        return pa.table(
            {"code": pa.array([], pa.int64()), "cnt": pa.array([], pa.int64())}
        )
    off = np.asarray(col.offsets, dtype=np.int64)
    off = off - off[0]
    codes = flat[:-1] * vocab + flat[1:]
    valid = np.ones(len(flat) - 1, dtype=bool)
    b = off[1:-1]
    b = b[(b >= 1) & (b <= len(flat) - 1)]
    valid[b - 1] = False  # pairs straddling a document boundary
    ck, cnt = group_reduce(codes[valid])
    return pa.table({"code": pa.array(ck), "cnt": pa.array(cnt)})


def token_bigram_topk(ds, *, token_col: str = "tokens", k: int = 40, vocab: int = 50257):
    """Corpus-wide token-bigram head: the ``k`` most frequent adjacent
    token pairs across all sequences, by (count DESC, t1, t2) — the
    n-gram statistics pass an LLM-data pipeline runs over pre-tokenized
    corpora (bigram LM priors, merge-rule audits, contamination
    probes).

    Scale shape: bigrams are encoded zero-copy from the flattened list
    buffer (``t1 * vocab + t2`` on the child values, document
    boundaries masked via the offsets — no per-row Python, no explode);
    each batch collapses codes with one sort + run-length count, so the
    exchange carries per-batch (code, count) partials, then a code-level
    groupby and a top-k sort of the tiny aggregate.
    """
    def partial(t: pa.Table) -> pa.Table:
        return _bigram_partial(t, token_col=token_col, vocab=vocab)

    from ..pipelines.relational import bucketed_group_agg

    # code ASC == (t1, t2) ASC, so the distributed sort + limit is the
    # full tiebreak; only k rows ever reach the driver
    top = (
        bucketed_group_agg(
            ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
            "code",
            [("cnt", "sum")],
        )
        .sort(["cnt", "code"], descending=[True, False])
        .limit(k)
        .to_pandas()
    )
    top["t1"] = (top["code"] // vocab).astype("int64")
    top["t2"] = (top["code"] % vocab).astype("int64")
    top["cnt"] = top["cnt"].astype("int64")
    return top[["t1", "t2", "cnt"]].reset_index(drop=True)


def canonicalize_text(text: pa.Array | pa.ChunkedArray) -> pa.Array:
    """Canonical dedup key: lowercase, collapse every non-alphanumeric
    run to one space, trim — the normalization step before near-exact
    dedup (catches case/punctuation/whitespace variants of the same
    document). One RE2 pass over the Arrow string buffer (Arrow and
    DuckDB both use RE2, so the SQL twin `trim(regexp_replace(lower(x),
    '[^a-z0-9]+', ' ', 'g'))` is bit-identical)."""
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    low = pc.utf8_lower(text)
    spaced = pc.replace_substring_regex(low, "[^a-z0-9]+", " ")
    return pc.utf8_trim_whitespace(spaced)


def unigram_logprob_scores(
    ds,
    *,
    text_col: str = "text",
    group_col: str = "source",
    vocab_size: int = 1 << 16,
) -> "pd.DataFrame":
    """Model-based quality scoring with a self-trained unigram LM — the
    cheap perplexity-proxy filter of an LLM data pipeline: pass 1
    counts word frequencies over the WHOLE corpus (bucketed partials,
    top-``vocab_size`` by (tf DESC, word ASC) kept as the vocabulary);
    pass 2 broadcasts the tiny vocab once (``ray.put``) and scores each
    document vectorized: mean over in-vocab words of -ln(tf/total) and
    the OOV word ratio, reduced to per-``group_col`` means via exact
    integer/float partials.

    Partitioning assumption: the top-V vocabulary fits the object
    store (V rows); the corpus itself never leaves the workers. Docs
    with no words are absent (SQL: no unnested rows); docs with no
    in-vocab words have NULL score and count only toward OOV.
    """
    import pandas as pd
    import ray

    from ..pipelines.relational import bucketed_group_agg, grouped_agg

    def counts(t: pa.Table) -> pa.Table:
        text = t[text_col]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        words = pc.split_pattern(pc.utf8_lower(pc.fill_null(text, "")), " ")
        flat = pc.list_flatten(words)
        g = (
            pa.table({"word": flat})
            .filter(pc.not_equal(flat, ""))
            .group_by("word")
            .aggregate([("word", "count")])
        )
        return pa.table({"word": g["word"], "tf": g["word_count"].cast(pa.int64())})

    freqs = bucketed_group_agg(
        ds.map_batches(counts, batch_format="pyarrow", zero_copy_batch=True),
        "word",
        [("tf", "sum")],
    ).materialize()
    total = int(freqs.sum("tf") or 0)
    vocab = freqs.sort(["tf", "word"], descending=[True, False]).limit(
        vocab_size
    ).to_pandas()
    vocab_ref = ray.put(
        (
            pa.array(vocab["word"], pa.string()),
            vocab["tf"].to_numpy(dtype=np.float64),
        )
    )

    def score(t: pa.Table) -> pa.Table:
        vwords, vtf = ray.get(vocab_ref)
        text = t[text_col]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        words = pc.split_pattern(pc.utf8_lower(pc.fill_null(text, "")), " ")
        flat = pc.list_flatten(words)
        off = np.asarray(words.offsets, dtype=np.int64)
        off = off - off[0]
        keep = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
        # Arrow C++ hash lookup (index_in), never a per-object dict probe
        idxf = (
            pc.index_in(flat, value_set=vwords)
            .to_numpy(zero_copy_only=False)
            .astype(np.float64)  # nullable ints surface as NaN
        )
        hit = ~np.isnan(idxf)
        tf = np.full(len(idxf), np.nan)
        tf[hit] = vtf[idxf[hit].astype(np.int64)]
        tf[~keep] = np.nan
        lp = -np.log(tf / float(total))
        doc = np.repeat(np.arange(len(off) - 1, dtype=np.int64), np.diff(off))
        nwords = np.bincount(doc[keep], minlength=len(off) - 1)
        iv = ~np.isnan(lp)
        n_iv = np.bincount(doc[iv], minlength=len(off) - 1)
        s_lp = np.bincount(doc[iv], weights=lp[iv], minlength=len(off) - 1)
        has_words = nwords > 0
        with np.errstate(invalid="ignore", divide="ignore"):
            doc_lp = np.where(n_iv > 0, s_lp / np.maximum(n_iv, 1), np.nan)
            doc_oov = (nwords - n_iv) / np.maximum(nwords, 1)
        src = t[group_col]
        if isinstance(src, pa.ChunkedArray):
            src = src.combine_chunks()
        return pa.table(
            {
                group_col: src.filter(pa.array(has_words)),
                # from_pandas: NaN (no in-vocab words) -> NULL so the
                # grouped mean skips it exactly like SQL avg()
                "lp": pa.array(doc_lp[has_words], from_pandas=True),
                "oov": pa.array(doc_oov[has_words]),
                "scored": pa.array((n_iv > 0)[has_words].astype(np.int64)),
            }
        )

    out = grouped_agg(
        ds.map_batches(score, batch_format="pyarrow", zero_copy_batch=True),
        [group_col],
        {
            "n_scored": ("scored", "sum"),
            "avg_logprob": ("lp", "mean"),
            "avg_oov": ("oov", "mean"),
        },
    )
    out["n_scored"] = out["n_scored"].astype("int64")
    # Quantize the transcendental outputs to exact int64 micro-units:
    # numpy SIMD log and DuckDB/libm ln() are not guaranteed the same
    # in the last ULP, and float-mean association adds ~1e-12 — both
    # orders of magnitude below the 5e-7 rounding boundary, so the
    # quantized integers hash bit-for-bit across engines. Caveat: this
    # margin argument assumes the true value is not itself within
    # ~1e-12 of an exact .5 micro-unit boundary — np.round is
    # half-to-EVEN while DuckDB round() is half-AWAY-from-zero, so a
    # value landing on the boundary would tie-break differently. The
    # oracle SQL therefore uses the same half-even rule
    # (see __ray_entry__ lm_scores: ROUND_HALF_EVEN via even()/floor).
    out["avg_logprob_q6"] = np.round(out["avg_logprob"] * 1e6).astype("int64")
    out["avg_oov_q6"] = np.round(out["avg_oov"] * 1e6).astype("int64")
    out = out.drop(columns=["avg_logprob", "avg_oov"])
    return out.sort_values(group_col).reset_index(drop=True)


def token_repetition_stats(ds, *, token_col: str = "tokens", group_col: str = "source"):
    """Per-group repetition profile of a pre-tokenized corpus: number
    of documents, total tokens, and total DISTINCT tokens per document
    — the distinct/total ratio is the cheap within-document repetition
    signal an LLM data pipeline uses to drop degenerate (looping)
    generations before training.

    Scale shape: per batch, the per-document distinct count is fully
    vectorized from the flattened list buffer — lexsort by (doc,
    token), count run starts per doc via one diff — and the batch
    collapses to one partial row per group; only exact int64 partials
    ride the exchange (bit-identical to the SQL twin
    ``len(list_distinct(tokens))``).

    Returns a pandas DataFrame (group, n_docs, sum_ntok, sum_distinct)
    sorted by group.
    """
    from ..pipelines.relational import grouped_agg

    def partial(t: pa.Table) -> pa.Table:
        col = t[token_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat = pc.list_flatten(col).to_numpy(zero_copy_only=False).astype(np.int64)
        off = np.asarray(col.offsets, dtype=np.int64)
        off = off - off[0]
        counts = np.diff(off)
        doc = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
        if len(flat):
            order = np.lexsort((flat, doc))
            d, f = doc[order], flat[order]
            new_run = np.r_[True, (d[1:] != d[:-1]) | (f[1:] != f[:-1])]
            distinct = np.bincount(d[new_run], minlength=len(counts))
        else:
            distinct = np.zeros(len(counts), dtype=np.int64)
        return pa.table(
            {
                group_col: t[group_col],
                "ntok": pa.array(counts),
                "distinct": pa.array(distinct.astype(np.int64)),
            }
        )

    out = grouped_agg(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        [group_col],
        {
            "n_docs": ("ntok", "count"),
            "sum_ntok": ("ntok", "sum"),
            "sum_distinct": ("distinct", "sum"),
        },
    )
    for c in ("n_docs", "sum_ntok", "sum_distinct"):
        out[c] = out[c].astype("int64")
    return out.sort_values(group_col).reset_index(drop=True)


def _doc_gram_stats(
    doc_occ: np.ndarray, gram_occ: np.ndarray, ndocs: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-doc (max occurrence count, duplicated-occurrence total) from
    parallel (doc, gram-code) occurrence arrays — one lexsort, then
    run-length counts reduced per doc with reduceat (no per-doc loop)."""
    maxc = np.zeros(ndocs, np.int64)
    dup = np.zeros(ndocs, np.int64)
    if len(doc_occ) == 0:
        return maxc, dup
    order = np.lexsort((gram_occ, doc_occ))
    d, g = doc_occ[order], gram_occ[order]
    new = np.r_[True, (d[1:] != d[:-1]) | (g[1:] != g[:-1])]
    starts = np.flatnonzero(new)
    cnt = np.diff(np.r_[starts, len(d)])
    dstart = d[starts]
    dbound = np.flatnonzero(np.r_[True, dstart[1:] != dstart[:-1]])
    present = dstart[dbound]
    maxc[present] = np.maximum.reduceat(cnt, dbound)
    dup[present] = np.add.reduceat(np.where(cnt >= 2, cnt, 0), dbound)
    return maxc, dup


def repetition_flag_stats(
    ds,
    *,
    text_col: str = "text",
    group_col: str = "source",
    t_word_ppm: int = 120_000,
    t_2gram_ppm: int = 60_000,
    t_dup3_ppm: int = 10_000,
):
    """Gopher-style within-document repetition quality flags (Rae et
    al. 2021, "Scaling Language Models: Methods, Analysis & Insights
    from Training Gopher", §A1.1 repetition filters — re-expressed
    with exact integer ppm thresholds so the DuckDB twin hash-matches
    bit-for-bit; reference parity: the reference's row-level
    out-of-range checks at document grain,
    /root/reference/src/app2/etl_validation/checks.py).

    Per document over whitespace words: (1) occupancy of the single
    most frequent word maxw/n, (2) occupancy of the most frequent
    2-gram max2/(n-1), (3) occupancy of occurrences belonging to
    duplicated 3-grams dup3/(n-2). A document FLAGS rule r iff
    num * 1_000_000 > t_ppm * den with den > 0 — strict integer
    compare, no floats anywhere, so the flag boundary is
    bit-identical across engines.

    Scale shape: one fully-vectorized pass per batch
    (dictionary-encode words once, dense-rank 2-/3-gram codes, one
    lexsort per level) collapsing to <= |groups| partial int64 rows
    per batch; only those partials ride the single grouped_agg
    exchange. Documents are rows, so no doc ever spans batches and
    the per-doc stats are exact regardless of batch sizing.

    Returns a pandas DataFrame (group, n_docs, flag_word, flag_2gram,
    flag_dup3, flag_any) sorted by group.
    """
    from ..pipelines.relational import grouped_agg

    tw, t2, t3 = np.int64(t_word_ppm), np.int64(t_2gram_ppm), np.int64(t_dup3_ppm)
    M = np.int64(1_000_000)

    def partial(t: pa.Table) -> pa.Table:
        txt = t[text_col]
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        txt = pc.fill_null(txt, "")  # SQL twin: coalesce(text, '')
        _, flat, off = _flat_words(txt)
        off = off - off[0]
        n = np.diff(off).astype(np.int64)
        ndocs = len(n)
        doc = np.repeat(np.arange(ndocs, dtype=np.int64), n)
        codes = (
            pc.dictionary_encode(flat)
            .indices.to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        maxw, _ = _doc_gram_stats(doc, codes, ndocs)
        if len(codes) > 1:
            K = np.int64(codes.max()) + 1
            adj = doc[1:] == doc[:-1]
            pk_all, _ = _dense_ranks(codes[:-1] * K + codes[1:])
            max2, _ = _doc_gram_stats(
                doc[:-1][adj], pk_all[adj], ndocs
            )
        else:
            pk_all = np.empty(0, np.int64)
            max2 = np.zeros(ndocs, np.int64)
        if len(codes) > 2:
            K = np.int64(codes.max()) + 1
            tri = doc[2:] == doc[:-2]
            g3, _ = _dense_ranks(pk_all[:-1] * K + codes[2:])
            _, dup3 = _doc_gram_stats(doc[:-2][tri], g3[tri], ndocs)
        else:
            dup3 = np.zeros(ndocs, np.int64)
        fw = maxw * M > tw * n
        f2 = (n > 1) & (max2 * M > t2 * (n - 1))
        f3 = (n > 2) & (dup3 * M > t3 * (n - 2))
        fa = fw | f2 | f3
        gcodes, gcard = _dense_ranks(
            pc.cast(t[group_col], pa.string())
            .to_numpy(zero_copy_only=False)
            .astype(object)
        )
        # first occurrence index per group code → its string value
        first = np.zeros(gcard, np.int64)
        first[gcodes[::-1]] = np.arange(ndocs - 1, -1, -1, dtype=np.int64)
        gvals = t[group_col].take(pa.array(first))
        return pa.table(
            {
                group_col: gvals,
                "n_docs": pa.array(np.bincount(gcodes, minlength=gcard).astype(np.int64)),
                "flag_word": pa.array(np.bincount(gcodes, weights=fw, minlength=gcard).astype(np.int64)),
                "flag_2gram": pa.array(np.bincount(gcodes, weights=f2, minlength=gcard).astype(np.int64)),
                "flag_dup3": pa.array(np.bincount(gcodes, weights=f3, minlength=gcard).astype(np.int64)),
                "flag_any": pa.array(np.bincount(gcodes, weights=fa, minlength=gcard).astype(np.int64)),
            }
        )

    out = grouped_agg(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True),
        [group_col],
        {
            "n_docs": ("n_docs", "sum"),
            "flag_word": ("flag_word", "sum"),
            "flag_2gram": ("flag_2gram", "sum"),
            "flag_dup3": ("flag_dup3", "sum"),
            "flag_any": ("flag_any", "sum"),
        },
    )
    for c in ("n_docs", "flag_word", "flag_2gram", "flag_dup3", "flag_any"):
        out[c] = out[c].astype("int64")
    return out.sort_values(group_col).reset_index(drop=True)


def _dsir_word_buckets(t: pa.Table, text_col: str, nb: int):
    """(word bucket per word, word offsets per doc) of one batch."""
    from .hashing import hash_string_array

    txt = t[text_col]
    if isinstance(txt, pa.ChunkedArray):
        txt = txt.combine_chunks()
    txt = pc.fill_null(pc.utf8_lower(txt), "")
    words = pc.split_pattern(txt, " ")
    flat = pc.list_flatten(words)
    off = np.asarray(words.offsets, dtype=np.int64)
    off = off - off[0]
    b = (hash_string_array(flat) % np.uint64(nb)).astype(np.int64)
    return b, off


def _dsir_weight_partial(
    t: pa.Table, rr: np.ndarray, text_col: str, group_col: str, nb: int
) -> pa.Table:
    """Per-group (n_docs, n_words, sum_w, min_w, max_w) of one batch,
    doc weight = Σ r_ppm[bucket(word)] over its words."""
    if t.num_rows == 0:  # empty block: no groups, schema kept
        e = pa.array([], pa.int64())
        return pa.table(
            {
                group_col: t[group_col].slice(0, 0),
                **{c: e for c in ("n_docs", "n_words", "sum_w", "min_w", "max_w")},
            }
        )
    b, off = _dsir_word_buckets(t, text_col, nb)
    cs = np.r_[np.int64(0), np.cumsum(rr[b])]
    doc_w = cs[off[1:]] - cs[off[:-1]]
    n = np.diff(off)
    gcodes, gcard = _dense_ranks(
        pc.cast(t[group_col], pa.string())
        .to_numpy(zero_copy_only=False)
        .astype(object)
    )
    first = np.zeros(gcard, np.int64)
    first[gcodes[::-1]] = np.arange(len(gcodes) - 1, -1, -1, dtype=np.int64)
    # per-group min/max of doc weights via sorted segments
    order = np.lexsort((doc_w, gcodes))
    gs, ws = gcodes[order], doc_w[order]
    bound = np.flatnonzero(np.r_[True, gs[1:] != gs[:-1]])
    mn = np.full(gcard, np.iinfo(np.int64).max, np.int64)
    mx = np.full(gcard, np.iinfo(np.int64).min, np.int64)
    mn[gs[bound]] = ws[bound]
    mx[gs[np.r_[bound[1:] - 1, len(gs) - 1]]] = ws[
        np.r_[bound[1:] - 1, len(gs) - 1]
    ]
    return pa.table(
        {
            group_col: t[group_col].take(pa.array(first)),
            "n_docs": pa.array(
                np.bincount(gcodes, minlength=gcard).astype(np.int64)
            ),
            "n_words": pa.array(
                np.bincount(gcodes, weights=n, minlength=gcard).astype(
                    np.int64
                )
            ),
            "sum_w": pa.array(
                np.bincount(gcodes, weights=doc_w, minlength=gcard).astype(
                    np.int64
                )
            ),
            "min_w": pa.array(mn),
            "max_w": pa.array(mx),
        }
    )


def dsir_importance_stats(
    ds,
    *,
    text_col: str = "text",
    group_col: str = "source",
    domain_col: str = "lang",
    domain_value: str = "en",
    n_buckets: int = 1024,
):
    """DSIR-style data-selection importance weights (Xie et al. 2023,
    "Data Selection for Language Models via Importance Resampling"):
    hashed unigram features over a target domain vs the raw corpus,
    re-expressed with EXACT integer arithmetic so the DuckDB twin
    hash-matches — the log-ratio is replaced by the add-1-smoothed
    integer ratio r_ppm[b] = (tgt[b]+1)*1e6 // (raw[b]+1) (documented
    deviation: monotone in the same direction, bit-exact across
    engines; target ⊆ raw so r_ppm <= 1e6 and a document's weight sum
    fits int64 for corpora < 9e12 words).

    Two streaming passes: (1) per-batch word→bucket bincounts
    (functions/hashing.hash_string_array % n_buckets — the simhash
    SQL chain, already proved bit-exact) summed per bucket in one
    fixed-size grouped_agg exchange; (2) the n_buckets-row ratio
    table broadcasts once via ray.put and each batch scores its
    documents vectorized (exact int64 cumsum differences), collapsing
    to <= |groups| partial rows. Reference parity: the reference's
    per-partition metric aggregation shape
    (/root/reference/src/app2/etl_validation/checks.py), new operator
    class for LLM curation.

    Returns (group, n_docs, n_words, sum_w, min_w, max_w) — doc
    weight = Σ over its words of r_ppm[bucket(word)] — sorted by
    group.
    """
    import ray

    from ..pipelines.relational import grouped_agg

    nb = int(n_buckets)

    def count_partial(t: pa.Table) -> pa.Table:
        b, off = _dsir_word_buckets(t, text_col, nb)
        n = np.diff(off)
        doc = np.repeat(np.arange(len(n), dtype=np.int64), n)
        tgt_doc = (
            pc.equal(t[domain_col], domain_value)
            .to_numpy(zero_copy_only=False)
            .astype(bool)
        )
        raw_c = np.bincount(b, minlength=nb).astype(np.int64)
        tgt_c = np.bincount(b[tgt_doc[doc]], minlength=nb).astype(np.int64)
        return pa.table(
            {
                "bucket": pa.array(np.arange(nb, dtype=np.int64)),
                "tgt_c": pa.array(tgt_c),
                "raw_c": pa.array(raw_c),
            }
        )

    counts = grouped_agg(
        ds.map_batches(count_partial, batch_format="pyarrow", zero_copy_batch=True),
        ["bucket"],
        {"tgt_c": ("tgt_c", "sum"), "raw_c": ("raw_c", "sum")},
    ).sort_values("bucket")
    r = np.zeros(nb, dtype=np.int64)
    bk = counts["bucket"].to_numpy().astype(np.int64)
    r[bk] = (counts["tgt_c"].to_numpy().astype(np.int64) + 1) * np.int64(
        1_000_000
    ) // (counts["raw_c"].to_numpy().astype(np.int64) + 1)
    r_ref = ray.put(r)

    def weight_partial(t: pa.Table) -> pa.Table:
        return _dsir_weight_partial(t, ray.get(r_ref), text_col, group_col, nb)

    out = grouped_agg(
        ds.map_batches(weight_partial, batch_format="pyarrow", zero_copy_batch=True),
        [group_col],
        {
            "n_docs": ("n_docs", "sum"),
            "n_words": ("n_words", "sum"),
            "sum_w": ("sum_w", "sum"),
            "min_w": ("min_w", "min"),
            "max_w": ("max_w", "max"),
        },
    )
    for c in ("n_docs", "n_words", "sum_w", "min_w", "max_w"):
        out[c] = out[c].astype("int64")
    return out.sort_values(group_col).reset_index(drop=True)


def token_vocab_coverage(
    ds,
    *,
    token_col: str = "tokens",
    group_col: str = "source",
    vocab_size: int = 1024,
):
    """Per-group coverage of the corpus' own top-``vocab_size`` token
    vocabulary: total tokens and tokens inside the vocabulary — the
    integer-exact vocabulary-fit check (a low in-vocab ratio flags a
    source whose token distribution diverges from the corpus head).

    Two streaming passes: (1) global token frequencies as per-batch
    ``group_reduce`` partials + one hash-bucket exchange, top-V by
    (count DESC, token ASC); (2) the tiny sorted vocab id array ships
    in the task closure once and each batch counts membership with one
    ``np.isin`` (sorted int path) — only (group, batch) int64 partials
    ride the second exchange. All outputs are exact integers.
    """
    from ..functions.grouping import group_reduce
    from ..pipelines.relational import bucketed_group_agg, grouped_agg

    def counts(t: pa.Table) -> pa.Table:
        col = t[token_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat = pc.list_flatten(col).to_numpy(zero_copy_only=False).astype(np.int64)
        k, c = group_reduce(flat)
        return pa.table({"tok": pa.array(k), "cnt": pa.array(c)})

    top = (
        bucketed_group_agg(
            ds.map_batches(counts, batch_format="pyarrow", zero_copy_batch=True),
            "tok",
            [("cnt", "sum")],
        )
        .sort(["cnt", "tok"], descending=[True, False])
        .limit(vocab_size)
        .to_pandas()
    )
    vocab = np.sort(top["tok"].to_numpy(dtype=np.int64))

    def member(t: pa.Table) -> pa.Table:
        col = t[token_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat = pc.list_flatten(col).to_numpy(zero_copy_only=False).astype(np.int64)
        off = np.asarray(col.offsets, dtype=np.int64)
        off = off - off[0]
        counts_ = np.diff(off)
        doc = np.repeat(np.arange(len(counts_), dtype=np.int64), counts_)
        inv = np.isin(flat, vocab, assume_unique=False)
        n_in = np.bincount(doc[inv], minlength=len(counts_)).astype(np.int64)
        return pa.table(
            {
                group_col: t[group_col],
                "ntok": pa.array(counts_),
                "n_in": pa.array(n_in),
            }
        )

    out = grouped_agg(
        ds.map_batches(member, batch_format="pyarrow", zero_copy_batch=True),
        [group_col],
        {"n_tokens": ("ntok", "sum"), "n_in_vocab": ("n_in", "sum")},
    )
    for c in ("n_tokens", "n_in_vocab"):
        out[c] = out[c].astype("int64")
    return out.sort_values(group_col).reset_index(drop=True)


def word_pmi_topk(
    ds,
    *,
    text_col: str = "text",
    k: int = 20,
    min_pair: int = 5,
    num_partitions: int | None = None,
):
    """Collocation mining — the top-``k`` adjacent word pairs by the
    exact-integer association score ``f_ab * 10^12 // (f1 * f2)`` (the
    corpus-size-free numerator of PMI: rank-equivalent to pointwise
    mutual information for a fixed corpus, and computable without a
    separate total-count pass). Pairs below ``min_pair`` occurrences
    are excluded on BOTH engines (declared-universe floor, not a
    sample).

    Scale shape — two hash-bucket exchanges + a k-bounded driver sort:

      1. one pass over the text derives unigram AND bigram per-batch
         partials together (``gram_occurrences`` k=1 / k=2, both
         collapsed by one Arrow hash-aggregate), routed by the FIRST
         word, so a bucket owns every unigram count of its words and
         every pair starting with them: f_ab and f1 attach in-bucket;
      2. unigram counts re-scatter by word, pairs by their SECOND word:
         f2 attaches, the score is computed vectorized;
      3. the survivors sort distributed on (score DESC, w1, w2) and
         only ``k`` rows reach the driver.

    int64 guard: the 10^12 scale bounds exact scores to f_ab < ~9.2e6
    and f1*f2 < 2^63 — far above this corpus; a pair beyond that raises
    (loudly) in the multiply rather than wrapping.

    Reference analog: the reference's grouped frequency/duplication
    statistics (/root/reference/src/app2/validators/dds rules) at
    word-association granularity.
    """
    import pandas as pd

    from ..dedup.ngram import gram_occurrences
    from ..pipelines.relational import (
        bucket_exchange,
        key_buckets,
        resolve_num_buckets,
    )

    nb = resolve_num_buckets(ds, num_partitions)
    SCALE = np.int64(10**12)
    partial = pa.schema(
        [
            ("kind", pa.int8()),
            ("w1", pa.string()),
            ("w2", pa.string()),
            ("cnt", pa.int64()),
            ("f1", pa.int64()),
        ]
    )
    out_schema = pa.schema(
        [("w1", pa.string()), ("w2", pa.string())]
        + [(c, pa.int64()) for c in ("f_ab", "f1", "f2", "assoc_x1e12")]
    )

    def _mk(kind, w1, w2, cnt, f1) -> pa.Table:
        return pa.table(
            [np.full(len(w1), kind, np.int8), list(w1), list(w2)]
            + [np.asarray(cnt, np.int64), np.asarray(f1, np.int64)],
            schema=partial,
        )

    def partials(t: pa.Table) -> pa.Table:
        uni = gram_occurrences(t, text_col=text_col, k=1)
        uc = uni.group_by("g").aggregate([([], "count_all")])
        bi = gram_occurrences(t, text_col=text_col, k=2)
        bc = bi.group_by("g").aggregate([([], "count_all")])
        uw = uc["g"].combine_chunks().to_pylist()
        un = uc["count_all"].combine_chunks().to_numpy(zero_copy_only=False)
        pairs = bc["g"].combine_chunks().to_pylist()
        bn = bc["count_all"].combine_chunks().to_numpy(zero_copy_only=False)
        # the gram string is "w1 w2"; w1 never contains a space
        split = [p.split(" ", 1) for p in pairs]
        return pa.concat_tables(
            [
                _mk(0, uw, [""] * len(uw), un, np.zeros(len(uw))),
                _mk(1, [s[0] for s in split], [s[1] for s in split], bn,
                    np.zeros(len(split))),
            ]
        )

    def first_word_bucket(g: pa.Table, _b: int) -> pa.Table:
        kind = g["kind"].combine_chunks().to_numpy(zero_copy_only=False)
        uni = g.filter(pa.array(kind == 0)).group_by("w1").aggregate(
            [("cnt", "sum")]
        )
        f = pd.Series(
            uni["cnt_sum"].combine_chunks().to_numpy(zero_copy_only=False),
            index=uni["w1"].combine_chunks().to_pylist(),
        )
        pr = g.filter(pa.array(kind == 1)).group_by(["w1", "w2"]).aggregate(
            [("cnt", "sum")]
        )
        fab = pr["cnt_sum"].combine_chunks().to_numpy(zero_copy_only=False)
        keep = fab >= min_pair
        w1 = np.array(pr["w1"].combine_chunks().to_pylist(), dtype=object)[keep]
        w2 = np.array(pr["w2"].combine_chunks().to_pylist(), dtype=object)[keep]
        f1 = f.reindex(w1).to_numpy()
        if np.isnan(f1.astype(np.float64)).any() if f1.dtype == object else np.isnan(f1).any():
            raise RuntimeError(
                "word_pmi_topk: pair's first word has no unigram count in "
                "its own bucket — routing invariant broken"
            )
        return pa.concat_tables(
            [
                _mk(0, f.index.to_numpy(object), [""] * len(f),
                    f.to_numpy(np.int64), np.zeros(len(f))),
                _mk(1, w1, w2, fab[keep], f1.astype(np.int64)),
            ]
        )

    def by_word_then_w2(t: pa.Table, n: int) -> np.ndarray:
        # stage-2 routing: unigram counts re-scatter by word, pairs by w2
        kind0 = pc.equal(t["kind"], pa.scalar(0, pa.int8()))
        return key_buckets(pc.if_else(kind0, t["w1"], t["w2"]), n)

    def second_word_bucket(g: pa.Table, _b: int) -> pa.Table:
        kind = g["kind"].combine_chunks().to_numpy(zero_copy_only=False)
        uni = g.filter(pa.array(kind == 0))
        f = pd.Series(
            uni["cnt"].combine_chunks().to_numpy(zero_copy_only=False),
            index=uni["w1"].combine_chunks().to_pylist(),
        )
        # unigram partials for one word can arrive from many stage-1
        # buckets only if... they cannot: stage 1 owned the word fully.
        pr = g.filter(pa.array(kind == 1))
        if not pr.num_rows:
            return out_schema.empty_table()
        w2l = pr["w2"].combine_chunks().to_pylist()
        f2 = f.reindex(w2l).to_numpy()
        if np.isnan(f2.astype(np.float64)).any() if f2.dtype == object else np.isnan(f2).any():
            raise RuntimeError(
                "word_pmi_topk: pair's second word has no unigram count in "
                "its bucket — routing invariant broken"
            )
        f2 = f2.astype(np.int64)
        fab = pr["cnt"].combine_chunks().to_numpy(zero_copy_only=False)
        f1 = pr["f1"].combine_chunks().to_numpy(zero_copy_only=False)
        if (fab > (np.iinfo(np.int64).max // int(SCALE))).any():
            raise OverflowError(
                "word_pmi_topk: f_ab too large for the 1e12 exact scale"
            )
        denom = f1.astype(object) * f2.astype(object)  # exact python ints
        score = np.array(
            [int(a) * int(SCALE) // int(d) for a, d in zip(fab, denom)],
            dtype=np.int64,
        )
        return pa.table(
            {
                "w1": pr["w1"],
                "w2": pr["w2"],
                "f_ab": pa.array(fab.astype(np.int64)),
                "f1": pa.array(f1.astype(np.int64)),
                "f2": pa.array(f2),
                "assoc_x1e12": pa.array(score),
            }
        )

    s2 = bucket_exchange(
        ds.map_batches(partials, batch_format="pyarrow", zero_copy_batch=True),
        "w1",
        first_word_bucket,
        schema=partial,
        num_buckets=nb,
    )
    s3 = bucket_exchange(
        s2, by_word_then_w2, second_word_bucket, schema=out_schema, num_buckets=nb
    )
    top = (
        s3.sort(["assoc_x1e12", "w1", "w2"], descending=[True, False, False])
        .limit(k)
        .to_pandas()
    )
    if top.empty:  # Ray's to_pandas drops the columns of an empty result
        top = out_schema.empty_table().to_pandas()
    for c in ("f_ab", "f1", "f2", "assoc_x1e12"):
        top[c] = top[c].astype("int64")
    return top.reset_index(drop=True)


def sliding_chunk_plan(
    batch: pa.Table,
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    size: int,
    overlap: int,
) -> pa.Table:
    """Context-window chunking (the LLM training-data splitter): explode
    each document into sliding windows of ``size`` whitespace tokens
    overlapping by ``overlap`` (stride = size - overlap; a doc of
    ntok <= size yields exactly one chunk). Emits the chunk PLAN — one
    row per chunk with exact integer boundaries plus the chunk's first
    token (proof the boundaries index real content) — all numpy
    repeat/arange vectorization, no Python loop. Chunk text extraction
    is the same explode with a list_slice over the word list; the plan
    is the deterministic, engine-comparable part.

    Output columns: id_col (int64), chunk_idx, tok_start, tok_len
    (int64), first_tok (string). Reference analog: the fixed-window
    payload splitters in the reference's loaders
    (/root/reference/src/app2/etl/loaders.py) generalized to
    overlapping token windows.
    """
    if not (0 <= overlap < size):
        raise ValueError(
            f"sliding_chunk_plan: need 0 <= overlap < size, got "
            f"size={size} overlap={overlap}"
        )
    stride = size - overlap
    text = batch[text_col]
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    words, flat, offsets = _flat_words(pc.fill_null(text, ""))
    ntok = np.diff(offsets)
    ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
    nc = np.where(
        ntok <= size, np.int64(1), (ntok - size + stride - 1) // stride + 1
    ).astype(np.int64)
    total = int(nc.sum())
    ends = np.cumsum(nc)
    starts = ends - nc
    idx = np.arange(total, dtype=np.int64) - np.repeat(starts, nc)
    tok_start = idx * stride
    rep_ntok = np.repeat(ntok, nc)
    tok_len = np.minimum(np.int64(size), rep_ntok - tok_start)
    first_at = np.repeat(offsets[:-1], nc) + tok_start
    first_tok = pc.take(flat, pa.array(first_at))
    return pa.table(
        {
            id_col: pa.array(np.repeat(ids, nc)),
            "chunk_idx": pa.array(idx),
            "tok_start": pa.array(tok_start),
            "tok_len": pa.array(tok_len),
            "first_tok": first_tok,
        }
    )
