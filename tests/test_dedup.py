"""Dedup / similarity / relational / multimodal integration tests."""

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


@pytest.fixture(scope="module")
def docs_ds(ray_session):
    """Small corpus with planted exact + near duplicates."""
    import ray.data as rd

    rng = np.random.default_rng(7)
    vocab = [f"w{i}" for i in range(200)]
    texts, ids = [], []
    for i in range(40):
        words = rng.choice(vocab, size=30).tolist()
        texts.append(" ".join(words))
        ids.append(f"doc-{i:03d}")
    # exact duplicate pair
    texts[10] = texts[3]
    # near duplicate: change 2 of 30 words (J ~ 0.87 on 3-shingles? high)
    w = texts[5].split(" ")
    w[0], w[1] = "zz1", "zz2"
    texts[20] = " ".join(w)
    df = pd.DataFrame({"doc_id": ids, "text": texts})
    return rd.from_pandas(df), df


def test_exact_dedup(docs_ds):
    from etl_data_validation_kio_ray.dedup import dedup_exact, exact_dup_groups

    ds, df = docs_ds
    kept = dedup_exact(ds, ["text"]).to_pandas()
    assert len(kept) == 39  # one exact dup removed
    assert "doc-003" in set(kept.doc_id) and "doc-010" not in set(kept.doc_id)
    groups = exact_dup_groups(ds, ["text"])
    assert len(groups) == 1
    assert groups.iloc[0].doc_id == "doc-003" and groups.iloc[0].dup_count == 2


def test_minhash_dedup_finds_planted_pairs(docs_ds, tmp_path):
    import pyarrow.parquet as pq

    from etl_data_validation_kio_ray.dedup import minhash_dedup_pairs
    from etl_data_validation_kio_ray.dedup.ngram import jaccard_pairs_exact

    ds, df = docs_ds
    sink = str(tmp_path / "pairs_out")
    pairs = minhash_dedup_pairs(
        ds, jaccard_threshold=0.5, sink_dir=sink
    )
    got = set(zip(pairs.id_a, pairs.id_b))
    assert ("doc-003", "doc-010") in got  # exact dup => J=1
    assert ("doc-005", "doc-020") in got  # near dup
    # agrees with brute-force oracle at the same threshold
    oracle = jaccard_pairs_exact(df, threshold=0.5)
    assert got == set(zip(oracle.id_a, oracle.id_b))
    # the parquet sink carries the same verified pairs
    sunk = pq.read_table(f"{sink}/pairs.parquet").to_pandas()
    assert set(zip(sunk.id_a, sunk.id_b)) == got


def test_simhash_pairs(docs_ds):
    from etl_data_validation_kio_ray.dedup import simhash_dedup_pairs

    ds, df = docs_ds
    pairs = simhash_dedup_pairs(ds, max_hamming=6)
    got = set(zip(pairs.id_a, pairs.id_b))
    assert ("doc-003", "doc-010") in got  # identical text -> distance 0


def test_embedding_dups_and_ann(ray_session):
    import ray.data as rd

    from etl_data_validation_kio_ray.dedup import embedding_dup_pairs
    from etl_data_validation_kio_ray.similarity import brute_force_topk, ivf_topk

    rng = np.random.default_rng(11)
    V = rng.standard_normal((100, 64)).astype(np.float32)
    V[50] = V[7] + rng.standard_normal(64).astype(np.float32) * 0.01  # near dup
    df = pd.DataFrame({"vec_id": np.arange(100), "embedding": list(V)})
    ds = rd.from_pandas(df)

    pairs = embedding_dup_pairs(ds, cosine_threshold=0.95)
    assert (7, 50) in set(zip(pairs.id_a, pairs.id_b))

    # brute-force top-k vs numpy oracle
    Q = V[[7, 33]]
    top = brute_force_topk(ds, Q, k=5)
    Vn = V / np.linalg.norm(V, axis=1, keepdims=True)
    Qn = Q / np.linalg.norm(Q, axis=1, keepdims=True)
    sims = Qn @ Vn.T
    for qi in (0, 1):
        want = set(np.argsort(-sims[qi])[:5].tolist())
        got = set(top[top.query_id == qi].vec_id.astype(int))
        assert got == want, (qi, got, want)

    # IVF recall: top-1 must match exact for the self-query
    ivf = ivf_topk(ds, Q, k=5, n_cells=8, n_probe=4)
    self_hit = ivf[(ivf.query_id == 0) & (ivf["rank"] == 1)].vec_id.iloc[0]
    assert int(self_hit) == 7


def test_relational_ops(ray_session):
    import ray.data as rd

    from etl_data_validation_kio_ray.pipelines.relational import (
        broadcast_anti_join,
        duplicate_groups,
        grouped_agg,
        tumbling_window_agg,
    )

    df = pd.DataFrame(
        {
            "k": ["a", "a", "b", "b", "b", "c"],
            "v": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
        }
    )
    ds = rd.from_pandas(df)
    agg = grouped_agg(ds, ["k"], {"total": ("v", "sum"), "n": ("v", "count"), "avg": ("v", "mean")})
    want = df.groupby("k").v.agg(["sum", "count", "mean"]).reset_index()
    assert agg.total.tolist() == want["sum"].tolist()
    assert agg.n.tolist() == want["count"].tolist()
    assert agg.avg.tolist() == pytest.approx(want["mean"].tolist())

    anti = broadcast_anti_join(ds, ["a", "c"], "k").to_pandas()
    assert set(anti.k) == {"b"} and len(anti) == 3

    dups = duplicate_groups(ds, "k")
    assert dict(zip(dups.k, dups.dup_count)) == {"a": 2, "b": 3}

    ev = pd.DataFrame(
        {
            "ts": pd.to_datetime(
                ["2026-01-01 00:10", "2026-01-01 00:50", "2026-01-01 01:10", "2026-01-01 00:20"]
            ),
            "event_type": ["x", "x", "x", "y"],
            "value": [1.0, 2.0, 3.0, 4.0],
        }
    )
    win = tumbling_window_agg(rd.from_pandas(ev))
    assert win.n_events.tolist() == [2, 1, 1]
    assert win.value_sum.tolist() == [3.0, 3.0, 4.0]


def test_multimodal_plumbing(ray_session):
    import ray.data as rd

    from etl_data_validation_kio_ray.core.resources import CachedEngineFn
    from etl_data_validation_kio_ray.multimodal import ImageFeatureStage, multimodal_schema

    schema = multimodal_schema("image")
    rng = np.random.default_rng(3)
    rows = {
        "doc_id": [f"img-{i}" for i in range(10)],
        "payload": [rng.bytes(64) for _ in range(10)],
        "width": pa.array([32] * 10, pa.int32()),
        "height": pa.array([32] * 10, pa.int32()),
        "format": ["png"] * 10,
        "source": ["synth"] * 10,
    }
    t = pa.table(rows, schema=schema)
    ds = rd.from_arrow(t)
    out = ds.map_batches(
        CachedEngineFn(ImageFeatureStage), batch_format="pyarrow", batch_size=4
    ).to_pandas()
    assert len(out) == 10
    assert set(out.decoder) == {"stub"}  # PIL absent in this container
    assert all(len(f) == 32 for f in out.features)
    # deterministic: same payload -> same features
    out2 = ds.map_batches(
        CachedEngineFn(ImageFeatureStage), batch_format="pyarrow", batch_size=4
    ).to_pandas()
    a = np.stack(out.sort_values("doc_id").features.to_numpy())
    b = np.stack(out2.sort_values("doc_id").features.to_numpy())
    assert np.array_equal(a, b)


def test_minhash_truncation_loud(docs_ds, monkeypatch):
    """A hot LSH bucket (many identical docs) is capped LOUDLY: bounded
    pair count + truncated_buckets reported, never a silent O(m^2)."""
    import ray.data as rd

    import etl_data_validation_kio_ray.dedup.minhash as mh

    n = 30
    df = pd.DataFrame(
        {"doc_id": [f"h-{i:03d}" for i in range(n)],
         "text": ["same words repeated here for every doc " * 3] * n}
    )
    monkeypatch.setattr(mh, "MAX_BUCKET", 10)
    report: dict = {}
    pairs = mh.minhash_dedup_pairs(
        rd.from_pandas(df), jaccard_threshold=0.5, report=report
    )
    assert report["truncated_buckets"] > 0
    assert pairs.attrs["truncated_buckets"] == report["truncated_buckets"]
    # every emitted pair is within the capped first-10 id set
    assert len(pairs) == 10 * 9 // 2
    assert set(pairs.id_a) | set(pairs.id_b) == {f"h-{i:03d}" for i in range(10)}
    assert (pairs.jaccard == 1.0).all()


def test_simhash_truncation_loud(ray_session, monkeypatch):
    import ray.data as rd

    import etl_data_validation_kio_ray.dedup.simhash as sh

    n = 25
    df = pd.DataFrame(
        {"doc_id": [f"s-{i:03d}" for i in range(n)],
         "text": ["identical content for a hot simhash bucket"] * n}
    )
    monkeypatch.setattr(sh, "MAX_BUCKET", 8)
    report: dict = {}
    pairs = sh.simhash_dedup_pairs(rd.from_pandas(df), max_hamming=3, report=report)
    assert report["truncated_buckets"] > 0  # all 4 bands share one hot bucket
    assert len(pairs) == 8 * 7 // 2
    assert (pairs.hamming == 0).all()


def test_embedding_truncation_loud(ray_session, monkeypatch):
    import ray.data as rd

    import etl_data_validation_kio_ray.dedup.embedding as em

    rng = np.random.default_rng(5)
    base = rng.standard_normal(64).astype(np.float32)
    V = np.stack([base + rng.standard_normal(64).astype(np.float32) * 1e-3
                  for _ in range(20)])
    df = pd.DataFrame({"vec_id": np.arange(20), "embedding": list(V)})
    monkeypatch.setattr(em, "MAX_BUCKET", 6)
    report: dict = {}
    pairs = em.embedding_dup_pairs(
        rd.from_pandas(df), cosine_threshold=0.99, report=report
    )
    assert report["truncated_buckets"] >= 1
    assert pairs.attrs["truncated_buckets"] == report["truncated_buckets"]
    assert len(pairs) <= 6 * 5 // 2
    assert len(pairs) > 0


def test_bucket_pairs_vectorized_unit():
    from etl_data_validation_kio_ray.dedup.minhash import bucket_pairs_vectorized

    bk = np.array([1, 1, 1, 2, 2, 3, 4, 4, 4, 4], dtype=np.int64)
    ids = np.array(list("abcdefghij"), dtype=object)
    pairs, trunc = bucket_pairs_vectorized(bk, ids, max_bucket=3)
    got = set(zip(pairs.id_a, pairs.id_b))
    # bucket1: ab ac bc; bucket2: de; bucket4 capped at 3 of (g,h,i,j): gh gi hi
    assert got == {("a","b"),("a","c"),("b","c"),("d","e"),
                   ("g","h"),("g","i"),("h","i")}
    assert trunc == 1
    # duplicate (bk,id) rows collapse; cross-bucket duplicate pairs dedup
    bk2 = np.array([7, 7, 7, 8, 8], dtype=np.int64)
    ids2 = np.array(["x", "y", "x", "x", "y"], dtype=object)
    p2, t2 = bucket_pairs_vectorized(bk2, ids2)
    assert set(zip(p2.id_a, p2.id_b)) == {("x", "y")} and t2 == 0
    p3, t3 = bucket_pairs_vectorized(np.array([], np.int64), np.array([], object))
    assert len(p3) == 0 and t3 == 0


def test_signature_determinism_fixture(ray_session):
    """Exact expected-value fixture: MinHash band keys and SimHash
    signatures are deterministic functions of (text, seed) — identical
    across batches, runs and processes (rows-only queries still have
    verified values)."""
    import ray.data as rd

    from etl_data_validation_kio_ray.dedup.minhash import add_minhash_bands
    from etl_data_validation_kio_ray.dedup.simhash import add_simhash

    df = pd.DataFrame(
        {"doc_id": ["a", "b", "c"],
         "text": ["the quick brown fox jumps over the lazy dog",
                   "the quick brown fox jumps over the lazy cat",
                   "completely different words entirely here now"]}
    )
    banded1 = (
        add_minhash_bands(rd.from_pandas(df)).to_pandas()
        .sort_values(["doc_id", "band_id"], ignore_index=True)
    )
    banded2 = (
        add_minhash_bands(rd.from_pandas(df.iloc[::-1])).to_pandas()
        .sort_values(["doc_id", "band_id"], ignore_index=True)
    )
    pd.testing.assert_frame_equal(banded1, banded2)
    # near-identical docs share most band keys; the unrelated doc none
    ab = banded1[banded1.doc_id == "a"].band_key.to_numpy()
    bb = banded1[banded1.doc_id == "b"].band_key.to_numpy()
    cb = banded1[banded1.doc_id == "c"].band_key.to_numpy()
    assert (ab == bb).sum() > 0 and (ab == cb).sum() == 0

    s1 = add_simhash(rd.from_pandas(df)).to_pandas().sort_values("doc_id")
    s2 = add_simhash(rd.from_pandas(df.iloc[::-1])).to_pandas().sort_values("doc_id")
    assert s1.simhash.tolist() == s2.simhash.tolist()
    from etl_data_validation_kio_ray.functions.hashing import hamming64
    h = s1.simhash.to_numpy().astype(np.int64).view(np.uint64)
    assert hamming64(h[[0]], h[[1]])[0] <= 12  # near dups are close
    assert hamming64(h[[0]], h[[2]])[0] > 12   # unrelated docs are far


def test_embedding_multitable_lsh_recall(ray_session):
    """Multi-table LSH finds planted near-dup pairs that single-table
    misses at the same plane count (OR-amplified recall), with
    deterministic seeding."""
    import ray.data as rd

    from etl_data_validation_kio_ray.dedup import embedding_dup_pairs

    rng = np.random.default_rng(41)
    V = rng.standard_normal((300, 64)).astype(np.float32)
    planted = [(11, 211), (42, 242), (77, 277)]
    for a, b in planted:
        V[b] = V[a] + rng.standard_normal(64).astype(np.float32) * 0.02
    df = pd.DataFrame({"vec_id": np.arange(300), "embedding": list(V)})
    ds = rd.from_pandas(df)
    pairs = embedding_dup_pairs(ds, cosine_threshold=0.95, n_tables=8)
    got = set(zip(pairs.id_a, pairs.id_b))
    assert set(planted) <= got, (planted, got)
    # determinism: same result on a re-run
    pairs2 = embedding_dup_pairs(ds, cosine_threshold=0.95, n_tables=8)
    assert got == set(zip(pairs2.id_a, pairs2.id_b))


def test_exact_dedup_no_materialize_equivalent(docs_ds):
    """materialize=False (re-scan instead of object-store pinning)
    yields the identical surviving set on a deterministic source."""
    from etl_data_validation_kio_ray.dedup import dedup_exact

    ds, df = docs_ds
    a = sorted(dedup_exact(ds, ["text"]).to_pandas().doc_id)
    b = sorted(dedup_exact(ds, ["text"], materialize=False).to_pandas().doc_id)
    assert a == b and len(a) == 39


def test_ivf_fullprobe_equals_bruteforce(ray_session):
    """Probing ALL cells makes IVF exact: must equal brute-force top-k
    rank-for-rank (verifies the probe/merge machinery end to end)."""
    import ray.data as rd

    from etl_data_validation_kio_ray.similarity import brute_force_topk, ivf_topk

    rng = np.random.Generator(np.random.Philox(key=[21, 4]))
    n, d = 600, 16
    V = rng.normal(size=(n, d)).astype(np.float32)
    df = pd.DataFrame({"vec_id": np.arange(n, dtype=np.int64), "embedding": list(V)})
    ds = rd.from_pandas(df).repartition(6)
    Q = V[:4]
    bf = brute_force_topk(ds, Q, k=8, dtype=np.float32)
    ivf = ivf_topk(ds, Q, k=8, n_cells=6, n_probe=6)
    a = bf.sort_values(["query_id", "rank"]).reset_index(drop=True)
    b = ivf.sort_values(["query_id", "rank"]).reset_index(drop=True)
    assert a[["query_id", "rank", "vec_id"]].equals(b[["query_id", "rank", "vec_id"]])


def test_cross_corpus_contamination_planted(ray_session):
    import ray.data as rd

    from etl_data_validation_kio_ray.dedup.ngram import cross_corpus_contamination

    train = pa.table(
        {
            "doc_id": pa.array([0, 2, 4], pa.int64()),
            "text": pa.array(
                [
                    "alpha beta gamma delta",
                    "one two",  # too short for a 3-gram
                    "unique train only words here",
                ]
            ),
        }
    )
    test = pa.table(
        {
            "doc_id": pa.array([1, 3, 5, 7], pa.int64()),
            "text": pa.array(
                [
                    "ALPHA beta GAMMA extended",  # shares "alpha beta gamma" (case-folded)
                    "completely different text entirely",
                    "xx yy",  # no grams -> not a test doc
                    "tail overlap beta gamma delta",  # shares "beta gamma delta"
                ]
            ),
        }
    )
    out = cross_corpus_contamination(
        rd.from_arrow(train).repartition(2), rd.from_arrow(test).repartition(3)
    )
    assert out.iloc[0].to_dict() == {"n_test_docs": 3, "n_contaminated": 2}

    clean = cross_corpus_contamination(
        rd.from_arrow(train),
        rd.from_arrow(test.slice(1, 2)),  # the uncontaminated docs only
    )
    assert clean.iloc[0].to_dict() == {"n_test_docs": 1, "n_contaminated": 0}


def test_semi_join_docs_hot_key_no_amplification(ray_session):
    """A build key present in MANY build batches must not multiply the
    matching probe rows (membership semi-join, not an inner join): the
    output carries at most one row per (id, bucket) no matter how hot
    the key is."""
    import ray.data as rd

    from etl_data_validation_kio_ray.dedup.ngram import semi_join_docs

    # the same gram survives per-batch dedup in 40 separate build blocks
    build = rd.from_arrow(
        pa.table({"g": pa.array(["hot gram here"] * 40 + ["cold one two"])})
    ).repartition(40)
    probe = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 1, 2, 3], pa.int64()),
                "g": pa.array(
                    ["hot gram here", "cold one two", "hot gram here", "miss x y"]
                ),
            }
        )
    ).repartition(2)
    out = semi_join_docs(probe, build, id_col="doc_id", num_partitions=8).to_pandas()
    # doc 1 matches via two grams (possibly two buckets), doc 2 via the
    # hot gram exactly once, doc 3 not at all — an inner join would have
    # produced 40 rows for each hot-gram match
    assert sorted(set(out["doc_id"])) == [1, 2]
    # doc 2's only gram is the hot one: exactly ONE row, not 40
    assert (out["doc_id"] == 2).sum() == 1
    # doc 1 may appear once per bucket its two grams hash to, never more
    assert (out["doc_id"] == 1).sum() <= 2


def test_connected_components_both_paths(ray_session):
    """Driver union-find and distributed pointer-jumping label
    propagation agree with a networkx-free BFS oracle on a graph with
    a LONG path (exercises the log-rounds jumping), cliques, and
    isolated edges."""
    import ray.data as rd

    from etl_data_validation_kio_ray.dedup.cluster import connected_components

    rng = np.random.Generator(np.random.Philox(key=[5, 99]))
    # long path 0..60 (multi-hop: needs the pointer jumping), plus
    # random small components in 1000..1200
    a = list(range(60))
    b = list(range(1, 61))
    extra = rng.integers(1000, 1200, size=(80, 2))
    a += extra[:, 0].tolist()
    b += extra[:, 1].tolist()
    edges = pd.DataFrame({"a": np.array(a, np.int64), "b": np.array(b, np.int64)})
    edges = edges[edges.a != edges.b].reset_index(drop=True)

    # BFS oracle
    adj: dict = {}
    for u, v in zip(edges.a, edges.b):
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    want = {}
    for start in sorted(adj):
        if start in want:
            continue
        comp, stack = [], [start]
        seen = {start}
        while stack:
            x = stack.pop()
            comp.append(x)
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        m = min(comp)
        for x in comp:
            want[x] = m

    ds = rd.from_pandas(edges).repartition(4)
    drv = connected_components(ds, "a", "b")
    assert dict(zip(drv.node, drv.component)) == want

    dist = connected_components(
        ds, "a", "b", driver_max_edges=0, num_buckets=5, max_rounds=12
    )
    pd.testing.assert_frame_equal(drv, dist)


def test_kmeans_matches_numpy_lloyds(ray_session):
    """Distributed k-means == an in-memory Lloyd's with the same
    deterministic init; inertia history is non-increasing."""
    import ray.data as rd

    from etl_data_validation_kio_ray.similarity.ann import kmeans

    rng = np.random.Generator(np.random.Philox(key=[31, 8]))
    n, d, k = 600, 8, 4
    vecs = rng.normal(size=(n, d)) + np.repeat(
        rng.normal(scale=4.0, size=(k, d)), n // k, axis=0
    )
    t = pa.table(
        {
            "vec_id": pa.array(np.arange(n, dtype=np.int64)),
            "embedding": pa.array(
                [list(map(float, v)) for v in vecs], pa.list_(pa.float32())
            ),
        }
    )
    cent, hist, sizes = kmeans(
        rd.from_arrow(t).repartition(5), k=k, iters=6
    )
    assert sizes.sum() == n
    assert all(b <= a * (1 + 1e-9) for a, b in zip(hist, hist[1:]))

    # same algorithm in numpy from the same init (vec_id 0..k-1),
    # remembering the engine reads float32-stored vectors
    v64 = np.stack([np.asarray(r, np.float32) for r in t["embedding"].to_pylist()]).astype(np.float64)
    c = v64[:k].copy()
    for _ in range(6):
        dists = ((v64[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
        a = dists.argmin(axis=1)
        new_c = c.copy()
        for i in range(k):
            if (a == i).any():
                new_c[i] = v64[a == i].mean(axis=0)
        if np.allclose(new_c, c, rtol=0, atol=0):
            break
        c = new_c
    np.testing.assert_allclose(cent, c, rtol=1e-9)


def test_gram_occurrences_carry_and_boundaries():
    """Occurrence-level gram extraction: no dedup, carry columns track
    the originating row, windows never straddle documents."""
    from etl_data_validation_kio_ray.dedup.ngram import gram_occurrences

    t = pa.table(
        {
            "src": pa.array(["a", "b", "a"]),
            "text": pa.array(
                [
                    "x y z x y z",  # 4 grams, "x y z" twice (within-doc dup)
                    "tail x",  # too short
                    "y z x",  # 1 gram; must NOT merge with doc 0's tail
                ]
            ),
        }
    )
    occ = gram_occurrences(t, text_col="text", k=3, carry=["src"])
    got = sorted(zip(occ["g"].to_pylist(), occ["src"].to_pylist()))
    assert got == [
        ("x y z", "a"),
        ("x y z", "a"),
        ("y z x", "a"),
        ("y z x", "a"),
        ("z x y", "a"),
    ]


def test_dup_gram_stats_planted(ray_session):
    """Global >=2 occurrence rule: within-doc repeats count, a gram
    shared across sources marks BOTH sides' occurrences duplicated,
    and bucket partials sum to exact per-source totals."""
    import ray.data as rd

    from etl_data_validation_kio_ray.dedup.ngram import dup_gram_stats
    from etl_data_validation_kio_ray.pipelines.relational import grouped_agg

    t = pa.table(
        {
            "source": pa.array(["s1", "s1", "s2", "s2"]),
            "text": pa.array(
                [
                    "a b c d",  # grams: "a b c", "b c d"
                    "a b c",  # "a b c" again (cross-doc, same source)
                    "b c d e",  # "b c d" (cross-source dup), "c d e"
                    "zz",  # no grams
                ]
            ),
        }
    )
    parts = dup_gram_stats(
        rd.from_arrow(t).repartition(3), group_col="source", k=3, num_partitions=4
    )
    out = grouped_agg(
        parts,
        ["source"],
        {"n_grams": ("n_grams", "sum"), "dup_grams": ("dup_grams", "sum")},
    ).sort_values("source")
    # s1: 3 occurrences, "a b c" x2 dup + "b c d" dup with s2 -> 3 dup
    # s2: 2 occurrences, "b c d" dup -> 1 dup ("c d e" unique)
    assert list(out["source"]) == ["s1", "s2"]
    assert list(out["n_grams"].astype(int)) == [3, 2]
    assert list(out["dup_grams"].astype(int)) == [3, 1]


def test_fingerprint_shard_set_semantics():
    """check_and_add returns the previously-seen subset and registers
    the rest; check() is read-only; snapshot round-trips."""
    from etl_data_validation_kio_ray.state.dedup_index import FingerprintShard

    s = FingerprintShard()
    h = np.array([1, 2, 3], dtype=np.uint64)
    assert np.frombuffer(s.check_and_add(h.tobytes()), np.uint64).size == 0
    prev = np.frombuffer(
        s.check_and_add(np.array([2, 3, 4], np.uint64).tobytes()), np.uint64
    )
    assert sorted(prev.tolist()) == [2, 3]
    # read-only probe registers nothing
    probe = np.frombuffer(s.check(np.array([4, 5], np.uint64).tobytes()), np.uint64)
    assert sorted(probe.tolist()) == [4]
    assert s.count() == 4
    s2 = FingerprintShard(snapshot=s.snapshot())
    assert s2.count() == 4
    again = np.frombuffer(
        s2.check_and_add(np.array([1, 9], np.uint64).tobytes()), np.uint64
    )
    assert again.tolist() == [1]


def test_dedup_index_cross_run_and_persistence(ray_session, tmp_path):
    """Two runs against one index: run B only emits content run A never
    saw; within-batch and cross-batch repeats collapse; the saved index
    reloads with identical state; shard-count mismatch raises."""
    import ray.data as rd

    from etl_data_validation_kio_ray.state.dedup_index import DedupIndex

    a = pa.table(
        {
            "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
            "text": pa.array(["x", "y", "x", "z"]),  # x repeated in-run
        }
    )
    b = pa.table(
        {
            "doc_id": pa.array([10, 11, 12], pa.int64()),
            "text": pa.array(["y", "new1", "new2"]),  # y seen in run A
        }
    )
    idx = DedupIndex(num_shards=4)
    got_a = idx.filter_new(rd.from_arrow(a).repartition(2), ["text"]).to_pandas()
    assert sorted(got_a["text"]) == ["x", "y", "z"]
    assert idx.total_fingerprints() == 3

    d = str(tmp_path / "idx")
    idx.save(d)
    idx2 = DedupIndex(num_shards=4, path=d)
    assert idx2.total_fingerprints() == 3
    got_b = idx2.filter_new(rd.from_arrow(b), ["text"]).to_pandas()
    assert sorted(got_b["text"]) == ["new1", "new2"]
    # probe mode is read-only
    assert idx2.total_fingerprints() == 5
    probe = idx2.filter_new(rd.from_arrow(b), ["text"], mode="probe").to_pandas()
    assert len(probe) == 0
    assert idx2.total_fingerprints() == 5

    with pytest.raises(ValueError, match="shards"):
        DedupIndex(num_shards=8, path=d)


def test_embedding_outliers_planted(ray_session):
    """A vector pointed away from its label's centroid ranks first
    (lowest cosine); ties break by vec_id; k bounds per label."""
    import ray.data as rd

    from etl_data_validation_kio_ray.functions.vectors import embedding_outliers

    # label 0: three near +x, one near -x (the planted outlier)
    V = np.array(
        [
            [1.0, 0.05],
            [1.0, -0.05],
            [1.0, 0.0],
            [-1.0, 0.0],  # outlier, vec_id 3
            [0.0, 1.0],  # label 1
            [0.0, 1.0],
        ],
        dtype=np.float32,
    )
    df = pd.DataFrame(
        {
            "vec_id": np.arange(6, dtype=np.int64),
            "embedding": list(V),
            "label": np.array([0, 0, 0, 0, 1, 1], dtype=np.int64),
        }
    )
    out = embedding_outliers(
        rd.from_pandas(df).repartition(3), "embedding", "label", k=2
    )
    l0 = out[out["label"] == 0].reset_index(drop=True)
    assert list(l0["vec_id"])[0] == 3  # planted outlier ranks first
    assert len(l0) == 2
    l1 = out[out["label"] == 1].reset_index(drop=True)
    # identical vectors: identical cos (=1e6 quantized), id tie-break
    assert list(l1["vec_id"]) == [4, 5]
    assert list(l1["cos_q6"]) == [1_000_000, 1_000_000]

    # zero-norm vector must raise, not emit NaN
    bad = pd.DataFrame(
        {
            "vec_id": np.arange(2, dtype=np.int64),
            "embedding": [np.array([0.0, 0.0], np.float32), np.array([1.0, 0.0], np.float32)],
            "label": np.array([0, 0], dtype=np.int64),
        }
    )
    with pytest.raises(Exception, match="zero-norm"):
        embedding_outliers(rd.from_pandas(bad), "embedding", "label")


def test_cli_dedup_subcommand(ray_session, tmp_path):
    """`cli dedup` end-to-end: first ingest writes all unique rows and
    persists the index; a second ingest of the same file writes zero
    rows (all fingerprints already registered) without erroring on the
    empty parquet sink."""
    import json as _json

    from etl_data_validation_kio_ray.cli import main as cli_main

    src = str(tmp_path / "src.parquet")
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array([0, 1, 2, 3], pa.int64()),
                "text": pa.array(["a", "b", "a", "c"]),
            }
        ),
        src,
    )
    idx = str(tmp_path / "idx")
    args = ["dedup", "--input", src, "--index", idx, "--num-shards", "4"]

    rc = cli_main(args + ["--out", str(tmp_path / "out1")])
    assert rc == 0
    got = pq.read_table(str(tmp_path / "out1"))
    assert sorted(got["text"].to_pylist()) == ["a", "b", "c"]
    assert os.path.exists(os.path.join(idx, "index_manifest.json"))

    rc = cli_main(args + ["--out", str(tmp_path / "out2")])
    assert rc == 0
    with open(os.path.join(idx, "index_manifest.json")) as f:
        manifest = _json.load(f)
    assert manifest["num_shards"] == 4


def test_ngram_jaccard_pairs_planted(ray_session):
    """Planted near-dups: exact intersection/size/jac values; the
    df-cap excludes boilerplate grams from sizes and intersections
    alike; threshold is an exact integer test (boundary pair kept)."""
    import ray.data as rd

    from etl_data_validation_kio_ray.dedup.ngram import ngram_jaccard_pairs
    from etl_data_validation_kio_ray.pipelines.relational import collect_sorted

    docs = [
        (0, "the quick brown fox jumps over the lazy dog"),
        (1, "the quick brown fox jumps over the lazy cat"),
        (2, "completely different words entirely here now ok yes"),
        (3, "the quick brown fox jumps over the lazy dog"),
    ]
    t = pa.table(
        {
            "doc_id": pa.array([d[0] for d in docs], pa.int64()),
            "text": pa.array([d[1] for d in docs]),
        }
    )
    ds = rd.from_arrow(t).repartition(3)
    out = collect_sorted(
        ngram_jaccard_pairs(ds, tau_num=1, tau_den=2, df_cap=64, num_partitions=8),
        ["doc_a", "doc_b"],
    )
    # docs 0/3 identical (7 grams), 0/1 and 1/3 share 6 of 7
    assert out[["doc_a", "doc_b"]].values.tolist() == [[0, 1], [0, 3], [1, 3]]
    assert out["inter"].tolist() == [6, 7, 6]
    assert out["size_a"].tolist() == [7, 7, 7]
    assert out["jac_x1e6"].tolist() == [750000, 1000000, 750000]
    # jac(0,1) = 6/8 = 0.75: kept at tau=3/4 (boundary), dropped above
    hi = collect_sorted(
        ngram_jaccard_pairs(ds, tau_num=3, tau_den=4, df_cap=64, num_partitions=8),
        ["doc_a", "doc_b"],
    )
    assert hi[["doc_a", "doc_b"]].values.tolist() == [[0, 1], [0, 3], [1, 3]]
    exact = collect_sorted(
        ngram_jaccard_pairs(ds, tau_num=9, tau_den=10, df_cap=64, num_partitions=8),
        ["doc_a", "doc_b"],
    )
    assert exact[["doc_a", "doc_b"]].values.tolist() == [[0, 3]]
    # df_cap=2 drops the 7 grams shared by all of 0/1/3 (df=3) from the
    # universe; only the df<=2 grams remain: 0/3 still tie on their
    # distinctive "lazy dog" tail grams, 0/1 keep nothing shared
    capped = collect_sorted(
        ngram_jaccard_pairs(ds, tau_num=1, tau_den=2, df_cap=2, num_partitions=8),
        ["doc_a", "doc_b"],
    )
    assert capped[["doc_a", "doc_b"]].values.tolist() == [[0, 3]]
    assert capped["inter"].tolist() == capped["size_a"].tolist()
    assert capped["jac_x1e6"].tolist() == [1000000]


def test_global_prefix_sum_and_packing(ray_session):
    """Exclusive prefix sums match numpy over shuffled multi-block
    input; concat-and-chunk bins match the closed form; zero-length
    docs attribute to the running bin; budget must be positive."""
    import ray.data as rd

    from etl_data_validation_kio_ray.pipelines.relational import (
        collect_sorted,
        global_prefix_sum,
        pack_concat_chunks,
    )

    rng = np.random.default_rng(7)
    n = 500
    ids = rng.permutation(n).astype(np.int64)
    lens = rng.integers(0, 40, n).astype(np.int64)
    t = pa.table({"doc_id": pa.array(ids), "n_chars": pa.array(lens)})
    ds = rd.from_arrow(t).repartition(7)

    pre_ds, total = global_prefix_sum(ds, ["doc_id"], "n_chars", out_col="pre")
    got = collect_sorted(pre_ds, ["doc_id"])
    order = np.argsort(ids, kind="stable")
    want = np.cumsum(lens[order]) - lens[order]
    assert got["pre"].to_numpy().tolist() == want.tolist()
    assert total == int(lens.sum())

    bins = collect_sorted(
        pack_concat_chunks(
            ds, order_keys=["doc_id"], length_col="n_chars", budget=100
        ),
        ["bin_id"],
    )
    want_bin = want // 100
    import pandas as pd_

    ref = (
        pd_.DataFrame(
            {
                "bin_id": want_bin,
                "doc_id": ids[order],
                "n_chars": lens[order],
            }
        )
        .groupby("bin_id")
        .agg(
            n_docs=("doc_id", "size"),
            total_len=("n_chars", "sum"),
            first_id=("doc_id", "min"),
            last_id=("doc_id", "max"),
        )
        .reset_index()
    )
    assert bins.astype("int64").values.tolist() == ref.astype("int64").values.tolist()

    with pytest.raises(ValueError, match="budget"):
        pack_concat_chunks(ds, order_keys=["doc_id"], length_col="n_chars", budget=0)


def test_edit_distance_pairs(ray_session):
    """Levenshtein matches known values and DuckDB's byte semantics;
    texts gather only for pair ids; missing ids and oversized pair
    lists raise loudly."""
    import ray.data as rd

    from etl_data_validation_kio_ray.dedup import editdist
    from etl_data_validation_kio_ray.dedup.editdist import (
        edit_distance_for_pairs,
        levenshtein,
    )

    assert levenshtein("kitten", "sitting") == 3
    assert levenshtein("", "abc") == 3 and levenshtein("abc", "") == 3
    assert levenshtein("same", "same") == 0
    # DuckDB counts UTF-8 BYTES: é (2 bytes) vs e (1 byte) = 2 edits
    assert levenshtein("é", "e") == 2

    t = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(["kitten", "sitting", "kitten"]),
        }
    )
    ds = rd.from_arrow(t).repartition(2)
    pairs = pd.DataFrame({"doc_a": [1, 1], "doc_b": [2, 3]})
    out = edit_distance_for_pairs(ds, pairs)
    assert out["lev"].tolist() == [3, 0]
    assert out["len_a"].tolist() == [6, 6]
    assert out["len_b"].tolist() == [7, 6]

    with pytest.raises(KeyError, match="absent"):
        edit_distance_for_pairs(ds, pd.DataFrame({"doc_a": [1], "doc_b": [99]}))
    big = pd.DataFrame({"doc_a": np.zeros(editdist.MAX_PAIRS + 1, np.int64),
                        "doc_b": np.ones(editdist.MAX_PAIRS + 1, np.int64)})
    with pytest.raises(ValueError, match="MAX_PAIRS"):
        edit_distance_for_pairs(ds, big)
    empty = edit_distance_for_pairs(ds, pairs.iloc[:0])
    assert list(empty.columns) == ["doc_a", "doc_b", "len_a", "len_b", "lev"]
    assert len(empty) == 0


def test_ngram_jaccard_pairs_vs_bruteforce(ray_session):
    """Randomized cross-check: the three-exchange distributed miner
    equals a brute-force all-pairs reference implementing the identical
    df-capped semantics, over corpora with heavy gram sharing."""
    import itertools

    import ray.data as rd

    from etl_data_validation_kio_ray.dedup.ngram import ngram_jaccard_pairs
    from etl_data_validation_kio_ray.pipelines.relational import collect_sorted

    rng = np.random.default_rng(17)
    vocab = [f"w{i}" for i in range(12)]  # tiny vocab -> dense sharing
    texts = [
        " ".join(rng.choice(vocab, size=int(rng.integers(0, 18))))
        for _ in range(60)
    ]
    ids = np.arange(60, dtype=np.int64)

    def brute(df_cap, tau_num, tau_den):
        gsets = []
        for txt in texts:
            w = txt.lower().split(" ")
            gsets.append({" ".join(w[i:i+3]) for i in range(len(w) - 2)}
                         if len(w) >= 3 and txt else set())
        df: dict = {}
        for s in gsets:
            for g in s:
                df[g] = df.get(g, 0) + 1
        capped = [{g for g in s if df[g] <= df_cap} for s in gsets]
        rows = []
        for a, b in itertools.combinations(range(60), 2):
            inter = len(capped[a] & capped[b])
            if inter == 0:
                continue
            union = len(capped[a]) + len(capped[b]) - inter
            if inter * tau_den >= tau_num * union:
                rows.append((a, b, inter, len(capped[a]), len(capped[b]),
                             inter * 1_000_000 // union))
        return rows

    ds = rd.from_arrow(
        pa.table({"doc_id": pa.array(ids), "text": pa.array(texts)})
    ).repartition(5)
    for df_cap, tn, td in [(60, 1, 2), (5, 1, 4), (3, 1, 10)]:
        got = collect_sorted(
            ngram_jaccard_pairs(
                ds, df_cap=df_cap, tau_num=tn, tau_den=td, num_partitions=6
            ),
            ["doc_a", "doc_b"],
        )
        want = brute(df_cap, tn, td)
        assert [tuple(r) for r in got.values.tolist()] == want, (df_cap, tn, td)


def test_grouped_prefix_sum_and_packing(ray_session):
    """Per-group exclusive prefix sums match a pandas reference over
    shuffled multi-block input; grouped packing bins match the closed
    form; the returned totals are the per-group sums."""
    import ray.data as rd

    from etl_data_validation_kio_ray.pipelines.relational import (
        collect_sorted,
        grouped_prefix_sum,
        pack_concat_chunks,
    )

    rng = np.random.default_rng(11)
    n = 600
    ids = rng.permutation(n).astype(np.int64)
    grp = np.array([f"g{i%4}" for i in range(n)])
    lens = rng.integers(0, 30, n).astype(np.int64)
    t = pa.table(
        {
            "doc_id": pa.array(ids),
            "source": pa.array(grp),
            "n_chars": pa.array(lens),
        }
    )
    ds = rd.from_arrow(t).repartition(7)

    pre_ds, totals = grouped_prefix_sum(
        ds, group_col="source", order_keys=["doc_id"], value_col="n_chars",
        out_col="pre",
    )
    got = collect_sorted(pre_ds, ["source", "doc_id"])
    ref = (
        pd.DataFrame({"source": grp, "doc_id": ids, "n_chars": lens})
        .sort_values(["source", "doc_id"], kind="mergesort")
        .reset_index(drop=True)
    )
    ref["pre"] = ref.groupby("source")["n_chars"].cumsum() - ref["n_chars"]
    assert got["pre"].tolist() == ref["pre"].tolist()
    assert totals == ref.groupby("source")["n_chars"].sum().to_dict()

    bins = collect_sorted(
        pack_concat_chunks(
            ds, order_keys=["doc_id"], length_col="n_chars", budget=64,
            group_col="source",
        ),
        ["source", "bin_id"],
    )
    ref["bin_id"] = ref["pre"] // 64
    want = (
        ref.groupby(["source", "bin_id"])
        .agg(
            n_docs=("doc_id", "size"),
            total_len=("n_chars", "sum"),
            first_id=("doc_id", "min"),
            last_id=("doc_id", "max"),
        )
        .reset_index()
    )
    assert bins.values.tolist() == want.values.tolist()


def test_substring_window_positions_and_hashes():
    """Window enumeration: only fully-in-document starts are valid;
    the window hash is a pure function of the K token values
    (same window content in different docs => same hash)."""
    from etl_data_validation_kio_ray.dedup.substring import (
        WINDOW_K,
        _window_hashes,
        _window_positions,
    )

    short = list(range(WINDOW_K - 1))  # no window
    exact = list(range(100, 100 + WINDOW_K))  # exactly one
    longer = [7] * (WINDOW_K + 3)  # four, all identical content
    col = pa.array([short, exact, longer, exact], type=pa.list_(pa.int32()))
    flat, rows, starts, within = _window_positions(col)
    assert rows.tolist() == [1] + [2] * 4 + [3]
    assert within.tolist() == [0, 0, 1, 2, 3, 0]
    h = _window_hashes(flat, starts)
    # doc1 and doc3 share the exact same window content
    assert h[0] == h[-1]
    # the four identical-content windows of doc2 all hash alike
    assert len(set(h[1:5].tolist())) == 1
    assert h[0] != h[1]


def test_substring_dedup_report_planted(ray_session):
    """End-to-end two-pass report on a tiny corpus with a planted
    repeated K-window: only documents sharing the window appear, with
    exact position counts; unique docs are absent."""
    import ray.data as rd

    from etl_data_validation_kio_ray.dedup.substring import (
        WINDOW_K,
        duplicated_window_report,
    )

    rng = np.random.default_rng(7)
    shared = rng.integers(0, 50_000, WINDOW_K).tolist()
    docs = {
        # shared window at offset 3 (n_tok = K+6 -> 7 windows)
        "a": rng.integers(0, 50_000, 3).tolist()
        + shared
        + rng.integers(0, 50_000, 3).tolist(),
        # shared window at offset 0 (n_tok = K+2 -> 3 windows)
        "b": shared + rng.integers(0, 50_000, 2).tolist(),
        # no repeats anywhere
        "c": rng.integers(60_000, 99_000, WINDOW_K + 5).tolist(),
    }
    t = pa.table(
        {
            "doc_id": pa.array(list(docs)),
            "tokens": pa.array(list(docs.values()), type=pa.list_(pa.int32())),
            "n_tok": pa.array(
                [len(v) for v in docs.values()], type=pa.int32()
            ),
        }
    )
    out = duplicated_window_report(lambda: rd.from_arrow(t).repartition(3))
    assert out["doc_id"].tolist() == ["a", "b"]
    assert out["n_windows"].tolist() == [7, 3]
    assert out["dup_windows"].tolist() == [1, 1]

    # corpus with no K-window repeated at all -> empty, stable schema
    t2 = t.filter(pa.array([False, False, True]))
    out2 = duplicated_window_report(lambda: rd.from_arrow(t2))
    assert len(out2) == 0
    assert list(out2.columns) == ["doc_id", "n_windows", "dup_windows"]
    assert str(out2["dup_windows"].dtype) == "int64"
