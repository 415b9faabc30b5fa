"""End-to-end gate for the TPC-H-shaped driver queries added in round 4:
each `queries()` entry runs on the sf0.001 tables and must match its
`oracle_sql()` twin executed by DuckDB on the same parquet — the same
row-count / column-name / value comparison the correctness driver runs
(SURVEY.md §5.2 cross-tool agreement, at query grain)."""

from __future__ import annotations

import os

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

SF_DIR = "/root/testdata/sf0.001"
TABLES = (
    "region nation customer supplier part orders lineitem "
    "events documents embeddings"
).split()

QUERIES = [
    "promo_revenue_share",
    "order_priority_returns",
    "returned_top_customers",
    "large_order_customers",
    "disjunctive_revenue",
    "volume_shipping",
    "brand_revenue_rank",
    "cumulative_monthly_share",
    "doc_prefix_dups",
    "event_transitions",
    "user_event_setops",
    "source_mad",
    "label_centroids",
    "source_temperature_weights",
    "event_cooccurrence",
    "lang_source_contingency",
    "rolling_3mo_revenue",
    "order_percent_rank",
    # session-15 additions
    "kl_by_source",
    "rare_token_share",
    "zipf_fit",
    "brand_ols_slope",
    "chi2_lang_source",
    "bigram_novelty",
    "nation_balance_outer",
    "bigram_lm_scores",
    "rolling_median3",
    "region_share_hierarchy",
    "interp_fill_daily",
    "linear_attribution",
    "pps_sample",
    "business_days_to_ship",
    "dedup_survivorship",
    "rolling_distinct_types",
    "selfjoin_size",
    "conversion_lift",
    "containment_pairs",
    "vocab_nucleus",
    "ks_even_odd",
    "mannwhitney_even_odd",
    "tv_distance_by_source",
    "overrepresented_tokens",
    # session-16 additions
    "customer_value_skyline",
    "open_order_concurrency",
    "padding_waste",
    "token_burstiness",
    "inclusion_deps",
    "dow_revenue_share",
    "revenue_autocorr",
    "basket_part_pairs",
    "dup_size_histogram",
    "cramers_v",
    "two_step_transitions",
    "bigram_cond_entropy",
    "event_trigrams",
    "funnel_time_to_convert",
    "monthly_price_ohlc",
    "median_price_histsel",
    "order_status_consistency",
    "anova_nchars_by_lang",
    "boilerplate_position_tv",
    "hll_register_audit",
    "dau_wau_stickiness",
    "heaps_law_fit",
    "coverage_select_docs",
    "bm25_topk",
    "cross_source_dup_matrix",
    "cdc_chunk_stats",
    "cdc_chunk_dedup",
    "fd_discovery_scan",
    # round 5
    "gopher_repetition_flags",
    "dsir_importance_weights",
    "bloom_register_audit",
    "hll_intersection",
    "format_profile",
    "bloom_decontamination",
    "dedup_removal_budget",
]


def _normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df.copy()
    df = df[sorted(df.columns)]
    return df.sort_values(by=list(df.columns), kind="mergesort").reset_index(
        drop=True
    )


@pytest.mark.skipif(not os.path.isdir(SF_DIR), reason="driver testdata absent")
@pytest.mark.parametrize("name", QUERIES)
def test_query_matches_duckdb_oracle(ray_session, name):
    import __ray_entry__ as entry

    res = entry.queries()[name](SF_DIR)
    if not isinstance(res, pd.DataFrame):
        res = res.to_pandas()

    con = duckdb.connect()
    for t in TABLES:
        p = os.path.join(SF_DIR, f"{t}.parquet")
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{p}')")
    want = con.execute(entry.oracle_sql()[name]).df()
    con.close()

    got_n, want_n = _normalize(res), _normalize(want)
    assert list(got_n.columns) == list(want_n.columns)
    assert len(got_n) == len(want_n)
    for c in got_n.columns:
        g, w = got_n[c].to_numpy(), want_n[c].to_numpy()
        if g.dtype.kind == "f" or w.dtype.kind == "f":
            assert np.allclose(g.astype(float), w.astype(float), atol=0), c
        else:
            assert (pd.Series(g).astype(str) == pd.Series(w).astype(str)).all(), c


def test_weighted_median_vs_duckdb(ray_session):
    """Exact weighted-median query vs its oracle at sf0.001 (cheap);
    the sf0.01 gate covers the big corpus."""
    import duckdb

    import __ray_entry__ as m

    sf = "/root/testdata/sf0.001"
    got = m.queries()["weighted_median_price"](sf)
    con = duckdb.connect()
    con.execute(
        "CREATE VIEW lineitem AS SELECT * FROM "
        f"read_parquet('{sf}/lineitem.parquet')"
    )
    exp = con.execute(m.oracle_sql()["weighted_median_price"]).fetchdf()
    assert got["l_returnflag"].tolist() == exp["l_returnflag"].tolist()
    assert got["median_price_c"].tolist() == exp["median_price_c"].tolist()
    assert got["total_qty"].tolist() == exp["total_qty"].tolist()


@pytest.mark.parametrize(
    "qname",
    [
        "user_streaks",
        "idle_rich_customers",
        "doc_chunks",
        "train_shards",
        "weekly_revenue",
        "cumulative_distinct_users",
        "top_values_with_ties",
        "view_purchase_conversion",
        "embedding_covariance",
        "priority_trend",
        "cohort_retention",
        "scd2_history",
        "price_histogram",
        "purchase_attribution",
        "curation_pipeline",
        "rfm_segments",
        "multimodal_payload_audit",
        "source_overlap_matrix",
        "nation_segments",
        "incremental_view_merge",
        "mart_export_digest",
        "compaction_roundtrip",
        "sorted_export_audit",
        "embedding_quantization",
        "table_profile",
        "revenue_concentration",
        "hard_negatives",
        "order_fanout_histogram",
        "freshness_lag",
        "partition_count_anomaly",
        "schema_contract_check",
        "dedup_rate_by_source",
        "gdpr_purge_audit",
        "type_token_hapax",
        "interleave_mix_schedule",
        "event_value_ecdf",
        "national_market_share",
        "embedding_dim_stats",
        "max_drawdown",
        "stop_ship_gate",
        "revenue_gini",
        "benford_first_digit",
        "top_supplier_q15",
        "forecast_revenue_q6",
        "systematic_sample",
        "supplier_balance_ranks",
        "acctbal_percentiles",
        "bloom_prefilter_join",
        "customer_order_counts",
        "id_islands_profile",
        "bottomk_sample",
        "inverted_index",
        "source_token_entropy",
        "late_shipment_priority",
        "sole_late_supplier",
        "revenue_cusum",
        "sorted_neighborhood_pairs",
        "compound_key_unique",
        "vocab_drift",
        "daily_volume_anomaly",
        "ipc_roundtrip",
        "declarative_pipeline",
        "bulk_part_suppliers",
        "profit_by_nation_year",
        "part_best_supplier",
        "important_parts_value",
        "part_supplier_counts",
        "supplier_pagerank",
        "late_arrivals",
        "video_frame_sample",
        "zorder_layout",
        "bulk_cosupplier_triangles",
        "nation_top_customer_list",
        "revenue_ewma",
        "cms_user_counts",
        "order_price_proration",
        "monthly_gap_fill",
        "rapid_reorder_pairs",
        "supplier_ship_coverage",
        "acctbal_imputation",
        "spearman_qty_price",
        "k_anonymity_audit",
        "supplier_hop_distance",
        "substring_dedup",
        "dup_spans",
        "fd_violations",
        "key_skew_profile",
        "window_dedup_events",
        "semdedup_pairs",
        "percentile_cont_prices",
        "orc_roundtrip",
    ],
)
def test_new_query_matches_oracle_sf0001(ray_session, qname):
    """Bit-exact Ray-vs-DuckDB parity for the round-4 session-10
    queries at sf0.001, through the same compare the local gate uses
    (sorted columns, byte-compared floats, dtype check)."""
    import sys

    import duckdb

    sys.path.insert(0, "/root/repo/tools")
    from check_oracles import compare, normalize, to_df

    import __ray_entry__ as m

    sf = "/root/testdata/sf0.001"
    ray_df = normalize(to_df(m.queries()[qname](sf)))
    con = duckdb.connect()
    for t in (
        "region nation customer supplier part orders lineitem events "
        "documents embeddings"
    ).split():
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM "
            f"read_parquet('{sf}/{t}.parquet')"
        )
    sql_df = normalize(con.execute(m.oracle_sql()[qname]).fetchdf())
    problems = compare(qname, ray_df, sql_df)
    assert not problems, problems


def test_revenue_by_region_hybrid_paths_agree(ray_session):
    """The metadata-decided customer broadcast and the co-group
    fallback must be frame-equal (the size hybrid is physical only)."""
    import importlib

    import __ray_entry__ as m

    sf = "/root/testdata/sf0.001"
    a = m.queries()["revenue_by_region"](sf)
    cap = m.REVENUE_BY_REGION_CUST_BROADCAST_MAX
    try:
        m.REVENUE_BY_REGION_CUST_BROADCAST_MAX = 0
        b = m.queries()["revenue_by_region"](sf)
    finally:
        m.REVENUE_BY_REGION_CUST_BROADCAST_MAX = cap
    pd.testing.assert_frame_equal(
        a.reset_index(drop=True), b.reset_index(drop=True)
    )


def test_region_partials_empty_broadcast_map():
    """An empty customer map (every customer filtered away) gives no
    region partials — not an IndexError from probing an empty array."""
    import __ray_entry__ as m

    t = pa.table(
        {
            "ckey": pa.array([3, 7], pa.int64()),
            "n_orders": pa.array([1, 1], pa.int64()),
            "rev_c4": pa.array([10, 20], pa.int64()),
        }
    )
    e = np.empty(0, np.int64)
    out = m._region_partials(t, e, e, [])
    assert out.num_rows == 0
    assert out.column_names == ["r_name", "n_orders", "rev_c4"]


def test_region_partials_inner_join_emits_only_hit_regions():
    """A region with customers but no order in the batch emits no row:
    the broadcast branch keeps inner-join semantics (a zero-filled row
    would survive grouped_agg as n_orders=0)."""
    import __ray_entry__ as m

    t = pa.table(
        {
            "ckey": pa.array([1, 1, 9], pa.int64()),
            "n_orders": pa.array([1, 1, 1], pa.int64()),
            "rev_c4": pa.array([5, 6, 7], pa.int64()),
        }
    )
    bk = np.array([1, 2], np.int64)  # customer 2 (region B) orders nothing
    bc = np.array([0, 1], np.int64)
    out = m._region_partials(t, bk, bc, ["A", "B"]).to_pydict()
    assert out == {"r_name": ["A"], "n_orders": [2], "rev_c4": [11]}


def _revenue_by_region_fixture(sf: str, d, customers) -> str:
    """sf0.001 copy of the four tables revenue_by_region reads, with the
    customer table replaced by ``customers(customer_table)``."""
    import pyarrow.parquet as pq

    for t in ("region", "nation", "orders", "lineitem"):
        pq.write_table(
            pq.read_table(os.path.join(sf, f"{t}.parquet")), d / f"{t}.parquet"
        )
    cust = pq.read_table(os.path.join(sf, "customer.parquet"))
    pq.write_table(customers(cust), d / "customer.parquet")
    return str(d)


def _region0_without_orders(c: pa.Table) -> pa.Table:
    """Region 0's customers are replaced by one customer that places no
    order (a fresh custkey); their orders then miss the join."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    nat = pq.read_table(os.path.join(SF_DIR, "nation.parquet")).to_pandas()
    in_r0 = pc.is_in(
        c["c_nationkey"],
        pa.array(nat.loc[nat.n_regionkey == 0, "n_nationkey"], c["c_nationkey"].type),
    )
    lone = c.filter(in_r0).slice(0, 1)
    lone = lone.set_column(
        lone.schema.get_field_index("c_custkey"),
        "c_custkey",
        pa.array([pc.max(c["c_custkey"]).as_py() + 1], c["c_custkey"].type),
    )
    return pa.concat_tables([c.filter(pc.invert(in_r0)), lone])


@pytest.mark.skipif(not os.path.isdir(SF_DIR), reason="TPC-H test tables absent")
@pytest.mark.parametrize("case", ["no_customers", "region_without_orders"])
def test_revenue_by_region_degenerate_broadcast(ray_session, tmp_path, case):
    """Both physical paths of revenue_by_region equal the DuckDB twin on
    an empty customer map and on a region whose only customer places
    no order (inner joins drop that region)."""
    import pyarrow.parquet as pq

    import __ray_entry__ as m

    customers = (
        (lambda c: c.slice(0, 0)) if case == "no_customers" else _region0_without_orders
    )
    sf = _revenue_by_region_fixture(SF_DIR, tmp_path, customers)
    con = duckdb.connect()
    for t in ("region", "nation", "customer", "orders", "lineitem"):
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf}/{t}.parquet')"
        )
    want = _normalize(con.execute(m.oracle_sql()["revenue_by_region"]).df())
    if case == "region_without_orders":
        reg = pq.read_table(os.path.join(SF_DIR, "region.parquet")).to_pandas()
        assert reg.loc[reg.r_regionkey == 0, "r_name"].item() not in set(want["r_name"])
    cap = m.REVENUE_BY_REGION_CUST_BROADCAST_MAX
    try:
        for m.REVENUE_BY_REGION_CUST_BROADCAST_MAX in (cap, 0):
            got = _normalize(m.queries()["revenue_by_region"](sf))
            pd.testing.assert_frame_equal(got, want, check_dtype=False)
    finally:
        m.REVENUE_BY_REGION_CUST_BROADCAST_MAX = cap
