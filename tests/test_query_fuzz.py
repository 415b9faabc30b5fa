"""Query-level fuzzing: hypothesis generates adversarial mini-corpora
(tie-heavy, gap-heavy, single-row and empty-group shapes the fixed
testdata can't produce), writes them as parquet with the driver
schemas, and asserts the Ray query matches its DuckDB twin through the
SAME bit-exact compare the local gate uses. This is the strongest
edge-case net for the tie/boundary logic in the session-13 operators
(largest-remainder ranks, 7-day band edges, interval adjacency,
even/odd median groups)."""

from __future__ import annotations

import os
import sys

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

sys.path.insert(0, "/root/repo")
sys.path.insert(0, "/root/repo/tools")

DAY_US = 86_400_000_000
EPOCH_1995 = 9131  # days


def _write(dirpath: str, name: str, table: pa.Table) -> None:
    os.makedirs(dirpath, exist_ok=True)
    pq.write_table(table, os.path.join(dirpath, f"{name}.parquet"))


def _orders_table(rows) -> pa.Table:
    # rows: list of (orderkey, custkey, total_cents, day_offset, priority)
    ok, ck, tc, d, pri = (
        zip(*rows) if rows else ((), (), (), (), ())
    )
    return pa.table(
        {
            "o_orderkey": pa.array(ok, pa.int64()),
            "o_custkey": pa.array(ck, pa.int64()),
            "o_orderstatus": pa.array(["O"] * len(rows), pa.string()),
            "o_totalprice": pa.array(
                [c / 100.0 for c in tc], pa.float64()
            ),
            "o_orderdate": pa.array(
                [(EPOCH_1995 + int(x)) * DAY_US for x in d],
                pa.timestamp("us"),
            ),
            "o_orderpriority": pa.array(list(pri), pa.string()),
        }
    )


def _lineitem_table(rows) -> pa.Table:
    # rows: list of (orderkey, linenumber, ep_cents, suppkey, qty, day)
    if rows:
        ok, ln, ep, sk, qty, d = zip(*rows)
    else:
        ok = ln = ep = sk = qty = d = ()
    n = len(rows)
    return pa.table(
        {
            "l_orderkey": pa.array(ok, pa.int64()),
            "l_partkey": pa.array([1] * n, pa.int64()),
            "l_suppkey": pa.array(sk, pa.int64()),
            "l_linenumber": pa.array(ln, pa.int32()),
            "l_quantity": pa.array([float(q) for q in qty], pa.float64()),
            "l_extendedprice": pa.array(
                [c / 100.0 for c in ep], pa.float64()
            ),
            "l_discount": pa.array([0.0] * n, pa.float64()),
            "l_tax": pa.array([0.0] * n, pa.float64()),
            "l_returnflag": pa.array(["N"] * n, pa.string()),
            "l_linestatus": pa.array(["O"] * n, pa.string()),
            "l_shipdate": pa.array(
                [(EPOCH_1995 + int(x)) * DAY_US for x in d],
                pa.timestamp("us"),
            ),
        }
    )


def _compare(qname: str, sf_dir: str) -> None:
    from check_oracles import compare, normalize, to_df

    import __ray_entry__ as m

    ray_df = normalize(to_df(m.queries()[qname](sf_dir)))
    con = duckdb.connect()
    for t in (
        "orders", "lineitem", "customer", "nation", "supplier",
        "part", "events", "documents", "embeddings",
    ):
        p = os.path.join(sf_dir, f"{t}.parquet")
        if os.path.exists(p):
            con.execute(
                f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{p}')"
            )
    sql_df = normalize(con.execute(m.oracle_sql()[qname]).fetchdf())
    con.close()
    problems = compare(qname, ray_df, sql_df)
    assert not problems, problems


def test_cache_dir_tracks_rewritten_inputs(tmp_path):
    """A directory reused at the same path (pytest numbers its temp dirs
    afresh once the old ones are gone) must not hit the cache of the
    input it held before."""
    import __ray_entry__ as m

    sf = str(tmp_path)
    _write(sf, "documents", _documents_table([("a bb", "s1")]))
    first = m._cache_dir(sf)
    assert m._cache_dir(sf) == first
    _write(sf, "documents", _documents_table([("a bb ccc", "s2")] * 3))
    assert m._cache_dir(sf) != first


_fuzz = settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@_fuzz
@given(
    data=st.lists(
        st.tuples(
            st.integers(0, 25),  # orderkey selector (collisions on purpose)
            st.integers(1, 400_000),  # ep cents
        ),
        min_size=1,
        max_size=40,
    ),
    tot=st.lists(st.integers(1, 5_000_000), min_size=26, max_size=26),
)
def test_fuzz_order_price_proration(ray_session, tmp_path_factory, data, tot):
    """Remainder ties, single-item orders, orders with no lineitems —
    the allocation must stay bit-identical to the SQL twin."""
    d = str(tmp_path_factory.mktemp("prorate"))
    # orderkeys are multiples of 16 so every order is audited
    li = []
    per = {}
    for oksel, ep in data:
        ok = oksel * 16
        per[ok] = per.get(ok, 0) + 1
        li.append((ok, per[ok], ep, 1, 1, 0))
    orders = [(k * 16, 1, tot[k], 0, "1-URGENT") for k in range(26)]
    _write(d, "orders", _orders_table(orders))
    _write(d, "lineitem", _lineitem_table(li))
    _compare("order_price_proration", d)


@_fuzz
@given(
    data=st.lists(
        st.tuples(
            st.integers(1, 4),  # custkey
            st.integers(0, 20),  # day
        ),
        min_size=1,
        max_size=30,
    )
)
def test_fuzz_rapid_reorder_pairs(ray_session, tmp_path_factory, data):
    """Same-day multi-orders and exactly-7-day boundary gaps."""
    d = str(tmp_path_factory.mktemp("reorder"))
    orders = [
        (i + 1, ck, 100, day, "1-URGENT")
        for i, (ck, day) in enumerate(data)
    ]
    _write(d, "orders", _orders_table(orders))
    _compare("rapid_reorder_pairs", d)


@_fuzz
@given(
    data=st.lists(
        st.tuples(
            st.integers(1, 3),  # suppkey
            st.integers(0, 30),  # ship day (forces overlap/adjacency)
        ),
        min_size=1,
        max_size=30,
    )
)
def test_fuzz_supplier_ship_coverage(ray_session, tmp_path_factory, data):
    """Duplicate intervals, exact adjacency (gap == width), overlaps."""
    d = str(tmp_path_factory.mktemp("cover"))
    li = [
        (i + 1, 1, 100, sk, 1, day) for i, (sk, day) in enumerate(data)
    ]
    _write(d, "lineitem", _lineitem_table(li))
    _compare("supplier_ship_coverage", d)


@_fuzz
@given(
    data=st.lists(
        st.tuples(
            st.integers(0, 3),  # nationkey
            st.integers(-99_999, 999_999),  # acctbal cents (negatives!)
        ),
        min_size=1,
        max_size=40,
    )
)
def test_fuzz_acctbal_imputation(ray_session, tmp_path_factory, data):
    """Even/odd group sizes, duplicate balances, negative balances,
    nations whose customers are ALL missing (ck % 7 == 0)."""
    d = str(tmp_path_factory.mktemp("impute"))
    cust = pa.table(
        {
            "c_custkey": pa.array(
                [i + 1 for i in range(len(data))], pa.int64()
            ),
            "c_name": pa.array(
                [f"Customer#{i+1}" for i in range(len(data))], pa.string()
            ),
            "c_nationkey": pa.array([nk for nk, _ in data], pa.int32()),
            "c_acctbal": pa.array(
                [c / 100.0 for _, c in data], pa.float64()
            ),
            "c_mktsegment": pa.array(["BUILDING"] * len(data), pa.string()),
        }
    )
    _write(d, "customer", cust)
    _compare("acctbal_imputation", d)


@_fuzz
@given(
    data=st.lists(
        st.tuples(
            st.integers(0, 2),  # nationkey
            st.integers(-5_000, 5_000),  # acctbal cents — tie-heavy
        ),
        min_size=1,
        max_size=25,
    )
)
def test_fuzz_nation_top_customer_list(ray_session, tmp_path_factory, data):
    """Acctbal ties resolved by custkey on both engines."""
    d = str(tmp_path_factory.mktemp("stragg"))
    n = len(data)
    cust = pa.table(
        {
            "c_custkey": pa.array([i + 1 for i in range(n)], pa.int64()),
            "c_name": pa.array(
                [f"Customer#{i+1:09d}" for i in range(n)], pa.string()
            ),
            "c_nationkey": pa.array([nk for nk, _ in data], pa.int32()),
            "c_acctbal": pa.array([c / 100.0 for _, c in data], pa.float64()),
            "c_mktsegment": pa.array(["AUTOMOBILE"] * n, pa.string()),
        }
    )
    nat = pa.table(
        {
            "n_nationkey": pa.array([0, 1, 2], pa.int32()),
            "n_name": pa.array(["ALGERIA", "BRAZIL", "CANADA"], pa.string()),
            "n_regionkey": pa.array([0, 1, 1], pa.int32()),
        }
    )
    _write(d, "customer", cust)
    _write(d, "nation", nat)
    _compare("nation_top_customer_list", d)


@_fuzz
@given(
    data=st.lists(
        st.tuples(
            st.integers(0, 36),  # month offset (gaps guaranteed)
            st.integers(1, 1_000_000),  # total cents
            st.sampled_from(["1-URGENT", "2-HIGH", "3-MEDIUM"]),
        ),
        min_size=1,
        max_size=25,
    )
)
def test_fuzz_monthly_gap_fill(ray_session, tmp_path_factory, data):
    """Sparse months with real gaps; every priority gets the full
    spine, zero-filled."""
    d = str(tmp_path_factory.mktemp("gapfill"))
    orders = [
        (i + 1, 1, cents, mo * 31, pri)
        for i, (mo, cents, pri) in enumerate(data)
    ]
    _write(d, "orders", _orders_table(orders))
    _compare("monthly_gap_fill", d)


@pytest.mark.parametrize("n_orders", [1, 2])
def test_revenue_ewma_single_and_two_months(ray_session, tmp_path_factory, n_orders):
    """Degenerate spine: recurrence base case and one step."""
    d = str(tmp_path_factory.mktemp("ewma"))
    orders = [(i + 1, 1, 777 + i, i * 40, "1-URGENT") for i in range(n_orders)]
    _write(d, "orders", _orders_table(orders))
    _compare("revenue_ewma", d)


# ----------------------------------------------------- session-14 operators


def _events_table(rows) -> pa.Table:
    # rows: list of (event_id, us_offset, user_id, event_type)
    if rows:
        ei, us, ui, et = zip(*rows)
    else:
        ei = us = ui = et = ()
    n = len(rows)
    return pa.table(
        {
            "event_id": pa.array(ei, pa.int64()),
            "ts": pa.array(
                [EPOCH_1995 * DAY_US + int(x) for x in us], pa.timestamp("us")
            ),
            "user_id": pa.array(ui, pa.int64()),
            "event_type": pa.array(list(et), pa.string()),
            "value": pa.array([1.0] * n, pa.float64()),
            "props": pa.array(["{}"] * n, pa.string()),
        }
    )


def _documents_table(texts) -> pa.Table:
    # texts: list of (text, source)
    t, s = zip(*texts) if texts else ((), ())
    return pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(list(t), pa.string()),
            "lang": pa.array(["xx"] * len(texts), pa.string()),
            "source": pa.array(list(s), pa.string()),
            "n_chars": pa.array([len(x) for x in t], pa.int64()),
        }
    )


@_fuzz
@given(
    data=st.lists(
        st.tuples(
            st.integers(0, 6),  # user selector (collisions on purpose)
            st.sampled_from(["view", "purchase"]),
            # gaps straddling the <= 1h boundary exactly
            st.sampled_from([0, 1, 3_599_999_999, 3_600_000_000,
                             3_600_000_001, 10 * DAY_US]),
        ),
        min_size=1,
        max_size=30,
    )
)
def test_fuzz_window_dedup_events(ray_session, tmp_path_factory, data):
    """Equal timestamps (event_id tiebreak), gaps exactly AT the 1-hour
    boundary, and interleaved event types — the LAG-window edges."""
    sf = str(tmp_path_factory.mktemp("wdedup"))
    rows, t = [], {}
    for i, (u, et, gap) in enumerate(data):
        t[(u, et)] = t.get((u, et), 0) + gap  # cumulative per key
        rows.append((i, t[(u, et)], u, et))
    _write(sf, "events", _events_table(rows))
    _compare("window_dedup_events", sf)


@_fuzz
@given(
    data=st.lists(
        st.tuples(
            st.integers(0, 8),  # custkey (hot keys on purpose)
            st.integers(1, 99_999),  # cents
            st.sampled_from(["1-URGENT", "2-HIGH", "5-LOW"]),
        ),
        min_size=1,
        max_size=60,
    )
)
def test_fuzz_percentile_cont_and_key_skew(ray_session, tmp_path_factory, data):
    """Single-row groups (rem always 0), two-row groups (every
    percentile lands between the same two rows), price ties (orderkey
    tiebreak), count ties at the skew top-k boundary."""
    sf = str(tmp_path_factory.mktemp("pctl"))
    rows = [
        (i, ck, cents, i % 7, pri) for i, (ck, cents, pri) in enumerate(data)
    ]
    _write(sf, "orders", _orders_table(rows))
    _compare("percentile_cont_prices", sf)
    _compare("key_skew_profile", sf)


@_fuzz
@given(
    texts=st.lists(
        st.tuples(
            st.lists(
                st.sampled_from(["a", "bb", "ccc", "dddd"]),
                min_size=1,
                max_size=40,
            ).map(" ".join),
            st.sampled_from(["s1", "s2"]),
        ),
        min_size=1,
        max_size=12,
    )
)
def test_fuzz_substring_dedup(ray_session, tmp_path_factory, texts):
    """Tiny 4-word alphabet forces 16-token window collisions within
    and across documents; docs shorter than K contribute no windows;
    all-identical docs duplicate every window."""
    sf = str(tmp_path_factory.mktemp("substr"))
    _write(sf, "documents", _documents_table(texts))
    _compare("substring_dedup", sf)
    _compare("dup_spans", sf)


@_fuzz
@given(
    texts=st.lists(
        st.tuples(
            st.sampled_from(["s1", "s2", "s3"]),
            st.sampled_from(["en", "de"]),
        ),
        min_size=1,
        max_size=25,
    )
)
def test_fuzz_fd_violations(ray_session, tmp_path_factory, texts):
    """FDs that hold, FDs violated by exactly one extra RHS value,
    single-row LHS groups."""
    sf = str(tmp_path_factory.mktemp("fd"))
    t = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(["w"] * len(texts), pa.string()),
            "lang": pa.array([l for _s, l in texts], pa.string()),
            "source": pa.array([s for s, _l in texts], pa.string()),
            "n_chars": pa.array([1] * len(texts), pa.int64()),
        }
    )
    _write(sf, "documents", t)
    _compare("fd_violations", sf)


@_fuzz
@given(
    vecs=st.lists(
        st.tuples(
            st.integers(0, 2),  # label (small clusters, collisions)
            st.lists(
                # exact multiples of 1/256 (quantization boundaries) and
                # off-grid values (float32 rounding on both engines)
                st.sampled_from(
                    [0.0, 1 / 256, -1 / 256, 0.5, -0.5, 0.1, -0.3, 0.251]
                ),
                min_size=4,
                max_size=4,
            ),
        ),
        min_size=2,
        max_size=20,
    )
)
def test_fuzz_semdedup_pairs(ray_session, tmp_path_factory, vecs):
    """Quantization boundary values, zero vectors (dot=0 excluded),
    identical vectors (cos exactly 1), threshold ties where
    dot^2*100 == na*nb*81 exactly."""
    sf = str(tmp_path_factory.mktemp("semdedup"))
    t = pa.table(
        {
            "vec_id": pa.array(range(len(vecs)), pa.int64()),
            "embedding": pa.array(
                [v for _l, v in vecs], pa.list_(pa.float32())
            ),
            "label": pa.array([l for l, _v in vecs], pa.int32()),
        }
    )
    _write(sf, "embeddings", t)
    _compare("semdedup_pairs", sf)


# ---------------------------------------------------------------- session 15


def _part_table(brands) -> pa.Table:
    # brands: list of brand strings, one part per entry (partkey = index)
    n = len(brands)
    return pa.table(
        {
            "p_partkey": pa.array(range(n), pa.int64()),
            "p_name": pa.array([f"part {i}" for i in range(n)], pa.string()),
            "p_brand": pa.array(list(brands), pa.string()),
            "p_type": pa.array(["t"] * n, pa.string()),
            "p_size": pa.array([1] * n, pa.int32()),
            "p_retailprice": pa.array([1.0] * n, pa.float64()),
        }
    )


@_fuzz
@given(
    texts=st.lists(
        st.tuples(
            st.lists(
                # 4-length alphabet -> heavy token collisions; "" token too
                st.sampled_from(["", "a", "bb", "ccc", "dddd"]),
                min_size=0,
                max_size=25,
            ).map(" ".join),
            st.sampled_from(["s1", "s2", "s3"]),
        ),
        min_size=1,
        max_size=15,
    )
)
def test_fuzz_token_distribution(ray_session, tmp_path_factory, texts):
    """Single-source corpora (KL exactly 0), tokens unique to one source
    (rare-mask edges at the <= RARE_GLOBAL_MAX boundary), corpora with
    one distinct token (zipf slope undefined -> empty frame), and docs
    shorter than 2 tokens (no bigrams at all)."""
    sf = str(tmp_path_factory.mktemp("tokdist"))
    _write(sf, "documents", _documents_table(texts))
    _compare("kl_by_source", sf)
    _compare("rare_token_share", sf)
    _compare("zipf_fit", sf)
    _compare("bigram_novelty", sf)
    _compare("tv_distance_by_source", sf)
    _compare("overrepresented_tokens", sf)


@_fuzz
@given(
    cells=st.lists(
        st.tuples(
            st.sampled_from(["s1", "s2", "s3", "s4"]),
            st.sampled_from(["en", "de", "zh"]),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_fuzz_chi2_lang_source(ray_session, tmp_path_factory, cells):
    """Sparse grids where most (source, lang) combinations are ABSENT —
    the o=0 grid cells a naive observed-cells-only chi-square drops —
    plus single-row marginals and the 1x1 grid (dof 0, stat 0)."""
    sf = str(tmp_path_factory.mktemp("chi2"))
    texts = [("w", s) for s, _l in cells]
    t = _documents_table(texts)
    t = t.set_column(
        t.schema.get_field_index("lang"),
        "lang",
        pa.array([l for _s, l in cells], pa.string()),
    )
    _write(sf, "documents", t)
    _compare("chi2_lang_source", sf)


@_fuzz
@given(
    items=st.lists(
        st.tuples(
            st.integers(0, 5),  # partkey selector (6 parts / 3 brands)
            st.integers(1, 50),  # quantity
            st.integers(1, 400_000),  # extendedprice cents
        ),
        min_size=1,
        max_size=40,
    )
)
def test_fuzz_brand_ols_slope(ray_session, tmp_path_factory, items):
    """Brands where every line has the SAME quantity (denominator 0 ->
    brand dropped on both engines), negative-slope brands (floor of a
    negative rational: Python // vs the SQL remainder trick), and
    single-line brands."""
    sf = str(tmp_path_factory.mktemp("ols"))
    rows = [
        (i, 1, cents, 1, qty, 0) for i, (_pk, qty, cents) in enumerate(items)
    ]
    li = _lineitem_table(rows)
    # overwrite l_partkey with the fuzzed selector (builder pins it to 1)
    li = li.set_column(
        li.schema.get_field_index("l_partkey"),
        "l_partkey",
        pa.array([pk for pk, _q, _c in items], pa.int64()),
    )
    _write(sf, "lineitem", li)
    _write(sf, "part", _part_table(["B1", "B1", "B2", "B2", "B3", "B3"]))
    _compare("brand_ols_slope", sf)


@_fuzz
@given(
    data=st.lists(
        st.tuples(
            st.integers(0, 4),  # user selector
            st.integers(0, 12),  # day offset (small -> dense AND gappy)
            st.integers(1, 99_999),  # cents
        ),
        min_size=1,
        max_size=30,
    )
)
def test_fuzz_interp_fill_daily(ray_session, tmp_path_factory, data):
    """Single-day users (span 1, nothing to fill), adjacent-day series
    (gap 0), multi-day interior gaps with non-round interpolation
    (floor semantics on both engines), same-day multi-event sums."""
    sf = str(tmp_path_factory.mktemp("interp"))
    rows = [
        (i, u * DAY_US * 400 + d * DAY_US, u, "purchase")
        for i, (u, d, _c) in enumerate(data)
    ]
    t = _events_table(rows)
    t = t.set_column(
        t.schema.get_field_index("value"),
        "value",
        pa.array([c / 100.0 for _u, _d, c in data], pa.float64()),
    )
    _write(sf, "events", t)
    _compare("interp_fill_daily", sf)


@_fuzz
@given(
    data=st.lists(
        st.tuples(
            st.integers(0, 3),  # user
            st.sampled_from(["view", "purchase"]),
            # gaps straddling the 24h window edge exactly
            st.sampled_from([0, 1, DAY_US - 1, DAY_US, DAY_US + 1]),
            st.integers(0, 700),  # purchase cents (v < k forces base 0)
        ),
        min_size=1,
        max_size=30,
    )
)
def test_fuzz_linear_attribution(ray_session, tmp_path_factory, data):
    """Window edges exactly AT 24h (inclusive lower, exclusive upper),
    same-timestamp view ties (event_id order), purchases with v < k
    (base 0, only remainder +1s), purchases with no views (dropped),
    overlapping windows crediting one hot view repeatedly."""
    sf = str(tmp_path_factory.mktemp("attr"))
    rows, t, vals = [], {}, []
    for i, (u, et, gap, cents) in enumerate(data):
        t[u] = t.get(u, 0) + gap
        rows.append((i, t[u], u, et))
        vals.append(cents / 100.0)
    tbl = _events_table(rows)
    tbl = tbl.set_column(
        tbl.schema.get_field_index("value"),
        "value",
        pa.array(vals, pa.float64()),
    )
    _write(sf, "events", tbl)
    _compare("linear_attribution", sf)


@_fuzz
@given(
    data=st.lists(
        st.tuples(
            st.integers(0, 5_000_00),  # order cents (zeros allowed)
        ),
        min_size=1,
        max_size=60,
    )
)
def test_fuzz_pps_sample(ray_session, tmp_path_factory, data):
    """Zero-value orders (empty selection span), one giant order
    absorbing many thresholds, totals smaller than the sample size
    (threshold collisions at 0)."""
    sf = str(tmp_path_factory.mktemp("pps"))
    orders = [
        (i + 1, 1, c, 0, "1-URGENT") for i, (c,) in enumerate(data)
    ]
    _write(sf, "orders", _orders_table(orders))
    _compare("pps_sample", sf)


@_fuzz
@given(
    data=st.lists(
        st.tuples(
            st.integers(0, 9),  # orderkey selector
            st.integers(0, 20),  # ship delay days (0 = same day)
            st.integers(0, 13),  # order day offset (covers every weekday)
        ),
        min_size=1,
        max_size=40,
    )
)
def test_fuzz_business_days(ray_session, tmp_path_factory, data):
    """Same-day shipping (0 business days), weekend-spanning windows,
    order dates on every weekday — the closed-form b(d) must agree
    with DuckDB's identical algebra on all alignments."""
    sf = str(tmp_path_factory.mktemp("bdays"))
    orders = {}
    li = []
    for i, (oksel, delay, od) in enumerate(data):
        ok = oksel + 1
        orders.setdefault(ok, od)
        li.append((ok, i + 1, 100, 1, 1, orders[ok] + delay))
    _write(
        sf,
        "orders",
        _orders_table(
            [(ok, 1, 100, od, "1-URGENT") for ok, od in orders.items()]
        ),
    )
    _write(sf, "lineitem", _lineitem_table(li))
    _compare("business_days_to_ship", sf)


@_fuzz
@given(
    data=st.lists(
        st.tuples(
            st.integers(0, 3),  # user
            st.sampled_from(["a", "b", "c"]),
            # gaps straddling the 24h RANGE edge exactly, plus 0 (ties)
            st.sampled_from([0, 1, DAY_US - 1, DAY_US, DAY_US + 1]),
        ),
        min_size=1,
        max_size=30,
    )
)
def test_fuzz_rolling_distinct_types(ray_session, tmp_path_factory, data):
    """Equal timestamps (RANGE peer semantics: every tie shares the
    run-end answer), gaps exactly AT the 24h inclusive edge, types
    leaving the window one at a time."""
    sf = str(tmp_path_factory.mktemp("rdt"))
    rows, t = [], {}
    for i, (u, et, gap) in enumerate(data):
        t[u] = t.get(u, 0) + gap
        rows.append((i, t[u], u, et))
    _write(sf, "events", _events_table(rows))
    _compare("rolling_distinct_types", sf)


@_fuzz
@given(
    data=st.lists(
        st.tuples(
            st.integers(0, 11),  # user (close to the 10-tile count)
            st.sampled_from(["view", "purchase"]),
            st.sampled_from([0, 100, 100, 2500]),  # tie-heavy cents
        ),
        min_size=1,
        max_size=35,
    )
)
def test_fuzz_conversion_lift(ray_session, tmp_path_factory, data):
    """Fewer users than tiles, view-cents ties at NTILE boundaries
    (user_id tiebreak), purchase-only users (view_cents 0)."""
    sf = str(tmp_path_factory.mktemp("lift"))
    rows, vals = [], []
    for i, (u, et, cents) in enumerate(data):
        rows.append((i, i * 1000, u, et))
        vals.append(cents / 100.0)
    tbl = _events_table(rows)
    tbl = tbl.set_column(
        tbl.schema.get_field_index("value"),
        "value",
        pa.array(vals, pa.float64()),
    )
    _write(sf, "events", tbl)
    _compare("conversion_lift", sf)


@_fuzz
@given(
    texts=st.lists(
        st.tuples(
            st.lists(
                st.sampled_from(["a", "bb", "ccc", "dddd", "ee"]),
                min_size=0,
                max_size=20,
            ).map(" ".join),
            st.sampled_from(["s1", "s2"]),
        ),
        min_size=1,
        max_size=12,
    )
)
def test_fuzz_containment_and_nucleus(ray_session, tmp_path_factory, texts):
    """Identical docs (containment exactly 1), docs shorter than 3
    words (no grams), subset docs (prefix of a longer doc — the case
    containment catches and Jaccard misses), single-token corpora
    (nucleus p50 = 1 token at 100% coverage)."""
    sf = str(tmp_path_factory.mktemp("contnuc"))
    _write(sf, "documents", _documents_table(texts))
    _compare("containment_pairs", sf)
    _compare("vocab_nucleus", sf)


@_fuzz
@given(
    data=st.lists(
        st.tuples(
            st.integers(0, 4),  # user (hot keys)
            st.sampled_from(["a", "b"]),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_fuzz_selfjoin_and_median3(ray_session, tmp_path_factory, data):
    """Single-event users (F2 contribution 1, median3 drops them),
    two-event users (median3 still drops), value ties in the frame."""
    sf = str(tmp_path_factory.mktemp("f2med"))
    rows = [(i, i * 7_000_000, u, et) for i, (u, et) in enumerate(data)]
    tbl = _events_table(rows)
    tbl = tbl.set_column(
        tbl.schema.get_field_index("value"),
        "value",
        pa.array([((i * 37) % 5) / 100.0 for i in range(len(data))],
                 pa.float64()),
    )
    _write(sf, "events", tbl)
    _compare("selfjoin_size", sf)
    _compare("rolling_median3", sf)


@_fuzz
@given(
    data=st.lists(
        st.tuples(
            st.integers(0, 30),  # doc parity decided by index
            st.integers(1, 6),  # n_chars value (tie-HEAVY tiny domain)
        ),
        min_size=2,
        max_size=40,
    ).filter(lambda d: len(d) >= 2)
)
def test_fuzz_twosample_tests(ray_session, tmp_path_factory, data):
    """Tie-heavy tiny value domains (midrank doubling exactness),
    identical distributions (KS numerator 0, AUC exactly 1/2 on
    symmetric splits), single-value corpora."""
    sf = str(tmp_path_factory.mktemp("twosamp"))
    texts = [("w", "s1") for _ in data]
    t = _documents_table(texts)
    t = t.set_column(
        t.schema.get_field_index("n_chars"),
        "n_chars",
        pa.array([v for _x, v in data], pa.int64()),
    )
    _write(sf, "documents", t)
    _compare("ks_even_odd", sf)
    _compare("mannwhitney_even_odd", sf)


@_fuzz
@given(
    data=st.lists(
        st.tuples(
            st.integers(0, 8),  # orderkey selector (multi-line orders)
            st.integers(0, 6),  # order day offset
            st.integers(0, 10),  # ship delay days
            st.integers(0, 100_00),  # order cents (constant-revenue edges)
        ),
        min_size=1,
        max_size=40,
    )
)
def test_fuzz_calendar_ops(ray_session, tmp_path_factory, data):
    """Sweep-line concurrency with overlapping/nested/zero-length
    intervals, orders with NO lineitem (excluded from the span set),
    single-day corpora (autocorr defined=0), constant daily revenue
    (zero variance), and order dates on every weekday."""
    sf = str(tmp_path_factory.mktemp("calops"))
    orders = {}
    li = []
    for i, (oksel, od, delay, cents) in enumerate(data):
        ok = oksel + 1
        orders.setdefault(ok, (od, cents))
        li.append((ok, i + 1, 100, 1, 1, orders[ok][0] + delay))
    orders[1000] = (3, 700_00)  # order with no lineitems: no interval
    _write(
        sf,
        "orders",
        _orders_table(
            [(ok, 1, c, od, "1-URGENT") for ok, (od, c) in orders.items()]
        ),
    )
    _write(sf, "lineitem", _lineitem_table(li))
    _compare("open_order_concurrency", sf)
    _compare("dow_revenue_share", sf)
    _compare("revenue_autocorr", sf)


@_fuzz
@given(
    data=st.lists(
        st.tuples(st.integers(1, 5), st.integers(0, 500)),
        min_size=1,
        max_size=40,
    )
)
def test_fuzz_skyline(ray_session, tmp_path_factory, data):
    """Tiny (custkey, cents) domains force duplicate aggregate points
    (mutual non-dominance), same-count groups, and same-spend chains —
    every tie branch of the dominance kernel on the DERIVED aggregate,
    checked against the aggregate-then-NOT-EXISTS oracle."""
    sf = str(tmp_path_factory.mktemp("skyline"))
    orders = [
        (i + 1, ck, c, 0, "1-URGENT") for i, (ck, c) in enumerate(data)
    ]
    _write(sf, "orders", _orders_table(orders))
    _compare("customer_value_skyline", sf)


@_fuzz
@given(
    texts=st.lists(
        st.tuples(
            st.lists(
                st.sampled_from(["", "a", "bb", "ccc", "dddd"]),
                min_size=0,
                max_size=25,
            ).map(" ".join),
            st.sampled_from(["s1", "s2", "s3"]),
        ),
        min_size=1,
        max_size=15,
    )
)
def test_fuzz_padding_burstiness(ray_session, tmp_path_factory, texts):
    """Power-of-two bucket boundaries (n_tok exactly 16/17/32), empty
    docs (1 zero-length token -> floor bucket), corpora with < K
    distinct tokens (short top-K), and single-doc sources."""
    sf = str(tmp_path_factory.mktemp("padburst"))
    _write(sf, "documents", _documents_table(texts))
    _compare("padding_waste", sf)
    _compare("token_burstiness", sf)


@_fuzz
@given(
    items=st.lists(
        st.tuples(
            st.integers(0, 8),  # orderkey selector
            st.integers(1, 6),  # partkey (tiny domain -> dup parts/order)
        ),
        min_size=1,
        max_size=40,
    )
)
def test_fuzz_basket_pairs(ray_session, tmp_path_factory, items):
    """Orders with duplicate parts (distinct-pair semantics), single-item
    orders (no pairs), ties at the top-K cut resolved by (p1, p2)."""
    sf = str(tmp_path_factory.mktemp("basket"))
    li = []
    for i, (oksel, pk) in enumerate(items):
        li.append((oksel + 1, i + 1, 100, 1, 1, 0))
    t = _lineitem_table(li)
    t = t.set_column(
        t.schema.get_field_index("l_partkey"),
        "l_partkey",
        pa.array([pk for _ok, pk in items], pa.int64()),
    )
    _write(sf, "lineitem", t)
    _compare("basket_part_pairs", sf)


@_fuzz
@given(
    texts=st.lists(
        st.tuples(
            st.sampled_from(["a", "a a", "bb", "ccc ccc", "d d d"]),
            st.sampled_from(["s1", "s2"]),
        ),
        min_size=1,
        max_size=30,
    )
)
def test_fuzz_dup_histogram(ray_session, tmp_path_factory, texts):
    """Tiny text domain forces heavy exact-duplicate clusters across
    every size k; the hash-grouped histogram must match the
    text-grouped SQL twin exactly (collision-free check built in)."""
    sf = str(tmp_path_factory.mktemp("duph"))
    _write(sf, "documents", _documents_table(texts))
    _compare("dup_size_histogram", sf)
    _compare("padding_waste", sf)


@_fuzz
@given(
    cells=st.lists(
        st.tuples(
            st.sampled_from(["s1", "s2", "s3", "s4"]),
            st.sampled_from(["en", "de", "zh"]),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_fuzz_cramers_v(ray_session, tmp_path_factory, cells):
    """Degenerate 1xC and Rx1 grids (mindim 0 -> defined 0), sparse
    grids with absent cells, single-doc corpora."""
    sf = str(tmp_path_factory.mktemp("cramers"))
    texts = [("w", s) for s, _l in cells]
    t = _documents_table(texts)
    t = t.set_column(
        t.schema.get_field_index("lang"),
        "lang",
        pa.array([l for _s, l in cells], pa.string()),
    )
    _write(sf, "documents", t)
    _compare("cramers_v", sf)


@_fuzz
@given(
    rows=st.lists(
        st.tuples(
            st.integers(0, 4),  # user selector
            st.integers(0, 100),  # us offset (ties possible)
            st.sampled_from(["view", "cart", "purchase"]),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_fuzz_two_step(ray_session, tmp_path_factory, rows):
    """Single-event users (no transitions), absorbing states (types with
    no outgoing edge), timestamp ties broken by event_id on both
    engines, self-loops."""
    sf = str(tmp_path_factory.mktemp("twostep"))
    ev = [
        (i + 1, us, usel + 1, et) for i, (usel, us, et) in enumerate(rows)
    ]
    _write(sf, "events", _events_table(ev))
    _compare("two_step_transitions", sf)


@_fuzz
@given(
    texts=st.lists(
        st.tuples(
            st.lists(
                st.sampled_from(["", "a", "bb", "ccc", "dddd"]),
                min_size=0,
                max_size=25,
            ).map(" ".join),
            st.sampled_from(["s1", "s2", "s3"]),
        ),
        min_size=1,
        max_size=15,
    )
)
def test_fuzz_bigram_entropy(ray_session, tmp_path_factory, texts):
    """Sources whose docs are all < 2 tokens (no row emitted),
    deterministic chains (H = 0), boundary-masked pairs across doc
    edges."""
    sf = str(tmp_path_factory.mktemp("bigent"))
    _write(sf, "documents", _documents_table(texts))
    _compare("bigram_cond_entropy", sf)


@_fuzz
@given(
    rows=st.lists(
        st.tuples(
            st.integers(0, 3),  # user selector
            st.integers(0, 50),  # us offset
            st.sampled_from(["view", "cart", "purchase"]),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_fuzz_trigrams_funnel(ray_session, tmp_path_factory, rows):
    """Users with < 3 events (no trigram), purchase-before-view users
    (excluded from conversion), zero-delay conversions (same ts),
    rank ties at the r50 == r90 collision for tiny n."""
    sf = str(tmp_path_factory.mktemp("trifun"))
    ev = [
        (i + 1, us, usel + 1, et) for i, (usel, us, et) in enumerate(rows)
    ]
    _write(sf, "events", _events_table(ev))
    _compare("event_trigrams", sf)
    _compare("funnel_time_to_convert", sf)


@_fuzz
@given(
    data=st.lists(
        st.tuples(
            st.integers(0, 40),  # day offset (spans >1 month)
            st.integers(0, 50_000),  # cents
        ),
        min_size=1,
        max_size=40,
    )
)
def test_fuzz_ohlc_median(ray_session, tmp_path_factory, data):
    """Months with a single order (open == close), same-day ties broken
    by orderkey, and the histogram-refinement median on tiny corpora
    where one bucket holds everything."""
    sf = str(tmp_path_factory.mktemp("ohlc"))
    orders = [
        (i + 1, 1, c, d, "1-URGENT") for i, (d, c) in enumerate(data)
    ]
    _write(sf, "orders", _orders_table(orders))
    li = [(i + 1, 1, c, 1, 1, d) for i, (d, c) in enumerate(data)]
    _write(sf, "lineitem", _lineitem_table(li))
    _compare("monthly_price_ohlc", sf)
    _compare("median_price_histsel", sf)


@_fuzz
@given(
    items=st.lists(
        st.tuples(
            st.integers(0, 6),  # orderkey selector
            st.sampled_from(["F", "O"]),  # linestatus
        ),
        min_size=0,
        max_size=30,
    ),
    statuses=st.lists(st.sampled_from(["F", "O", "P"]), min_size=7, max_size=7),
)
def test_fuzz_status_consistency(ray_session, tmp_path_factory, items, statuses):
    """Orders with no lineitems ('none' class), mixed-status orders,
    single-line orders — the forall-fold min==max on every shape."""
    sf = str(tmp_path_factory.mktemp("statcons"))
    orders = [(k + 1, 1, 100, 0, "1-URGENT") for k in range(7)]
    t = _orders_table(orders)
    t = t.set_column(
        t.schema.get_field_index("o_orderstatus"),
        "o_orderstatus",
        pa.array(statuses, pa.string()),
    )
    _write(sf, "orders", t)
    li = [(ok + 1, i + 1, 100, 1, 1, 0) for i, (ok, _ls) in enumerate(items)]
    lt = _lineitem_table(li)
    lt = lt.set_column(
        lt.schema.get_field_index("l_linestatus"),
        "l_linestatus",
        pa.array([ls for _ok, ls in items], pa.string()),
    )
    _write(sf, "lineitem", lt)
    _compare("order_status_consistency", sf)


@_fuzz
@given(
    cells=st.lists(
        st.tuples(
            st.sampled_from(["en", "de", "zh"]),
            st.integers(0, 2000),  # n_chars
        ),
        min_size=1,
        max_size=40,
    )
)
def test_fuzz_anova(ray_session, tmp_path_factory, cells):
    """Single-group corpora (k < 2 -> defined 0), zero within-group
    variance (constant lengths), n == k (one doc per language)."""
    sf = str(tmp_path_factory.mktemp("anova"))
    texts = [("w", "s1") for _ in cells]
    t = _documents_table(texts)
    t = t.set_column(
        t.schema.get_field_index("lang"),
        "lang",
        pa.array([l for l, _c in cells], pa.string()),
    )
    t = t.set_column(
        t.schema.get_field_index("n_chars"),
        "n_chars",
        pa.array([c for _l, c in cells], pa.int64()),
    )
    _write(sf, "documents", t)
    _compare("anova_nchars_by_lang", sf)


@_fuzz
@given(
    texts=st.lists(
        st.tuples(
            st.lists(
                st.sampled_from(["", "a", "bb", "ccc", "dddd"]),
                min_size=0,
                max_size=25,  # straddles the K=16 prefix boundary
            ).map(" ".join),
            st.sampled_from(["s1", "s2", "s3"]),
        ),
        min_size=1,
        max_size=15,
    )
)
def test_fuzz_boilerplate_tv(ray_session, tmp_path_factory, texts):
    """Docs exactly at the prefix boundary, sources with only-short
    docs (empty rest side -> defined 0), tokens unique to one side."""
    sf = str(tmp_path_factory.mktemp("boiler"))
    _write(sf, "documents", _documents_table(texts))
    _compare("boilerplate_position_tv", sf)


@_fuzz
@given(
    rows=st.lists(
        st.tuples(
            st.integers(0, 2**62),  # user ids across the full hash domain
            st.sampled_from(["view", "cart", "purchase"]),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_fuzz_hll_registers(ray_session, tmp_path_factory, rows):
    """Register collisions (several users in one bucket take the max
    rank), huge user ids, duplicate users — the SQL splitmix64 twin
    must re-derive every register bit-exactly."""
    sf = str(tmp_path_factory.mktemp("hllreg"))
    ev = [(i + 1, i, uid, et) for i, (uid, et) in enumerate(rows)]
    _write(sf, "events", _events_table(ev))
    _compare("hll_register_audit", sf)


@_fuzz
@given(
    rows=st.lists(
        st.tuples(
            st.integers(0, 5),  # user selector
            st.integers(0, 20),  # day offset (spans week boundaries)
        ),
        min_size=1,
        max_size=40,
    )
)
def test_fuzz_stickiness(ray_session, tmp_path_factory, rows):
    """Users active multiple times a day (dedup), single-day weeks,
    week-boundary days — distinct-pair counts must match COUNT
    DISTINCT exactly."""
    sf = str(tmp_path_factory.mktemp("sticky"))
    ev = [
        (i + 1, d * 86_400_000_000 + i, u + 1, "view")
        for i, (u, d) in enumerate(rows)
    ]
    _write(sf, "events", _events_table(ev))
    _compare("dau_wau_stickiness", sf)


@_fuzz
@given(
    texts=st.lists(
        st.tuples(
            st.lists(
                st.sampled_from(["", "a", "bb", "ccc"]),
                min_size=0,
                max_size=10,
            ).map(" ".join),
            st.sampled_from(["s1", "s2"]),
        ),
        min_size=1,
        max_size=12,
    )
)
def test_fuzz_heaps(ray_session, tmp_path_factory, texts):
    """Single-shard corpora (k < 2 -> empty frame), shards with zero
    occurrences (skipped points), constant-vocab growth."""
    sf = str(tmp_path_factory.mktemp("heaps"))
    _write(sf, "documents", _documents_table(texts))
    _compare("heaps_law_fit", sf)


@_fuzz
@given(
    texts=st.lists(
        st.tuples(
            st.lists(
                # 6 word lengths -> 6 effective token values: multi-round
                # greedy selection with ties and early full coverage
                st.sampled_from(["a", "bb", "ccc", "dddd", "eeeee", "ffffff"]),
                min_size=1,
                max_size=6,
            ).map(" ".join),
            st.sampled_from(["s1", "s2"]),
        ),
        min_size=1,
        max_size=12,
    )
)
def test_fuzz_coverage_select(ray_session, tmp_path_factory, texts):
    """Greedy ties (same novel count -> doc_id order), early stop when
    vocabulary is covered before K picks, duplicate-doc corpora."""
    sf = str(tmp_path_factory.mktemp("cover"))
    _write(sf, "documents", _documents_table(texts))
    _compare("coverage_select_docs", sf)


@_fuzz
@given(
    texts=st.lists(
        st.tuples(
            st.sampled_from(["a", "a a", "bb", "ccc ccc", "d d d", ""]),
            st.sampled_from(["s1", "s2", "s3"]),
        ),
        min_size=1,
        max_size=30,
    )
)
def test_fuzz_bm25_crossdup(ray_session, tmp_path_factory, texts):
    """Texts shared across sources (non-zero matrix cells), score ties
    at the BM25 top-K cut, query tokens with df == N (negative-idf
    guard rail of the +1 variant), empty docs."""
    sf = str(tmp_path_factory.mktemp("bm25x"))
    _write(sf, "documents", _documents_table(texts))
    _compare("bm25_topk", sf)
    _compare("cross_source_dup_matrix", sf)


@_fuzz
@given(
    texts=st.lists(
        st.tuples(
            st.lists(
                st.sampled_from(["", "a", "bb", "ccc", "dddd"]),
                min_size=0,
                max_size=25,  # spans the 8-token rolling window
            ).map(" ".join),
            st.sampled_from(["s1", "s2"]),
        ),
        min_size=1,
        max_size=15,
    )
)
def test_fuzz_cdc_chunks(ray_session, tmp_path_factory, texts):
    """Docs shorter than the window (single chunk), boundaries at the
    last position (must not open a chunk), repeated-token runs whose
    rolling hash cycles."""
    sf = str(tmp_path_factory.mktemp("cdc"))
    _write(sf, "documents", _documents_table(texts))
    _compare("cdc_chunk_stats", sf)
    _compare("cdc_chunk_dedup", sf)


@_fuzz
@given(
    data=st.lists(
        st.tuples(
            st.sampled_from(["B1", "B2", "B3"]),
            st.sampled_from(["t1", "t2"]),
            st.integers(1, 3),
        ),
        min_size=1,
        max_size=30,
    )
)
def test_fuzz_fd_discovery(ray_session, tmp_path_factory, data):
    """Exact FDs (every A maps to one B), total violation (every A
    multi-valued), singleton groups — the discovery sweep's rates must
    match raw-value grouping exactly through the hash layer."""
    sf = str(tmp_path_factory.mktemp("fdscan"))
    n = len(data)
    t = pa.table(
        {
            "p_partkey": pa.array(range(1, n + 1), pa.int64()),
            "p_name": pa.array([f"part {i}" for i in range(n)], pa.string()),
            "p_brand": pa.array([b for b, _t, _s in data], pa.string()),
            "p_type": pa.array([ty for _b, ty, _s in data], pa.string()),
            "p_size": pa.array([s for _b, _t, s in data], pa.int32()),
            "p_retailprice": pa.array([1.0] * n, pa.float64()),
        }
    )
    _write(sf, "part", t)
    _compare("fd_discovery_scan", sf)


@_fuzz
@given(
    texts=st.lists(
        st.tuples(
            # tiny alphabet: forces repeated words / 2-grams / 3-grams;
            # empty strings hit the n=1 single-word-occupancy edge
            st.sampled_from(
                [
                    "",
                    "x",
                    "x x",
                    "x x x",
                    "x y x y x y",
                    "x y z w v u t s",
                    "x x y y x x y y",
                ]
            ),
            st.sampled_from(["s1", "s2"]),
        ),
        min_size=1,
        max_size=20,
    )
)
def test_fuzz_gopher_repetition_flags(ray_session, tmp_path_factory, texts):
    """Threshold boundaries on tiny docs: n=1 (always word-flagged),
    n=2 (one 2-gram, occupancy 1), n=3 boundary for dup-3-grams,
    perfectly repetitive vs all-distinct docs."""
    sf = str(tmp_path_factory.mktemp("gopher"))
    _write(sf, "documents", _documents_table(texts))
    _compare("gopher_repetition_flags", sf)


@_fuzz
@given(
    texts=st.lists(
        st.tuples(
            st.sampled_from(["a b", "a a b", "c d", "c c d d", "a d", ""]),
            st.sampled_from(["s1", "s2"]),
            st.sampled_from(["en", "fr"]),
        ),
        min_size=1,
        max_size=20,
    )
)
def test_fuzz_dsir_importance_weights(ray_session, tmp_path_factory, texts):
    """Target/raw bucket ratio edges: corpora with NO target docs
    (all ratios floor at (0+1)*1e6//(raw+1)), all-target corpora
    (ratio 1e6 everywhere), empty strings (the '' word), and hash
    collisions across the tiny alphabet."""
    sf = str(tmp_path_factory.mktemp("dsir"))
    t, s, l = zip(*texts)
    tbl = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), pa.int64()),
            "text": pa.array(list(t), pa.string()),
            "lang": pa.array(list(l), pa.string()),
            "source": pa.array(list(s), pa.string()),
            "n_chars": pa.array([len(x) for x in t], pa.int64()),
        }
    )
    _write(sf, "documents", tbl)
    _compare("dsir_importance_weights", sf)


@_fuzz
@given(
    texts=st.lists(
        st.tuples(
            # 4-word alphabet so eval/corpus 3-gram overlap is dense;
            # docs < 3 words contribute no grams on either side
            st.sampled_from(
                ["", "p", "p q", "p q r", "p q r s", "q r p q", "s s s s"]
            ),
            st.sampled_from(["s1"]),
        ),
        min_size=1,
        max_size=25,
    )
)
def test_fuzz_bloom_decontamination(ray_session, tmp_path_factory, texts):
    """doc_id % 10 split edges: corpora with an empty eval side (no
    doc_id divisible by 10 when len < 11 is possible only for id 0),
    an empty corpus side, short docs with no grams, and full overlap."""
    sf = str(tmp_path_factory.mktemp("decon"))
    _write(sf, "documents", _documents_table(texts))
    _compare("bloom_decontamination", sf)
