"""SQL subset parsing and deterministic planning."""

import pytest

from ced.errors import PlanError, SqlSyntaxError, UnknownSeries, UnsupportedFeature
from ced.queryplan import (
    Catalog,
    Predicate,
    Query,
    SelectItem,
    parse,
    plan,
)
from ced.tsstore import SeriesPath, SeriesStore, ValueType

Q1 = "SELECT t1 FROM dev WHERE t1='v999'"
Q2 = "SELECT t3 FROM dev WHERE t3=497.44467"
Q3 = "SELECT t1, t3 FROM dev"
Q4 = "SELECT count(t1) FROM dev GROUP BY 5m"
Q5 = "SELECT max_value(t3) FROM dev GROUP BY 5m"

DEV = SeriesPath.parse("root.ln.edge1.dev")


def make_catalog(bounds=(0, 9_999)):
    catalog = Catalog()
    catalog.register_sensor(DEV, "t1", ValueType.STRING, bounds)
    catalog.register_sensor(DEV, "t2", ValueType.BOOL, bounds)
    catalog.register_sensor(DEV, "t3", ValueType.FLOAT64, bounds)
    return catalog


# --- parsing --------------------------------------------------------------

def test_q1_parses_to_string_filter():
    q = parse(Q1)
    assert q.select_items == (SelectItem("t1"),)
    assert q.predicate == Predicate("t1", "=", "v999")
    assert q.source == ("dev",)
    assert q.group_by_ms is None


def test_q2_parses_float_literal_exactly():
    q = parse(Q2)
    assert q.predicate == Predicate("t3", "=", 497.44467)
    assert isinstance(q.predicate.literal, float)


def test_q3_parses_two_columns():
    assert parse(Q3).select_items == (SelectItem("t1"), SelectItem("t3"))


def test_q4_group_by_5m_is_300000_ms():
    q = parse(Q4)
    assert q.select_items == (SelectItem("t1", "count"),)
    assert q.group_by_ms == 300_000


def test_q5_max_value():
    q = parse(Q5)
    assert q.select_items == (SelectItem("t3", "max_value"),)


def test_malformed_keyword_fails_at_offset_zero():
    with pytest.raises(SqlSyntaxError) as err:
        parse("SELEKT x")
    assert err.value.offset == 0


def test_comparison_operators_all_parse():
    for op in ("=", "<", ">", "<=", ">="):
        q = parse(f"SELECT t3 FROM dev WHERE t3 {op} 5")
        assert q.predicate.op == op


def test_unsupported_aggregate_function():
    with pytest.raises(UnsupportedFeature):
        parse("SELECT sum(t1) FROM dev GROUP BY 5m")


def test_mixed_aggregate_and_plain_items_rejected():
    with pytest.raises(PlanError):
        parse("SELECT count(t1), t3 FROM dev GROUP BY 5m")


def test_aggregate_without_group_by_rejected():
    with pytest.raises(PlanError):
        parse("SELECT count(t1) FROM dev")


def test_group_by_without_aggregate_rejected():
    with pytest.raises(PlanError):
        parse("SELECT t1 FROM dev GROUP BY 5m")


def test_join_is_unsupported():
    with pytest.raises((UnsupportedFeature, SqlSyntaxError)):
        parse("SELECT t1 FROM dev JOIN other")


def test_unterminated_string():
    with pytest.raises(SqlSyntaxError):
        parse("SELECT t1 FROM dev WHERE t1='v9")


def test_duration_units():
    assert parse("SELECT count(t1) FROM dev GROUP BY 300000ms").group_by_ms == 300_000
    assert parse("SELECT count(t1) FROM dev GROUP BY 2s").group_by_ms == 2000
    assert parse("SELECT count(t1) FROM dev GROUP BY 1h").group_by_ms == 3_600_000


def test_full_path_source():
    q = parse("SELECT t1 FROM root.ln.edge1.dev")
    assert q.source == ("root", "ln", "edge1", "dev")


# --- render round-trip -------------------------------------------------------

def render(query: Query) -> str:
    """Canonical SQL text; parse(render(q)) == q."""
    parts = ["SELECT ", ", ".join(item.render() for item in query.select_items),
             " FROM ", ".".join(query.source)]
    if query.predicate:
        p = query.predicate
        lit = "'" + p.literal.replace("'", "''") + "'" if isinstance(p.literal, str) else repr(p.literal)
        parts += [" WHERE ", f"{p.sensor} {p.op} {lit}"]
    if query.group_by_ms is not None:
        parts += [" GROUP BY ", f"{query.group_by_ms}ms"]
    return "".join(parts)


@pytest.mark.parametrize("sql", [Q1, Q2, Q3, Q4, Q5,
                                 "SELECT t3 FROM dev WHERE t3 <= -12.5",
                                 "SELECT t1, t2, t3 FROM root.ln.edge1.dev"])
def test_render_roundtrip(sql):
    q = parse(sql)
    assert parse(render(q)) == q


# --- planning ----------------------------------------------------------------

def test_q3_plans_merge_over_two_scans():
    scans = plan(parse(Q3), make_catalog())
    assert [scan.label for scan in scans] == ["t1", "t3"]
    assert all(scan.window is None and scan.predicate is None for scan in scans)
    assert scans[0].series == DEV.child("t1")


def test_q5_plans_single_agg_leaf():
    scan, = plan(parse(Q5), make_catalog())
    assert (scan.fn, scan.label) == ("max_value", "max_value(t3)")
    assert scan.window == (0, 10_000, 300_000)


def test_q1_plans_filter_above_scan():
    scan, = plan(parse(Q1), make_catalog())
    assert scan.window is None
    assert scan.predicate == Predicate("t1", "=", "v999")


def test_plan_deterministic_across_catalog_replicas():
    for sql in (Q1, Q2, Q3, Q4, Q5):
        assert plan(parse(sql), make_catalog()) == plan(parse(sql), make_catalog())


def test_unknown_sensor():
    with pytest.raises(UnknownSeries):
        plan(parse("SELECT t9 FROM dev"), make_catalog())


def test_unknown_device():
    with pytest.raises(UnknownSeries):
        plan(parse("SELECT t1 FROM nowhere"), make_catalog())


def test_predicate_sensor_must_be_selected():
    with pytest.raises(PlanError):
        plan(parse("SELECT t3 FROM dev WHERE t1='v1'"), make_catalog())


def test_predicate_literal_type_checked():
    with pytest.raises(PlanError):
        plan(parse("SELECT t1 FROM dev WHERE t1=5"), make_catalog())
    with pytest.raises(PlanError):
        plan(parse("SELECT t3 FROM dev WHERE t3='x'"), make_catalog())


def test_max_value_requires_numeric_sensor():
    with pytest.raises(PlanError):
        plan(parse("SELECT max_value(t1) FROM dev GROUP BY 5m"), make_catalog())


def test_suffix_resolution_is_unique_or_fails():
    catalog = make_catalog()
    catalog.register_sensor(SeriesPath.parse("root.ln.edge2.dev"), "t1", ValueType.STRING, (0, 9_999))
    with pytest.raises(PlanError):
        plan(parse(Q1), catalog)   # 'dev' now ambiguous
    scan, = plan(parse("SELECT t1 FROM edge1.dev"), catalog)
    assert scan.series == DEV.child("t1")


# --- catalog from a store ------------------------------------------------------------

def test_catalog_from_store_propagates_other_time_bounds_errors(monkeypatch, tmp_path):
    store = SeriesStore(tmp_path)
    store.flush(DEV.child("t1"), [0], ["v1"])

    def broken(series):
        raise RuntimeError("index unreadable")

    monkeypatch.setattr(store, "time_bounds", broken)
    with pytest.raises(RuntimeError, match="index unreadable"):
        Catalog.from_store(store, DEV)
