"""SQL subset parsing and deterministic planning."""

import re

import pytest

from ced.errors import PlanError, SqlSyntaxError, UnknownSeries, UnsupportedFeature
from ced.queryplan import (
    Predicate,
    Query,
    SelectItem,
    parse,
    plan,
)
from ced.tsstore import SeriesPath, SeriesStore

Q1 = "SELECT t1 FROM dev WHERE t1='v999'"
Q2 = "SELECT t3 FROM dev WHERE t3=497.44467"
Q3 = "SELECT t1, t3 FROM dev"
Q4 = "SELECT count(t1) FROM dev GROUP BY 5m"
Q5 = "SELECT max_value(t3) FROM dev GROUP BY 5m"

DEV = SeriesPath.parse("root.ln.edge1.dev")


def make_store(root):
    """``DEV`` with a STRING ``t1``, a BOOL ``t2`` and a FLOAT64 ``t3``, each
    spanning timestamps 0..9,999."""
    store = SeriesStore(root)
    for sensor, values in (("t1", ["v0", "v1"]), ("t2", [True, False]), ("t3", [0.5, 1.5])):
        store.flush(DEV.child(sensor), [0, 9_999], values)
    return store


@pytest.fixture
def store(tmp_path):
    return make_store(tmp_path)


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


@pytest.mark.parametrize("sql,error,message,offset", [
    ("SELECT count(t1) FROM dev GROUP BY 5x", SqlSyntaxError, "unknown duration unit 'x'", 36),
    ("SELECT t1 FROM dev;", SqlSyntaxError, "unexpected character ';'", 18),
    ("SELECT count(t1 FROM dev GROUP BY 5m", SqlSyntaxError, "expected ')'", 16),
    ("SELECT count(t1) FROM dev GROUP BY t1", SqlSyntaxError, "expected window duration", 35),
    ("SELECT t1 FROM dev t3", SqlSyntaxError, "unexpected trailing input 't3'", 19),
    ("SELECT 5 FROM dev", SqlSyntaxError, "expected column", 7),
    ("SELECT count(5) FROM dev GROUP BY 5m", SqlSyntaxError, "expected sensor inside aggregate", 13),
    ("SELECT t1 FROM 5", SqlSyntaxError, "expected source path", 15),
    ("SELECT t1 FROM root.5", SqlSyntaxError, "expected path segment", 20),
    ("SELECT t1 FROM dev WHERE 5 = 1", SqlSyntaxError, "expected sensor in predicate", 25),
    ("SELECT t1 FROM dev WHERE t1 LIKE 'x'", SqlSyntaxError, "expected comparison operator", 28),
    ("SELECT t1 FROM dev WHERE t1 = t3", SqlSyntaxError, "expected literal", 30),
    ("SELECT count(t1) FROM dev GROUP BY 0m", PlanError, "window width must be positive", None),
    ("SELECT count(t1) FROM dev WHERE t1='x' GROUP BY 5m", UnsupportedFeature,
     "predicates with aggregation", None),
    ("SELECT t2 FROM dev WHERE t2='x'", PlanError, "sensor t2 is BOOL", None),
], ids=["duration-unit", "character", "close-paren", "window", "trailing", "column", "aggregate-sensor",
        "source", "segment", "predicate-sensor", "operator", "literal", "zero-window", "aggregate-where",
        "bool-literal"])
def test_each_rejected_statement_names_its_error_and_offset(store, sql, error, message, offset):
    with pytest.raises(error, match=re.escape(message)) as err:
        plan(parse(sql), store, DEV)
    assert getattr(err.value, "offset", None) == offset


def test_a_doubled_quote_is_one_quote_in_a_string_literal():
    assert parse("SELECT t1 FROM dev WHERE t1='it''s'").predicate == Predicate("t1", "=", "it's")


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

def test_q3_plans_merge_over_two_scans(store):
    scans = plan(parse(Q3), store, DEV)
    assert [scan.label for scan in scans] == ["t1", "t3"]
    assert all(scan.window is None and scan.predicate is None for scan in scans)
    assert scans[0].series == DEV.child("t1")


def test_q5_plans_single_agg_leaf(store):
    scan, = plan(parse(Q5), store, DEV)
    assert (scan.fn, scan.label) == ("max_value", "max_value(t3)")
    assert scan.window == (0, 10_000, 300_000)


def test_q1_plans_filter_above_scan(store):
    scan, = plan(parse(Q1), store, DEV)
    assert scan.window is None
    assert scan.predicate == Predicate("t1", "=", "v999")


def test_plan_deterministic_across_catalog_replicas(tmp_path):
    edge, cloud = make_store(tmp_path / "edge"), make_store(tmp_path / "cloud")
    for sql in (Q1, Q2, Q3, Q4, Q5):
        assert plan(parse(sql), edge, DEV) == plan(parse(sql), cloud, DEV)


def test_unknown_sensor(store):
    with pytest.raises(UnknownSeries, match="root.ln.edge1.dev.t9"):
        plan(parse("SELECT t9 FROM dev"), store, DEV)


def test_unknown_device(store):
    with pytest.raises(UnknownSeries, match="no device matches 'nowhere'"):
        plan(parse("SELECT t1 FROM nowhere"), store, DEV)


def test_predicate_sensor_must_be_selected(store):
    with pytest.raises(PlanError):
        plan(parse("SELECT t3 FROM dev WHERE t1='v1'"), store, DEV)


def test_predicate_literal_type_checked(store):
    with pytest.raises(PlanError):
        plan(parse("SELECT t1 FROM dev WHERE t1=5"), store, DEV)
    with pytest.raises(PlanError):
        plan(parse("SELECT t3 FROM dev WHERE t3='x'"), store, DEV)


def test_max_value_requires_numeric_sensor(store):
    with pytest.raises(PlanError):
        plan(parse("SELECT max_value(t1) FROM dev GROUP BY 5m"), store, DEV)


@pytest.mark.parametrize("source", ["dev", "edge1.dev", "ln.edge1.dev", "root.ln.edge1.dev"])
def test_the_device_is_named_by_its_whole_path_or_a_suffix(store, source):
    scan, = plan(parse(f"SELECT t1 FROM {source}"), store, DEV)
    assert scan.series == DEV.child("t1")


@pytest.mark.parametrize("source", ["edge2.dev", "edge1", "root.ln.edge1.dev.t1", "x.root.ln.edge1.dev"])
def test_a_source_that_is_not_a_suffix_of_the_device_is_unknown(store, source):
    with pytest.raises(UnknownSeries, match=f"no device matches '{source}'"):
        plan(parse(f"SELECT t1 FROM {source}"), store, DEV)


def test_plan_propagates_other_time_bounds_errors(monkeypatch, store):
    def broken(series):
        raise RuntimeError("index unreadable")

    monkeypatch.setattr(store, "time_bounds", broken)
    assert plan(parse(Q3), store, DEV)                  # a plain scan reads no bounds
    with pytest.raises(RuntimeError, match="index unreadable"):
        plan(parse(Q4), store, DEV)
