"""SQL subset parser and scan planner.

The grammar covers single-device scans, one optional comparison predicate,
and windowed aggregation:

    SELECT item ("," item)* FROM path [WHERE sensor op literal] [GROUP BY duration]
    item     := sensor | ("count" | "max_value") "(" sensor ")"
    op       := "=" | "<" | ">" | "<=" | ">="
    literal  := integer | float | 'single-quoted string'
    duration := integer unit, unit in {ms, s, m, h}
    path     := identifier ("." identifier)*

A plan is its scans: one :class:`ScanPlan` per select item, in select
order.  Planning is a pure function of (SQL text, the store's metadata for
the device): each item's value type and, for an aggregate, its time bounds.
The cloud re-plans a shipped statement against the edge store's metadata and
gets the same scans, and the channel's source id picks one of them: shipping
only the SQL statement is sufficient for migration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .errors import PlanError, SqlSyntaxError, UnknownSeries, UnsupportedFeature
from .tsstore import SeriesPath, SeriesStore, ValueType

__all__ = [
    "Literal",
    "SelectItem",
    "Predicate",
    "Query",
    "ScanPlan",
    "parse",
    "plan",
]

AGGREGATE_FUNCTIONS = ("count", "max_value")
COMPARISON_OPS = ("=", "<", ">", "<=", ">=")
_UNIT_MS = {"ms": 1, "s": 1000, "m": 60_000, "h": 3_600_000}

Literal = Union[int, float, str]


@dataclass(frozen=True)
class SelectItem:
    sensor: str
    func: Optional[str] = None   # None for a plain column

    def render(self) -> str:
        return f"{self.func}({self.sensor})" if self.func else self.sensor


@dataclass(frozen=True)
class Predicate:
    sensor: str
    op: str
    literal: Literal


@dataclass(frozen=True)
class Query:
    select_items: tuple[SelectItem, ...]
    source: tuple[str, ...]
    predicate: Optional[Predicate] = None
    group_by_ms: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.select_items:
            raise PlanError("empty select list")
        agg = [item for item in self.select_items if item.func]
        if agg and len(agg) != len(self.select_items):
            raise PlanError("aggregate and plain select items cannot be mixed")
        if bool(agg) != (self.group_by_ms is not None):
            raise PlanError("GROUP BY requires aggregate items and vice versa")
        if self.group_by_ms is not None and self.group_by_ms <= 0:
            raise PlanError("window width must be positive")

    @property
    def is_aggregation(self) -> bool:
        return self.group_by_ms is not None


# --- lexer -------------------------------------------------------------------

_PUNCT = ("<=", ">=", "=", "<", ">", "(", ")", ",", ".")


@dataclass(frozen=True)
class _Token:
    kind: str      # ident | int | float | string | duration | punct | eof
    text: str
    value: object
    offset: int


def _lex(sql: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(sql)
    while i < n:
        ch = sql[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "'":
            j = i + 1
            parts = []
            while True:
                if j >= n:
                    raise SqlSyntaxError("unterminated string literal", i)
                if sql[j] == "'":
                    if j + 1 < n and sql[j + 1] == "'":   # escaped quote
                        parts.append("'")
                        j += 2
                        continue
                    break
                parts.append(sql[j])
                j += 1
            tokens.append(_Token("string", sql[i:j + 1], "".join(parts), i))
            i = j + 1
            continue
        if ch.isdigit() or (ch == "-" and i + 1 < n and sql[i + 1].isdigit()):
            j = i + 1
            while j < n and sql[j].isdigit():
                j += 1
            is_float = False
            if j < n and sql[j] == "." and j + 1 < n and sql[j + 1].isdigit():
                is_float = True
                j += 1
                while j < n and sql[j].isdigit():
                    j += 1
            # duration suffix: digits immediately followed by a unit (5m, 300ms)
            k = j
            while k < n and sql[k].isalpha():
                k += 1
            if k > j and not is_float:
                unit = sql[j:k].lower()
                if unit not in _UNIT_MS:
                    raise SqlSyntaxError(f"unknown duration unit {unit!r}", j)
                tokens.append(_Token("duration", sql[i:k], int(sql[i:j]) * _UNIT_MS[unit], i))
                i = k
                continue
            text = sql[i:j]
            tokens.append(_Token("float" if is_float else "int", text,
                                 float(text) if is_float else int(text), i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (sql[j].isalnum() or sql[j] == "_"):
                j += 1
            text = sql[i:j]
            tokens.append(_Token("ident", text, text, i))
            i = j
            continue
        for punct in _PUNCT:
            if sql.startswith(punct, i):
                tokens.append(_Token("punct", punct, punct, i))
                i += len(punct)
                break
        else:
            raise SqlSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("eof", "", None, n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self._tokens = tokens
        self._pos = 0

    def _peek(self) -> _Token:
        return self._tokens[self._pos]

    def _next(self) -> _Token:
        tok = self._tokens[self._pos]
        self._pos += 1
        return tok

    def _expect_keyword(self, word: str) -> None:
        tok = self._next()
        if tok.kind != "ident" or tok.text.lower() != word:
            raise SqlSyntaxError(f"expected {word.upper()}", tok.offset)

    def _expect_punct(self, punct: str) -> None:
        tok = self._next()
        if tok.kind != "punct" or tok.text != punct:
            raise SqlSyntaxError(f"expected {punct!r}", tok.offset)

    def _at_keyword(self, word: str) -> bool:
        tok = self._peek()
        return tok.kind == "ident" and tok.text.lower() == word

    def parse_query(self) -> Query:
        self._expect_keyword("select")
        items = [self._parse_item()]
        while self._peek().kind == "punct" and self._peek().text == ",":
            self._next()
            items.append(self._parse_item())
        self._expect_keyword("from")
        source = self._parse_path()
        predicate = None
        group_by = None
        if self._at_keyword("where"):
            self._next()
            predicate = self._parse_predicate()
        if self._at_keyword("group"):
            self._next()
            self._expect_keyword("by")
            tok = self._next()
            if tok.kind != "duration":
                raise SqlSyntaxError("expected window duration (e.g. 5m)", tok.offset)
            group_by = tok.value
        tok = self._peek()
        if tok.kind != "eof":
            if tok.kind == "ident" and tok.text.lower() in ("join", "order", "limit", "having", "group"):
                raise UnsupportedFeature(f"{tok.text.upper()} is outside the supported subset")
            raise SqlSyntaxError(f"unexpected trailing input {tok.text!r}", tok.offset)
        return Query(tuple(items), source, predicate, group_by)

    def _parse_item(self) -> SelectItem:
        tok = self._next()
        if tok.kind != "ident":
            raise SqlSyntaxError("expected column or aggregate", tok.offset)
        nxt = self._peek()
        if nxt.kind == "punct" and nxt.text == "(":
            func = tok.text.lower()
            if func not in AGGREGATE_FUNCTIONS:
                raise UnsupportedFeature(f"aggregate function {tok.text!r} not supported")
            self._next()
            inner = self._next()
            if inner.kind != "ident":
                raise SqlSyntaxError("expected sensor inside aggregate", inner.offset)
            self._expect_punct(")")
            return SelectItem(inner.text, func)
        return SelectItem(tok.text)

    def _parse_path(self) -> tuple[str, ...]:
        tok = self._next()
        if tok.kind != "ident":
            raise SqlSyntaxError("expected source path", tok.offset)
        segments = [tok.text]
        while self._peek().kind == "punct" and self._peek().text == ".":
            self._next()
            tok = self._next()
            if tok.kind != "ident":
                raise SqlSyntaxError("expected path segment", tok.offset)
            segments.append(tok.text)
        return tuple(segments)

    def _parse_predicate(self) -> Predicate:
        sensor = self._next()
        if sensor.kind != "ident":
            raise SqlSyntaxError("expected sensor in predicate", sensor.offset)
        op = self._next()
        if op.kind != "punct" or op.text not in COMPARISON_OPS:
            raise SqlSyntaxError("expected comparison operator", op.offset)
        lit = self._next()
        if lit.kind not in ("int", "float", "string"):
            raise SqlSyntaxError("expected literal", lit.offset)
        return Predicate(sensor.text, op.text, lit.value)


def parse(sql: str) -> Query:
    """Parse one statement; a pure function of the text."""
    return _Parser(_lex(sql)).parse_query()


# --- plan -----------------------------------------------------------------------

@dataclass(frozen=True)
class ScanPlan:
    """One select item's scan, the unit that migrates between the tiers.

    ``label`` names the item's result column.  A plain column carries the
    WHERE clause as ``predicate`` when it is the predicate's sensor; an
    aggregate carries its function ``fn`` and its ``window``, ``(lo, hi,
    width)`` with ``hi`` exclusive.  A query of several items merges its
    scans on timestamp, each scan's label naming its column.
    """

    series: SeriesPath
    label: str
    predicate: Optional[Predicate] = None
    fn: Optional[str] = None
    window: Optional[tuple[int, int, int]] = None


def plan(query: Query, store: SeriesStore, device: SeriesPath) -> tuple[ScanPlan, ...]:
    """One scan per select item, in select order, of ``device`` in ``store``.

    The FROM path names the device by its whole path or a suffix of it
    (Table II queries say just ``dev``).
    """
    if device.segments[-len(query.source):] != query.source:
        raise UnknownSeries(f"no device matches {'.'.join(query.source)!r}")
    predicate = query.predicate
    if predicate is not None:
        if query.is_aggregation:
            raise UnsupportedFeature("predicates with aggregation are not supported")
        if predicate.sensor not in {item.sensor for item in query.select_items}:
            raise PlanError("predicate sensor must appear in the select list")
    scans = []
    for item in query.select_items:
        series = device.child(item.sensor)
        value_type = store.value_type(series)
        if query.is_aggregation:
            if item.func == "max_value" and value_type not in (ValueType.INT64, ValueType.FLOAT64):
                raise PlanError(f"max_value needs a numeric sensor, {item.sensor} is {value_type.name}")
            lo, hi = store.time_bounds(series)
            window = (lo, hi + 1, query.group_by_ms)   # inclusive -> half-open
            scans.append(ScanPlan(series, item.render(), fn=item.func, window=window))
        elif predicate is not None and predicate.sensor == item.sensor:
            _check_literal_type(predicate, value_type)
            scans.append(ScanPlan(series, item.render(), predicate))
        else:
            scans.append(ScanPlan(series, item.render()))
    return tuple(scans)


def _check_literal_type(predicate: Predicate, vt: ValueType) -> None:
    lit = predicate.literal
    if vt is ValueType.STRING and not isinstance(lit, str):
        raise PlanError(f"sensor {predicate.sensor} is STRING, literal is {type(lit).__name__}")
    if vt in (ValueType.INT64, ValueType.FLOAT64) and isinstance(lit, str):
        raise PlanError(f"sensor {predicate.sensor} is numeric, literal is a string")
    if vt is ValueType.BOOL and not isinstance(lit, (bool, int)):
        raise PlanError(f"sensor {predicate.sensor} is BOOL")
