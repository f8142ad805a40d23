"""Result checksum: a pinned digest, independent of how rows are split into blocks."""

import hashlib
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ced.codec import I64
from ced.harness.metrics import ChecksumBuilder
from ced.scanops import ResultBlock
from ced.tsstore import BLOCK_ROWS, ValueType

ROWS = 2 * BLOCK_ROWS + 500

# sha256 over `ts i64 | cell*` per row, recorded from the row-at-a-time encoder
DIGEST = "11051275fe2a9f4d9e5f785e2e2ccc670778fe7038a9d17e1cad059f3655b368"
MIXED_DIGEST = "17cbfda522becabb69bf276f9a946881266aed20cebe79ed6454353096110a4c"


def fixed_block(lo=0, hi=ROWS) -> ResultBlock:
    """Rows lo..hi of a two-column block: strings with nulls, floats with nulls."""
    rows = range(lo, hi)
    return ResultBlock(
        [i * 1000 for i in rows],
        [
            ("t1", ValueType.STRING, [None if i % 7 == 3 else f"v{i % 1000}" for i in rows]),
            ("t3", ValueType.FLOAT64, [None if i % 5 == 0 else i * 0.37 - 100.0 for i in rows]),
        ],
    )


def digest(blocks) -> tuple[int, str]:
    builder = ChecksumBuilder()
    for block in blocks:
        builder.update(block)
    return builder.rows, builder.hexdigest()


def test_digest_of_one_block_is_pinned():
    assert digest([fixed_block()]) == (ROWS, DIGEST)


@pytest.mark.parametrize("cuts", [
    (1, 1000, 2300),
    (999, 1001, 2499),
    (BLOCK_ROWS,),
])
def test_digest_is_independent_of_block_boundaries(cuts):
    bounds = (0, *cuts, ROWS)
    blocks = [fixed_block(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    assert digest(blocks) == (ROWS, DIGEST)


def test_digest_encodes_each_cell_by_its_python_type():
    # bool is checked before int, and a column's declared type is not consulted
    block = ResultBlock(
        [-5, 0, 7],
        [
            ("a", ValueType.INT64, [True, 2**40, None]),
            ("b", ValueType.INT64, [-1, False, "x"]),
            ("c", ValueType.FLOAT64, [0.5, None, -0.0]),
        ],
    )
    assert digest([block]) == (3, MIXED_DIGEST)


def test_unencodable_value_is_rejected():
    with pytest.raises(TypeError):
        ChecksumBuilder().update(ResultBlock([0], [("a", ValueType.INT64, [object()])]))


# --- the digest against a per-row reference ---------------------------------------------

def _reference_cell(v) -> bytes:
    """The ``cell`` grammar, one value at a time, tagged by the value's exact type."""
    if v is None:
        return b"\x00"
    if type(v) is bool:
        return struct.pack("<BBB", 1, 0, v)
    if type(v) is int:
        return struct.pack("<BBq", 1, 1, v)
    if type(v) is float:
        return struct.pack("<BBd", 1, 2, v)
    if type(v) is str:
        raw = v.encode("utf-8")
        return struct.pack("<BBI", 1, 3, len(raw)) + raw
    raise TypeError(type(v).__name__)


def _reference_digest(timestamps, columns) -> str:
    h = hashlib.sha256()
    for i, ts in enumerate(timestamps):
        h.update(I64.pack(ts))
        for values in columns:
            h.update(_reference_cell(values[i]))
    return h.hexdigest()


_I64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
_PATTERNS = st.one_of(
    st.lists(st.booleans(), min_size=1, max_size=20),
    st.lists(_I64, min_size=1, max_size=20),
    st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=20),
    st.lists(st.text(), min_size=1, max_size=20),
    st.lists(st.sampled_from(["", "ü", "日本", "a" * 300]), min_size=1, max_size=20),
    st.lists(st.sampled_from([float("nan"), -0.0, 0.0, float("-inf")]), min_size=1, max_size=20),
    st.lists(st.sampled_from([True, 1, 0.0, False, -0.0]), min_size=1, max_size=20),   # mixed
    st.lists(st.one_of(st.none(), st.booleans(), _I64, st.floats(), st.text()),
             min_size=1, max_size=20),                                      # None and mixed
)


@settings(max_examples=150, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=2500),
    patterns=st.lists(_PATTERNS, min_size=1, max_size=4),
    start=st.integers(min_value=-(2**62), max_value=2**62),
    step=st.integers(min_value=1, max_value=2**40),
    cuts=st.lists(st.integers(min_value=0, max_value=2500), max_size=3),
)
def test_digest_equals_the_per_row_reference(rows, patterns, start, step, cuts):
    # each column repeats a short drawn pattern over rows that may cross BLOCK_ROWS;
    # the rows reach the ChecksumBuilder in one block or cut into several
    timestamps = [start + i * step for i in range(rows)]
    columns = [[p[i % len(p)] for i in range(rows)] for p in patterns]
    bounds = sorted({0, rows, *(c for c in cuts if c < rows)})
    blocks = [
        ResultBlock(timestamps[lo:hi], [(f"c{j}", ValueType.INT64, values[lo:hi])
                                        for j, values in enumerate(columns)])
        for lo, hi in zip(bounds, bounds[1:])
    ]
    assert digest(blocks) == (rows, _reference_digest(timestamps, columns))


class _Text(str):
    pass


@pytest.mark.parametrize("values,error", [
    ([2**63], struct.error),
    ([1, -(2**63) - 1], struct.error),
    ([2.5, 2**64], struct.error),
    ([_Text("v1")], TypeError),
    (["v1", _Text("v2")], TypeError),
    ([b"v1"], TypeError),
    ([1.5, object()], TypeError),
], ids=["int-high", "int-low", "int-in-mixed", "str-subclass", "str-subclass-mixed",
        "bytes", "object-mixed"])
@pytest.mark.parametrize("repeat", [1, 1500])
def test_unencodable_cells_raise_as_before(values, error, repeat):
    column = values * repeat
    rows = len(column)
    block = ResultBlock(list(range(rows)), [("a", ValueType.FLOAT64, [0.5] * rows),
                                            ("b", ValueType.INT64, column)])
    with pytest.raises(error):
        ChecksumBuilder().update(block)
