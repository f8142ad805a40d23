"""Result checksum: a pinned digest, independent of how rows are split into blocks."""

import pytest

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
