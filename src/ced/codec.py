"""Field primitives shared by every byte format in ced.

Store files (``tsstore``), link messages (``wire``), cache snapshots
(``coherence``) and the result checksum (``harness.metrics``) are built
from little-endian fixed-width fields (``U8 U16 U32 U64 I64 F64``) and
from text and blobs prefixed by their length.  Writers append to a ``bytearray``.  A :class:`Reader` reads one
buffer field by field and raises the error class its caller names
(``CorruptChunk`` for disk bytes, ``MalformedMessage`` for link bytes) on a
short read, bad UTF-8, an unknown enum byte or leftover bytes.  Only the
store's page reader (``tsstore._read_rows``) checks bounds once per column.

Rows of fields are packed by :func:`pack_rows`, the one row packer: a store
page's two columns (timestamps, then values or a STRING column's lengths;
one field per row), DATA block cells and checksum rows (``ts | cell*``) are
layouts of it.  A layout gives each column as ``(code, prefix)``:
``prefix`` is a tuple of u8 constants written before the value (a cell's
presence byte and tag), and ``code`` is a ``struct`` code for a fixed-width
value, ``STR`` for a str written as its UTF-8 length u32 followed by the
body, or ``RAW`` for bytes already encoded, written as they are.  The
fixed-width fields of all ``n`` rows are packed in one cached ``Struct``
call; where a row has bodies, the packed bytes are split after each body's
place and the bodies are spliced in, in one join.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from itertools import chain
from typing import Callable, Optional, Sequence, TypeVar

from .errors import CedError

__all__ = [
    "U8", "U16", "U32", "U64", "I64", "F64", "STR", "RAW",
    "write_text", "write_blob", "pack_rows", "rows_struct", "Reader",
]

U8 = struct.Struct("<B")
U16 = struct.Struct("<H")
U32 = struct.Struct("<I")
U64 = struct.Struct("<Q")
I64 = struct.Struct("<q")
F64 = struct.Struct("<d")

T = TypeVar("T")


STR = "STR"     # layout code: utf-8 length u32, then the body
RAW = "RAW"     # layout code: bytes already encoded, spliced in as they are

Layout = tuple[tuple[str, tuple[int, ...]], ...]


@lru_cache(maxsize=128)
def _rows_codec(layout: Layout, n: int) -> tuple[tuple, list, struct.Struct, Optional[struct.Struct]]:
    """How to pack ``n`` rows of ``layout``.

    Returns one row's packing arguments, with ``None`` where each value goes;
    the index of each column's value in them (``None`` for a ``RAW`` column);
    the ``Struct`` over every row's fixed-width fields; and, when a column has
    a body, a ``Struct`` of ``Ns`` pieces that splits the packed bytes where
    each body goes.
    """
    row_args: tuple = ()
    slots: list = []
    codes = ""
    cuts = []               # offsets within a row where a body goes
    for code, prefix in layout:
        row_args += prefix
        codes += "B" * len(prefix)
        if code == RAW:
            slots.append(None)
        else:
            slots.append(len(row_args))
            row_args += (None,)
            codes += "I" if code == STR else code
        if code in (STR, RAW):
            cuts.append(struct.calcsize("<" + codes))
    packer = struct.Struct("<" + codes * n)
    if not cuts:
        return row_args, slots, packer, None
    row_size = struct.calcsize("<" + codes)
    inner = [b - a for a, b in zip(cuts, cuts[1:])]
    pieces = [cuts[0]]
    pieces += (inner + [row_size - cuts[-1] + cuts[0]]) * (n - 1)
    pieces += inner + [row_size - cuts[-1]]
    return row_args, slots, packer, struct.Struct("<" + "".join(f"{p}s" for p in pieces))


def rows_struct(layout: Layout, n: int) -> struct.Struct:
    """The ``Struct`` over the fixed-width fields of ``n`` rows of ``layout``."""
    return _rows_codec(layout, n)[2]


def pack_rows(layout: Layout, columns: Sequence[Sequence]) -> bytes:
    """The rows of ``columns``, one column per layout entry, packed by ``layout``.

    A value out of its code's range raises ``struct.error``.
    """
    n = len(columns[0])
    if not n:
        return b""
    row_args, slots, packer, splitter = _rows_codec(layout, n)
    width = len(row_args)
    flat = list(row_args) * n
    if splitter is None:        # no bodies: the packed fields are the rows
        for slot, values in zip(slots, columns):
            flat[slot::width] = values
        return packer.pack(*flat)
    bodies = []
    for (code, _), slot, values in zip(layout, slots, columns):
        if code == STR:
            raws = list(map(str.encode, values))
            flat[slot::width] = map(len, raws)
            bodies.append(raws)
        elif code == RAW:
            bodies.append(values)
        else:
            flat[slot::width] = values
    pieces = splitter.unpack(packer.pack(*flat))
    parts: list = [None] * (2 * len(pieces) - 1)
    parts[0::2] = pieces
    parts[1::2] = bodies[0] if len(bodies) == 1 else chain.from_iterable(zip(*bodies))
    return b"".join(parts)


def write_blob(out: bytearray, blob: bytes, length: struct.Struct = U32) -> None:
    out += length.pack(len(blob))
    out += blob


def write_text(out: bytearray, text: str, length: struct.Struct = U16) -> None:
    write_blob(out, text.encode("utf-8"), length)


class Reader:
    """Cursor over ``buf`` that reports every grammar violation as ``error``."""

    __slots__ = ("buf", "pos", "error")

    def __init__(self, buf: bytes, error: type[CedError], pos: int = 0):
        self.buf = buf
        self.pos = pos
        self.error = error

    def fail(self, what: str) -> CedError:
        """The caller's error class for ``what``, located at the cursor."""
        return self.error(f"{what} at byte {self.pos}")

    def take(self, n: int) -> bytes:
        pos, end = self.pos, self.pos + n
        if end > len(self.buf):
            raise self.fail(f"{n}-byte field runs {end - len(self.buf)} bytes past the end")
        self.pos = end
        return self.buf[pos:end]

    def unpack(self, fields: struct.Struct) -> tuple:
        return fields.unpack(self.take(fields.size))

    def u8(self) -> int:
        return self.unpack(U8)[0]

    def u32(self) -> int:
        return self.unpack(U32)[0]

    def u64(self) -> int:
        return self.unpack(U64)[0]

    def i64(self) -> int:
        return self.unpack(I64)[0]

    def utf8(self, n: int) -> str:
        raw = self.take(n)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise self.fail(f"bad utf-8 ({exc.reason})") from None

    def text(self, length: struct.Struct = U16) -> str:
        return self.utf8(self.unpack(length)[0])

    def blob(self, length: struct.Struct = U32) -> bytes:
        return self.take(self.unpack(length)[0])

    def enum(self, decode: Callable[[int], T], raw: int, what: str) -> T:
        """``decode(raw)``: an enum class or a code table's ``__getitem__``."""
        try:
            return decode(raw)
        except (ValueError, IndexError):
            raise self.fail(f"unknown {what} {raw}") from None

    def done(self) -> None:
        if self.pos != len(self.buf):
            raise self.fail(f"{len(self.buf) - self.pos} bytes left over")
