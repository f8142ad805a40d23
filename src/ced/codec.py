"""Field primitives shared by every byte format in ced.

Store files (``tsstore``), link messages (``wire``), cache snapshots
(``coherence``) and the result checksum (``harness.metrics``) are built
from little-endian fixed-width fields (``U8 U16 U32 U64 I64 F64``) and
from text and blobs prefixed by their length.  Writers append to a ``bytearray``.  A :class:`Reader` reads one
buffer field by field and raises the error class its caller names
(``CorruptChunk`` for disk bytes, ``MalformedMessage`` for link bytes) on a
short read, bad UTF-8, an unknown enum byte or leftover bytes.  Per-row
and per-cell loops read ``Reader.buf`` inline and check bounds once per run.
"""

from __future__ import annotations

import struct
from typing import Callable, TypeVar

from .errors import CedError

__all__ = ["U8", "U16", "U32", "U64", "I64", "F64", "write_text", "write_blob", "Reader"]

U8 = struct.Struct("<B")
U16 = struct.Struct("<H")
U32 = struct.Struct("<I")
U64 = struct.Struct("<Q")
I64 = struct.Struct("<q")
F64 = struct.Struct("<d")

T = TypeVar("T")


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
