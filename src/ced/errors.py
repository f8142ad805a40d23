"""Shared exception hierarchy for the ced package."""


class CedError(Exception):
    """Base class for all errors raised by this package."""


# --- storage layer ---

class OutOfOrderTimestamp(CedError):
    """Appended timestamp is not strictly greater than the previous one, or is
    above the store's ``MAX_TS``."""


class StorageIoError(CedError):
    """Filesystem read/write failed."""


class UnknownSeries(CedError):
    """Series has never been written to the store."""


class CorruptChunk(CedError):
    """Stored chunk metadata disagrees with the decoded rows."""


# --- query layer ---

class SqlSyntaxError(CedError):
    """Malformed SQL text; carries the byte offset of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnsupportedFeature(CedError):
    """Syntactically valid SQL outside the supported subset."""


class PlanError(CedError):
    """Query violates planner invariants (e.g. mixed aggregates and plain columns)."""


class MisalignedOffset(CedError):
    """A resume index is no boundary of its scan leaf: a timestamp inside a
    chunk, or one that starts no window; exported indexes are boundaries."""


# --- transport / protocol ---

class LinkClosed(CedError):
    """Send attempted on a closed link."""


class MalformedMessage(CedError):
    """Wire bytes break the grammar: unknown tag, field past the end, or leftover bytes."""


class GuardViolation(CedError):
    """Delta state export attempted mid-chunk or mid-window (internal bug)."""


class ScenarioError(CedError):
    """Scenario or workload configuration failed validation."""

