"""Exception types shared across the package."""


class StoreError(Exception):
    """Base class for all gfstore errors."""


class ChannelMismatch(StoreError):
    """Operands disagree on the number of channels."""


class DictionaryMismatch(StoreError):
    """Histograms have different bin edges."""


class BudgetTooSmall(StoreError):
    """Storage budget cannot give every active level a slot."""


class FutureRange(StoreError):
    """Query interval extends past the newest ingested sample."""


class EmptySeries(StoreError):
    """An empty block has no scale-wise variance."""


class EmptySample(StoreError):
    """A distribution model needs at least one observation."""


class TooFewSamples(StoreError):
    """Not enough samples for the requested curation operation."""


class CannotSatisfyBudget(StoreError):
    """No sequence of merges/drops can fit the record into the budget."""


class BadMagic(StoreError):
    """Byte stream does not start with the container magic."""


class VersionUnsupported(StoreError):
    """Container format version is not readable by this build."""


class ChecksumMismatch(StoreError):
    """Data section does not match the checksum recorded in the manifest."""


class CorruptContainer(StoreError):
    """Container bytes are truncated or malformed."""


class InvariantViolation(StoreError):
    """A loaded record fails its structural invariants."""
