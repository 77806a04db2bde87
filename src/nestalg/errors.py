"""Exception types shared across the package.

Every failure mode that callers are expected to catch gets its own class;
generic ValueError/TypeError are reserved for programming mistakes.
"""


class NestAlgError(Exception):
    """Base class for all package-specific errors."""


class MalformedSpec(NestAlgError):
    """A nest or operator description violates its schema."""


class IndexMismatch(NestAlgError):
    """Two objects built over different index sets were combined."""


class CutNotInNest(NestAlgError):
    """A requested cut value is not a member of the nest."""


class SchemaError(NestAlgError):
    """A JSON config or report does not match the documented shape."""


class UnboundedRule(NestAlgError):
    """A scalar sequence has no finite sup bound where one is required."""


class WindowTooLarge(NestAlgError):
    """A dense rendering was requested beyond the configured size cap."""


class UnknownSupport(NestAlgError):
    """A support bound is inexact where an exact one is required."""


class UndecidableBoundary(NestAlgError):
    """A compression needed for a boundary projection classified Unknown."""


class WitnessBudgetExhausted(NestAlgError):
    """Witness search ran out of candidates within its index budget."""


class BlockTooSmall(NestAlgError):
    """A finite block is too small for the requested decomposition."""


class NotInAlgebra(NestAlgError):
    """Operator fails the block upper-triangularity test for the nest."""
