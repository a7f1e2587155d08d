"""Exception types shared across the package."""


class PgqError(Exception):
    """Base class for errors raised by this package."""


class FormatError(PgqError):
    """Malformed pgqgraph / pgqinc input."""


class DomainError(PgqError):
    """An operation was invoked outside its documented precondition."""
