"""Exception types shared across the package."""


class RuthVBError(Exception):
    """Base class for all package errors."""


class DimensionError(RuthVBError):
    """Matrix or vector shapes do not line up."""


class NotSurjectiveError(RuthVBError):
    """A right inverse was requested for a map that is not onto."""


class NotInvertibleError(RuthVBError):
    """A square map has no inverse."""


class StructureError(RuthVBError):
    """Tables or shapes of an algebraic structure are malformed."""


class CompositionError(RuthVBError):
    """Two things were composed whose boundaries do not match."""


class DegreeError(RuthVBError):
    """A cochain degree exceeds the configured nerve bound."""


class NotInducedError(RuthVBError):
    """A bundle functor or transformation does not come from chain data."""


class ValidationError(RuthVBError):
    """An operation received an instance that fails its validator."""


class UsageError(RuthVBError):
    """The command line was invoked with an unsupported combination."""
