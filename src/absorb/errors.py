"""Exception types shared across the package, and the size bounds whose
breach raises SizeBoundError."""
import os


def env_bound(name: str, default: int) -> int:
    """The size bound set by the environment variable ``name``, or
    ``default`` when it is unset or empty.  Any other value but a
    non-negative integer in decimal digits raises SizeBoundError."""
    raw = os.environ.get(name)
    if not raw:
        return default
    if not (raw.isascii() and raw.isdigit()):
        raise SizeBoundError(f"{name}={raw!r} is not a non-negative integer")
    return int(raw)


class AbsorbError(Exception):
    """Base class for all errors raised by this package."""


class InvalidOrderError(AbsorbError, ValueError):
    """Requested a ring or module whose carrier would be degenerate (1 = 0)."""


class CrossStructureError(AbsorbError, TypeError):
    """Mixed elements or substructures of incompatible owners."""


class NotProperError(AbsorbError, ValueError):
    """A predicate was asked about N = M; properness is required."""


class InvalidConstructionError(AbsorbError, ValueError):
    """A constructor was fed data violating its preconditions (bad hom, d not
    dividing n, non-ideal modulus, ...)."""


class DegenerateLocalizationError(AbsorbError, ValueError):
    """Localization collapsed to the zero ring (stable idempotent is 0)."""


class SizeBoundError(AbsorbError, ValueError):
    """A lattice or sweep exceeded its configured size bound."""


class SpecSyntaxError(AbsorbError, ValueError):
    """Structure-DSL text failed to parse; carries line/column info."""

    def __init__(self, message, line=1, column=0):
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column


class ElaborationError(AbsorbError, ValueError):
    """A parsed structure expression does not denote a valid object."""


class UnknownSuiteError(AbsorbError, KeyError):
    """Asked for a verification suite not in the catalog."""
