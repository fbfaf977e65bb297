"""Exception types, verdict statuses and default limits shared across the
toolkit.

Every error that a caller is expected to catch has its own class; anything
else is a plain ValueError and indicates a usage bug, not a mathematical
finding.

The verdict statuses of the conjecture C checks and the default precision
and enumeration budget live here too, so that the command line can read
them without importing `polytopelab` (and its LP) or `simplicialx`.  Those
modules import them from here and re-export them.  This module imports
nothing.
"""

# statuses of a polytopelab.Verdict
HOLDS = "HOLDS"
FAILS_CANDIDATE = "FAILS_CANDIDATE"
UNDECIDED = "UNDECIDED"
UNSUPPORTED = "UNSUPPORTED"

# bits of midpoint precision for the c1 certificate: first try and cap
DEFAULT_PRECISION = 128
MAX_PRECISION = 1024

# the most cells that a complex builder may build before it refuses the
# weight m: build_sigma counts the faces of the gap complex, which every
# conjB check and generator_cycle read, and the bar complex its cut masks
DEFAULT_BUDGET = 1 << 19


class CuspkError(Exception):
    """Base class for all toolkit-specific errors."""


class IntegralityViolation(CuspkError):
    """An unghost step required a division that was not exact."""


class ComplexInvalid(CuspkError):
    """Boundary maps of a chain complex do not square to zero."""


class NotAChainMap(CuspkError):
    """Per-degree matrices fail to commute with the boundary maps."""


class DimensionMismatch(CuspkError):
    """Matrix or vector shapes are inconsistent."""


class ResourceBound(CuspkError):
    """A builder would build more cells than the configured budget."""


class TheoremViolation(CuspkError):
    """A computation contradicts a proved statement; indicates a bug."""


class PreconditionViolation(CuspkError):
    """Arguments violate a documented precondition."""
