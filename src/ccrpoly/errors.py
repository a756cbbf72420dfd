"""Typed errors raised across the package.

Every failure mode that callers are expected to branch on gets its own
class; generic misuse keeps raising ValueError/ZeroDivisionError.
"""


class CCRError(Exception):
    """Base class for all package-specific errors."""


class PrecisionError(CCRError):
    """A series coefficient outside the known window was requested."""


class BasisMatchError(CCRError):
    """A q-expansion could not be written in the requested form basis."""


class NotDivisibleError(CCRError):
    """Exact polynomial division left a nonzero remainder."""


class BuildError(CCRError):
    """A built polynomial violated a structural invariant."""


class VerificationError(CCRError):
    """A symbolic derivation assertion or a cross-check between computed
    values failed; the message names the step."""


class DegenerateDerivative(CCRError):
    """A first derivative needed as a divisor vanished at the point."""


class DegeneratePoint(CCRError):
    """A point value (the eta chart's root f) needed as a divisor vanished."""


class GcdDegreeTwo(CCRError):
    """The two-polynomial gcd had degree 2; the target lives in GF(p^2)."""


class StoreError(CCRError, OSError):
    """A polynomial store file could not be read or written.  It is also
    an OSError, so callers that catch the underlying I/O error see it."""


class SingularCurve(CCRError):
    """Curve parameters with vanishing discriminant."""
