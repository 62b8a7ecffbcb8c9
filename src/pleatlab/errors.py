"""Exception taxonomy.

Every precondition violation raises a subclass of :class:`PleatlabError`
so callers can catch the library's failures with one handler while still
distinguishing the cause.
"""


class PleatlabError(ValueError):
    """Base class for all domain errors raised by pleatlab."""


class IdentityInput(PleatlabError):
    """The map is (plus or minus) the identity where that is not allowed."""


class ParabolicOrIdentity(PleatlabError):
    """Complex length is undefined for parabolic or identity maps."""


class ZeroMultiplier(PleatlabError):
    """A multiplier/eigenvalue that must be nonzero vanished."""


class CoincidentPoints(PleatlabError):
    """Distinct points were required but two coincide."""


class NumericalOverflow(PleatlabError):
    """An intermediate value left the range of double precision."""


class ReducibleLocus(PleatlabError):
    """Trace coordinates sit on the reducible locus (commutator trace 2)."""


class NonRealTraces(PleatlabError):
    """A pants group that must have real boundary traces does not."""


class NotFuchsian(PleatlabError):
    """The structure is not on the Fuchsian locus where that is required."""


class NotPiecewiseGeodesic(PleatlabError):
    """Certification did not establish a piecewise-geodesic boundary."""


class NonCommutingMeridian(PleatlabError):
    """A meridian fails to commute with its longitude."""


class NoConsistentLift(PleatlabError):
    """The doubled generators fail the presentation relations in SL(2,C)."""


class CoordinateDegeneracy(PleatlabError):
    """A trace coordinate sits too close to plus/minus 2 to differentiate."""


class NewtonDivergence(PleatlabError):
    """The Newton solver failed to converge."""


class TargetOutsideImage(PleatlabError):
    """The requested target is outside the reachable parameter region."""


class UncertifiedPathPoint(PleatlabError):
    """A path leaves the region where structures are convex."""
