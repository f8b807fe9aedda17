"""Error taxonomy shared across the package.

Each class marks a distinct failure mode a caller may want to catch; the
engine and CLI rely on these rather than on bare ValueError so that expected
mathematical dead ends (mu hits the spectrum, an unbounded family, ...) are
distinguishable from genuine bugs.
"""


class StarCompError(Exception):
    """Base class for all package-specific failures."""


class MuIsEigenvalue(StarCompError):
    """The requested eigenvalue belongs to the star complement's spectrum."""


class BadTag(StarCompError):
    """The declared complete-bipartite tag does not match the supplied graph."""


class TooLarge(StarCompError):
    """Input exceeds a size bound the exact algorithms are willing to handle."""


class Unbounded(StarCompError):
    """The search space is provably infinite and no cap was supplied."""


class DuplicateNeighbourhood(StarCompError):
    """Two prospective star-set vertices share a neighbourhood where forbidden."""


class DivisibilityViolation(StarCompError):
    """An integrality condition required by a construction fails."""


class HypothesisViolated(StarCompError):
    """Arguments break a stated precondition (regularity, range, shape)."""


class MalformedGraph6(StarCompError):
    """A graph6 string does not decode to a simple graph."""


class UnknownName(StarCompError):
    """No catalogue entry under the requested name."""


class InternalInconsistency(StarCompError):
    """Two independent routes to the same quantity disagree, or a result fails
    its certificate: a bug in the package, never a property of the input."""
