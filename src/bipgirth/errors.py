"""Exception types shared across the package."""


class BipgirthError(Exception):
    """Base class for all library-specific errors."""


class SameSideEdge(BipgirthError):
    """An edge was given with both endpoints on the same side."""


class IndexOutOfRange(BipgirthError):
    """A vertex index exceeds the size of its side."""


class NullDigraph(BipgirthError):
    """An operation requiring a non-null digraph got an empty side."""


class EvenDistance(BipgirthError):
    """distance_power requires an odd distance bound."""


class InfeasibleDegree(BipgirthError):
    """Requested degrees cannot be realised at the given sizes."""


class InfeasibleConfig(BipgirthError):
    """A search configuration is internally inconsistent."""


class PreconditionViolated(BipgirthError):
    """An audit was invoked on an instance outside its hypotheses."""


class InfeasibleTriple(BipgirthError):
    """A (p, q, r) triple does not satisfy the feasibility constraints."""


class CaseNotApplicable(BipgirthError):
    """The requested lower-bound case's eligibility condition fails."""


class HypothesisViolated(BipgirthError):
    """A checked hypothesis bullet fails; carries the bullet name."""

    def __init__(self, bullet: str, message: str = ""):
        self.bullet = bullet
        super().__init__(f"hypothesis violated ({bullet}){': ' + message if message else ''}")


class BadEdgeSets(BipgirthError):
    """R or S contains an edge that does not run from B to A."""


class UnknownFact(BipgirthError):
    """No catalogued numeric fact with the given id."""
