"""Exception hierarchy shared by every edgeglue module."""


class EdgeGlueError(Exception):
    """Base class for all domain errors raised by this package."""


class SizeExceeded(EdgeGlueError):
    """Input exceeds a configured size cap."""


class ParseError(EdgeGlueError):
    """Malformed textual input (graph6, JSON graph form, named graph)."""


class EdgeNotInGraph(EdgeGlueError):
    pass


class VertexNotInGraph(EdgeGlueError):
    pass


class NotATree(EdgeGlueError):
    pass


class InvalidRootedPattern(EdgeGlueError):
    pass


class SignMismatch(EdgeGlueError):
    pass


class OddCycleLength(EdgeGlueError):
    pass


class InvalidAttachIndex(EdgeGlueError):
    pass


class EmptyForbiddenSet(EdgeGlueError):
    pass


class InfeasibleInput(EdgeGlueError):
    pass


class TooFewEdges(EdgeGlueError):
    pass


class PreconditionViolated(EdgeGlueError):
    pass


class EmptyCandidateSet(EdgeGlueError):
    pass


class CorruptStore(EdgeGlueError):
    pass


class InvariantViolation(EdgeGlueError):
    pass
