"""Exception types shared across the package."""


class DGLiftError(Exception):
    """Base class for every error raised by this package."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.message = message
        self.line = line  # source line when the object came from a problem file

    def __str__(self):
        if self.line is not None:
            return "line %d: %s" % (self.line, self.message)
        return self.message


class ConstructionError(DGLiftError):
    """A mathematical object failed its construction-time validation."""


class CycleViolation(ConstructionError):
    """A declared differential image is not a cycle (d(dX) != 0)."""


class GradingViolation(ConstructionError):
    """Homological or internal degrees are inconsistent."""


class ForwardReference(ConstructionError):
    """A differential image uses a variable declared later."""


class TriangularityViolation(ConstructionError):
    """A structure matrix entry sits on or below the diagonal."""


class DegreeMismatch(ConstructionError):
    """A structure matrix entry has the wrong bidegree."""


class DifferentialSquareNonzero(ConstructionError):
    """The square of the differential is nonzero; carries the failing pair."""

    def __init__(self, message, pair=None, line=None):
        super().__init__(message, line=line)
        self.pair = pair


class CompositionNonzero(DGLiftError):
    """Two matrices fed to a homology computation do not compose to zero."""


class ParseError(DGLiftError):
    """A problem description could not be parsed; carries the source line."""


class UndeclaredName(ParseError):
    """An expression refers to a name that is not in scope."""
