"""Exception types shared across the package."""


class SbmdpError(Exception):
    """Base class for all errors raised by this package."""


class AlphabetViolation(SbmdpError):
    """Entry value not in the graph's declared alphabet."""


class ShapeMismatch(SbmdpError):
    """Operands have incompatible sizes or alphabets."""


class ParseError(SbmdpError):
    """Malformed edge-list text; carries the offending line number."""

    def __init__(self, message, line=None):
        super().__init__(f"line {line}: {message}" if line is not None else message)
        self.line = line


class DuplicateEdge(ParseError):
    """The same vertex pair appears twice in an edge list."""


class InvalidParams(SbmdpError):
    """Model or mechanism parameters violate their invariants."""


class InfeasibleProblem(SbmdpError):
    """SDP constraint set is inconsistent."""


class InfeasibleRegime(SbmdpError):
    """No constants tuple satisfies the recovery-threshold conditions.

    The message names the violated inequality.
    """


class DegenerateEstimate(SbmdpError):
    """Degree-split estimator hit a (near-)singular denominator."""
