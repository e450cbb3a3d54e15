"""Exception types shared across the package: one class per way a caller
handles a refusal."""


class SbmdpError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(SbmdpError):
    """Malformed edge-list text, a pair listed twice included; carries the
    offending line number."""

    def __init__(self, message, line=None):
        super().__init__(f"line {line}: {message}" if line is not None else message)
        self.line = line


class InvalidParams(SbmdpError):
    """Arguments that violate their invariants: model or mechanism
    parameters that fail ``validate`` (an empty cluster included), entries
    outside a graph's alphabet, and operands of mismatched sizes."""


class InfeasibleRegime(SbmdpError):
    """No constants tuple satisfies the recovery-threshold conditions.

    The message names the violated inequality.
    """


class DegenerateEstimate(SbmdpError):
    """Degree-split estimator hit a (near-)singular denominator."""
