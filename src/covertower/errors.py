"""Exception hierarchy shared across the package.

Every error raised by covertower derives from CovertowerError, so callers
(and the CLI exit-code mapping) can distinguish our failures from bugs.
"""


class CovertowerError(Exception):
    """Base class for all covertower errors."""


class ValidationError(CovertowerError, ValueError):
    """Malformed input: bad endpoints, bad spec fields, bad arguments."""


class SpecMismatchError(CovertowerError, ValueError):
    """A CoverSpec does not describe the graph it was paired with."""


class DisconnectedGraphError(CovertowerError, ValueError):
    """An operation that requires a connected graph received a disconnected one."""


class SizeCapError(CovertowerError, ValueError):
    """A construction or search would exceed its configured size cap."""


class DegenerateCutError(CovertowerError, ValueError):
    """The graph admits no vertex bipartition (fewer than two vertices)."""


class SpectrumError(CovertowerError, ValueError):
    """Spectral computation rejected its input (cap exceeded, isolated vertex)."""


class ConvergenceError(CovertowerError, RuntimeError):
    """LAPACK's symmetric eigensolver failed to converge (should not happen)."""
