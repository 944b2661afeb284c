"""Exception taxonomy shared across the package.

The CLI maps these onto distinct exit codes; library code raises them
directly so no failure mode is ever reduced to a bare ValueError.
"""


class CgolabError(Exception):
    """Base class for all package-specific failures."""


class FrameError(CgolabError):
    """Supplied frame vectors are not orthonormal / not orthogonal to k."""


class InfeasibleGeometryError(CgolabError):
    """Geometric preconditions violated (e.g. |k| >= 2s, band too small)."""


class NotContractiveError(CgolabError):
    """Fixed-point iteration diverged; carries the last observed ratio."""

    def __init__(self, ratio, message=None):
        self.ratio = float(ratio)
        super().__init__(message or f"iteration not contractive (ratio {self.ratio:.6g})")


class DomainError(CgolabError):
    """Input field violates a domain hypothesis (positivity, support)."""


class ConfigError(CgolabError):
    """Experiment configuration could not be parsed or validated."""
