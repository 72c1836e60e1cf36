"""Exception types shared across the package.

Two families: configuration problems (bad user input: malformed files,
inconsistent shapes, unusable parameter combinations) and numerical
failures (singular matrices, non-convergent iterations, unstable
generators).  The command line maps the former to exit code 2 and the
latter to exit code 3.
"""

__all__ = [
    "ConfigError",
    "DegeneratePanelError",
    "NumericalError",
    "UnstableModelError",
    "SingularFrequencyError",
    "NonConvergenceError",
    "NonPositiveSpectrumError",
]


class ConfigError(ValueError):
    """Invalid configuration or input data."""


class DegeneratePanelError(ConfigError):
    """A panel channel carries no variance, so nothing can be fitted."""


class NumericalError(RuntimeError):
    """A numerical procedure failed or produced an unusable result."""


class UnstableModelError(NumericalError):
    """Autoregressive part has roots on or outside the unit circle."""


class SingularFrequencyError(NumericalError):
    """A per-frequency matrix inversion/solve is ill conditioned."""


class NonConvergenceError(NumericalError):
    """An iterative procedure exhausted its iteration budget."""


class NonPositiveSpectrumError(NumericalError):
    """A spectral matrix has an eigenvalue below the PSD tolerance."""
