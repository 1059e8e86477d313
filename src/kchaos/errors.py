"""Exception types shared across the package.

``ConfigError`` maps to CLI exit code 1, ``NumericalError`` (and its
subclasses) to exit code 2.  Plain ``ValueError`` is used for ordinary
bad-argument situations and also maps to exit code 1 at the CLI boundary, as
does an ``OSError`` (a missing config file, an output path that is a file).
"""


class ConfigError(ValueError):
    """Invalid configuration file, CLI usage or sweep setup."""


class NumericalError(RuntimeError):
    """A numerical procedure failed or produced unreliable output."""


class DegenerateSpectrumError(NumericalError):
    """Spectrum has (near-)degenerate levels and the caller did not override."""


class OrthogonalityLossError(NumericalError):
    """Krylov basis lost orthogonality beyond tolerance despite reorthogonalization."""
