"""Exception types shared across the package."""


class SolitonFieldError(Exception):
    """Base class for all domain errors raised by this package."""


class SingularDenominatorError(SolitonFieldError):
    """2 Re p, the least pair sum |p_m + conj(p_n)|, fell below tolerance."""


class DegeneratePointError(SolitonFieldError):
    """The resolvent matrix (or its determinant surrogate) is numerically
    unreliable at the requested space-time point."""


class FieldOverflowError(SolitonFieldError):
    """An exponential mode exceeds the double-precision exponent range."""


class ResonanceError(SolitonFieldError):
    """The dispersion-ratio denominator vanished for the given momenta."""


class UnseparatedEnvelopesError(SolitonFieldError):
    """Two-soliton envelopes do not separate at the requested |t|."""


class EmptyReportError(SolitonFieldError):
    """Every grid point was degenerate; no residual statistics available."""


class ConfigError(SolitonFieldError):
    """A run configuration file is malformed or violates an invariant."""


class NonFiniteFieldError(SolitonFieldError):
    """A field value at a non-degenerate grid point is NaN or infinite."""
