"""Exception types shared across the package."""


class NullformError(Exception):
    """Base class for package errors."""


class ConfigError(NullformError):
    """Invalid scenario/spec configuration; message names the bad field."""


class CFLError(NullformError):
    """Time step violates the CFL stability constraint."""


class QuadratureError(NullformError):
    """Adaptive quadrature failed to converge; `ray` indexes the worst line."""

    def __init__(self, message, ray=None):
        super().__init__(message)
        self.ray = ray


class UnresolvedCarrierError(NullformError):
    """Grid does not resolve the oscillatory carrier (points/wavelength < 16)."""


class BlowUpError(NullformError):
    """Semilinear solve exceeded the blow-up guard."""
