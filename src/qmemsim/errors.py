"""Exception types shared across the package."""


class QmemError(Exception):
    """Base class for physics/numerics failures (CLI maps these to exit 1)."""


class DimensionError(QmemError, ValueError):
    """Operator or state dimensions are invalid or inconsistent."""


class ParameterError(QmemError, ValueError):
    """Device or model parameters violate a precondition."""


class IntegrationError(QmemError, RuntimeError):
    """The integrated state broke an invariant (trace drift, etc.)."""


class CalibrationError(QmemError, RuntimeError):
    """Pulse calibration failed to reach an acceptable transfer."""


class FitError(QmemError, RuntimeError):
    """A curve fit failed to converge or the data is degenerate."""


class ConfigError(QmemError, ValueError):
    """A configuration file is malformed or violates an invariant."""
