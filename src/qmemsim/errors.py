"""Exception types shared across the package."""


class QmemError(Exception):
    """Base class of the package's errors: the CLI exits 2 on a ConfigError
    or ParameterError (usage errors) and 1 on any other (failures)."""


class DimensionError(QmemError, ValueError):
    """Operator or state dimensions are invalid or inconsistent."""


class ParameterError(QmemError, ValueError):
    """The caller's input violates a precondition: raised before any
    calibration or simulation that input would start."""


class IntegrationError(QmemError, RuntimeError):
    """The integrated state broke an invariant (trace drift, etc.)."""


class CalibrationError(QmemError, RuntimeError):
    """Pulse calibration failed to reach an acceptable transfer."""


class FitError(QmemError, RuntimeError):
    """A curve fit failed to converge or the data is degenerate."""


class ConfigError(QmemError, ValueError):
    """A configuration file is malformed or violates an invariant."""
