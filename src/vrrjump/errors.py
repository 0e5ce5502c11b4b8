"""Exception types shared across the package.

The CLI maps these onto process exit codes (see cli.EXIT_*), so new error
conditions should reuse or subclass one of the classes below.
"""

import dataclasses
import math


class VrrJumpError(Exception):
    """Base class for all package errors."""


class DomainError(VrrJumpError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


def require_finite(obj) -> None:
    """Raise DomainError naming the first numeric field of a dataclass
    instance that is NaN or infinite."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if (isinstance(value, (int, float)) and not isinstance(value, bool)
                and not math.isfinite(value)):
            raise DomainError(f"{f.name}={value} must be finite")


class MechanismRangeError(DomainError):
    """Crank angle left the linkage working range."""


class SimulationRangeError(VrrJumpError):
    """The integrated state left the valid range mid-flight, carrying the
    last valid simulator state. No code in the package raises it; it stays
    defined and exported because perfbench imports it.
    """

    def __init__(self, message: str, last_state=None):
        self.last_state = last_state
        super().__init__(message)


class NoFeasibleDesignError(VrrJumpError):
    """Every candidate in a search grid failed the feasibility guard."""


class ConfigError(VrrJumpError, ValueError):
    """Run configuration could not be parsed or validated."""
