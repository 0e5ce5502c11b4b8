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
    """The integrated state left the valid range mid-flight. No code in the
    package raises it; it stays defined and exported because perfbench
    imports it.
    """


class NoFeasibleDesignError(VrrJumpError):
    """Every candidate in a search grid failed the feasibility guard."""


class ConfigError(VrrJumpError, ValueError):
    """Run configuration could not be parsed or validated."""


def naming(key: str, fn, /, *args, **kwargs):
    """fn(*args, **kwargs), its DomainError raised as a ConfigError that
    names key: the flag or config key the bad value came from."""
    try:
        return fn(*args, **kwargs)
    except DomainError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def echo(value, limit: int = 200) -> str:
    """value as an error message quotes it: its repr, in which strings
    escape control characters and lone surrogates, cut at about limit
    characters. A cut list keeps its first items and says how many it cut;
    any other cut repr says how many characters it cut."""
    if not isinstance(value, list):
        text, limit = repr(value), max(limit, 0)
        if len(text) <= limit:
            return text
        return f"{text[:limit]}... ({len(text) - limit} more characters)"
    parts, used = [], 1
    for item in value:
        if used >= limit:
            break
        parts.append(echo(item, limit - used))
        used += len(parts[-1]) + 2
    cut = len(value) - len(parts)
    if cut:
        parts.append(f"... {cut} more item{'s' * (cut != 1)}")
    return "[" + ", ".join(parts) + "]"
