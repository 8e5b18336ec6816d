"""Exception types shared across the engine, and its type tests for settings and documents."""

import math


class EngineError(Exception):
    """Base class for all engine-specific failures."""


class InvalidWorkflow(EngineError):
    """A workflow failed validation where a valid one was required."""


class BadPath(EngineError):
    """A tree path does not resolve to a node."""


class EmptyGoal(EngineError):
    """A goal with an empty descriptor token set."""


class DuplicateGoal(EngineError):
    """Two dataset entries share a goal id."""


class NoEligibleAgent(EngineError):
    """Every candidate agent has zero selection weight."""


class DecompositionFailure(EngineError):
    """A goal could not be resolved or split within budget."""


class MissingOracle(EngineError):
    """Oracle-mode verification was requested without an expected workflow."""


class NotAFailure(EngineError):
    """Diagnosis was requested for a passing verdict."""


class RejectedRepair(EngineError):
    """A repair action produced a workflow that does not validate."""


class ConfigError(EngineError):
    """Bad experiment or command configuration."""


class InfeasibleProfile(ConfigError):
    """A corpus profile that no workflow population can realize."""


# The engine's one type decision for settings values: a bool is neither
# an integer nor a number, although Python counts it as both, and NaN and
# the infinities are not numbers, since no JSON file can hold them.
def is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value) -> bool:
    return is_int(value) or isinstance(value, float) and math.isfinite(value)


def name_list(value, key: str) -> tuple[str, ...]:
    """A document's name list in its order; anything but an array of strings
    (a string would read as its characters) raises ValueError naming ``key``."""
    if not isinstance(value, (list, tuple)) or not all(isinstance(n, str) for n in value):
        raise ValueError(f"{key} must be an array of strings, got {value!r}")
    return tuple(value)


def name_set(value, key: str) -> frozenset[str]:
    """:func:`name_list` as a set."""
    return frozenset(name_list(value, key))
