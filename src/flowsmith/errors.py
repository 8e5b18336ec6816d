"""Exception types shared across the engine."""


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
