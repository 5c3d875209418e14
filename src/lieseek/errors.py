"""Exception hierarchy shared across the package."""

from __future__ import annotations


class LieseekError(Exception):
    """Base class for all package errors."""


class ConfigurationError(LieseekError):
    """A type or scenario was constructed with inconsistent settings."""


class EvaluationError(LieseekError):
    """A model function produced a non-finite value.

    Carries the offending input so the caller can locate the problem.
    """

    def __init__(self, message: str, value=None):
        super().__init__(message)
        self.value = value


class CapabilityError(LieseekError):
    """An operation cannot give a usable result for the given objects
    (e.g. a first-order prediction that is not finite)."""


class IntegrationError(LieseekError):
    """A fixed-step integration produced a non-finite stage value."""

    def __init__(self, message: str, t: float | None = None):
        super().__init__(message)
        self.t = t


class DivergenceError(LieseekError):
    """A simulated trajectory escaped the allowed region."""

    def __init__(self, message: str, t_exit: float | None = None):
        super().__init__(message)
        self.t_exit = t_exit


class FilterDivergenceError(LieseekError):
    """The estimation filter state became non-finite."""

    def __init__(self, message: str, t: float | None = None):
        super().__init__(message)
        self.t = t


class InputError(LieseekError):
    """Malformed data passed to an analysis or I/O routine."""


class UnknownPresetError(LieseekError):
    """Unknown preset or registry key; lists the available names."""

    def __init__(self, message: str, available=()):
        super().__init__(message)
        self.available = tuple(available)
