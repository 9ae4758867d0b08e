"""Exception types shared across the package."""

from __future__ import annotations


class LatnafError(Exception):
    """Base class for all errors raised by this package."""


class PrecisionCapError(LatnafError):
    """A certified comparison stayed undecided at the configured precision cap.

    Raised instead of guessing. Raise the cap (``geometry(base, bits)``,
    the instance file's ``precision_cap`` or the ``NAF_PRECISION_CAP_BITS``
    environment variable) to retry.
    """


class NotExpandingError(LatnafError):
    """The base endomorphism has an eigenvalue of modulus <= 1."""


class MalformedDigitSetError(LatnafError):
    """A digit set violates the residue-system contract it claims."""


class BallSizeError(LatnafError):
    """A certified ball enumeration exceeded the configured point cap."""

    def __init__(self, message: str, cap: int):
        super().__init__(message)
        self.cap = cap


class NormCapError(LatnafError):
    """A weight search escaped its norm cap; carries the escaping state."""

    def __init__(self, message: str, state):
        super().__init__(message)
        self.state = state


class InstanceError(LatnafError):
    """An instance description (CLI JSON or constructor input) is invalid."""


class ConsistencyError(LatnafError):
    """A computed result failed its own re-check (a counterexample cycle,
    a digit, the window property); a defect, never a verdict."""
