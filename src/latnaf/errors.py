"""Exception types shared across the package.

Two resource caps have a class of their own: BallSizeError (ball points,
residue classes, the weight oracle's states) and PrecisionCapError
(precision bits). The weight oracle evaluates no norm and has no norm
cap."""

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
    """A search exceeded its configured size cap: a certified ball
    enumeration more than cap points (found up front where a box inside
    the ball already holds more), or the weight oracle's search more than
    cap states."""

    def __init__(self, message: str, cap: int):
        super().__init__(message)
        self.cap = cap


class InstanceError(LatnafError):
    """An instance description (CLI JSON or constructor input) is invalid."""


class ConsistencyError(LatnafError):
    """A computed result failed its own re-check (a counterexample cycle,
    a digit, the window property); a defect, never a verdict."""
