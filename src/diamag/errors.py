"""Exception hierarchy for the diamag package.

Every error raised by the public API derives from DiamagError so callers can
catch one base type. Validation-style failures double as ValueError and
numerical failures as RuntimeError to stay friendly to generic handling.
No error names a pole: the kernel serves the poles sigma = +-1 of its branch
logarithm from the limits of the log terms there.
"""

from __future__ import annotations


class DiamagError(Exception):
    """Base class for all diamag errors."""


class ValidationError(DiamagError, ValueError):
    """An input field is missing, non-finite, or out of its allowed range.

    The message names the offending field.
    """


class DomainError(DiamagError, ValueError):
    """An operation was called outside the parameter domain it serves."""


class ConvergenceError(DiamagError, RuntimeError):
    """A quadrature or a kernel series stopped before it converged.

    Adaptive quadrature raises it when it fails to reach the requested
    tolerance, with ``subdivisions`` the interval splits it made. The kernel's
    series raise it when they reach their term cap, with ``subdivisions`` the
    terms summed, ``value`` the partial sum and ``err`` the size of the last
    term. Carries the best available estimate and its error bound so callers
    can decide whether the partial result is still useful.
    """

    def __init__(self, message: str, value: complex, err: float, subdivisions: int):
        super().__init__(message)
        self.value = value
        self.err = err
        self.subdivisions = subdivisions


class ExtrapolationError(DiamagError, RuntimeError):
    """Richardson extrapolation saw non-monotone convergence across widths."""
