"""Exception types shared across the package."""


class PqdecError(Exception):
    """Base class for all library errors."""


class NotPrime(PqdecError):
    pass


class Reducible(PqdecError):
    pass


class DegreeMismatch(PqdecError):
    pass


class FieldMismatch(PqdecError):
    pass


class DivisionByZero(PqdecError, ZeroDivisionError):
    pass


class OutOfRange(PqdecError):
    pass


class LengthMismatch(PqdecError):
    pass


class BadShape(PqdecError):
    pass


class BudgetExceeded(PqdecError):
    pass


class BadRegister(PqdecError):
    pass


class ScaleExceeded(PqdecError):
    pass


class OrthogonalityViolated(PqdecError):
    pass


class RetryBudgetExhausted(PqdecError):
    pass


class PromiseViolated(PqdecError):
    """Decoder output failed verification, or a decoder precondition is unmet.

    Raised instead of silently returning a wrong answer.
    """


class NoSigmaSucceeded(PqdecError):
    pass


class PreconditionUnmet(PqdecError):
    pass


class BadParams(PqdecError):
    pass


class GadgetGapError(PqdecError):
    """A gadget distance bound failed; indicates a construction bug."""


class InvariantViolated(AssertionError):
    """An internal correctness check failed: a state norm or marginal total
    drifted past its tolerance, or a solver's answer does not solve its system.

    Indicates a bug, never bad input, so it is an AssertionError (one that
    ``python -O`` keeps) and deliberately not a :class:`PqdecError`: no
    handler for library errors can swallow it.
    """
