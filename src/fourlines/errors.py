"""Exception hierarchy shared by all modules, and how their messages write numbers.

Each class's ``exit_code`` is the code the CLI (``fourlines.cli``) exits
with when the error ends a command or a file of ``solve --batch``.
"""
import math


def number_text(r) -> str:
    """An int or Fraction as "p/q", or "p" when the denominator is 1, as
    outputs and error messages write it.  Python prints integers of at
    most ``sys.get_int_max_str_digits()`` digits; past that the text is
    "<number of N digits>", N for the larger of |p| and q."""
    try:
        return str(r.numerator) if r.denominator == 1 else f"{r.numerator}/{r.denominator}"
    except ValueError:
        big = max(abs(r.numerator), r.denominator)
        k = int((big.bit_length() - 1) * math.log10(2))  # big has k + 1 or k + 2 digits
        return f"<number of {k + 1 + (big >= 10 ** (k + 1))} digits>"


class FourLinesError(Exception):
    """Base class for all library errors."""

    exit_code = 2


class InputError(FourLinesError):
    """Malformed or out-of-domain input."""


class DimensionError(InputError):
    """Matrix or index-set dimensions do not match the operation."""


class DomainError(InputError):
    """A scalar argument violates a domain constraint (e.g. non-positive parameter)."""


class RadicandMismatch(InputError):
    """Arithmetic attempted between quadratic numbers of different field contexts."""


class SingularMatrixError(FourLinesError):
    """Inversion of a matrix whose determinant vanishes."""

    exit_code = 4

    def __init__(self, message="matrix is singular: determinant = 0"):
        super().__init__(message)


class DegenerateConfiguration(FourLinesError):
    """The input configuration is too special for the requested construction."""

    exit_code = 4


class DegenerateLine(DegenerateConfiguration):
    """A claimed line has rank < 2."""


class DegeneratePencil(DegenerateConfiguration):
    """The two incidence equations are proportional; elimination is impossible."""


class NonGenericConfiguration(DegenerateConfiguration):
    """A genericity assumption of the solving chart fails (e.g. both denominators vanish)."""


class HypothesisViolation(FourLinesError):
    """Total-positivity (or convexity) hypothesis fails."""

    exit_code = 3


class NotTotallyPositive(HypothesisViolation):
    """A matrix expected to be totally positive is not."""


class NoRealSolution(HypothesisViolation):
    """Negative discriminant: no real transversal in the chart."""


class NotConvex(HypothesisViolation):
    """A curve fails a necessary convexity condition."""


class SearchFailure(FourLinesError):
    """A deterministic search found nothing: it ran out of steps, or proved
    that no step could succeed."""

    exit_code = 3


class CertificateFailure(FourLinesError):
    """An exact certificate did not check out: the computed result is wrong."""

    exit_code = 5
