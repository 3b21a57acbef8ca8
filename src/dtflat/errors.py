"""Exception hierarchy shared across the package.

Every error the library raises derives from DtflatError so the command
line front end can render one consistent diagnostic with an optional
remediation hint.
"""

from __future__ import annotations


class DtflatError(Exception):
    """Base class for all library errors."""

    def __init__(self, message: str, *, hint: str | None = None):
        super().__init__(message)
        self.hint = hint


class InternalInvariantError(DtflatError):
    """A machine-checked invariant failed: an implementation bug, never a
    property of the analyzed system."""


# ---------------------------------------------------------------- kernel

class DivisionByZeroScalar(DtflatError):
    pass


class SubstitutionSingular(DtflatError):
    pass


class EvalSingular(DtflatError):
    pass


class NotLinearInVariable(DtflatError):
    pass


class CoefficientVanishes(DtflatError):
    pass


class ParseError(DtflatError):
    def __init__(self, message: str, line: int | None = None,
                 col: int | None = None, *, hint: str | None = None):
        loc = ""
        if line is not None:
            loc = f"line {line}" + (f", col {col}" if col is not None else "")
        elif col is not None:
            loc = f"col {col}"
        super().__init__(f"{loc}: {message}" if loc else message, hint=hint)
        self.line = line
        self.col = col


class NonRationalExpression(ParseError):
    pass


# -------------------------------------------------------------- geometry

class ChartMismatch(DtflatError):
    pass


class InvalidVariables(DtflatError, ValueError):
    """Variable names that cannot make a chart or a system: repeated,
    reserved, undeclared, or without an equilibrium value."""


# --------------------------------------------------------------- systems

class SubmersivityFailed(DtflatError):
    pass


class EquilibriumMismatch(DtflatError):
    pass


class InversionFailed(DtflatError):
    pass


class HintInvalid(DtflatError):
    pass


class NotProjectable(DtflatError):
    pass


class NotShiftable(DtflatError):
    pass


class UnsupportedShift(DtflatError):
    pass


# -------------------------------------------------------------- flatness

class DualityViolation(DtflatError):
    def __init__(self, message: str, k: int, check: str):
        super().__init__(message)
        self.k = k
        self.check = check


# ------------------------------------------------------------- decompose

class IntegralsNotFound(DtflatError):
    pass


class NormalizationFailed(DtflatError):
    pass
