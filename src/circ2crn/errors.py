"""Exception types shared across the pipeline."""


class Circ2CrnError(Exception):
    """Base class for all package errors."""


class SingularMatrix(Circ2CrnError):
    """A matrix failed the relative rank test of `numerics.failed_pivot`."""


class ParseError(Circ2CrnError):
    """Malformed netlist or .crn text; carries a 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class ValidationError(Circ2CrnError):
    """Structurally valid input that violates a semantic constraint."""


class NonFiniteState(Circ2CrnError):
    """An integrator state left the finite range; carries the blow-up time."""

    def __init__(self, time: float, message: str = ""):
        super().__init__(message or f"state became non-finite at t={time:g}")
        self.time = time


class DimensionMismatch(Circ2CrnError):
    """A vector fed to an evaluable field has the wrong length."""


class UnknownSpecies(Circ2CrnError):
    """A reaction references a species absent from the species list."""


class UnknownColumn(Circ2CrnError):
    """A trajectory column name is not present."""


class InitConflict(Circ2CrnError):
    """Two CRNs being unioned disagree on a shared species' initial value."""


class NegativeInit(Circ2CrnError):
    """An initial concentration is negative."""


class WindowTooShort(Circ2CrnError):
    """A sinusoid-fit window spans fewer than two full periods."""
