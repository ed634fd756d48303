"""Exception types shared across the pipeline, one per exit code of the CLI.

`ParseError` and `ValidationError` exit 1, as do a `ValueError` (a refused
run parameter or grid), an `OSError` and a `MemoryError`; `SingularMatrix`
exits 2 and `NonFiniteState` exits 3.
"""


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
    """Well-formed input that breaks a rule of its own: a netlist, a network
    (an undeclared species, a negative initial value, conflicting initial
    values of a union), a vector of the wrong length for a field, a missing
    trajectory column, or a fit window that does not determine a fit."""


class NonFiniteState(Circ2CrnError):
    """An integrator state left the finite range; carries the blow-up time."""

    def __init__(self, time: float):
        super().__init__(f"state became non-finite at t={time:g}")
        self.time = time
