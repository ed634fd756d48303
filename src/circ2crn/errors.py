"""Exception types shared across the pipeline, one per exit code of the CLI.

A refused input is a `ParseError` or a `ValidationError` and exits 1, as do
an `OSError` and a `MemoryError`; `SingularMatrix` exits 2 and
`NonFiniteState` exits 3.  A bare `ValueError` is no refusal: it is left for
a caller that hands the library a malformed object (a shape, an offset
table, mismatched models), and the CLI lets it out with its traceback.
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


class ValidationError(Circ2CrnError, ValueError):
    """Input from outside the library that breaks a rule of its own: a
    malformed command line, a refused run parameter or grid, a netlist, a
    network (a species name, an annotation, a rate or initial value, an
    undeclared species, conflicting initial values of a union), a
    non-finite matrix or vector, a vector of the wrong length for a field,
    a missing trajectory column, or a fit window that does not determine a
    fit.  It is also a `ValueError`, so a caller that catches those still
    catches it."""


class NonFiniteState(Circ2CrnError):
    """An integrator state left the finite range; carries the blow-up time."""

    def __init__(self, time: float):
        super().__init__(f"state became non-finite at t={time:g}")
        self.time = time
