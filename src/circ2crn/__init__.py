"""circ2crn: compile linear electric circuits into mass-action CRNs.

Pipeline: netlist -> MNA pencil E dx/dt = A x + B u -> backward-Euler ODE
approximation -> dual-rail positivation with annihilation dampening ->
chemical reaction network, plus a backward-Euler DAE oracle and analytics
for certifying the translation numerically.
"""

from .circuit import Netlist, build_dae, parse_netlist, serialize_netlist
from .crn import Crn, Reaction, emit_crn, mass_action_field, parse_crn, serialize_crn, union
from .dae import (
    AffineOde,
    DaeSystem,
    InputModel,
    Trajectory,
    consistent_project,
    fourier_input,
    reference_solve,
)
from .errors import (
    Circ2CrnError,
    DimensionMismatch,
    InitConflict,
    NegativeInit,
    NonFiniteState,
    ParseError,
    SingularMatrix,
    UnknownColumn,
    UnknownSpecies,
    ValidationError,
    WindowTooShort,
)
from .numerics import invert
from .pipeline import RunConfig, compile_circuit, convergence_study, frequency_response
from .positivation import RailSystem, hungarize, positivate, rail_field, split_initial
from .sim import FitResult, fit_sinusoid, integrate, recover_difference, sup_error

__version__ = "0.1.0"
