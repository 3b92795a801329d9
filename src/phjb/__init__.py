"""Desk-scale laboratory for path-dependent Hamilton-Jacobi-Bellman machinery."""

__version__ = "0.1.0"

from .hilbert import SpectralSpace
from .paths import (
    Path,
    TimeGrid,
    extend_flat,
    extend_semigroup,
    sup_norm,
    vertical_bump,
)
from .gauge import eval_upsilon, pair_difference
from .dynamics import (
    Coefficients,
    ControlSignal,
    mild_solve,
    step_once,
    validate_hypothesis,
    verify_state_estimates,
)
from .value import (
    BudgetExceeded,
    ValueTable,
    hamiltonian,
    verify_dpp_consistency,
    verify_value_regularity,
)
from .testfn import GaugePack, TestFunctionPhi
from .scenarios import SCENARIOS, Scenario, TouchingPoint, touching_points
from .checks import (
    classical_check,
    ito_residual,
    stability_experiment,
    upsilon_margin,
    viscosity_check,
)
from .variational import BPResult, bp_search, pair_gauge
