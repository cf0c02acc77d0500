"""Quasi-static thermodynamic processes and engine cycles for exactly
solvable quantum working substances, in natural units hbar = m = k = 1.

The generalized force F = -sum_n P_n dE_n/dL over one control coordinate L
drives four process kinds (isothermal, isochoric, isobaric, adiabatic) and
the cycles composed from them (Carnot, Otto, Brayton, Diesel), with every
closed form cross-checked against brute-force canonical sums
(qcycle.reference).

The names imported here are the public surface: the models, the state
functions, the cycle builders and run_cycle, the run config, the errors and
the check suite.  Every other name is imported from its own module.
"""

from .checks import CheckResult, run_checks
from .config import RunConfig, parse_config
from .cycles import (
    CycleReport,
    CycleSpec,
    build_brayton,
    build_carnot,
    build_diesel,
    build_otto,
    run_cycle,
)
from .errors import ConfigError, ConvergenceError, DomainError, QcycleError
from .numerics import NumericsPolicy
from .substances import (
    SpectrumModel,
    box,
    cavity_mode,
    entropy,
    force,
    gibbs_state,
    harmonic,
    internal_energy,
    spin_half,
)

__version__ = "0.1.0"
