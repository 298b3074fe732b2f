"""Finite-basis toolkit for thermal one-body reduced density matrices.

Builds N-particle configuration spaces for bosons and fermions, lifts
one- and two-body operators, computes Gibbs states and their 1RDMs,
evaluates the universal 1RDM functional through its concave dual, and
constructs explicit density operators for any admissible 1RDM.
"""

from .ensemble import (
    EnsembleParams,
    DensityOperator,
    GibbsSolution,
    NaturalSpectrum,
    OneRdm,
    RdmClass,
    classify_rdm,
    entropy,
    gibbs_state,
    helmholtz,
    natural_spectrum,
    one_rdm,
)
from .errors import (
    BasisMismatch,
    ConfigError,
    ConvergenceFailure,
    DecompositionFailure,
    DimensionMismatch,
    InfeasibleOccupations,
    InvalidArguments,
    InvalidDensityOperator,
    NonHermitianInput,
    NotRepresentableError,
    RdmftError,
    SymmetryViolation,
)
from .fock import (
    ConfigurationBasis,
    ManyBodyOperator,
    OneBodyOperator,
    Statistics,
    TwoBodyOperator,
    build_basis,
    lift_one_body,
    lift_two_body,
)
from .functional import (
    InversionOptions,
    InversionReport,
    InversionVerdict,
    PotentialBasis,
    System,
    TracelessPotential,
    invert_potential,
    invert_potentials,
    omega_of_v,
    potential_basis,
    response_jacobian,
    universal_functional,
)
from .models import ModelSpec, build_operators, build_system
from .representability import (
    PolytopeDecomposition,
    coleman_bosonic,
    coleman_fermionic,
    polytope_decompose,
    random_rdm,
    simplex_decompose,
)
from .verify import (
    ALL_CHECKS,
    CheckConfig,
    SuiteConfig,
    TheoremReport,
    run_suite,
    suite_failures,
)

__version__ = "0.1.0"
