"""Vibronic models of laser-coupled atom arrays.

Library layout:

- :mod:`vibronic.params` - physical parameters, potentials, coupling constants
- :mod:`vibronic.graphs` - degenerate-configuration graphs and their topology
- :mod:`vibronic.assembly` - per-configuration quadratic forms, mode reduction, the model
- :mod:`vibronic.fock` - truncated Fock-space assembly and ground-state solvers
- :mod:`vibronic.analytic` - closed-form energies, squeezing, phase-space widths
- :mod:`vibronic.bopes` - clamped-coordinate surfaces, minima, transition scans
- :mod:`vibronic.cli` - command-line scans with CSV/JSON artifacts
"""

from .analytic import (
    BogoliubovSolution,
    bogoliubov_w,
    critical_points,
    epsilon2,
    epsilon4,
    pair_epsilon,
    perpendicular_xi_eff,
    quantum_correction,
    wigner,
    wigner_widths,
    zero_point_correction,
)
from .assembly import (
    ExpansionCoefficients,
    Model,
    ModeBasis,
    QuadraticVibronic,
    assemble_graph_hamiltonians,
    assemble_state_hamiltonian,
    build_molecular_model,
    dumbbell_hamiltonian,
    edge_mode_directions,
    expansion_coeffs,
    identity_basis,
    reduce_modes,
)
from .bopes import (
    MinimaReport,
    QuadraticFit,
    TransitionScanResult,
    bo_energy,
    bo_quadratic_check,
    default_start_points,
    light_start_points,
    minimize_bo,
    transition_scan,
)
from .errors import (
    ConfigError,
    CriticalBoundaryError,
    DomainError,
    EigensolverError,
    InstabilityError,
    ResourceBudgetError,
    UnsupportedVariantError,
    VibronicError,
)
from .fock import (
    FockOperator,
    SolveReport,
    build_fock_matrix,
    converge_cutoff,
    converge_scan,
    ground_state,
    mean_displacements,
    quadrature_moments,
)
from .graphs import (
    Geometry,
    ResonantGraph,
    build_resonant_manifold,
    config_from_string,
    config_to_string,
    diagonal_energy,
    dumbbell,
    export_edge_list,
    export_node_table,
    graph_classify,
    tetrahedron,
    triangle,
)
from .params import (
    ExplicitCouplings,
    PhysicalParams,
    PowerLaw,
    PowerLawSum,
    derive_couplings,
    potential_eval,
)

__version__ = "0.1.0"
