"""Finite-difference experiments for semilinear elliptic problems on
epigraphs, strips and related unbounded domains: qualitative solver checks
(monotonicity sweeps, comparison and uniqueness probes, symmetry transfer,
gradient and oscillation estimates) plus a config-driven CLI."""

__version__ = "0.1.0"

from .errors import (
    LabError,
    ValidationError,
    NumericalError,
    ConvergenceError,
    JacobianSingularError,
)
from .geometry import (
    EPIGRAPH_KINDS,
    OPEN_SET_KINDS,
    EpigraphSpec,
    GeneralOpenSet,
    SectionMeasure,
    make_epigraph,
    eval_g,
    reflect,
    cap_membership,
    strip_set,
    winged_strip_set,
    under_parabola_set,
    orthant_set,
    revolution_set,
    section_measure,
)
from .nonlinearity import (
    NONLINEARITY_KINDS,
    UNBOUNDED,
    Nonlinearity,
    make_nonlinearity,
    eval_f,
    eval_f_prime,
    lipschitz_on,
    epsilon_bounded,
    epsilon_growth,
    gamma_max,
    growth_lower_bound,
)
from .closed_forms import (
    saturating_front,
    double_front_profile,
    tanh_front,
    interval_torsion,
    strip_torsion,
    ball_torsion,
    cosh_mode,
)
from .discretization import (
    ARM_INTERNAL,
    ARM_CUT,
    ARM_LATTICE,
    ARM_MIRROR,
    DomainGrid,
    SparseOperator,
    build_grid,
    assemble_laplacian,
    boundary_rhs,
    as_trace,
    stencil_residual,
)
from .solver import (
    SolutionField,
    EigenPair,
    SolvePolicy,
    solve_linear,
    solve_semilinear,
    principal_eigenpair,
)
from .moving_plane import (
    MovingPlaneReport,
    HopfReport,
    reflect_field,
    vertical_derivative,
    cap_sweep,
    hopf_slope_check,
)
from .comparison import (
    ComparisonReport,
    comparison_test,
    ordered_pair,
    threshold_scan,
    uniqueness_test,
    symmetry_test,
    growth_counterexample,
)
from .estimates import (
    BRANDT_SCHEME_CONSTANT,
    BrandtReport,
    OscillationFit,
    brandt_check,
    oscillation_fit,
)
from .reporting import (
    SCHEMA_VERSION,
    write_csv,
    write_json,
    read_json,
    config_hash,
    svg_line_plot,
    format_float,
)
