"""Point vortex dynamics on CP^n and the SU(3) coadjoint orbit geometry behind it."""

from .dynamics import (
    COLLISION_THRESHOLD,
    Trajectory,
    VortexSystem,
    grad_hamiltonian,
    hamiltonian_cpn,
    hamiltonian_vector_field,
    integrate,
    min_pairwise_distance,
    planar_conserved,
    planar_hamiltonian,
    planar_rhs,
)
from .errors import (
    ChartDegenerateError,
    CollisionError,
    ConfigurationError,
    CpvortexError,
    DimensionMismatchError,
    DomainError,
    NumericError,
    OracleError,
    OutsideBigCellError,
    SingularityError,
)
from .geom import (
    AffineChart,
    ProjectivePoint,
    from_chart,
    fubini_study_metric,
    geodesic_distance_cpn,
    hermitian_inner,
    to_chart,
)
from .greens import (
    greens_cpn,
    greens_cpn_derivative,
    greens_ode_oracle,
    greens_plane,
    volume_density_cpn,
)
from .momentum import (
    defining_equation_defect,
    momentum_cp2,
    momentum_cp2_equivariance_check,
    momentum_cpn,
    momentum_flag,
    momentum_flag_pairing,
    weighted_momentum,
)
from .su3flag import (
    FlagCoords,
    bruhat_normalize,
    exp_su3,
    flag_laplacian_coeffs,
    flag_metric,
    flag_metric_inverse,
    flag_symplectic_matrix,
    gell_mann,
    infinitesimal_vf,
    kahler_potential_flag,
)

__version__ = "0.1.0"
