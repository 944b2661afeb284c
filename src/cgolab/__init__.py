"""cgolab: desk-scale spectral laboratory for complex-geometrical-optics
solution construction and Fourier-mode recovery of Schrodinger
potentials on periodic grids."""

__version__ = "0.1.0"

from .errors import (
    CgolabError,
    ConfigError,
    DomainError,
    FrameError,
    InfeasibleGeometryError,
    NotContractiveError,
    RepresentationError,
    SingularModeError,
)
from .grid import (
    Field,
    FrequencyGrid,
    constant_field,
    dealias_23,
    exp_ik_field,
    integral,
    l2_norm,
    multiply,
    pairing,
    physical_field,
    spectral_field,
    spectral_gradient,
    laplacian,
    sup_norm,
    to_physical,
    to_spectral,
    transform,
    weighted_l2,
    zeros_field,
)
from .symbol import (
    Zeta,
    ZetaPair,
    adapted_frame,
    char_distance,
    char_distance_lattice,
    make_zeta_pair,
    orthonormal_plane,
    symbol_lattice,
    symbol_p,
    symbol_p_adapted,
    zeta_pair_from_angle,
)
from .spaces import (
    DEFAULT_CLAMP_EPS,
    InversionInfo,
    SymbolWeight,
    apply_delta_zeta,
    clamped_mask,
    clamped_mass_fraction,
    inverse_delta_zeta,
    project,
    smooth_bridge,
    x_norm,
    xdot_norm,
)
from .potential import (
    Conductivity,
    CutoffField,
    conductivity_from_array,
    make_conductivity,
    make_cutoff,
    mollify,
    mq_bilinear,
    mq_bilinear_split,
    potential_q,
    read_gamma_file,
    write_gamma_file,
)
from .cgo import BandSelection, IterationReport, select_zeta_sequence, solve_psi
from .estimates import (
    EstimateReport,
    EstimateSample,
    averaged_decay,
    bilinear_ratio,
    cell_floor,
    draw_colored_field,
    h_theta_norm,
    localization_ratios,
    mq_operator_ratio,
    schur_bound,
    singbound_quadrature,
)
from .recovery import (
    GapRow,
    PairingBreakdown,
    RecoveryDiagnostics,
    alessandrini_terms,
    fourier_mode,
    recover_fourier_mode,
    uniqueness_gap,
)
