"""cgolab: desk-scale spectral laboratory for complex-geometrical-optics
solution construction and Fourier-mode recovery of Schrodinger
potentials on periodic grids.

The package namespace holds what the CLI subcommands call, the objects
those calls return, the error taxonomy, and the grid and its Field
record.  Everything else is imported from its module."""

__version__ = "0.1.0"

from .errors import (
    CgolabError,
    ConfigError,
    DomainError,
    FrameError,
    InfeasibleGeometryError,
    NotContractiveError,
)
from .grid import Field, FrequencyGrid
from .symbol import Zeta, ZetaPair, zeta_pair_from_angle
from .potential import (
    Conductivity,
    make_conductivity,
    make_cutoff,
    potential_q,
    read_gamma_file,
)
from .cgo import BandSelection, IterationReport, select_zeta_sequence, solve_psi
from .estimates import (
    averaged_decay,
    bilinear_ratio,
    localization_ratios,
    mq_operator_ratio,
    schur_bound,
    singbound_quadrature,
)
from .recovery import ModeRecovery, recover_modes
