"""The package namespace: what the CLI subcommands call, the objects they
return, the error taxonomy, and the grid and its Field record; and the
config surface, the fields of ExperimentConfig.  Any addition or removal
shows here."""

import dataclasses
import types

import cgolab
from cgolab.config import ExperimentConfig

PUBLIC = [
    "BandSelection",
    "CgolabError",
    "Conductivity",
    "ConfigError",
    "DomainError",
    "Field",
    "FrameError",
    "FrequencyGrid",
    "InfeasibleGeometryError",
    "IterationReport",
    "ModeRecovery",
    "NotContractiveError",
    "Zeta",
    "ZetaPair",
    "averaged_decay",
    "bilinear_ratio",
    "localization_ratios",
    "make_conductivity",
    "make_cutoff",
    "mq_operator_ratio",
    "potential_q",
    "read_gamma_file",
    "recover_modes",
    "schur_bound",
    "select_zeta_sequence",
    "singbound_quadrature",
    "solve_psi",
    "zeta_pair_from_angle",
]


def test_public_namespace_is_pinned():
    names = sorted(
        name
        for name, value in vars(cgolab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC


CONFIG_FIELDS = [
    "grid",
    "profiles",
    "k_mode",
    "k_modes",
    "bands",
    "samples_per_band",
    "trials",
    "u_samples",
    "seed",
    "clamp_eps",
    "tol",
    "max_iter",
    "quad_s",
    "quad_eta",
    "singbound_m",
    "s_values",
    "s",
    "angle",
    "out_dir",
    "out_format",
]


def test_config_fields_are_pinned():
    assert [f.name for f in dataclasses.fields(ExperimentConfig)] == CONFIG_FIELDS
