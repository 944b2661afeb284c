import pytest

from cgolab.config import config_from_dict
from cgolab.errors import ConfigError


def test_unknown_threads_field_rejected():
    with pytest.raises(ConfigError, match="threads"):
        config_from_dict({"threads": 2})


@pytest.mark.parametrize(
    "field, values",
    [
        ("tol", [0.0, -1.0, "a"]),
        ("clamp_eps", [-1e-6, "a"]),
        ("max_iter", [0, -3, 2.5]),
    ],
)
def test_solver_field_rejected(field, values):
    for value in values:
        with pytest.raises(ConfigError, match=field):
            config_from_dict({field: value})
    # the boundary values are accepted
    config_from_dict({"tol": 1e-14, "clamp_eps": 0.0, "max_iter": 1})


@pytest.mark.parametrize(
    "field, values",
    [
        ("samples_per_band", [0, "a", 2.0]),
        ("trials", [0, True]),
        ("u_samples", [0, None]),
        ("quad_s", [2, 7, 8.5]),
        ("quad_eta", [7, "8"]),
        ("singbound_m", [4, 6.0]),
        ("bands", [[64, 8], [8, 8], [], [-8, 16], [8, "a"], 8]),
        ("s_values", [[], [0.0, 8.0], ["a"]]),
    ],
)
def test_sweep_field_rejected(field, values):
    for value in values:
        with pytest.raises(ConfigError, match=field):
            config_from_dict({field: value})
    # the boundary values are accepted
    config_from_dict({
        "samples_per_band": 1, "trials": 1, "u_samples": 1, "quad_s": 8, "quad_eta": 8,
        "singbound_m": 5, "bands": [0.5], "s_values": [16.0, 8.0],
    })


def test_singbound_m_bound_follows_grid_dimension():
    config_from_dict({"grid": {"d": 2}, "k_mode": [0, 1], "singbound_m": 4})
    with pytest.raises(ConfigError, match="singbound_m"):
        config_from_dict({"grid": {"d": 5}, "k_mode": [0, 0, 0, 0, 1]})


def test_nan_period_rejected():
    # a NaN passes "L <= 0" and would reach FrequencyGrid as a ValueError
    with pytest.raises(ConfigError, match="grid.L"):
        config_from_dict({"grid": {"L": float("nan")}})


@pytest.mark.parametrize(
    "field, config",
    [
        ("k_mode", {"k_mode": [0, 0, 8]}),
        ("k_mode", {"k_mode": [-9, 0, 0]}),
        ("k_modes", {"k_modes": [[0, 0, 1], [0, 8, 0]]}),
    ],
)
def test_mode_outside_lattice_rejected(field, config):
    # modes m_j must lie in [-n/2, n/2); the grid here has n = 16
    with pytest.raises(ConfigError, match=field):
        config_from_dict({"grid": {"n": 16}, **config})


def test_mode_range_boundary_accepted():
    config_from_dict({"grid": {"n": 16}, "k_mode": [-8, 7, 0], "k_modes": [[7, -8, 1]]})
