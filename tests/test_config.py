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
