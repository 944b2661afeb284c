import pytest

from cgolab.config import config_from_dict
from cgolab.errors import ConfigError


def test_unknown_threads_field_rejected():
    with pytest.raises(ConfigError, match="threads"):
        config_from_dict({"threads": 2})
