import numpy as np
import pytest
from hypothesis import settings

from cfjoin import cf_engine

# the same examples on every run, and no timing-based failures
settings.register_profile("cfjoin", derandomize=True, deadline=None)
settings.load_profile("cfjoin")


@pytest.fixture(scope="session")
def levels():
    """Default construction, fixed seed, shared across the suite."""
    return cf_engine.build_levels(cf_engine.CFParams(), seed=42)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
