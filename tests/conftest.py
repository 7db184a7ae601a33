from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

from mogref import tensor

settings.register_profile(
    "mogref",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("mogref")

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(autouse=True)
def recording_left_on():
    """Fail a test that leaves graph recording off, and switch it back on.

    One leaked ``no_grad`` would otherwise make every later gradient test
    compare zeros with zeros.
    """
    yield
    if not tensor.is_grad_enabled():
        tensor._RECORDING.enabled = True
        pytest.fail("test left autodiff graph recording switched off (leaked no_grad)")
