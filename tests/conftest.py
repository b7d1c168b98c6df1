import pytest
from hypothesis import HealthCheck, settings

from pakit import accounting

settings.register_profile(
    "pakit",
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
    # a failing test shrinks one failure, not each distinct one: a regression
    # that breaks a contract machine is reported in seconds, not minutes
    report_multiple_bugs=False,
)
settings.load_profile("pakit")


@pytest.fixture(autouse=True)
def leak_check():
    """Every test must destroy what it creates: registry totals may not move."""
    before = accounting.totals()
    yield
    assert accounting.totals() == before, "leaked allocations (destroy() missing?)"
