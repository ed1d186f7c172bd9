import pytest

import sumhessian.solver as solver


@pytest.fixture(autouse=True)
def no_kept_set_up():
    """Each test starts with no set-up kept by a solve of an earlier test:
    what a test builds, solves and measures must not depend on the order the
    tests run in."""
    solver._kept = None
