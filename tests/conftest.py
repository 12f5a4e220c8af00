"""Test-session configuration."""

import pytest

from repro._util import ensure_recursion_limit
from tests.helpers import BACKEND_LEGS

# The language front end recurses over deep ASTs; raise the limit once
# up front so hypothesis does not observe a mid-test change.
ensure_recursion_limit()


@pytest.fixture(params=BACKEND_LEGS)
def backend_leg(request):
    """One of :data:`tests.helpers.BACKEND_LEGS`."""
    return request.param
