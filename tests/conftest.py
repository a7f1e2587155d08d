import pytest
from hypothesis import settings

import pgq.graph

settings.register_profile("suite", deadline=None, derandomize=True)
settings.load_profile("suite")


@pytest.fixture()
def srg_passes(monkeypatch):
    """The graphs given to the O(n^2) pass behind verify_srg, in order."""
    calls = []
    srg_pass = pgq.graph._srg_pass
    monkeypatch.setattr("pgq.graph._srg_pass", lambda g: calls.append(g) or srg_pass(g))
    return calls
