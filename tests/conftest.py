import pytest
from hypothesis import settings

import pgq.graph

settings.register_profile("suite", deadline=None, derandomize=True)
settings.load_profile("suite")


@pytest.fixture()
def srg_passes(monkeypatch):
    """The graphs given to verify_srg, the O(n^2) pass, in order."""
    calls = []
    verify_srg = pgq.graph.verify_srg
    monkeypatch.setattr("pgq.graph.verify_srg", lambda g: calls.append(g) or verify_srg(g))
    return calls
