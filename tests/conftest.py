"""Fixtures shared by the test modules."""

import pytest


@pytest.fixture
def oracle_passes(monkeypatch) -> list:
    """The working digits of every contour-oracle pass in the test, one entry
    per _path_quad call, in a list that fills as the passes run."""
    from mpmath import mp

    from diamag import oracle

    digits = []
    path_quad = oracle._path_quad

    def counting(*args, **kwargs):
        digits.append(mp.dps)
        return path_quad(*args, **kwargs)

    monkeypatch.setattr(oracle, "_path_quad", counting)
    return digits
