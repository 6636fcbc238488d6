"""Fixtures shared by the test modules."""

import pytest


@pytest.fixture
def oracle_passes(monkeypatch) -> list:
    """The working digits of every contour-oracle pass in the test, one entry
    per _path_quad call, in a list that fills as the passes run. A pass gets
    its precision in bits, whose digits mpmath's prec_to_dps gives back."""
    from mpmath.libmp import prec_to_dps

    from diamag import oracle

    digits = []
    path_quad = oracle._path_quad

    def counting(level_sums, prec):
        digits.append(prec_to_dps(prec))
        return path_quad(level_sums, prec)

    monkeypatch.setattr(oracle, "_path_quad", counting)
    return digits


@pytest.fixture
def exact_digits(monkeypatch) -> list:
    """The working digits of every closed-form evaluation of chi_ratio_exact
    in the test, one entry per _exact_integrals call, in a list that fills as
    they run; its last entry is the digits of the value returned."""
    from mpmath import mp

    from diamag import oracle

    digits = []
    exact_integrals = oracle._exact_integrals

    def counting(*args, **kwargs):
        digits.append(mp.dps)
        return exact_integrals(*args, **kwargs)

    monkeypatch.setattr(oracle, "_exact_integrals", counting)
    return digits
