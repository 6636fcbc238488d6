"""Magnetic susceptibility of a degenerate collisional electron plasma.

The package computes the ratio chi/chi_L of the full susceptibility to the
Landau diamagnetic value as a function of three dimensionless coordinates:
reduced frequency x, reduced collision rate y, reduced wave number q. The
closed-form kernel is cross-validated by independent quadrature oracles and
exposed through a CLI (eval / sweep / figure1 / verify).
"""

import importlib

from .constants import (
    ELECTRON_MASS,
    ELEMENTARY_CHARGE,
    HBAR,
    SPEED_OF_LIGHT,
)
from .core import (
    ChiResult,
    DimensionlessPoint,
    FermiParameters,
    PhysicalState,
    RegimeTag,
    chi_ratio_to_absolute,
    fermi_parameters_from_density,
    from_dimensionless,
    landau_chi_magneton_form,
    landau_chi_physical,
    to_dimensionless,
)
from .errors import (
    ConvergenceError,
    DiamagError,
    DomainError,
    ExtrapolationError,
    ValidationError,
)
from .kernel import (
    chi_ratio,
    chi_static_pv,
    regime_select,
)

__version__ = "0.1.0"

# Importing the package loads constants, errors, core and kernel: what one
# chi_ratio call needs. Every other public name loads its module on first
# access, so that a cold command pays only for the code it runs. mpmath,
# which costs about as much to import as the rest of the package, loads only
# with the first call of chi_ratio_exact.
_LAZY = {
    name: module
    for module, names in {
        "oracle": (
            "chi_from_kinetic", "chi_ratio_exact", "chi_ratio_quadrature",
            "j_integrals_nascent_delta",
        ),
        "quadrature": ("integrate_complex_adaptive",),
        "svg": ("render_line_chart", "write_svg"),
        "sweep": (
            "CSV_HEADER", "FIGURE1_POINTS_PER_CURVE", "FIGURE1_Q_RANGE", "FIGURE1_Y_VALUES",
            "OutputRow", "SweepSpec", "figure1_rows", "format_float", "rows_to_csv",
            "run_sweep", "write_csv",
        ),
        "verify": ("CheckResult", "render_report", "run_verification"),
    }.items()
    for name in names
}

__all__ = sorted([
    "ChiResult",
    "ConvergenceError",
    "DiamagError",
    "DimensionlessPoint",
    "DomainError",
    "ELECTRON_MASS",
    "ELEMENTARY_CHARGE",
    "ExtrapolationError",
    "FermiParameters",
    "HBAR",
    "PhysicalState",
    "RegimeTag",
    "SPEED_OF_LIGHT",
    "ValidationError",
    "chi_ratio",
    "chi_ratio_to_absolute",
    "chi_static_pv",
    "fermi_parameters_from_density",
    "from_dimensionless",
    "landau_chi_magneton_form",
    "landau_chi_physical",
    "regime_select",
    "to_dimensionless",
    *_LAZY,
])


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
