"""Magnetic susceptibility of a degenerate collisional electron plasma.

The package computes the ratio chi/chi_L of the full susceptibility to the
Landau diamagnetic value as a function of three dimensionless coordinates:
reduced frequency x, reduced collision rate y, reduced wave number q. The
closed-form kernel is cross-validated by independent quadrature oracles and
exposed through a CLI (eval / sweep / figure1 / verify).
"""

from .constants import (
    ELECTRON_MASS,
    ELEMENTARY_CHARGE,
    HBAR,
    SPEED_OF_LIGHT,
)
from .core import (
    ChiResult,
    DimensionlessPoint,
    EvalMethod,
    FermiParameters,
    PhysicalState,
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
    PoleError,
    ValidationError,
)
from .kernel import (
    RegimeTag,
    branch_log_L,
    chi_ratio,
    chi_static_pv,
    eval_integrals,
    regime_select,
)
from .quadrature import integrate_complex_adaptive
from .svg import render_line_chart, write_svg
from .sweep import (
    CSV_HEADER,
    FIGURE1_POINTS_PER_CURVE,
    FIGURE1_Q_RANGE,
    FIGURE1_Y_VALUES,
    OutputRow,
    SweepSpec,
    figure1_rows,
    format_float,
    rows_to_csv,
    run_sweep,
    write_csv,
)
from .verify import CheckResult, render_report, run_verification

__version__ = "0.1.0"

__all__ = [
    "CSV_HEADER",
    "CheckResult",
    "ChiResult",
    "ConvergenceError",
    "DiamagError",
    "DimensionlessPoint",
    "DomainError",
    "ELECTRON_MASS",
    "ELEMENTARY_CHARGE",
    "EvalMethod",
    "ExtrapolationError",
    "FIGURE1_POINTS_PER_CURVE",
    "FIGURE1_Q_RANGE",
    "FIGURE1_Y_VALUES",
    "FermiParameters",
    "HBAR",
    "OutputRow",
    "PhysicalState",
    "PoleError",
    "RegimeTag",
    "SPEED_OF_LIGHT",
    "SweepSpec",
    "ValidationError",
    "branch_log_L",
    "chi_from_kinetic",
    "chi_quant_smallk",
    "chi_ratio",
    "chi_ratio_quadrature",
    "chi_ratio_to_absolute",
    "chi_static_pv",
    "eval_integrals",
    "fermi_parameters_from_density",
    "figure1_rows",
    "format_float",
    "from_dimensionless",
    "integrate_complex_adaptive",
    "j_integrals_nascent_delta",
    "landau_chi_magneton_form",
    "landau_chi_physical",
    "regime_select",
    "render_line_chart",
    "render_report",
    "rows_to_csv",
    "run_sweep",
    "run_verification",
    "to_dimensionless",
    "write_csv",
    "write_svg",
]

# The oracles need mpmath, which costs about as much start-up time as the
# rest of the package; they load on first access to one of these names.
_ORACLE_NAMES = frozenset({
    "chi_from_kinetic",
    "chi_quant_smallk",
    "chi_ratio_quadrature",
    "j_integrals_nascent_delta",
})


def __getattr__(name):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
