"""Domain types, unit conversions, and the Landau diamagnetic constant.

The calculator works in the dimensionless variables of a degenerate electron
gas: frequency x = omega/(k_F v_F), collision rate y = nu/(k_F v_F), and wave
number q = k/k_F, with the complex combination z = x + iy and the pole
parameter s = z/q. This module owns those types, the mapping to and from
laboratory CGS parameters, and the Landau susceptibility

    chi_L = -e^2 v_F / (12 pi^2 hbar c^2)

which normalizes every ratio the kernel produces. Complex quantities are plain
Python ``complex``; finiteness is enforced at the type boundaries so no NaN or
infinity escapes a public operation: a conversion that would leave the double
range raises DomainError instead.
"""

from __future__ import annotations

import cmath
import enum
import math

from .constants import ELECTRON_MASS, ELEMENTARY_CHARGE, HBAR, SPEED_OF_LIGHT
from .errors import DomainError, ValidationError

__all__ = [
    "DimensionlessPoint",
    "PhysicalState",
    "FermiParameters",
    "ChiResult",
    "RegimeTag",
    "to_dimensionless",
    "from_dimensionless",
    "fermi_parameters_from_density",
    "landau_chi_physical",
    "landau_chi_magneton_form",
    "chi_ratio_to_absolute",
]


def _require_finite(name: str, value: float) -> float:
    if not math.isfinite(value):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return float(value)


def require_finite_complex(name: str, value: complex) -> complex:
    """Reject NaN/infinity in either component of a complex result."""
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return value


class FrozenRecord:
    """Base of the package's immutable value types.

    A subclass names its fields, in order, in ``_fields``. This ``__init__``
    takes one value per field, by position or by name. A subclass that checks
    its values has its own ``__init__``, which passes them on to this one in
    field order, or, in the two records every kernel point builds, hands them
    to ``_set_fields`` itself. Either way an instance gets all its fields at
    once, as one dict in field order. Assigning or deleting an attribute
    raises AttributeError. Equality, hashing and repr follow the fields, as
    ``Name(field=value, ...)``.
    """

    _fields: tuple[str, ...] = ()

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if len(args) + len(kwargs) == len(fields):
            values = dict(zip(fields, args))
            try:
                for name in fields[len(args):]:
                    values[name] = kwargs[name]
            except KeyError:
                pass
            else:
                _set_fields(self, values)
                return
        raise TypeError(f"{type(self).__name__} takes exactly the fields {fields}")

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(self.__dict__.values())

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.__dict__ == other.__dict__

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{type(self).__qualname__}({fields})"


# sets an instance's field dict past FrozenRecord.__setattr__ in one call, not
# one object.__setattr__ per field. CPython 3.11 reads fields from a dict built
# whole about as fast as from inline stores; filling self.__dict__ item by item
# would leave a split dict, which its attribute cache cannot read (reads 3x slower)
_set_fields = FrozenRecord.__dict__["__dict__"].__set__


class RegimeTag(enum.Enum):
    """The strategy that produced a ChiResult: one of the kernel's four
    regimes, one tag per point, or QUADRATURE, which every oracle result
    carries, the exact closed-form reference's (chi_ratio_exact) included.
    PV_STATIC is the static point x = y = 0: the Taylor series about s = 0
    below the seam q = 1.4, the closed form from it up."""

    PV_STATIC = "pv-static"
    CLOSED_FORM = "closed-form"
    TAYLOR_SERIES = "taylor-series"
    LAURENT_SERIES = "laurent-series"
    QUADRATURE = "quadrature"


class DimensionlessPoint(FrozenRecord):
    """One evaluation point (x, y, q) in dimensionless plasma variables.

    x : frequency over k_F v_F, >= 0
    y : collision rate over k_F v_F, >= 0
    q : wave number over k_F, > 0

    Negative x is rejected; those values are reachable through the conjugation
    symmetry chi(-x) = conj(chi(x)) instead of direct evaluation. y = 0 is the
    collisionless line, which the kernel serves as the limit y -> 0+; -0.0 is
    stored as 0.0.
    """

    _fields = ("x", "y", "q")

    def __init__(self, x: float, y: float, q: float) -> None:
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(q)):
            _require_finite("x", x)
            _require_finite("y", y)
            _require_finite("q", q)
        # + 0.0 turns -0.0 into +0.0, so y = -0.0 gets the limit y -> 0+
        x, y, q = float(x) + 0.0, float(y) + 0.0, float(q)
        if x < 0.0:
            raise ValidationError(
                "x must be >= 0; negative frequencies are served by the "
                "conjugation symmetry chi(-x) = conj(chi(x))"
            )
        if y < 0.0:
            raise ValidationError("y must be >= 0")
        if q <= 0.0:
            raise ValidationError("q must be > 0")
        _set_fields(self, {"x": x, "y": y, "q": q})

    @property
    def z(self) -> complex:
        """Complex frequency z = x + iy."""
        return complex(self.x, self.y)

    @property
    def s(self) -> complex:
        """Pole location s = z/q of the angular integrands."""
        return complex(self.x, self.y) / self.q


class PhysicalState(FrozenRecord):
    """Laboratory-frame CGS parameters of one evaluation.

    v_F   Fermi velocity [cm/s], > 0
    nu    collision frequency [1/s], >= 0
    omega angular frequency [rad/s], >= 0
    k     wave number [1/cm], > 0
    """

    _fields = ("v_F", "nu", "omega", "k")

    def __init__(self, v_F: float, nu: float, omega: float, k: float) -> None:
        v_F = _require_finite("v_F", v_F)
        nu = _require_finite("nu", nu)
        omega = _require_finite("omega", omega)
        k = _require_finite("k", k)
        if v_F <= 0:
            raise ValidationError("v_F must be > 0")
        if nu < 0:
            raise ValidationError("nu must be >= 0")
        if omega < 0:
            raise ValidationError("omega must be >= 0")
        if k <= 0:
            raise ValidationError("k must be > 0")
        FrozenRecord.__init__(self, v_F, nu, omega, k)

    @property
    def k_F(self) -> float:
        """Fermi wave number k_F = m v_F / hbar [1/cm]."""
        return ELECTRON_MASS * self.v_F / HBAR


class FermiParameters(FrozenRecord):
    """Derived degenerate-gas scales for a given electron density."""

    _fields = ("v_F", "k_F", "p_F", "E_F")


class ChiResult(FrozenRecord):
    """Susceptibility ratio chi/chi_L split into its two physical origins.

    classic : the classical (orbit-drift) contribution, zero at x = 0
    quant   : the quantum contribution that survives the static limit
    total   : classic + quant, exactly, by construction
    method  : the RegimeTag of the strategy that ran
    err_est : strategy error bound; a truncation bound for series (the
              static point's Taylor series below q = 1.4 included), and for
              the closed form (the static point's from q = 1.4 up too) the
              bounds of the pieces it summed as series, 0 if none; for the
              oracles, tagged QUADRATURE, the quadrature estimate, or for
              chi_ratio_exact the difference of its last two evaluations. The
              two high-precision oracles, chi_ratio_quadrature and
              chi_ratio_exact, add half an ulp per rounding to double to it.
              An oracle's err_est bounds the modulus of the error in total,
              so a part far below |total| may be all rounding.
    """

    _fields = ("classic", "quant", "total", "method", "err_est")

    def __init__(
        self, classic: complex, quant: complex, total: complex, method: RegimeTag,
        err_est: float,
    ) -> None:
        # one test passes a valid result: a NaN or infinite part makes the sum
        # so, and then the per-field checks name it
        if not (cmath.isfinite(classic + quant + total) and 0.0 <= err_est < math.inf):
            require_finite_complex("classic", classic)
            require_finite_complex("quant", quant)
            require_finite_complex("total", total)
            if not 0.0 <= err_est < math.inf:
                raise ValidationError("err_est must be finite and >= 0")
        _set_fields(self, {"classic": classic, "quant": quant, "total": total,
                           "method": method, "err_est": err_est})

    @classmethod
    def from_parts(
        cls, classic: complex, quant: complex, method: RegimeTag, err_est: float = 0.0
    ) -> "ChiResult":
        return cls(classic, quant, classic + quant, method, err_est)


# ---------------------------------------------------------------------------
# Unit conversions
# ---------------------------------------------------------------------------


def to_dimensionless(state: PhysicalState) -> DimensionlessPoint:
    """Map laboratory CGS parameters to (x, y, q).

    x = omega/(k_F v_F), y = nu/(k_F v_F), q = k/k_F with k_F = m v_F/hbar.
    """
    k_F = state.k_F
    scale = k_F * state.v_F
    if scale == 0.0:
        raise DomainError(f"k_F v_F underflows to 0 at v_F = {state.v_F!r}")
    return DimensionlessPoint(
        x=state.omega / scale, y=state.nu / scale, q=state.k / k_F
    )


def from_dimensionless(point: DimensionlessPoint, v_F: float) -> PhysicalState:
    """Inverse of :func:`to_dimensionless` for a given Fermi velocity."""
    if v_F <= 0 or not math.isfinite(v_F):
        raise ValidationError("v_F must be finite and > 0")
    k_F = ELECTRON_MASS * v_F / HBAR
    scale = k_F * v_F
    return PhysicalState(
        v_F=v_F, nu=point.y * scale, omega=point.x * scale, k=point.q * k_F
    )


def fermi_parameters_from_density(n_e: float) -> FermiParameters:
    """Degenerate-gas scales from the electron density [1/cm^3].

    Uses the spin-degenerate spherical-Fermi-surface relation
    k_F = (3 pi^2 n_e)^(1/3).
    """
    if not math.isfinite(n_e) or n_e <= 0:
        raise ValidationError("n_e must be finite and > 0")
    k_F = (3.0 * math.pi**2 * n_e) ** (1.0 / 3.0)
    if k_F == math.inf:
        raise DomainError(f"k_F = (3 pi^2 n_e)^(1/3) overflows at n_e = {n_e!r}")
    v_F = HBAR * k_F / ELECTRON_MASS
    p_F = ELECTRON_MASS * v_F
    E_F = 0.5 * ELECTRON_MASS * v_F**2
    return FermiParameters(v_F=v_F, k_F=k_F, p_F=p_F, E_F=E_F)


# ---------------------------------------------------------------------------
# Landau constant
# ---------------------------------------------------------------------------


def landau_chi_physical(v_F: float) -> float:
    """Landau diamagnetic susceptibility chi_L = -e^2 v_F/(12 pi^2 hbar c^2).

    Strictly negative and linear in v_F; CGS volume susceptibility.
    """
    if not math.isfinite(v_F) or v_F <= 0:
        raise ValidationError("v_F must be finite and > 0")
    return -(ELEMENTARY_CHARGE**2) * v_F / (12.0 * math.pi**2 * HBAR * SPEED_OF_LIGHT**2)


def landau_chi_magneton_form(v_F: float) -> float:
    """chi_L written through the magneton: -(1/3) (e hbar/2mc)^2 p_F m/(pi^2 hbar^3).

    Algebraically identical to :func:`landau_chi_physical` since p_F = m v_F;
    kept as an independent expression for the identity check.
    """
    if not math.isfinite(v_F) or v_F <= 0:
        raise ValidationError("v_F must be finite and > 0")
    magneton = ELEMENTARY_CHARGE * HBAR / (2.0 * ELECTRON_MASS * SPEED_OF_LIGHT)
    p_F = ELECTRON_MASS * v_F
    return -(magneton**2) * p_F * ELECTRON_MASS / (3.0 * math.pi**2 * HBAR**3)


def chi_ratio_to_absolute(ratio: complex, v_F: float) -> complex:
    """Convert a chi/chi_L ratio to an absolute CGS susceptibility, each part
    times chi_L; DomainError where the product leaves the double range."""
    chi_l = landau_chi_physical(v_F)
    absolute = complex(ratio.real * chi_l, ratio.imag * chi_l)
    if not cmath.isfinite(absolute):
        require_finite_complex("ratio", ratio)
        raise DomainError(f"the absolute susceptibility chi overflows at v_F = {v_F!r}")
    return absolute
