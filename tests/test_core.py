"""Domain types, unit conversions, and the Landau constant."""

import math
import pickle
import random
import re

import pytest

from diamag.constants import ELECTRON_MASS, HBAR
from diamag.core import (
    ChiResult,
    DimensionlessPoint,
    PhysicalState,
    RegimeTag,
    chi_ratio_to_absolute,
    fermi_parameters_from_density,
    from_dimensionless,
    landau_chi_magneton_form,
    landau_chi_physical,
    to_dimensionless,
)
from diamag.errors import DomainError, ValidationError
from diamag.kernel import TermBreakdown
from diamag.sweep import OutputRow, SweepSpec
from diamag.verify import CheckResult


class TestDimensionlessPoint:
    def test_derived_complex_coordinates(self):
        p = DimensionlessPoint(x=0.3, y=0.04, q=0.5)
        assert p.z == complex(0.3, 0.04)
        assert p.s == complex(0.3, 0.04) / 0.5

    def test_rejects_negative_x(self):
        with pytest.raises(ValidationError, match="x"):
            DimensionlessPoint(x=-0.1, y=0.1, q=1.0)

    def test_rejects_negative_y(self):
        with pytest.raises(ValidationError, match="y"):
            DimensionlessPoint(x=0.1, y=-0.1, q=1.0)

    def test_rejects_nonpositive_q(self):
        with pytest.raises(ValidationError, match="q"):
            DimensionlessPoint(x=0.1, y=0.1, q=0.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValidationError, match="x"):
            DimensionlessPoint(x=float("nan"), y=0.1, q=1.0)
        with pytest.raises(ValidationError, match="q"):
            DimensionlessPoint(x=0.1, y=0.1, q=float("inf"))


class TestConversions:
    def test_definition_at_fermi_wavenumber(self):
        v_F = 1e8
        k_F = ELECTRON_MASS * v_F / HBAR
        state = PhysicalState(v_F=v_F, nu=0.0, omega=0.0, k=k_F)
        p = to_dimensionless(state)
        assert p.x == 0.0
        assert p.y == 0.0
        assert math.isclose(p.q, 1.0, rel_tol=1e-15)

    def test_collision_rate_scaling(self):
        v_F = 2.2e8
        k_F = ELECTRON_MASS * v_F / HBAR
        state = PhysicalState(v_F=v_F, nu=k_F * v_F, omega=0.0, k=0.5 * k_F)
        p = to_dimensionless(state)
        assert math.isclose(p.y, 1.0, rel_tol=1e-15)
        assert math.isclose(p.q, 0.5, rel_tol=1e-15)

    def test_roundtrip_identity(self):
        rng = random.Random(42)
        for _ in range(1000):
            state = PhysicalState(
                v_F=10 ** rng.uniform(7, 9),
                nu=10 ** rng.uniform(5, 14),
                omega=10 ** rng.uniform(5, 14),
                k=10 ** rng.uniform(3, 9),
            )
            back = from_dimensionless(to_dimensionless(state), state.v_F)
            assert math.isclose(back.nu, state.nu, rel_tol=1e-14)
            assert math.isclose(back.omega, state.omega, rel_tol=1e-14)
            assert math.isclose(back.k, state.k, rel_tol=1e-14)
            assert back.v_F == state.v_F

    @pytest.mark.parametrize("state", [(1e-300, 1e300, 1e300, 1e300), (5e-324, 1.0, 1.0, 1.0)])
    def test_an_underflowing_scale_is_refused_by_name(self, state):
        # k_F v_F underflows to 0, which the divisions would meet
        with pytest.raises(DomainError, match=r"^k_F v_F underflows to 0"):
            to_dimensionless(PhysicalState(*state))

    @pytest.mark.parametrize("convert, name", [
        # y = nu/(k_F v_F) = 1.2e300 / 1e-150 overflows
        (lambda: to_dimensionless(PhysicalState(1e-150, 1e300, 0, 1)),
         "y = nu/(k_F v_F) overflows"),
        # k_F v_F = 8.6e319: omega = 0.1 k_F v_F overflows, and nu = 0 k_F v_F was a NaN
        (lambda: from_dimensionless(DimensionlessPoint(0.1, 0, 1), 1e160), "k_F v_F overflows"),
        # k_F v_F = 8.6e-601 and k = q k_F = 8.6e-331 underflow to 0
        (lambda: from_dimensionless(DimensionlessPoint(0.1, 0.1, 1e-30), 1e-300),
         "k_F v_F underflows to 0"),
        (lambda: from_dimensionless(DimensionlessPoint(0.1, 0.1, 1e-300), 1e-100),
         "k = q k_F underflows to 0"),
        (lambda: to_dimensionless(PhysicalState(1e8, 5e-324, 0, 1)),
         "y = nu/(k_F v_F) underflows to 0"),
        (lambda: to_dimensionless(PhysicalState(1e-150, 1, 0, 1e300)), "q = k/k_F overflows"),
    ])
    def test_a_derived_quantity_out_of_range_is_refused_by_name(self, convert, name):
        # not a ValidationError about a field the caller never passed
        with pytest.raises(DomainError, match=rf"^{re.escape(name)} at v_F = "):
            convert()

    def test_state_validation(self):
        with pytest.raises(ValidationError, match="v_F"):
            PhysicalState(v_F=0.0, nu=0.0, omega=0.0, k=1.0)
        with pytest.raises(ValidationError, match="nu"):
            PhysicalState(v_F=1e8, nu=-1.0, omega=0.0, k=1.0)
        with pytest.raises(ValidationError, match="omega"):
            PhysicalState(v_F=1e8, nu=0.0, omega=-1.0, k=1.0)
        with pytest.raises(ValidationError, match="k"):
            PhysicalState(v_F=1e8, nu=0.0, omega=0.0, k=0.0)


class TestFermiParameters:
    def test_unit_wavenumber_gives_hbar_over_m(self):
        n_e = 1.0 / (3.0 * math.pi**2)
        fp = fermi_parameters_from_density(n_e)
        assert math.isclose(fp.k_F, 1.0, rel_tol=1e-14)
        assert math.isclose(fp.v_F, HBAR / ELECTRON_MASS, rel_tol=1e-14)

    def test_metallic_density(self):
        fp = fermi_parameters_from_density(8.5e22)
        assert math.isclose(fp.k_F, 136023300.54706629966, rel_tol=1e-13)
        assert math.isclose(fp.v_F, 157470959.52126394426, rel_tol=1e-13)
        assert math.isclose(fp.p_F, ELECTRON_MASS * fp.v_F, rel_tol=1e-15)
        assert math.isclose(fp.E_F, 0.5 * ELECTRON_MASS * fp.v_F**2, rel_tol=1e-15)

    def test_density_scaling_law(self):
        base = fermi_parameters_from_density(1e22)
        doubled = fermi_parameters_from_density(2e22)
        assert math.isclose(doubled.k_F / base.k_F, 2.0 ** (1.0 / 3.0), rel_tol=1e-14)

    def test_an_overflowing_density_is_refused_by_name(self):
        with pytest.raises(DomainError, match=r"^k_F = \(3 pi\^2 n_e\)\^\(1/3\) overflows"):
            fermi_parameters_from_density(1e308)
        # just below, every field is finite
        fp = fermi_parameters_from_density(6e306)
        assert all(math.isfinite(value) for value in fp._values())

    def test_rejects_nonpositive_density(self):
        with pytest.raises(ValidationError):
            fermi_parameters_from_density(0.0)


class TestLandauConstant:
    def test_reference_velocity_value(self):
        assert math.isclose(
            landau_chi_physical(1.57e8), -3.22673490929249091933e-7, rel_tol=1e-10
        )

    def test_two_closed_forms_agree(self):
        for k in range(41):
            v_F = 1e7 * 10 ** (k / 20.0)
            a = landau_chi_physical(v_F)
            b = landau_chi_magneton_form(v_F)
            assert math.isclose(a, b, rel_tol=1e-12)

    def test_negative_and_linear(self):
        assert landau_chi_physical(1e8) < 0.0
        assert math.isclose(
            landau_chi_physical(2e8), 2.0 * landau_chi_physical(1e8), rel_tol=1e-15
        )

    def test_rejects_nonpositive_velocity(self):
        with pytest.raises(ValidationError):
            landau_chi_physical(0.0)

    @pytest.mark.parametrize("form, v_F", [
        (landau_chi_physical, 1e-310),
        (landau_chi_physical, 5e-324),
        # e^2 v_F is subnormal just below 9.64e-290, and chi_L loses digits
        (landau_chi_physical, 9.6e-290),
        (landau_chi_magneton_form, 1e-310),
        # the magneton form's numerator is subnormal below 3.12e-214
        (landau_chi_magneton_form, 3.1e-214),
    ])
    def test_chi_l_below_the_normal_range_is_refused_by_name(self, form, v_F):
        # it was -0.0, or a normal value with lost digits
        with pytest.raises(DomainError, match=r"^chi_L underflows at v_F = "):
            form(v_F)

    @pytest.mark.parametrize("form, v_F", [(landau_chi_physical, 9.7e-290),
                                           (landau_chi_magneton_form, 3.2e-214)])
    def test_chi_l_just_above_its_refusal_is_negative_and_linear(self, form, v_F):
        assert math.isclose(form(v_F) / v_F, form(1e8) / 1e8, rel_tol=1e-15)

    @pytest.mark.parametrize("v_F", [0.0, -1e8, math.inf, math.nan])
    def test_every_velocity_entry_rejects_a_bad_velocity(self, v_F):
        # PhysicalState would reject these velocities too, with other
        # messages; this one shows that each entry point's own check ran
        point = DimensionlessPoint(x=0.1, y=0.1, q=0.5)
        for convert in (landau_chi_physical, landau_chi_magneton_form,
                        lambda v: from_dimensionless(point, v)):
            with pytest.raises(ValidationError, match=r"^v_F must be finite and > 0$"):
                convert(v_F)


class TestAbsoluteConversion:
    def test_unit_ratio_is_chi_l(self):
        assert chi_ratio_to_absolute(complex(1.0), 1.57e8) == complex(
            landau_chi_physical(1.57e8)
        )

    def test_zero_ratio(self):
        assert chi_ratio_to_absolute(complex(0.0), 1e8) == 0.0

    def test_an_overflowing_product_is_refused_by_name(self):
        with pytest.raises(DomainError, match="absolute susceptibility chi overflows"):
            chi_ratio_to_absolute(1e300 + 0j, 1e300)

    def test_chi_l_below_the_normal_range_is_refused(self):
        # the product was (-0-0j)
        with pytest.raises(DomainError, match=r"^chi_L underflows"):
            chi_ratio_to_absolute(0.9 + 0j, 5e-324)

    # chi_L is -2.06e-7 at v_F = 1e8; 2e-321 is the ratio at (0, 1, 1e-80),
    # where the product was (-0+0j)
    @pytest.mark.parametrize("ratio", [2e-321 + 0j, 1e-302 + 0j, 1.0 + 1e-302j])
    def test_a_nonzero_part_below_the_normal_range_is_refused(self, ratio):
        with pytest.raises(DomainError, match=r"^the absolute susceptibility chi underflows"):
            chi_ratio_to_absolute(ratio, 1e8)

    def test_a_normal_product_and_a_zero_part_are_served(self):
        value = chi_ratio_to_absolute(1e-300 + 0j, 1e8)
        assert value.real == 1e-300 * landau_chi_physical(1e8) <= -(2.0**-1022)
        assert value.imag == 0.0

    def test_plateau_magnitude(self):
        value = chi_ratio_to_absolute(complex(0.948), 1.57e8)
        assert math.isclose(value.real, -3.05894469400928e-07, rel_tol=1e-9)
        assert value.imag == 0.0


class TestChiResult:
    def test_total_is_sum_by_construction(self):
        r = ChiResult.from_parts(
            complex(1.0, -2.0), complex(0.25, 0.5), RegimeTag.CLOSED_FORM
        )
        assert r.total == complex(1.25, -1.5)

    def test_rejects_negative_err_est(self):
        with pytest.raises(ValidationError):
            ChiResult.from_parts(
                complex(1.0), complex(0.0), RegimeTag.CLOSED_FORM, err_est=-1e-3
            )

    def test_rejects_nonfinite_components(self):
        with pytest.raises(ValidationError):
            ChiResult.from_parts(
                complex(float("nan")), complex(0.0), RegimeTag.CLOSED_FORM
            )

    def test_rejects_a_total_that_alone_overflows(self):
        with pytest.raises(ValidationError, match="^total must be finite"):
            ChiResult.from_parts(complex(1e308), complex(1e308), RegimeTag.CLOSED_FORM)


# Each factory builds a new record with the same fields on every call; the
# repr is the one a frozen dataclass printed for it.
RECORDS = {
    "DimensionlessPoint": (
        lambda: DimensionlessPoint(x=0.1, y=0.0, q=0.5),
        "DimensionlessPoint(x=0.1, y=0.0, q=0.5)",
    ),
    "ChiResult": (
        lambda: ChiResult.from_parts(1 + 2j, 0.5j, RegimeTag.CLOSED_FORM, 1e-16),
        "ChiResult(classic=(1+2j), quant=0.5j, total=(1+2.5j),"
        " method=<RegimeTag.CLOSED_FORM: 'closed-form'>, err_est=1e-16)",
    ),
    "TermBreakdown": (
        lambda: TermBreakdown(I1=1j, I2=2 + 0j, I3=3j, term1=0j, term2=(3 + 0j), term3=2.25j),
        "TermBreakdown(I1=1j, I2=(2+0j), I3=3j, term1=0j, term2=(3+0j), term3=2.25j)",
    ),
    "SweepSpec": (
        lambda: SweepSpec(axis="q", lo=0.1, hi=1.0, points=3),
        "SweepSpec(axis='q', lo=0.1, hi=1.0, points=3, spacing='log',"
        " fixed_x=0.0, fixed_y=0.0, fixed_q=1.0)",
    ),
    "OutputRow": (
        lambda: OutputRow.error_row(DimensionlessPoint(0.1, 0.2, 0.5)),
        "OutputRow(q=0.5, x=0.1, y=0.2, chi_total_re=0.0, chi_total_im=0.0,"
        " chi_classic_re=0.0, chi_classic_im=0.0, chi_quant_re=0.0, chi_quant_im=0.0,"
        " method='error', err_est=0.0)",
    ),
    "CheckResult": (
        lambda: CheckResult(
            name="landau-limit", passed=True, measured=1e-12, bound=1e-08, detail="ok"
        ),
        "CheckResult(name='landau-limit', passed=True, measured=1e-12, bound=1e-08,"
        " detail='ok')",
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_is_a_frozen_value(name):
    make, want_repr = RECORDS[name]
    record, twin = make(), make()
    assert record is not twin
    assert record == twin and hash(record) == hash(twin)
    assert record != object()
    assert repr(record) == want_repr
    for field, value in vars(record).items():
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert vars(record) == vars(twin)
    restored = pickle.loads(pickle.dumps(record))
    assert restored == record and repr(restored) == want_repr


def test_record_takes_exactly_its_fields():
    with pytest.raises(TypeError):
        CheckResult("landau-limit", True, 1e-12, 1e-08)
    with pytest.raises(TypeError):
        CheckResult("landau-limit", True, 1e-12, 1e-08, "ok", name="landau-limit")
    with pytest.raises(TypeError):
        CheckResult("landau-limit", True, 1e-12, 1e-08, details="ok")
    assert CheckResult("a", True, 1.0, 2.0, detail="ok") == CheckResult(
        detail="ok", bound=2.0, measured=1.0, passed=True, name="a"
    )
