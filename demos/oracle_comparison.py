"""
Cross-checking the closed form against independent evaluations
==============================================================

The closed-form kernel is fast but algebra-heavy. Three slower evaluations
guard it: the exact reference (the closed forms in mpmath at the digits
each point needs, measured from how far their summands cancel),
high-precision quadrature of the defining angular integrals, and a
kinetic-equation reconstruction on the package's own Gauss-Kronrod engine.
This script prints the exact reference and the other three side by side at
a few points, each with its relative deviation from the exact reference.
"""

from diamag import (
    DimensionlessPoint,
    chi_from_kinetic,
    chi_ratio,
    chi_ratio_exact,
    chi_ratio_quadrature,
)

points = [
    DimensionlessPoint(0.0, 1e-3, 0.5),
    DimensionlessPoint(0.1, 0.1, 0.5),
    DimensionlessPoint(0.5, 0.01, 1.0),
    DimensionlessPoint(0.0, 0.1, 0.01),
]

for p in points:
    exact = chi_ratio_exact(p).total
    print(f"x = {p.x:g}, y = {p.y:g}, q = {p.q:g}")
    print(f"  exact         {exact.real:+.12e} {exact.imag:+.12e}j")
    for name, oracle in (
        ("closed form", chi_ratio),
        ("quadrature", chi_ratio_quadrature),
        ("kinetic", chi_from_kinetic),
    ):
        value = oracle(p).total
        print(f"  {name:<13} {value.real:+.12e} {value.imag:+.12e}j"
              f"   (rel dev {abs(value - exact) / abs(exact):.1e})")
    print()
