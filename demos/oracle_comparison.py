"""
Cross-checking the closed form against independent evaluations
==============================================================

The closed-form kernel is fast but algebra-heavy. Two independent
computations guard it: high-precision quadrature of the defining angular
integrals, and a kinetic-equation reconstruction on the package's own
Gauss-Kronrod engine. This script prints all three side by side at a few
points.
"""

from diamag import (
    DimensionlessPoint,
    chi_from_kinetic,
    chi_ratio,
    chi_ratio_quadrature,
)

points = [
    DimensionlessPoint(0.0, 1e-3, 0.5),
    DimensionlessPoint(0.1, 0.1, 0.5),
    DimensionlessPoint(0.5, 0.01, 1.0),
    DimensionlessPoint(0.0, 0.1, 0.01),
]

for p in points:
    kernel = chi_ratio(p).total
    quad = chi_ratio_quadrature(p).total
    kinetic = chi_from_kinetic(p).total
    print(f"x = {p.x:g}, y = {p.y:g}, q = {p.q:g}")
    print(f"  closed form   {kernel.real:+.12e} {kernel.imag:+.12e}j")
    print(f"  quadrature    {quad.real:+.12e} {quad.imag:+.12e}j"
          f"   (rel dev {abs(kernel - quad) / abs(quad):.1e})")
    print(f"  kinetic       {kinetic.real:+.12e} {kinetic.imag:+.12e}j"
          f"   (rel dev {abs(kernel - kinetic) / abs(kinetic):.1e})")
    print()
