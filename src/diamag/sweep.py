"""Parameter sweeps and deterministic CSV emission.

A sweep varies exactly one of (q, x, y) over a log or linear grid while the
other two stay fixed. Every grid point is evaluated through the kernel's
automatic regime selection; points that raise are reported as rows with
method "error" rather than aborting the whole sweep, so a single point beyond
double-precision range in the middle of a scan still yields a usable file.

CSV output is byte-deterministic: fixed column order, 17 significant digits
via repr-stable '%.17g' formatting, '.' decimal separator, '\\n' line endings,
UTF-8. Two runs over the same grid produce identical bytes.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence, Tuple

from .core import ChiResult, DimensionlessPoint, FrozenRecord, RegimeTag
from .errors import DiamagError, ValidationError
from .kernel import chi_ratio

__all__ = [
    "CSV_HEADER",
    "FIGURE1_Y_VALUES",
    "FIGURE1_Q_RANGE",
    "FIGURE1_POINTS_PER_CURVE",
    "SweepSpec",
    "OutputRow",
    "format_float",
    "run_sweep",
    "figure1_rows",
    "rows_to_csv",
    "write_csv",
]

FIGURE1_Y_VALUES: Tuple[float, ...] = (1e-6, 1e-5, 1e-4, 1e-3)
FIGURE1_Q_RANGE: Tuple[float, float] = (1e-7, 2.0)
FIGURE1_POINTS_PER_CURVE = 400

_AXES = ("q", "x", "y")
_FLOAT_FORMAT = "%.17g"
_SPACINGS = ("log", "linear")


class SweepSpec(FrozenRecord):
    """One swept coordinate over [lo, hi] with the other two held fixed.

    axis    : which coordinate varies, one of "q", "x", "y"
    lo, hi  : sweep bounds, lo < hi
    points  : grid size, an int of at least 2
    spacing : "log" (requires lo > 0) or "linear"
    fixed_x, fixed_y, fixed_q : values for the non-swept coordinates; the
        entry matching `axis` is ignored and may be left at its default
    """

    _fields = ("axis", "lo", "hi", "points", "spacing", "fixed_x", "fixed_y", "fixed_q")

    def __init__(
        self,
        axis: str,
        lo: float,
        hi: float,
        points: int,
        spacing: str = "log",
        fixed_x: float = 0.0,
        fixed_y: float = 0.0,
        fixed_q: float = 1.0,
    ) -> None:
        if axis not in _AXES:
            raise ValidationError(f"axis must be one of {_AXES}, got {axis!r}")
        if spacing not in _SPACINGS:
            raise ValidationError(f"spacing must be one of {_SPACINGS}, got {spacing!r}")
        FrozenRecord.__init__(self, axis, lo, hi, points, spacing, fixed_x, fixed_y, fixed_q)
        # every grid value lies in [lo, hi], so valid bounds make every grid
        # point a valid coordinate; DimensionlessPoint is the one judge
        self.point_at(self.lo)
        self.point_at(self.hi)
        if not self.lo < self.hi:
            raise ValidationError(
                f"sweep requires lo < hi, got [{self.lo}, {self.hi}]"
            )
        if isinstance(self.points, bool) or not isinstance(self.points, int):
            raise ValidationError(f"sweep points must be an integer, got {self.points!r}")
        if self.points < 2:
            raise ValidationError(f"sweep needs at least 2 points, got {self.points}")
        if self.spacing == "log" and self.lo <= 0.0:
            raise ValidationError("log spacing requires lo > 0")

    def grid(self) -> List[float]:
        """Ascending grid with exact endpoints."""
        n = self.points
        if self.spacing == "log":
            lo, hi = math.log(self.lo), math.log(self.hi)
            values = [math.exp(lo + (hi - lo) * i / (n - 1)) for i in range(n)]
        else:
            values = [self.lo + (self.hi - self.lo) * i / (n - 1) for i in range(n)]
        values[0] = self.lo
        values[-1] = self.hi
        return values

    def point_at(self, value: float) -> DimensionlessPoint:
        coords = {"x": self.fixed_x, "y": self.fixed_y, "q": self.fixed_q}
        coords[self.axis] = value
        return DimensionlessPoint(x=coords["x"], y=coords["y"], q=coords["q"])


class OutputRow(FrozenRecord):
    """One CSV row: coordinates, split susceptibility ratio, provenance."""

    _fields = (
        "q", "x", "y", "chi_total_re", "chi_total_im", "chi_classic_re",
        "chi_classic_im", "chi_quant_re", "chi_quant_im", "method", "err_est",
    )

    @classmethod
    def from_result(cls, point: DimensionlessPoint, result: ChiResult) -> "OutputRow":
        total, classic, quant = result.total, result.classic, result.quant
        method = _CSV_METHOD.get(result.method, result.method.value)
        return cls(
            point.q, point.x, point.y, total.real, total.imag, classic.real,
            classic.imag, quant.real, quant.imag, method, result.err_est,
        )

    @classmethod
    def error_row(cls, point: DimensionlessPoint) -> "OutputRow":
        return cls(point.q, point.x, point.y, *(0.0,) * 6, "error", 0.0)

    def to_csv_line(self) -> str:
        return _CSV_ROW_FORMAT % self._values()


CSV_HEADER = ",".join(OutputRow._fields)
# one row: the method name as it is, every other field as format_float writes it
_CSV_ROW_FORMAT = ",".join(
    "%s" if name == "method" else _FLOAT_FORMAT for name in OutputRow._fields
)

# The CSV method column gives both series one label, as figure1's pinned
# bytes (FIGURE1_SHA256 in perfbench/run.py) have it; every other tag is
# written as its value. Deleting this table moves that pin.
_CSV_METHOD = {
    RegimeTag.TAYLOR_SERIES: "series-small-q",
    RegimeTag.LAURENT_SERIES: "series-small-q",
}


def format_float(value: float) -> str:
    """17 significant digits, enough to round-trip any double exactly."""
    return _FLOAT_FORMAT % value


def run_sweep(spec: SweepSpec) -> Tuple[List[OutputRow], List[str]]:
    """Evaluate the sweep grid in ascending order.

    Returns (rows, errors). A point whose evaluation raises any package
    error becomes a zeroed row with method "error", and errors gets one line
    for it, "x=..., y=..., q=...: ErrorType: message", so the caller can name
    each failure and exit nonzero when the list is not empty.
    """
    rows: List[OutputRow] = []
    errors: List[str] = []
    for value in spec.grid():
        # SweepSpec's checks make every grid value a valid coordinate
        point = spec.point_at(value)
        try:
            result = chi_ratio(point)
        except DiamagError as exc:
            rows.append(OutputRow.error_row(point))
            errors.append(
                f"x={point.x!r}, y={point.y!r}, q={point.q!r}: {type(exc).__name__}: {exc}"
            )
            continue
        rows.append(OutputRow.from_result(point, result))
    return rows, errors


def figure1_rows() -> Tuple[List[OutputRow], List[str]]:
    """Static collisional-suppression curve family.

    Four q-sweeps at x = 0, one per collision rate in FIGURE1_Y_VALUES,
    each over FIGURE1_Q_RANGE with FIGURE1_POINTS_PER_CURVE log-spaced
    points. Rows are grouped by curve (ascending y), ascending q within
    each curve: 4 x 400 data rows. The error lines are run_sweep's.
    """
    rows: List[OutputRow] = []
    errors: List[str] = []
    lo, hi = FIGURE1_Q_RANGE
    for y in FIGURE1_Y_VALUES:
        spec = SweepSpec(
            axis="q",
            lo=lo,
            hi=hi,
            points=FIGURE1_POINTS_PER_CURVE,
            spacing="log",
            fixed_x=0.0,
            fixed_y=y,
        )
        curve, curve_errors = run_sweep(spec)
        rows.extend(curve)
        errors.extend(curve_errors)
    return rows, errors


def rows_to_csv(rows: Iterable[OutputRow]) -> str:
    lines = [CSV_HEADER]
    lines.extend(row.to_csv_line() for row in rows)
    return "\n".join(lines) + "\n"


def write_csv(rows: Sequence[OutputRow], path: str) -> None:
    """Write rows byte-deterministically: UTF-8, '\\n' endings."""
    payload = rows_to_csv(rows).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(payload)
