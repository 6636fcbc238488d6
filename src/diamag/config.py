"""Tunable thresholds and their key=value override file format.

All regime thresholds and quadrature tolerances live in one frozen Settings
object so a single --config file can override any of them. The file format is
deliberately dumb: one `key=value` per line, `#` comments, blank lines ignored.
Unknown keys are rejected by name and line number.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Tuple

from .errors import ConfigError, ValidationError

__all__ = ["Settings", "DEFAULT_SETTINGS", "parse_config", "apply_overrides"]


@dataclass(frozen=True)
class Settings:
    """Regime thresholds, quadrature tolerances, and nascent-delta widths.

    Regime selection
    ----------------
    large_s_threshold : |s| above which the asymptotic series is mandatory
                        where it converges, |s| >= 2 (1 + q/2)
    cancel_digits     : predicted decimal digits of cancellation that escalate
                        the closed form to a series
    series_s_min      : |s| at and above which the escalation uses the
                        asymptotic branch where it converges (below it, the
                        shifted-difference Taylor branch)
    taylor_span_factor: the Taylor branch requires q <= factor * dist(s, +-1)
    smallq_q_max      : static-series window, q strictly below this
    smallq_beta_factor: ... and y strictly below factor * q

    Quadrature
    ----------
    abs_tol, rel_tol  : adaptive integration targets
    max_subdivisions  : >= 64, hard panel budget
    delta_widths      : descending nascent-delta widths in units of E_F
    extrapolation_order: polynomial order used by Richardson extrapolation
    """

    large_s_threshold: float = 50.0
    cancel_digits: float = 6.0
    series_s_min: float = 3.0
    taylor_span_factor: float = 0.5
    smallq_q_max: float = 1e-3
    smallq_beta_factor: float = 1e-3
    abs_tol: float = 1e-13
    rel_tol: float = 1e-11
    max_subdivisions: int = 2000
    delta_widths: Tuple[float, ...] = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)
    extrapolation_order: int = 5

    def __post_init__(self) -> None:
        for name in (
            "large_s_threshold",
            "cancel_digits",
            "series_s_min",
            "taylor_span_factor",
            "smallq_q_max",
            "smallq_beta_factor",
            "abs_tol",
            "rel_tol",
        ):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0:
                raise ValidationError(f"{name} must be finite and > 0")
        if self.max_subdivisions < 64:
            raise ValidationError("max_subdivisions must be >= 64")
        widths = tuple(float(w) for w in self.delta_widths)
        if not widths or any(w <= 0 or not math.isfinite(w) for w in widths):
            raise ValidationError("delta_widths must be positive and finite")
        if any(b >= a for a, b in zip(widths, widths[1:])):
            raise ValidationError("delta_widths must be strictly decreasing")
        if self.extrapolation_order < 1:
            raise ValidationError("extrapolation_order must be >= 1")
        object.__setattr__(self, "delta_widths", widths)


DEFAULT_SETTINGS = Settings()

_FLOAT_KEYS = {
    "large_s_threshold",
    "cancel_digits",
    "series_s_min",
    "taylor_span_factor",
    "smallq_q_max",
    "smallq_beta_factor",
    "abs_tol",
    "rel_tol",
}
_INT_KEYS = {"max_subdivisions", "extrapolation_order"}


def parse_config(path: str) -> dict:
    """Read a key=value override file into a plain dict.

    Raises ConfigError naming the offending line for malformed input or
    unknown keys. An empty file yields an empty dict (defaults unchanged).
    """
    overrides: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key in _FLOAT_KEYS:
                try:
                    overrides[key] = float(value)
                except ValueError as exc:
                    raise ConfigError(f"{path}:{lineno}: bad float for {key}: {value!r}") from exc
            elif key in _INT_KEYS:
                try:
                    overrides[key] = int(value)
                except ValueError as exc:
                    raise ConfigError(f"{path}:{lineno}: bad integer for {key}: {value!r}") from exc
            elif key == "delta_widths":
                try:
                    overrides[key] = tuple(float(part) for part in value.split(",") if part.strip())
                except ValueError as exc:
                    raise ConfigError(f"{path}:{lineno}: bad width list: {value!r}") from exc
            else:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
    return overrides


def apply_overrides(settings: Settings, overrides: dict) -> Settings:
    """Return a new Settings with the given overrides applied."""
    try:
        return dataclasses.replace(settings, **overrides)
    except (TypeError, ValidationError) as exc:
        raise ConfigError(f"invalid configuration override: {exc}") from exc
