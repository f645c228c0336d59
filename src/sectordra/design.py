"""Parameter sweeps and inverse design over the closed-form modal model.

A sweep varies exactly one geometry parameter over a uniform inclusive
range and tabulates resonant frequency for a list of modes. Modes whose
azimuthal order is derived from the sector angle are re-derived at every
step, so sweeping sector_angle moves v along with the geometry instead of
freezing it at the base value.

solve_radius inverts f(a) = target for the radius in closed form. The
order v, the zero X_vn and k_z = p pi / h do not depend on a, and the
transverse wavenumber is sqrt(X_vn^2 + v^2) / a, so f is strictly
decreasing in a and

    a = sqrt(X_vn^2 + v^2) / sqrt(k_t^2 - k_z^2),  k_t = 2 pi f sqrt(eps_r) / c.
"""

from __future__ import annotations

import enum
import io
import csv
import math
from dataclasses import dataclass

from .errors import is_index
from .modal import C_LIGHT, ModeSpec, SectorGeometry, resonant_frequency, wavenumbers

__all__ = [
    "SweepParameter",
    "SweepSpec",
    "SweepResult",
    "sweep",
    "sweep_csv",
    "solve_radius",
]


# steps per sweep: 10000 sector-angle steps of one mode take about 1 s
# on a 2-vCPU VM (a cold Bessel zero per step), radius steps 0.25 s
_MAX_STEPS = 10_000


class SweepParameter(enum.Enum):
    RADIUS = "radius"
    HEIGHT = "height"
    EPS_R = "eps_r"
    SECTOR_ANGLE = "sector_angle"


@dataclass(frozen=True)
class SweepSpec:
    """One swept parameter over [start, stop] in `steps` uniform points,
    2 <= steps <= 10000."""

    parameter: SweepParameter
    start: float
    stop: float
    steps: int
    modes: tuple[ModeSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "parameter",
                           self.parameter if isinstance(self.parameter, SweepParameter)
                           else SweepParameter(self.parameter))
        object.__setattr__(self, "modes", tuple(self.modes))
        if not (self.start < self.stop):
            raise ValueError(
                f"sweep needs start < stop, got [{self.start}, {self.stop}]")
        if not is_index(self.steps, 2):
            raise ValueError(f"sweep needs an integer of at least 2 steps, "
                             f"got {self.steps}")
        if self.steps > _MAX_STEPS:
            raise ValueError(f"sweep takes at most {_MAX_STEPS} steps, "
                             f"got {self.steps}")
        if not self.modes:
            raise ValueError("sweep needs at least one mode")

    def values(self) -> list[float]:
        n = self.steps
        span = self.stop - self.start
        return [self.start + span * (i / (n - 1)) for i in range(n)]


@dataclass(frozen=True)
class SweepResult:
    """One (parameter value, mode) row of a sweep table."""

    parameter: SweepParameter
    value: float
    mode: ModeSpec
    f_hz: float


def _geometry_at(base: SectorGeometry, parameter: SweepParameter,
                 value: float, step: int) -> SectorGeometry:
    kwargs = {"a": base.a, "h": base.h, "phi0": base.phi0, "eps_r": base.eps_r}
    key = {SweepParameter.RADIUS: "a", SweepParameter.HEIGHT: "h",
           SweepParameter.SECTOR_ANGLE: "phi0", SweepParameter.EPS_R: "eps_r"}
    kwargs[key[parameter]] = value
    try:
        return SectorGeometry(**kwargs)
    except ValueError as exc:
        raise ValueError(
            f"step {step} ({parameter.value} = {value}) is not a valid "
            f"geometry: {exc}") from exc


def _mode_at(mode: ModeSpec, geom: SectorGeometry) -> ModeSpec:
    # re-derive v when it came from the sector angle, keep explicit v as-is
    if mode.m is not None:
        return ModeSpec.derived(mode.family, mode.m, mode.n, mode.p, geom.phi0)
    return mode


def sweep(base: SectorGeometry, spec: SweepSpec) -> list[SweepResult]:
    """Frequency table over the swept parameter, one row per (step, mode).

    Rows are ordered by step then by the position of the mode in
    spec.modes. Deterministic: identical inputs give bitwise identical
    frequencies.
    """
    rows = []
    for step, value in enumerate(spec.values()):
        geom = _geometry_at(base, spec.parameter, value, step)
        for mode in spec.modes:
            local = _mode_at(mode, geom)
            rows.append(SweepResult(parameter=spec.parameter, value=value,
                                    mode=local,
                                    f_hz=resonant_frequency(geom, local)))
    return rows


def sweep_csv(rows: list[SweepResult]) -> str:
    """Render sweep rows as CSV with a fixed header."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["param_name", "param_value", "family", "v", "n", "p", "f_hz"])
    for row in rows:
        writer.writerow([row.parameter.value, repr(row.value),
                         row.mode.family.value, repr(row.mode.v),
                         row.mode.n, row.mode.p, repr(row.f_hz)])
    return buf.getvalue()


def solve_radius(base: SectorGeometry, mode: ModeSpec, target_f_hz: float,
                 a_min: float, a_max: float) -> float:
    """Radius at which the given mode of base (height, angle, eps_r kept)
    resonates at target_f_hz, within [a_min, a_max].

    Raises ValueError when the target is not a positive finite frequency,
    when it lies at or below the axial cutoff of the mode, and when the
    radius that reaches it lies outside the bracket.
    """
    if not (0.0 < a_min < a_max):
        raise ValueError(f"need 0 < a_min < a_max, got [{a_min}, {a_max}]")
    if not (target_f_hz > 0.0 and math.isfinite(target_f_hz)):
        raise ValueError(
            f"target frequency must be positive and finite, got {target_f_hz}")
    # at a = 1 m the transverse wavenumbers are X_vn and v themselves
    geom = SectorGeometry(a=1.0, h=base.h, phi0=base.phi0, eps_r=base.eps_r)
    wn = wavenumbers(geom, _mode_at(mode, geom))
    k_t = 2.0 * math.pi * target_f_hz * math.sqrt(base.eps_r) / C_LIGHT
    if k_t <= wn.k_z:
        raise ValueError(
            f"target {target_f_hz} Hz is at or below the axial cutoff of the "
            f"mode (k = {k_t} rad/m, k_z = {wn.k_z} rad/m)")
    a = math.hypot(wn.k_r, wn.k_phi) / math.sqrt(k_t * k_t - wn.k_z * wn.k_z)
    if not (a_min <= a <= a_max):
        raise ValueError(
            f"target {target_f_hz} Hz needs radius {a} m, outside the "
            f"bracket [{a_min}, {a_max}]")
    return a
