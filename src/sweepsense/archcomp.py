"""Analytic comparison of sensing architectures under shared size/band limits.

All metrics derive from a handful of closed forms: range resolution c/2B,
effective aperture M * lambda/2 for frequency-synthesized apertures, angular
resolution lambda/D (or lambda/(L sqrt(3)) for a coherently combined physical
array), and the architectural-efficiency figure

    eta = (1 / angular_resolution) / (rf_chains * physical_size).

Reference efficiency values supplied with a spec are carried through the
report verbatim and flagged when they disagree with the formula output; the
bundled defaults are known to disagree, so both numbers are always shown.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, fields

from sweepsense.core import SPEED_OF_LIGHT

_SQRT3 = math.sqrt(3.0)

APERTURE_VIRTUAL = "virtual"
APERTURE_PHYSICAL = "physical"

# Relative gap above which a supplied reference efficiency is flagged as
# inconsistent with the formula output.
ETA_CONSISTENCY_TOL = 0.01


class NonFiniteMetricError(ValueError):
    """A metric or efficiency ratio that compare derives is not a finite number > 0."""


def range_resolution(bandwidth: float) -> float:
    """Range resolution c / (2 B) in meters."""
    if not 0.0 < bandwidth < math.inf:
        raise ValueError("bandwidth must be positive")
    return SPEED_OF_LIGHT / (2.0 * bandwidth)


def effective_aperture(n_samples: int, f_ref: float) -> float:
    """Synthesized aperture length n * lambda/2 at the reference frequency."""
    if n_samples < 1:
        raise ValueError("sample count must be >= 1")
    if not 0.0 < f_ref < math.inf:
        raise ValueError("reference frequency must be positive")
    return n_samples * (SPEED_OF_LIGHT / f_ref) / 2.0


def angular_resolution_virtual(f_ref: float, aperture: float) -> float:
    """Diffraction-limited beamwidth lambda / D in rad.

    With D = effective_aperture(n, f_ref) this reduces to exactly 2 / n,
    independent of the reference frequency.
    """
    if not 0.0 < aperture < math.inf:
        raise ValueError("aperture must be positive")
    return (SPEED_OF_LIGHT / f_ref) / aperture

def angular_resolution_mimo(f_ref: float, length: float) -> float:
    """Effective beamwidth lambda / (L sqrt(3)) of a coherently combined array."""
    if not 0.0 < length < math.inf:
        raise ValueError("array length must be positive")
    return (SPEED_OF_LIGHT / f_ref) / (length * _SQRT3)


def resolution_cell_volume(
    theta_az: float, theta_el: float, delta_r: float, r_query: float
) -> float:
    """Volume of one 3-D resolution cell at range r_query."""
    if not all(0.0 < x < math.inf for x in (theta_az, theta_el, delta_r, r_query)):
        raise ValueError("cell factors must all be positive")
    return (theta_az * r_query) * (theta_el * r_query) * delta_r


def efficiency(theta_res: float, chains: int, length: float) -> float:
    """Architectural efficiency (1/theta) / (chains * L), in 1/(m rad)."""
    if not (0.0 < theta_res < math.inf and chains > 0 and 0.0 < length < math.inf):
        raise ValueError("efficiency inputs must all be positive")
    return (1.0 / theta_res) / (chains * length)


@dataclass(frozen=True)
class ArchitectureSpec:
    """Configuration of one candidate architecture.

    n_samples counts frequency points for virtual apertures and antenna
    elements for physical arrays. power_mw / cost_usd / the qualitative
    strings are pass-through data, never derived. eta_reference is an
    externally published efficiency to show next to the computed one.
    """

    name: str
    rf_chains: int
    physical_size_m: float
    bandwidth_hz: float  # total
    n_samples: int
    aperture_kind: str  # "virtual" or "physical"
    f_ref_hz: float  # reference for wavelength
    power_mw: float
    cost_usd: float
    fov_deg: float
    eta_reference: float | None = None
    observability: str | None = None
    noise_rejection: str | None = None

    def __post_init__(self) -> None:
        if self.rf_chains < 1:
            raise ValueError("rf_chains must be >= 1")
        if not all(0.0 < x < math.inf
                   for x in (self.physical_size_m, self.bandwidth_hz, self.f_ref_hz)):
            raise ValueError(
                "physical_size_m, bandwidth_hz and f_ref_hz must be finite and positive")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        for key in ("rf_chains", "n_samples"):
            if getattr(self, key) > sys.float_info.max:  # an int compares with a float exactly
                raise ValueError(f"{key} must be at most {sys.float_info.max!r}, "
                                 "the largest double")
        if self.aperture_kind not in (APERTURE_VIRTUAL, APERTURE_PHYSICAL):
            raise ValueError(
                f"aperture_kind must be '{APERTURE_VIRTUAL}' or '{APERTURE_PHYSICAL}'"
            )
        if not (0.0 < self.fov_deg < 90.0):
            raise ValueError("fov_deg must lie in (0, 90)")
        if self.eta_reference is not None and not self.eta_reference > 0.0:
            raise ValueError("eta_reference must be > 0")
        if not all(map(math.isfinite, (self.power_mw, self.cost_usd, self.eta_reference or 0.0))):
            raise ValueError("power_mw, cost_usd and eta_reference must be finite")


@dataclass(frozen=True)
class ArchitectureRow:
    """All derived metrics for one architecture at the query range; a field
    named as an ArchitectureSpec field is that spec's value."""

    name: str
    rf_chains: int
    physical_size_m: float
    aperture_kind: str
    range_resolution_m: float
    effective_aperture_m: float
    angular_resolution_rad: float
    angular_resolution_deg: float
    cell_volume_m3: float  # at the query range
    eta_computed: float
    eta_reference: float | None
    eta_consistent: bool | None
    power_mw: float
    cost_usd: float
    observability: str | None
    noise_rejection: str | None


@dataclass(frozen=True)
class ComparisonReport:
    """Per-architecture rows plus pairwise efficiency ratios."""

    r_query_m: float
    rows: tuple[ArchitectureRow, ...]
    eta_ratios_computed: dict[str, float]
    eta_ratios_reference: dict[str, float]

    def to_dict(self) -> dict:
        return asdict(self)

    def to_text(self) -> str:
        cols = [
            ("architecture", lambda r: r.name),
            ("chains", lambda r: str(r.rf_chains)),
            ("dR_cm", lambda r: f"{r.range_resolution_m * 100.0:.3f}"),
            ("D_eff_mm", lambda r: f"{r.effective_aperture_m * 1000.0:.1f}"),
            ("theta_deg", lambda r: f"{r.angular_resolution_deg:.4f}"),
            ("cell_m3", lambda r: f"{r.cell_volume_m3:.3e}"),
            ("eta_calc", lambda r: f"{r.eta_computed:.1f}"),
            ("eta_ref", lambda r: "-" if r.eta_reference is None
             else f"{r.eta_reference:.0f}"),
            ("flag", lambda r: "" if r.eta_consistent in (None, True) else "!="),
            ("P_mW", lambda r: f"{r.power_mw:.0f}"),
            ("USD", lambda r: f"{r.cost_usd:.0f}"),
        ]
        table = [[title for title, _ in cols]]
        for row in self.rows:
            table.append([fn(row) for _, fn in cols])
        widths = [max(len(r[i]) for r in table) for i in range(len(cols))]
        lines = [
            "  ".join(cell.ljust(w) if i == 0 else cell.rjust(w)
                      for i, (cell, w) in enumerate(zip(r, widths))).rstrip()
            for r in table
        ]
        if self.eta_ratios_computed:
            lines.append("")
            lines.append("efficiency ratios (computed / reference):")
            for key in self.eta_ratios_computed:
                ref = self.eta_ratios_reference.get(key)
                ref_txt = f"{ref:.2f}" if ref is not None else "-"
                lines.append(
                    f"  {key}: {self.eta_ratios_computed[key]:.2f} / {ref_txt}"
                )
        flagged = [r.name for r in self.rows if r.eta_consistent is False]
        if flagged:
            lines.append("")
            lines.append(
                "note: reference efficiency disagrees with the formula for: "
                + ", ".join(flagged)
            )
        return "\n".join(lines) + "\n"


def _positive(where: str, key: str, value: float) -> float:
    """``value``, or NonFiniteMetricError naming ``where`` and ``key`` unless it
    is finite and > 0: a closed form can overflow to inf or underflow to 0."""
    if not math.isfinite(value):
        raise NonFiniteMetricError(f"{where} {key} is {value}, not a finite number")
    if not value > 0.0:
        raise NonFiniteMetricError(f"{where} {key} is {value}, not a number > 0")
    return value


def _architecture_row(spec: ArchitectureSpec, r_query: float, where: str) -> ArchitectureRow:
    # Each derived field is checked, in field order, before a closed form is given it.
    delta_r = _positive(where, "range_resolution_m", range_resolution(spec.bandwidth_hz))
    if spec.aperture_kind == APERTURE_VIRTUAL:
        aperture = _positive(where, "effective_aperture_m",
                             effective_aperture(spec.n_samples, spec.f_ref_hz))
        theta = angular_resolution_virtual(spec.f_ref_hz, aperture)
        # Both orthogonal scan planes are resolved at theta.
        other = theta
    else:
        aperture = spec.physical_size_m
        theta = angular_resolution_mimo(spec.f_ref_hz, spec.physical_size_m)
        # A linear array resolves one plane; the other is only FoV-limited.
        other = 2.0 * math.tan(math.radians(spec.fov_deg))
    _positive(where, "angular_resolution_rad", theta)
    theta_deg = _positive(where, "angular_resolution_deg", math.degrees(theta))
    cell = _positive(where, "cell_volume_m3",
                     resolution_cell_volume(theta, other, delta_r, r_query))
    eta_c = _positive(where, "eta_computed",
                      efficiency(theta, spec.rf_chains, spec.physical_size_m))
    consistent: bool | None = None
    if spec.eta_reference is not None:
        consistent = abs(eta_c - spec.eta_reference) <= ETA_CONSISTENCY_TOL * abs(
            spec.eta_reference
        )
    return ArchitectureRow(
        **{f.name: getattr(spec, f.name) for f in fields(ArchitectureRow) if hasattr(spec, f.name)},
        range_resolution_m=delta_r,
        effective_aperture_m=aperture,
        angular_resolution_rad=theta,
        angular_resolution_deg=theta_deg,
        cell_volume_m3=cell,
        eta_computed=eta_c,
        eta_consistent=consistent,
    )


def compare(specs: list[ArchitectureSpec], r_query: float = 3.0) -> ComparisonReport:
    """Derive every metric row plus pairwise efficiency ratios; NonFiniteMetricError
    names the first of them that is not a finite number > 0, and a spec by its
    index in ``specs``."""
    if not specs:
        raise ValueError("need at least one architecture spec")
    if not 0.0 < r_query < math.inf:
        raise ValueError(f"query range must be finite and positive, got {r_query}")
    rows = tuple(_architecture_row(spec, r_query, f"architectures[{i}]: derived")
                 for i, spec in enumerate(specs))
    ratios_c: dict[str, float] = {}
    ratios_r: dict[str, float] = {}
    for a in rows:
        for b in rows:
            if a.name == b.name:
                continue
            key = f"{a.name}/{b.name}"
            ratios_c[key] = a.eta_computed / b.eta_computed
            if a.eta_reference is not None and b.eta_reference is not None:
                ratios_r[key] = a.eta_reference / b.eta_reference
    for name, ratios in (("eta_ratios_computed", ratios_c), ("eta_ratios_reference", ratios_r)):
        for key, value in ratios.items():
            _positive(f"architectures: {name}", f"'{key}'", value)
    return ComparisonReport(
        r_query_m=r_query,
        rows=rows,
        eta_ratios_computed=ratios_c,
        eta_ratios_reference=ratios_r,
    )


def default_architectures() -> tuple[ArchitectureSpec, ...]:
    """The bundled three-way comparison, all under the same 12 cm / 6 GHz constraints."""
    shared = {"physical_size_m": 0.12, "bandwidth_hz": 6e9, "fov_deg": 60.0}
    return (
        ArchitectureSpec(name="FaA-Single", rf_chains=1, n_samples=128,
                         aperture_kind=APERTURE_VIRTUAL, f_ref_hz=63e9, power_mw=850.0,
                         cost_usd=55.0, eta_reference=926.0, observability="Low",
                         noise_rejection="Medium", **shared),
        ArchitectureSpec(name="FaA-Dual", rf_chains=2, n_samples=64,
                         aperture_kind=APERTURE_VIRTUAL, f_ref_hz=63e9, power_mw=1400.0,
                         cost_usd=90.0, eta_reference=231.0, observability="High",
                         noise_rejection="Medium", **shared),
        ArchitectureSpec(name="1T3R-MIMO", rf_chains=4, n_samples=4,
                         aperture_kind=APERTURE_PHYSICAL, f_ref_hz=60e9, power_mw=1600.0,
                         cost_usd=100.0, eta_reference=58.0, observability="Medium",
                         noise_rejection="High", **shared),
    )
