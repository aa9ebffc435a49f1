"""Physical constants, free-space propagation, substrates, the thick/thin
substrate regime classifier, and the slab pieces both patch geometries
share: the surface-wave factor and the series resistance breakdown.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import ConfigError, DomainError

C0 = 2.99792458e8            # speed of light (m/s)
MU0 = 4e-7 * math.pi         # vacuum permeability (H/m)
EPS0 = 1.0 / (MU0 * C0**2)   # vacuum permittivity (F/m)
ETA0 = MU0 * C0              # vacuum wave impedance (ohm), ~ 376.73 ~ 120*pi


@dataclass(frozen=True)
class SubstrateSpec:
    """Dielectric slab plus the patch-metal conductivity.

    Lengths are meters. Defaults: loss tangent 1e-3, copper conductivity
    5.8e7 S/m; override both for other laminates/metals.
    """

    eps_r: float
    h: float
    tan_delta: float = 1e-3
    sigma: float = 5.8e7

    def __post_init__(self) -> None:
        if not self.eps_r >= 1.0:
            raise DomainError(f"relative permittivity must be >= 1, got {self.eps_r}")
        if not self.h > 0.0:
            raise DomainError(f"substrate thickness must be > 0, got {self.h}")
        if not self.tan_delta >= 0.0:
            raise DomainError(f"loss tangent must be >= 0, got {self.tan_delta}")
        if not self.sigma > 0.0:
            raise DomainError(f"conductivity must be > 0, got {self.sigma}")


@dataclass(frozen=True)
class ResistanceBreakdown:
    """Series resistance decomposition; R_total is always the exact sum."""

    R_r: float
    R_s: float
    R_c: float
    R_d: float
    R_total: float


class Regime(Enum):
    THICK = "thick"
    THIN = "thin"


@dataclass(frozen=True)
class RegimeReport:
    ratio: float       # h / lambda0
    threshold: float   # regime boundary for this permittivity
    regime: Regime


def free_space_wavelength(f: float) -> float:
    """lambda0 = c / f, f in Hz."""
    if not f > 0.0:
        raise DomainError(f"frequency must be > 0, got {f}")
    return C0 / f


def wavenumber(f: float) -> float:
    """k0 = 2*pi / lambda0 (rad/m)."""
    return 2.0 * math.pi / free_space_wavelength(f)


# Surface-wave onset anchors: (eps_r, h/lambda0 boundary). The boundary
# scales with electrical thickness, so interpolate linearly in 1/sqrt(eps_r)
# and clamp outside the anchor range.
_ANCHOR_LO = (2.32, 0.09)
_ANCHOR_HI = (10.0, 0.03)


def regime_threshold(eps_r: float) -> float:
    """h/lambda0 boundary above which thin-substrate design formulas fail."""
    if not eps_r >= 1.0:
        raise DomainError(f"relative permittivity must be >= 1, got {eps_r}")
    x1, t1 = 1.0 / math.sqrt(_ANCHOR_LO[0]), _ANCHOR_LO[1]
    x2, t2 = 1.0 / math.sqrt(_ANCHOR_HI[0]), _ANCHOR_HI[1]
    x = 1.0 / math.sqrt(eps_r)
    t = t1 + (t2 - t1) * (x - x1) / (x2 - x1)
    return min(max(t, 0.03), 0.09)


def thickness_regime(sub: SubstrateSpec, f: float) -> RegimeReport:
    """Classify the substrate as electrically thick or thin at frequency f.

    Advisory only: callers should warn on THICK/THIN mismatches with the
    formula set in use, never hard-fail.
    """
    ratio = sub.h / free_space_wavelength(f)
    threshold = regime_threshold(sub.eps_r)
    regime = Regime.THICK if ratio > threshold else Regime.THIN
    return RegimeReport(ratio=ratio, threshold=threshold, regime=regime)


def surface_wave_factor(
    sub: SubstrateSpec, f: float, t1_form: str = "printed"
) -> tuple[float, float]:
    """Surface-wave wavenumber K1 and loss factor T1 = R_s / R_r.

    ``t1_form`` selects the bracket of the loss factor: ``"printed"`` keeps
    both terms as (1 + (K1 h)^2/3)^2; ``"corrected"`` flips the first term's
    sign to (1 - (K1 h)^2/3)^2 for sensitivity runs.

    eps_r = 1 supports no surface wave and returns (0.0, 0.0).
    """
    if t1_form not in ("printed", "corrected"):
        raise ConfigError(f"unknown T1 form {t1_form!r}; use 'printed' or 'corrected'")
    er = sub.eps_r
    k0 = wavenumber(f)
    num = -er * er + er * math.sqrt(er * er + 4.0 * k0 * k0 * sub.h * sub.h * (er - 1.0))
    if num <= 0.0:
        return 0.0, 0.0
    K1 = math.sqrt(num / (2.0 * sub.h * sub.h))
    u = K1 * sub.h
    u2_3 = u * u / 3.0
    first = (1.0 - u2_3) ** 2 if t1_form == "corrected" else (1.0 + u2_3) ** 2
    second = (1.0 + u2_3) ** 2 / math.cos(u) ** 2
    T1 = (u / er) ** 2 * (first + second)
    return K1, T1
