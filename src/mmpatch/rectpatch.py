"""Rectangular patch synthesis and input-resistance analysis on thick substrates.

One analysis pass per (design, f, variant, t1_form) decomposes the
resonant input resistance into four series terms:

    R_in = R_r (radiation) + R_s (surface wave) + R_c (conductor) + R_d (dielectric)

with the radiation term additionally tapered by the feed inset position.
The surface-wave term is tied to the radiation term through the loss factor
T1 returned by :func:`mmpatch.media.surface_wave_factor`. The pass has three
readers: :func:`input_resistance_rect`, :func:`resonator_terms_rect` and
:func:`analyze_rect`, whose :class:`RectDerived` holds every intermediate term.

Two radiation-resistance model variants are exposed and must be selected
explicitly:

* ``"eq8-literal"``   - transit-time reading of the empirical radiation
  formula, R_r = Z0w * lambda0 / (2*pi*L_ef);
* ``"calibrated"``    - the same quantity rescaled by a frozen constant so
  that the reference 39 GHz design (eps_r = 4.7, h = 0.8 mm, L = 1.06 mm,
  W = 0.98 mm) presents exactly 50 ohm at a 0.05 mm feed inset.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

from .errors import ConfigError, DomainError, SingularFeedError, SynthesisError
from .media import (ETA0, MU0, ResistanceBreakdown, SubstrateSpec, free_space_wavelength,
                    surface_wave_factor, wavenumber)

RECT_VARIANTS = ("eq8-literal", "calibrated")

# Frozen scale applied to the eq8-literal radiation resistance so the
# reference design above hits a 50 ohm match; re-derived in the test suite.
RECT_CALIBRATION_SCALE = 0.7044537608944994


@dataclass(frozen=True)
class RectPatchDesign:
    """Rectangular patch geometry: resonant length L, width W, feed inset
    measured inward from the radiating edge (all meters)."""

    L: float
    W: float
    feed_offset_a: float
    substrate: SubstrateSpec
    f_design: float

    def __post_init__(self) -> None:
        if not self.L > 0.0:
            raise DomainError(f"patch length must be > 0, got {self.L}")
        if not self.W > 0.0:
            raise DomainError(f"patch width must be > 0, got {self.W}")
        if not 0.0 <= self.feed_offset_a <= 0.5 * self.L:
            raise DomainError(
                f"feed inset must lie in [0, L/2] = [0, {0.5 * self.L}], "
                f"got {self.feed_offset_a}"
            )
        if not self.f_design > 0.0:
            raise DomainError(f"design frequency must be > 0, got {self.f_design}")


@dataclass(frozen=True)
class RectDerived:
    """Intermediate quantities of the analysis chain, kept for reporting."""

    eps_ew: float     # effective permittivity
    Z0w: float        # substrate-filled strip impedance (ohm)
    W_eq: float       # equivalent parallel-plate width (m)
    L_ef: float       # effective resonant length (m)
    delta_L: float    # open-edge length extension (m)
    K1: float         # surface-wave wavenumber (rad/m)
    T1: float         # surface-wave loss factor (dimensionless)
    Q_r: float        # radiation quality factor
    Z0a: float        # air-filled strip impedance (ohm)
    lambda_d: float   # in-dielectric wavelength (m)


def eps_effective(sub: SubstrateSpec, L: float) -> float:
    """Effective permittivity of a patch of resonant length L.

    Fringing fields live partly in air, so the value falls between 1 and
    eps_r, approaching eps_r as h/L -> 0.
    """
    if not L > 0.0:
        raise DomainError(f"length must be > 0, got {L}")
    ratio = 10.0 * sub.h / L
    return 0.5 * ((sub.eps_r + 1.0) + (sub.eps_r - 1.0) / math.sqrt(1.0 + ratio * ratio))


def synth_rect(f0: float, sub: SubstrateSpec) -> RectPatchDesign:
    """Synthesize patch length and width for resonance at f0.

    Empirical thick-substrate fits: L scales with sqrt(h * lambda_d) where
    lambda_d is the in-dielectric wavelength, and W scales with
    lambda0 * ln(lambda0/h). The feed inset is left at 0 for later matching.
    """
    lam0 = free_space_wavelength(f0)
    lam_d = lam0 / math.sqrt(sub.eps_r)
    L = (math.pi / sub.eps_r) * math.sqrt(sub.h * lam_d)
    log_term = math.log(lam0 / sub.h) - 1.0
    if log_term <= 0.0:
        raise SynthesisError(
            f"width fit needs lambda0 > e*h; got lambda0={lam0:.6g} m, h={sub.h:.6g} m"
        )
    ee = eps_effective(sub, L)
    W = lam0 / (2.0 * math.pi * math.sqrt(ee)) * log_term
    return RectPatchDesign(L=L, W=W, feed_offset_a=0.0, substrate=sub, f_design=f0)


def q_radiation(sub: SubstrateSpec, f: float, eps_ew: float) -> float:
    """Radiation quality factor Q_r = (lambda0 / 4h) * sqrt(eps_ew)."""
    if not eps_ew >= 1.0:
        raise DomainError(f"effective permittivity must be >= 1, got {eps_ew}")
    return free_space_wavelength(f) / (4.0 * sub.h) * math.sqrt(eps_ew)


def _z0_strip(eps_r: float, W: float, h: float) -> float:
    # Narrow-strip fit for W/h <= 3.3; classical wide-strip fit above.
    # The two fits meet at the branch point to within ~1.5 %.
    u = W / h
    if u <= 3.3:
        geo = math.log(4.0 * h / W + math.sqrt(2.0 + 16.0 * (h / W) ** 2))
        corr = (eps_r - 1.0) / (eps_r + 1.0) * (0.2258 + 0.1208 / eps_r)
        return ETA0 / (math.pi * math.sqrt(2.0 * (eps_r + 1.0))) * (geo - corr)
    denom = (
        0.5 * u
        + 0.4413
        + 0.0823 * (eps_r - 1.0) / eps_r**2
        + (eps_r + 1.0) / eps_r * (0.231 + 0.1592 * math.log(0.5 * u + 0.94))
    )
    return ETA0 / (2.0 * math.sqrt(eps_r)) / denom


def _feed_factor_raw(x: float) -> float:
    # (1 - sin(2x)/sin(x)) / (1 - cos(2x)) = (1 - 2 cos x) / (2 sin^2 x).
    denom = 1.0 - math.cos(2.0 * x)
    if abs(denom) < 1e-12:
        raise SingularFeedError(
            f"feed-taper denominator 1 - cos(2*k0*(a + delta_L)) vanishes at "
            f"k0*(a + delta_L) = {x:.6g} rad"
        )
    return (1.0 - math.sin(2.0 * x) / math.sin(x)) / denom


# Every term of the analysis chain at one (design, f, variant, t1_form).
_RectPass = namedtuple("_RectPass", "eps_ew Z0w W_eq L_ef delta_L K1 T1 Q_r R_r R_s R_c R_d r_in")


def _rect_pass(design: RectPatchDesign, f: float, variant: str, t1_form: str) -> _RectPass:
    sub = design.substrate
    L, W, h = design.L, design.W, sub.h
    k1, t1 = surface_wave_factor(sub, f, t1_form)
    # the fringing terms; none depends on f
    eew = eps_effective(sub, L)
    z0w = _z0_strip(sub.eps_r, W, h)
    w_eq = ETA0 * h / (z0w * math.sqrt(eew))
    l_ef = L + 0.5 * (w_eq - W) * (eew + 0.9) / (eew - 0.299)
    ratio = L / h
    d_l = 0.412 * h * (eew + 0.9) / (eew - 0.299) * (ratio + 0.264) / (ratio + 0.813)
    q_r = q_radiation(sub, f, eew)
    # R_d is R_c scaled by the dielectric-to-conductor power-loss ratio
    r_c = 0.00027 * (L / W) * q_r * q_r * math.sqrt(f / 1e9)
    r_d = r_c * (sub.tan_delta * h * math.sqrt(math.pi * f * MU0 * sub.sigma))
    if variant not in RECT_VARIANTS:
        raise ConfigError(f"unknown rectangular model variant {variant!r}; "
                          f"expected one of {RECT_VARIANTS}")
    r_r = z0w * free_space_wavelength(f) / (2.0 * math.pi * l_ef)
    if variant == "calibrated":
        r_r = RECT_CALIBRATION_SCALE * r_r
    r_s = t1 * r_r
    # only the radiation term is tapered, by 1 at the radiating edge
    k0 = wavenumber(f)
    taper = _feed_factor_raw(k0 * (design.feed_offset_a + d_l)) / _feed_factor_raw(k0 * d_l)
    r_in = r_r * taper + r_s + r_c + r_d
    if not 0.0 < r_in < math.inf:
        # a negative feed taper (thick low-permittivity laminates) or an overflow
        raise DomainError(f"input resistance must be finite and > 0, got {r_in} ohm")
    return _RectPass(eew, z0w, w_eq, l_ef, d_l, k1, t1, q_r, r_r, r_s, r_c, r_d, r_in)


def input_resistance_rect(
    design: RectPatchDesign, f: float, variant: str, t1_form: str = "printed"
) -> float:
    """Resonant input resistance at the design's feed inset.

    The radiation term is tapered with feed position; surface-wave,
    conductor, and dielectric terms add in series untapered. ``t1_form``
    selects the surface-wave loss factor (see :func:`mmpatch.media.surface_wave_factor`).
    """
    return _rect_pass(design, f, variant, t1_form).r_in


def resonator_terms_rect(
    design: RectPatchDesign, f: float, variant: str, t1_form: str = "printed"
) -> tuple[float, float]:
    """Input resistance at the design's feed inset and the radiation Q, both
    from one analysis pass; equal to :func:`input_resistance_rect` and
    ``q_radiation(sub, f, eps_effective(sub, L))``."""
    p = _rect_pass(design, f, variant, t1_form)
    return p.r_in, p.Q_r


def analyze_rect(
    design: RectPatchDesign, f: float, variant: str, t1_form: str = "printed"
) -> tuple[ResistanceBreakdown, RectDerived, float]:
    """Full analysis: resistance breakdown, derived intermediates, and the
    input resistance at the design's feed inset, with the surface-wave
    term from ``t1_form``; every term comes from one analysis pass."""
    p = _rect_pass(design, f, variant, t1_form)
    sub = design.substrate
    # the pass holds the first eight fields of RectDerived, then R_r R_s R_c R_d
    breakdown = ResistanceBreakdown(*p[8:12], R_total=p.R_r + p.R_s + p.R_c + p.R_d)
    derived = RectDerived(*p[:8], _z0_strip(1.0, design.W, sub.h),
                          free_space_wavelength(f) / math.sqrt(sub.eps_r))
    return breakdown, derived, p.r_in
