"""Circular patch (lowest mode) synthesis, loss decomposition, feed
placement, far fields, directivity, efficiency, and gain.

Radius synthesis inverts the resonance condition of the lowest cavity mode,
whose in-cavity wavenumber satisfies k * a_eff = 1.84118... (first root of
J1'). The effective radius includes the fringing enlargement by default; a
no-fringing mode is available behind the ``fringing`` flag for literal
closed-form reproduction.

Loss bookkeeping is one budget pass per (design, f, t1_form). It evaluates
the pattern integral I of Balanis section 14.3 once, in ``_radiation``,
and takes from it the radiation resistance R_r, the radiated power P_r and
the directivity D = 4 / I. Surface-wave, conductor, and dielectric
resistances are series terms proportional to their loss powers,
R_x = R_r * P_x / P_r, so the efficiency R_r / R_total equals the radiated
fraction of the input power exactly. The stored energy is Lommel's exact
integral of the mode profile. The pass yields all powers, the resistances,
the Q, e_r, D and G, and refuses a P_r, R_r or R_total that is not finite
and positive; read it through :func:`loss_report`, :func:`r_total_circ`,
:func:`resonator_terms_circ`, :func:`efficiency`, :func:`gain` and
:func:`p_radiated`. The alternative closed-form (voltage route)
conductor/dielectric resistances are kept as cross-checks in
:func:`r_conductor_circ_printed` / :func:`r_dielectric_circ_printed`.

Far field: for k0 a_eff <= 1.6, I is summed from the exact power series of
I in (k0 a_eff)^2, whose coefficients are built once at import; above that
the alternating series loses digits and a fixed 32-node Gauss-Legendre
rule in theta takes over. :func:`directivity` is 4 / I on its own, for
callers without a substrate budget. :func:`pattern_cuts` evaluates both
principal-plane cuts from one Bessel pass over theta >= 0, each a
:class:`PatternCut` of theta (radians) and dB columns whose rows iterate as
floats; :func:`pattern_cut` forms one.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SynthesisError
from .media import (EPS0, ETA0, MU0, C0, ResistanceBreakdown, SubstrateSpec,
                    free_space_wavelength, surface_wave_factor, wavenumber)
from .specfun import Bracket, bessel_j, bessel_j_rows, find_root_bracketed

# First positive root of J1'; reproduced by specfun.jprime_first_root(1).
J1P_FIRST_ROOT = 1.8411837813406593

_J1_AT_ROOT = bessel_j(1, J1P_FIRST_ROOT)  # peak value of J1, ~0.581865

# J1(c)^2 (c^2 - 1) at c = J1P_FIRST_ROOT; every closed form of the stored
# energy and of the voltage-route resistances carries it.
_EDGE_BRACKET = _J1_AT_ROOT**2 * (J1P_FIRST_ROOT**2 - 1.0)


@dataclass(frozen=True)
class CircPatchDesign:
    """Circular patch: physical radius a, fringing-enlarged radius a_eff,
    feed radius rho0 (None = edge-equivalent reference), all meters."""

    a: float
    a_eff: float
    rho0: float | None
    substrate: SubstrateSpec
    f_design: float

    def __post_init__(self) -> None:
        if not self.a > 0.0:
            raise DomainError(f"disk radius must be > 0, got {self.a}")
        if not self.a_eff >= self.a:
            raise DomainError(
                f"effective radius must be >= physical radius, got {self.a_eff} < {self.a}"
            )
        if self.rho0 is not None and not 0.0 <= self.rho0 <= self.a:
            raise DomainError(f"feed radius must lie in [0, a], got {self.rho0}")
        if not self.f_design > 0.0:
            raise DomainError(f"design frequency must be > 0, got {self.f_design}")


@dataclass(frozen=True)
class CircLossReport:
    P_r: float
    P_s: float
    P_c: float
    P_d: float
    W_T: float
    breakdown: ResistanceBreakdown
    e_r: float
    D: float
    G: float


def effective_radius(a: float, sub: SubstrateSpec) -> float:
    """Fringing-enlarged disk radius.

    a_eff = a * sqrt(1 + (2h / (pi a eps_r)) (ln(pi a / 2h) + 1.7726));
    tends to a as h -> 0 and grows monotonically with h in the working range.
    For disks far smaller than the substrate thickness (a < ~0.11 h) the
    fit's correction turns negative, which is outside its validity; it is
    clamped there so a_eff >= a always holds and radius synthesis can
    bracket safely.
    """
    if not a > 0.0:
        raise DomainError(f"disk radius must be > 0, got {a}")
    term = 2.0 * sub.h / (math.pi * a * sub.eps_r) * (
        math.log(math.pi * a / (2.0 * sub.h)) + 1.7726
    )
    return a * math.sqrt(max(1.0 + term, 1.0))


def resonant_frequency(a: float, sub: SubstrateSpec, fringing: bool = True) -> float:
    """Lowest-mode resonance of a disk of physical radius a."""
    a_eff = effective_radius(a, sub) if fringing else a
    return J1P_FIRST_ROOT * C0 / (2.0 * math.pi * a_eff * math.sqrt(sub.eps_r))


def resonant_radius(f0: float, sub: SubstrateSpec, fringing: bool = True) -> float:
    """Physical radius resonating at f0; inverse of :func:`resonant_frequency`."""
    if not 0.0 < f0 < math.inf:
        raise DomainError(f"frequency must be finite and > 0, got {f0}")
    a0 = J1P_FIRST_ROOT * C0 / (2.0 * math.pi * f0 * math.sqrt(sub.eps_r))
    if not fringing:
        return a0
    try:
        return find_root_bracketed(
            lambda a: resonant_frequency(a, sub) - f0,
            Bracket(0.1 * a0, 10.0 * a0),
            tol=1e-9 * a0,
        )
    except Exception as exc:
        raise SynthesisError(f"radius synthesis failed at f0={f0:.6g} Hz: {exc}") from exc


def circ_design_from_radius(
    a: float,
    sub: SubstrateSpec,
    f_design: float,
    fringing: bool = True,
    rho0: float | None = None,
) -> CircPatchDesign:
    """Wrap a known physical radius into a design record."""
    a_eff = effective_radius(a, sub) if fringing else a
    return CircPatchDesign(a=a, a_eff=a_eff, rho0=rho0, substrate=sub, f_design=f_design)


def _check_e0(E0: float, zero_ok: bool = False) -> None:
    # Powers and energies scale with E0^2 and are exactly 0 at E0 = 0; far
    # fields need a positive amplitude.
    if not (math.isfinite(E0) and (E0 > 0.0 or (zero_ok and E0 == 0.0))):
        bound = ">= 0" if zero_ok else "> 0"
        raise DomainError(f"edge field amplitude must be finite and {bound}, got {E0}")


def _radiation(design: CircPatchDesign, f: float) -> tuple[float, float, float]:
    # R_r and P_r at unit edge field (V0 = h) and the directivity, from one
    # pattern integral I: P_r = pi^3 a_eff^2 h^2 I / (2 lam0^2 eta0),
    # R_r = V0^2 / (2 P_r) and D = 4 / I. k0 a_eff is formed as in
    # directivity, so D has its bits.
    lam0 = free_space_wavelength(f)
    a_eff = design.a_eff
    i = _pattern_integral(2.0 * math.pi / lam0 * a_eff)
    h = design.substrate.h
    area = math.pi**3 * a_eff * a_eff  # a product, where ** would raise on overflow
    r_r = lam0 * lam0 * ETA0 / (area * i)
    p_r = area * h * h / (2.0 * lam0 * lam0 * ETA0) * i
    if not (0.0 < p_r < math.inf and 0.0 < r_r < math.inf):
        # V0^2 = h^2 underflows, or the disk or wavelength overflows
        raise DomainError(
            f"radiated power must be finite and > 0, got {p_r} W (R_r = {r_r} ohm)")
    return r_r, p_r, 4.0 / i


def p_radiated(design: CircPatchDesign, f: float, E0: float = 1.0) -> float:
    """Radiated power of the lowest mode at edge-field amplitude E0 (W);
    equals ``loss_report(design, f, E0).P_r``."""
    _check_e0(E0, zero_ok=True)
    return E0 * E0 * _radiation(design, f)[1]


def stored_energy(design: CircPatchDesign, E0: float = 1.0) -> float:
    """Total energy stored in the cavity at resonance (J).

    W_T = (eps0 eps_r h pi E0^2 / 2) * integral_0^a_eff J1(k11 rho)^2 rho drho,
    and by Lommel's integral with J1'(c) = 0 at c = k11 a_eff the radial
    integral is exactly (a_eff^2 / 2) J1(c)^2 (1 - 1/c^2).
    """
    _check_e0(E0, zero_ok=True)
    sub = design.substrate
    try:  # **, not a product, whose last bit can differ
        integral = 0.5 * design.a_eff**2 * _EDGE_BRACKET / J1P_FIRST_ROOT**2
    except OverflowError as exc:
        raise DomainError(f"stored energy overflows at a_eff = {design.a_eff} m") from exc
    return 0.5 * EPS0 * sub.eps_r * sub.h * math.pi * E0 * E0 * integral


def stored_energy_closed_form(design: CircPatchDesign, f: float, E0: float = 1.0) -> float:
    """The stored energy written with the frequency instead of the radius;
    equals :func:`stored_energy` at the design resonance. Cross-check only."""
    _check_e0(E0, zero_ok=True)
    omega = 2.0 * math.pi * f
    return E0 * E0 * design.substrate.h / (8.0 * omega * f * MU0) * _EDGE_BRACKET


def r_dielectric_circ_printed(design: CircPatchDesign, f: float) -> float:
    """Voltage-route closed form 4 mu0 f h / (tan_delta * J1^2(c) (c^2 - 1)).

    Equals (E0 h)^2 / (2 P_d); kept as a cross-check of the series value.
    Returns +inf for a lossless dielectric.
    """
    sub = design.substrate
    if sub.tan_delta == 0.0:
        return math.inf
    return 4.0 * MU0 * f * sub.h / (sub.tan_delta * _EDGE_BRACKET)


def r_conductor_circ_printed(design: CircPatchDesign, f: float) -> float:
    """Voltage-route closed form 4 mu0 f h^2 sqrt(pi f mu0 sigma) / (J1^2(c) (c^2 - 1))."""
    sub = design.substrate
    return 4.0 * MU0 * f * sub.h**2 * math.sqrt(math.pi * f * MU0 * sub.sigma) / _EDGE_BRACKET


# Powers and stored energy at unit edge field, with the series resistances
# R_x = R_r * P_x / P_r they imply, the Q, the efficiency, the directivity
# and the gain.
_Budget = namedtuple("_Budget", "P_r P_s P_c P_d W_T breakdown Q e_r D G")


def _budget(design: CircPatchDesign, f: float, t1_form: str) -> _Budget:
    sub = design.substrate
    r_r, p_r, d = _radiation(design, f)
    _, t1 = surface_wave_factor(sub, f, t1_form)
    omega = 2.0 * math.pi * f
    w_t = stored_energy(design)
    # P_c = omega W_T / (h sqrt(pi f mu0 sigma)), P_d = omega tan_delta W_T
    p_c = omega * w_t / (sub.h * math.sqrt(math.pi * f * MU0 * sub.sigma))
    p_d = omega * sub.tan_delta * w_t
    r_s, r_c, r_d = t1 * r_r, r_r * p_c / p_r, r_r * p_d / p_r
    r_total = r_r + r_s + r_c + r_d
    if not 0.0 < r_total < math.inf:
        raise DomainError(f"total resistance must be finite and > 0, got {r_total} ohm")
    # omega W_T over the summed powers, written as omega W_T R_r / (P_r R_total)
    q = omega * w_t * r_r / (p_r * r_total)
    e_r = r_r / r_total
    return _Budget(
        P_r=p_r, P_s=t1 * p_r, P_c=p_c, P_d=p_d, W_T=w_t,
        breakdown=ResistanceBreakdown(R_r=r_r, R_s=r_s, R_c=r_c, R_d=r_d, R_total=r_total),
        Q=q, e_r=e_r, D=d, G=e_r * d,
    )


def r_total_circ(
    design: CircPatchDesign, f: float, t1_form: str = "printed"
) -> ResistanceBreakdown:
    """Series resistance breakdown at the edge-equivalent reference."""
    return _budget(design, f, t1_form).breakdown


def _feed_taper(design: CircPatchDesign, rho0: float | None) -> float:
    # None is the edge-equivalent reference, where the taper is 1.
    if rho0 is None:
        return 1.0
    if not 0.0 <= rho0 <= design.a:
        raise DomainError(f"feed radius must lie in [0, a], got {rho0}")
    k11 = J1P_FIRST_ROOT / design.a_eff
    j = bessel_j(1, k11 * rho0)
    return (j / _J1_AT_ROOT) ** 2


def _basis_resistance(design: CircPatchDesign, f: float, basis: str, t1_form: str) -> float:
    if basis == "total":
        return r_total_circ(design, f, t1_form).R_total
    if basis == "radiation":
        return _radiation(design, f)[0]
    raise DomainError(f"unknown basis {basis!r}; use 'total' or 'radiation'")


def input_resistance_circ(
    design: CircPatchDesign,
    f: float,
    rho0: float | None = None,
    basis: str = "total",
    t1_form: str = "printed",
) -> float:
    """Input resistance at feed radius rho0 via the J1^2 mode taper.

    ``basis="total"`` tapers the full series resistance (the realized input
    resistance). ``basis="radiation"`` tapers the radiation term alone - the
    classical placement rule; a feed placed with it sees the slightly larger
    total-basis resistance, which is what sets the residual mismatch of the
    synthesized designs.
    """
    if rho0 is None:
        rho0 = design.rho0
    return _basis_resistance(design, f, basis, t1_form) * _feed_taper(design, rho0)


def resonator_terms_circ(
    design: CircPatchDesign, f: float, t1_form: str = "printed"
) -> tuple[float, float]:
    """Total-basis input resistance at the design's feed radius and the Q
    (omega W_T over the summed loss powers), both from one budget pass; the
    first equals ``input_resistance_circ(design, f, basis="total")``."""
    b = _budget(design, f, t1_form)
    return b.breakdown.R_total * _feed_taper(design, design.rho0), b.Q


def feed_radius_for_match(
    design: CircPatchDesign,
    f: float,
    target_R: float,
    basis: str = "total",
    t1_form: str = "printed",
) -> float:
    """Feed radius where the tapered input resistance equals target_R.

    Solves J1^2(k11 rho0) / J1^2(k11 a_eff) = target_R / R_basis on [0, a];
    fails if the target exceeds the resistance available at the physical edge.
    """
    if not target_R > 0.0:
        raise DomainError(f"target resistance must be > 0, got {target_R}")
    base = _basis_resistance(design, f, basis, t1_form)
    k11 = J1P_FIRST_ROOT / design.a_eff
    # the _feed_taper of the physical edge, with J1 there kept for the bracket
    j_edge = bessel_j(1, k11 * design.a)
    edge = base * (j_edge / _J1_AT_ROOT) ** 2
    if target_R > edge:
        raise DomainError(
            f"target {target_R:.4g} ohm exceeds the {edge:.4g} ohm available at "
            f"the disk edge; no feed radius can match it"
        )
    j_target = math.sqrt(target_R / base) * _J1_AT_ROOT
    if j_target >= j_edge:
        # the edge resistance itself, which the square root can round past
        return design.a
    # J1(k11 rho) rises monotonically on [0, a] (its first peak is at the
    # effective edge), so the bracket is guaranteed.
    return find_root_bracketed(
        lambda rho: bessel_j(1, k11 * rho) - j_target,
        Bracket(0.0, design.a),
        tol=1e-12 * design.a,
    )


def far_fields(
    design: CircPatchDesign,
    f: float,
    E0: float,
    theta: float | np.ndarray,
    phi: float | np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Far-field magnitudes |E_theta|, |E_phi| of the lowest mode at 1 m.

    Standard two-term form over an infinite ground plane:
    E_theta ~ cos(phi) [J0(u) - J2(u)], E_phi ~ cos(theta) sin(phi)
    [J0(u) + J2(u)] with u = k0 a_eff sin(theta), common prefactor
    E0 h k0 a_eff / 2. Hemispherical integration of these fields reproduces
    :func:`p_radiated`, which integrates the same pattern exactly in theta,
    to the accuracy of the quadrature grid.

    theta is restricted to the upper hemisphere [0, pi/2]; angles must be
    finite and E0 finite and positive.
    """
    _check_e0(E0)
    theta_arr = np.asarray(theta, dtype=float)
    phi_arr = np.asarray(phi, dtype=float)
    if not (np.all(np.isfinite(theta_arr)) and np.all(np.isfinite(phi_arr))):
        raise DomainError("theta and phi must be finite")
    if np.any(theta_arr < 0.0) or np.any(theta_arr > math.pi / 2 + 1e-12):
        raise DomainError("theta must lie in the upper hemisphere [0, pi/2]")
    k0 = wavenumber(f)
    j0, j2 = bessel_j_rows((0, 2), k0 * design.a_eff * np.sin(theta_arr))
    pref = E0 * design.substrate.h * k0 * design.a_eff / 2.0
    e_theta = np.abs(pref * np.cos(phi_arr) * (j0 - j2))
    e_phi = np.abs(pref * np.cos(theta_arr) * np.sin(phi_arr) * (j0 + j2))
    return e_theta, e_phi


_POWER_THETA = np.linspace(0.0, math.pi / 2, 181)
_POWER_PHI = np.linspace(0.0, 2.0 * math.pi, 361)


def radiated_power_from_pattern(design: CircPatchDesign, f: float, E0: float = 1.0) -> float:
    """Hemispherical trapezoid quadrature of the far-field power density (W)
    on a fixed (theta, phi) grid: 181 x 361 points, 0.5 by 1 degree."""
    theta, phi = _POWER_THETA, _POWER_PHI
    e_theta, e_phi = far_fields(design, f, E0, theta[:, None], phi[None, :])
    integrand = (e_theta**2 + e_phi**2) * np.sin(theta)[:, None] / (2.0 * ETA0)
    inner = np.trapezoid(integrand, phi, axis=1)
    return float(np.trapezoid(inner, theta))


def _legendre(n: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # P_n(x) and P_n'(x) by the three-term recurrence, for |x| < 1
    p_prev, p = np.ones_like(x), x
    for k in range(2, n + 1):
        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    return p, n * (x * p - p_prev) / (x * x - 1.0)


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    # Nodes and weights on [-1, 1]: Newton on P_n from the asymptotic
    # guesses, all nodes at once; w = 2 / ((1 - x^2) P_n'(x)^2).
    x = np.cos(math.pi * (np.arange(1, n + 1) - 0.25) / (n + 0.5))
    for _ in range(100):
        p, dp = _legendre(n, x)
        dx = p / dp
        x = x - dx
        if np.max(np.abs(dx)) <= 1e-15:
            break
    _, dp = _legendre(n, x)
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


# The 32-node Gauss-Legendre rule on theta in [0, pi/2], built once. The
# directivity integrand is analytic in theta, so the rule converges
# exponentially: within ~1e-15 of an adaptive reference for k0 a_eff <= 8
# and ~2e-14 up to 20.
_GL_X, _GL_W = _gauss_legendre(32)
_GL_THETA = 0.25 * math.pi * (_GL_X + 1.0)
_GL_WEIGHTS = 0.25 * math.pi * _GL_W
_GL_SIN = np.sin(_GL_THETA)
_GL_COS2 = np.cos(_GL_THETA) ** 2


def _pattern_series(terms: int) -> tuple[float, ...]:
    # Coefficients c_m of I(s) = sum_m c_m s^(2m), the pattern integral
    # int_0^(pi/2) [(J0 - J2)^2 + cos^2(t) (J0 + J2)^2] sin(t) dt at
    # u = s sin(t). In powers of u^2, J0 - J2 = 2 J1'(u) and
    # J0 + J2 = 2 J1(u) / u have the coefficients (-1)^i (2i + 1) / (4^i i! (i + 1)!)
    # and (-1)^i / (4^i i! (i + 1)!) (Abramowitz & Stegun 9.1.10). Over the
    # common denominator 4^m m! (m + 2)!, the u^(2m) coefficients of their
    # squares have the integer numerators s_m below and C(2m + 2, m + 1)
    # (Vandermonde). The Wallis integrals of sin^(2m+1) and of
    # cos^2 sin^(2m+1) over [0, pi/2] are 4^m m!^2 / (2m + 1)! and that over
    # 2m + 3, so each c_m is a ratio of integers, kept as the nearest float.
    coeffs = []
    for m in range(terms):
        s_m = sum((2 * i + 1) * (2 * m - 2 * i + 1) * math.comb(m, i) * math.comb(m + 2, i + 1)
                  for i in range(m + 1))
        num = (-1) ** m * math.factorial(m) * ((2 * m + 3) * s_m + math.comb(2 * m + 2, m + 1))
        den = (2 * m + 3) * math.factorial(2 * m + 1) * math.factorial(m + 2)
        coeffs.append(num / den)  # int / int rounds once
    return tuple(coeffs)


# I as its power series in s^2 = (k0 a_eff)^2, summed by Horner's rule for
# k0 a_eff <= 1.6; the first omitted term is below 1e-17 of I there. The
# series alternates and its largest term grows with k0 a_eff (2.7 I at
# 1.6), so the plain sum drifts past the Gauss-Legendre rule's ~5e-16 just
# above 1.6, and the rule takes over there.
_SERIES_MAX_K0A = 1.6
_PATTERN_SERIES = _pattern_series(15)


def _pattern_integral(k0a: float) -> float:
    # I at k0 a_eff: the power series up to _SERIES_MAX_K0A, the
    # Gauss-Legendre rule above
    if k0a <= _SERIES_MAX_K0A:
        s2 = k0a * k0a
        total = 0.0
        for c in reversed(_PATTERN_SERIES):
            total = total * s2 + c
        return total
    j0, j2 = bessel_j_rows((0, 2), k0a * _GL_SIN)
    integrand = ((j0 - j2) ** 2 + _GL_COS2 * (j0 + j2) ** 2) * _GL_SIN
    # an elementwise product and np.sum, not a BLAS dot, so the bits do
    # not depend on the BLAS build
    return float(np.sum(_GL_WEIGHTS * integrand))


def directivity(design: CircPatchDesign, f: float) -> float:
    """Broadside directivity of the modeled pattern (dimensionless).

    D = 4 pi U(theta=0) / P_rad with the radiated power integrated from the
    same pattern, so amplitude and reference distance cancel: D = 4 / I
    with I the theta integral of the normalized pattern. Tends to 3.0 as
    the disk becomes electrically small. For k0 a_eff <= 1.6 (a disk at
    its own resonance on any substrate with eps_r >= 1.33), I is summed from
    its exact power series in (k0 a_eff)^2, within 5e-16 of the exact D;
    above, I is a fixed 32-node Gauss-Legendre rule on [0, pi/2], within
    about 1e-15 up to 8 and 2e-14 up to 20.
    """
    return 4.0 / _pattern_integral(wavenumber(f) * design.a_eff)


def efficiency(design: CircPatchDesign, f: float, t1_form: str = "printed") -> float:
    """Radiated fraction of the input power, e_r = R_r / R_total in (0, 1]."""
    return _budget(design, f, t1_form).e_r


def gain(design: CircPatchDesign, f: float, t1_form: str = "printed") -> float:
    """G = e_r * D (dimensionless), from one budget pass."""
    return _budget(design, f, t1_form).G


# Steps below this would give more than 180,001 samples per cut.
_MIN_STEP = math.radians(0.001)


@dataclass(frozen=True, eq=False)
class PatternCut:
    """A principal-plane cut as two float64 columns of equal length:
    ``theta`` (radians, ascending, symmetric about 0) and ``db`` (dB
    relative to broadside). ``len(cut)`` is the number of rows, and
    iterating yields the ``(theta, dB)`` rows as Python floats."""

    theta: np.ndarray
    db: np.ndarray

    def __len__(self) -> int:
        return len(self.theta)

    def __iter__(self):
        return zip(self.theta.tolist(), self.db.tolist())


# The two planes' levels at theta >= 0 from J0 and J2 at k0 a_eff sin(theta):
# |E_theta| at phi = 0 and |E_phi| at phi = pi/2 over their common
# prefactor, so both are exactly 1.0 at broadside.
_PLANE_LEVELS = {
    "E": lambda theta, j0, j2: np.abs(j0 - j2),
    "H": lambda theta, j0, j2: np.abs(np.cos(theta) * (j0 + j2)),
}


def _cut_grid(
    design: CircPatchDesign, f: float, step: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # The angles theta = k * step, k = -n..n, of a cut, with J0 and J2 at
    # the angles theta >= 0 from one Bessel pass. The step is checked
    # before any array is built.
    if not 0.0 < step <= math.pi / 2 + 1e-12:
        raise DomainError(
            f"pattern step must lie in (0, 90] degrees, got {math.degrees(step)!r} degrees")
    if step < _MIN_STEP:
        raise DomainError(
            f"pattern step must be at least 0.001 degrees (180,001 samples per cut), "
            f"got {math.degrees(step)!r} degrees")
    # n * step must stay within the upper hemisphere
    n = int(round(math.pi / 2 / step))
    while n * step > math.pi / 2 + 1e-12:
        n -= 1
    theta = np.arange(-n, n + 1) * step  # (-k) * step is -(k * step) exactly
    j0, j2 = bessel_j_rows((0, 2), wavenumber(f) * design.a_eff * np.sin(theta[n:]))
    return theta, j0, j2


def _cut(theta: np.ndarray, j0: np.ndarray, j2: np.ndarray, plane: str) -> PatternCut:
    # The plane's levels at theta >= 0 in dB, mirrored onto theta < 0; the
    # cut is symmetric. A level of 0 gives -inf dB.
    n = len(j0) - 1
    level = _PLANE_LEVELS[plane](theta[n:], j0, j2)
    db = np.empty_like(theta)
    # entering np.errstate costs more than the log10 pass itself
    if level.all():
        np.log10(level, out=db[n:])
    else:
        with np.errstate(divide="ignore"):
            np.log10(level, out=db[n:])
    db[n:] *= 20.0
    db[:n] = db[:n:-1]
    return PatternCut(theta, db)


def pattern_cuts(
    design: CircPatchDesign, f: float, step: float = math.pi / 180
) -> tuple[PatternCut, PatternCut]:
    """Both principal-plane cuts, ``(pattern_cut(.., "E", step),
    pattern_cut(.., "H", step))``, from one Bessel pass."""
    theta, j0, j2 = _cut_grid(design, f, step)
    return _cut(theta, j0, j2, "E"), _cut(theta, j0, j2, "H")


def pattern_cut(
    design: CircPatchDesign, f: float, plane: str, step: float = math.pi / 180
) -> PatternCut:
    """Principal-plane pattern cut, normalized to 0 dB at broadside, as a
    :class:`PatternCut` with columns ``theta`` (radians) and ``db``.

    ``plane="E"`` is the |E_theta| cut in the phi = 0 plane, ``plane="H"``
    the |E_phi| cut in the phi = pi/2 plane. Theta runs over the multiples
    of ``step`` (radians, from 0.001 degrees to pi/2) in [-pi/2, pi/2]: the
    outermost is round(pi/2 / step) steps out, one fewer where that would
    pass pi/2. Negative angles map to the mirrored azimuth, so the fields
    are evaluated on theta >= 0 and mirrored. The levels are formed
    relative to broadside, where both are exactly 1.0, so broadside is
    exactly 0 dB; nulls give -inf dB. For both planes,
    :func:`pattern_cuts` shares one Bessel pass.
    """
    if plane not in ("E", "H"):
        raise DomainError(f"plane must be 'E' or 'H', got {plane!r}")
    return _cut(*_cut_grid(design, f, step), plane)


def loss_report(
    design: CircPatchDesign, f: float, E0: float = 1.0, t1_form: str = "printed"
) -> CircLossReport:
    """Powers, stored energy, resistance breakdown, efficiency, directivity,
    and gain in one record; powers and energy scale with E0^2, nothing else
    depends on it."""
    _check_e0(E0, zero_ok=True)
    b = _budget(design, f, t1_form)
    e0sq = E0 * E0
    return CircLossReport(
        P_r=e0sq * b.P_r, P_s=e0sq * b.P_s, P_c=e0sq * b.P_c, P_d=e0sq * b.P_d,
        W_T=e0sq * b.W_T, breakdown=b.breakdown, e_r=b.e_r, D=b.D, G=b.G,
    )


def synth_circ(
    f0: float,
    sub: SubstrateSpec,
    target_R: float = 50.0,
    fringing: bool = True,
) -> CircPatchDesign:
    """Synthesize a circular patch resonant at f0 with the feed placed for
    target_R.

    The placement tapers the radiation resistance (the classical rule);
    evaluate the realized match with
    ``input_resistance_circ(design, f0, basis="total")``.
    """
    a = resonant_radius(f0, sub, fringing)
    design = circ_design_from_radius(a, sub, f0, fringing)
    rho0 = feed_radius_for_match(design, f0, target_R, basis="radiation")
    return circ_design_from_radius(a, sub, f0, fringing, rho0=rho0)
