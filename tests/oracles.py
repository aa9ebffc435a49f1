"""Independent oracles used to freeze expected values.

These deliberately avoid the library's own evaluation paths: the Bessel
oracle is a fixed-term ascending series over math.factorial, the root
oracle is a standalone bisection, the pattern-power oracle is a
hand-rolled composite-trapezoid quadrature on the published grid, and the
pattern-integral oracle sums the Bessel series in exact rationals.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def series_bessel_j(n: int, x: float, terms: int = 40) -> float:
    """Ascending power series sum_k (-1)^k (x/2)^(2k+n) / (k! (k+n)!)."""
    total = 0.0
    for k in range(terms):
        total += (-1.0) ** k * (x / 2.0) ** (2 * k + n) / (
            math.factorial(k) * math.factorial(k + n)
        )
    return total


def series_bessel_j_prime(n: int, x: float, terms: int = 40) -> float:
    if n == 0:
        return -series_bessel_j(1, x, terms)
    return 0.5 * (series_bessel_j(n - 1, x, terms) - series_bessel_j(n + 1, x, terms))


def bisect(f, lo: float, hi: float, tol: float = 1e-12, maxit: int = 200) -> float:
    flo, fhi = f(lo), f(hi)
    assert flo * fhi < 0.0, "oracle bisection needs a sign change"
    for _ in range(maxit):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0 or hi - lo <= tol:
            return mid
        if (fmid > 0.0) == (flo > 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def trapezoid_2d(values: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    """Composite trapezoid over a tensor grid, written out longhand."""
    wx = np.full(len(x), x[1] - x[0])
    wx[0] *= 0.5
    wx[-1] *= 0.5
    wy = np.full(len(y), y[1] - y[0])
    wy[0] *= 0.5
    wy[-1] *= 0.5
    return float(wx @ values @ wy)


def pattern_power(design, f: float, E0: float = 1.0,
                  n_theta: int = 181, n_phi: int = 361) -> float:
    """Hemispherical power of the far fields on the 181 x 361 grid."""
    from mmpatch.circpatch import far_fields
    from mmpatch.media import ETA0

    theta = np.linspace(0.0, math.pi / 2, n_theta)
    phi = np.linspace(0.0, 2.0 * math.pi, n_phi)
    e_t, e_p = far_fields(design, f, E0, theta[:, None], phi[None, :])
    integrand = (e_t**2 + e_p**2) * np.sin(theta)[:, None] / (2.0 * ETA0)
    return trapezoid_2d(integrand, theta, phi)


def expand_records(obj):
    """``obj`` with every ``mmpatch.tables.Records`` written out as the list
    of row dicts it stands for, for rendering with the standard library."""
    from mmpatch.tables import Records

    if isinstance(obj, Records):
        rows = zip(*(map(float, column) for column in obj.columns))
        return [dict(zip(obj.keys, row)) for row in rows]
    if isinstance(obj, dict):
        return {k: expand_records(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [expand_records(v) for v in obj]
    return obj


def central_difference(f, x: float, step: float = 1e-6) -> float:
    return (f(x + step) - f(x - step)) / (2.0 * step)


def pattern_integral_series(s: float, terms: int = 32) -> Fraction:
    """Partial sum, exact in rationals at the exact value of s, of the
    pattern integral int_0^(pi/2) [(J0 - J2)^2 + cos^2 t (J0 + J2)^2] sin t dt
    at u = s sin t: the ascending series of J0 and J2, their Cauchy squares
    term by term, and the Wallis integrals W_m of sin^(2m+1) t, with
    cos^2 t sin^(2m+1) t integrating to W_m - W_(m+1)."""
    j0 = [Fraction((-1) ** k, 4**k * math.factorial(k) ** 2) for k in range(terms)]
    j2 = [Fraction(0)] + [Fraction((-1) ** (k - 1), 4**k * math.factorial(k - 1)
                                   * math.factorial(k + 1)) for k in range(1, terms)]
    diff = [x - y for x, y in zip(j0, j2)]
    plus = [x + y for x, y in zip(j0, j2)]
    wallis = [Fraction(1)]
    for m in range(1, terms + 1):
        wallis.append(wallis[-1] * Fraction(2 * m, 2 * m + 1))
    s2 = Fraction(s) ** 2
    total = Fraction(0)
    for m in range(terms):
        sq_diff = sum(diff[i] * diff[m - i] for i in range(m + 1))
        sq_plus = sum(plus[i] * plus[m - i] for i in range(m + 1))
        total += (sq_diff * wallis[m] + sq_plus * (wallis[m] - wallis[m + 1])) * s2**m
    return total
