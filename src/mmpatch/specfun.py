"""Bessel functions of the first kind, their derivatives, and bracketed root finding.

Self-contained kernel: no scipy dependency. Two evaluation branches:

* ascending power series for |x| <= 12, terminated once a term drops below
  1e-16 relative to the running sum;
* Miller's downward recurrence with the J0 + 2*sum(J_2k) = 1 normalization
  for larger arguments.

:func:`bessel_j` evaluates one argument. :func:`bessel_j_rows` runs the
same series for several orders over a whole numpy array in one loop: the
rows (one per order) and elements advance together, each step doing the
scalar operations in the scalar order (``term *= hh / (k (k + n))``, then
``total += term``) with the divisors k (k + n) as exact floats. Every step
adds to every element. The scalar stopping rule is tested once per block
of ``_BLOCK`` steps, and the loop ends at the first block end where it
holds for every element. So an element whose scalar loop stopped at step
K, with sum S, still takes the terms after K. They leave S's bits
unchanged, for |x| <= 12. Let q_k = x^2 / (4 k (k + n)), the exact step
ratio, which falls as k grows:

* q_(K+1) < 1/2. Otherwise q_i >= 1/2 for every i <= K + 1, which for
  |x| <= 12 needs K <= 7 and n <= 34. Then no term up to K is below
  1e-15, and each is at most about twice the next, so |S| <= 257 |term_K|
  and the stop rule, |term_K| < 1e-16 max(|S|, 1e-300), cannot hold.
* So each term after K is at most half the one before, to within
  rounding. If |S| >= 1e-300, the stop rule gives |term_K| < 1e-16 |S|,
  and every later term is below 2^-54 |S|: 5.0e-17 |S| against
  5.55e-17 |S|, which leaves room for the 2^-1075 error of a product
  rounded in the subnormal range. Round to nearest returns S for S + t
  whenever |t| < 2^-54 |S|, which is under half the gap from S to either
  neighbour. A term that underflowed to zero stays zero, and of either
  sign it adds nothing to a nonzero S.
* Below the 1e-300 floor the rule is absolute, |term_K| < 1e-316. A later
  nonzero term is added exactly in the subnormal range, so it changes a
  subnormal S: J_80 at x = 0.0082 is such a case. The bound above still
  holds for |S| >= 0.91e-300. An element that stopped below that ends
  below 1e-300, since the later terms and their roundings move it by less
  than 1e-314. So every element that ends below 1e-300 in magnitude is
  summed again by the scalar loop, except at x = 0: there every term
  after the lead is +-0 and both loops give J_n(0) = +0.0 for n >= 1.

A stopped element keeps meeting the rule at every later block end: its
term only shrinks, and its total is S or, below the floor, the rule's
bound is 1e-316 anyway. So the block test passes exactly when every
scalar loop has stopped, and the result is bit-identical to ``bessel_j``
element by element. The rare elements past the series range go to the
scalar Miller branch.

Validated to better than 1e-10 absolute error for |x| <= 30, which covers
every argument the patch models produce (their arguments stay below ~3).
Arguments with |x| > 100, and non-finite ones, raise DomainError: the cost
of Miller's recurrence grows with x.

:func:`find_root_bracketed` is Brent's zeroin (Brent, *Algorithms for
Minimization without Derivatives*, 1973, ch. 4) with an evaluation budget
in the manner of ITP (Oliveira and Takahashi, ACM TOMS 47(1), 2020): at
most four evaluations more than bisection would make, and it returns a
point whose final sign-change bracket is at most ``tol`` wide. On the
patch models' smooth residuals it needs about a quarter of bisection's
evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BracketError, ConvergenceError, DomainError

_SERIES_CUTOFF = 12.0
_MAX_ITERATIONS = 100
_SPARE_STEPS = 4  # root-search steps allowed beyond bisection's count
_MAX_TERMS = 200  # series steps; |x| <= 12 stops well before
# Series steps per stop test in bessel_j_rows. J0 and J2 stop by step 12 for
# |x| <= 2, which covers every pattern cut of a disk at its own resonance
# (k0 a_eff = 1.84 / sqrt(eps_r)), so a cut tests once.
_BLOCK = 12
# Largest |x| accepted. Miller's recurrence starts near order x, so its cost
# grows with x; the patch models stay below ~3 and the tests reach 30.
_MAX_ARG = 100.0
_STEPS = np.arange(1.0, _MAX_TERMS + 1.0)[:, None, None]  # k, one per step


def _check_order(n: int) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise DomainError(f"Bessel order must be a non-negative integer, got {n!r}")


def _check_order_and_arg(n: int, x: float) -> None:
    _check_order(n)
    if not abs(x) <= _MAX_ARG:  # also refuses nan
        raise DomainError(f"Bessel argument must be finite with |x| <= {_MAX_ARG:g}, got {x!r}")


def _bessel_series(n: int, x: float) -> float:
    # sum_k (-1)^k (x/2)^(2k+n) / (k! (k+n)!), stop when the term is
    # negligible relative to the accumulated sum.
    half = 0.5 * x
    term = 1.0
    for k in range(1, n + 1):
        term *= half / k
    total = term
    hh = -(half * half)
    for k in range(1, _MAX_TERMS + 1):
        term *= hh / (k * (k + n))
        total += term
        mag = abs(total)
        if abs(term) < 1e-16 * (mag if mag > 1e-300 else 1e-300):
            return total
    return total  # unreachable for |x| <= 12


def _bessel_miller(n: int, x: float) -> float:
    # Downward recurrence from an order comfortably above max(n, x); the
    # unnormalized sequence is fixed with J0(x) + 2*sum_k J_2k(x) = 1.
    start = int(x) + n + 44
    j_up = 0.0
    j_cur = 1e-30
    target = 0.0
    even_sum = 0.0
    for k in range(start, 0, -1):
        j_down = (2.0 * k / x) * j_cur - j_up
        j_up, j_cur = j_cur, j_down
        if abs(j_cur) > 1e250:
            j_cur *= 1e-250
            j_up *= 1e-250
            even_sum *= 1e-250
            target *= 1e-250
        order = k - 1
        if order == n:
            target = j_cur
        if order > 0 and order % 2 == 0:
            even_sum += j_cur
    norm = j_cur + 2.0 * even_sum  # j_cur now holds unnormalized J0
    return target / norm


def bessel_j(n: int, x: float) -> float:
    """J_n(x) for integer n >= 0 and real x with |x| <= 100."""
    _check_order_and_arg(n, x)
    if x == 0.0:
        return 1.0 if n == 0 else 0.0
    sign = 1.0
    if x < 0.0:
        # J_n(-x) = (-1)^n J_n(x)
        x = -x
        sign = -1.0 if n % 2 else 1.0
    if x <= _SERIES_CUTOFF:
        return sign * _bessel_series(n, x)
    return sign * _bessel_miller(n, x)


def bessel_j_rows(orders: tuple[int, ...], x: float | np.ndarray) -> np.ndarray:
    """J_n for each n of ``orders`` over an array of real arguments with
    |x| <= 100, shape ``(len(orders),) + np.shape(x)``: one row per order.

    Element by element bit-identical to :func:`bessel_j`. Each step of the
    ascending series updates every row and element with the scalar
    operations; the scalar stopping rule is tested every ``_BLOCK`` steps,
    and the loop ends when it holds everywhere. The terms an element takes
    after its own stopping step are below 2^-54 of its sum, so they leave
    it unchanged; a sum below the 1e-300 floor of the rule has no such
    margin and is summed again by the scalar loop, unless x = 0. The
    module docstring gives the argument.
    """
    if not orders:
        raise DomainError("at least one Bessel order is required")
    for n in orders:
        _check_order(n)
    arr = np.asarray(x, dtype=float)
    flat = arr.ravel()
    mag = np.abs(flat)
    if not mag.max(initial=0.0) <= _MAX_ARG:  # a nan max fails too
        bad = flat[~(mag <= _MAX_ARG)][0]
        raise DomainError(
            f"Bessel arguments must be finite with |x| <= {_MAX_ARG:g}, got {float(bad)!r}")
    far = mag > _SERIES_CUTOFF
    far_x = flat[far]
    if far_x.size:
        # the series runs on 0 there, which stops at once; the scalar Miller
        # branch fills those elements below
        mag[far] = 0.0
    half = 0.5 * mag
    # leading terms (x/2)^n / n!, factor by factor as in the scalar loop
    lead = [np.ones_like(half)]
    for k in range(1, max(orders) + 1):
        lead.append(lead[-1] * (half / k))
    term = np.array([lead[n] for n in orders])
    total = term.copy()
    order_col = np.array(orders, dtype=float)[:, None]
    hh = -(half * half)
    for start in range(0, _MAX_TERMS, _BLOCK):
        # the block's step ratios hh / (k (k + n)) in one division; the
        # divisors are exact small integers as floats
        k = _STEPS[start:start + _BLOCK]
        for ratio in hh / (k * (k + order_col)):
            term *= ratio
            total += term
        # the stop rule |term| < 1e-16 * max(|total|, 1e-300), everywhere
        floor = np.abs(total)
        np.maximum(floor, 1e-300, out=floor)
        floor *= 1e-16
        if (np.abs(term) < floor).all():
            break
    for r, i in zip(*np.nonzero(np.abs(total) < 1e-300)):
        if mag[i]:
            total[r, i] = _bessel_series(orders[r], float(mag[i]))
    if any(n % 2 for n in orders):
        neg = (flat < 0.0) & ~far
    for row, n in zip(total, orders):
        if far_x.size:
            row[far] = [bessel_j(n, float(v)) for v in far_x]
        if n % 2:
            # J_n(-x) = (-1)^n J_n(x); bessel_j already signed the far elements.
            row[neg] = -row[neg]
    return total.reshape((len(orders),) + arr.shape)


def bessel_j_prime(n: int, x: float) -> float:
    """dJ_n/dx via the recurrence J_n'(x) = (J_{n-1}(x) - J_{n+1}(x)) / 2."""
    _check_order_and_arg(n, x)
    if n == 0:
        return -bessel_j(1, x)
    return 0.5 * (bessel_j(n - 1, x) - bessel_j(n + 1, x))


@dataclass(frozen=True)
class Bracket:
    """Interval [lo, hi] on which a target function changes sign."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise DomainError("bracket endpoints must be finite")
        if not self.lo < self.hi:
            raise DomainError(f"bracket requires lo < hi, got [{self.lo}, {self.hi}]")


def _value(f: Callable[[float], float], x: float) -> float:
    fx = f(x)
    if fx != fx:
        raise DomainError(f"root function returned nan at x={x!r}")
    return fx


def find_root_bracketed(
    f: Callable[[float], float], bracket: Bracket, tol: float = 1e-10
) -> float:
    """Root of ``f`` inside ``bracket`` by Brent's method with a bisection
    budget.

    Deterministic and bracket-preserving: every step keeps a sign change
    between the best point b and the other end c, and the result is the b
    of a final bracket at most ``tol`` wide, so it lies within ``tol`` of a
    sign change of ``f``. Each step is Brent's zeroin step (inverse
    quadratic or secant interpolation, under his safeguards, or a
    bisection), with two more rules:

    * the budget. Bisection needs ``ceil(log2(width / tol))`` evaluations;
      the budget allows four more. A step interpolates only if
      bisecting from the bracket it may leave would still end within the
      budget, so no search takes more than the budget's evaluations plus
      the two at the ends, where plain Brent can take far more on a
      multiple root;
    * only finite values are interpolated. An infinite value of ``f``
      counts by its sign and makes the step a bisection.

    Raises DomainError for ``tol <= 0`` or a nan value of ``f``,
    BracketError if f has the same sign at both ends, and ConvergenceError
    if the width tolerance is not reached within 100 iterations.
    """
    if not tol > 0.0:
        raise DomainError(f"tolerance must be positive, got {tol}")
    a, b = bracket.lo, bracket.hi
    fa = _value(f, a)
    fb = _value(f, b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa > 0.0) == (fb > 0.0):
        raise BracketError(f"no sign change on [{a}, {b}]: f(lo)={fa}, f(hi)={fb}")
    ratio = (b - a) / tol
    mant, exp = math.frexp(ratio)  # ceil(log2(ratio)), exactly
    bisections = exp - (mant == 0.5) if ratio < math.inf else _MAX_ITERATIONS
    # The budget stops short of the cap, at the last step whose width the
    # loop still tests. width * scale is the width that bisection would
    # leave at the budget's end if this step made no progress; it must
    # reach tol less one ulp, which the rounded midpoints may add.
    scale = 2.0 ** (1 - min(bisections + _SPARE_STEPS, _MAX_ITERATIONS - 1))
    reach = tol - math.ulp(max(-a, b))
    half_tol = 0.5 * tol
    c, fc = a, fa
    d = e = b - a
    for _ in range(_MAX_ITERATIONS):
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        width = abs(c - b)
        if width <= tol:
            return b
        m = 0.5 * (c - b)
        # |fb| <= |fc| < |fa| here, so fb is finite when fa and fc are
        if (width * scale <= reach and abs(e) >= half_tol and abs(fa) > abs(fb)
                and math.isfinite(fa) and math.isfinite(fc)):
            s = fb / fa
            if a == c:  # secant
                p = 2.0 * m * s
                q = 1.0 - s
            else:  # inverse quadratic through a, b and c
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            if 2.0 * p < min(3.0 * m * q - abs(half_tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        # a step shorter than tol / 2 is taken as tol / 2 toward c; one that
        # rounds back onto b is a bisection
        x = b + d if abs(d) > half_tol else b + math.copysign(half_tol, m)
        b = x if x != b else b + m
        fb = _value(f, b)
        if fb == 0.0:
            return b
        scale *= 2.0
    raise ConvergenceError(
        f"root search did not reach width {tol} within {_MAX_ITERATIONS} iterations"
    )


def jprime_first_root(n: int, tol: float = 1e-10) -> float:
    """Smallest positive root of J_n', n >= 1 (1.84118378... for n = 1).

    The n = 0 case is rejected: the patch models never need it and a silent
    guess would be worse than an error.
    """
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise DomainError(f"first root of J_n' supported for integer n >= 1, got {n!r}")
    fp = lambda x: bessel_j_prime(n, x)
    # J_n' is positive just above x = 0; march right until it turns negative.
    lo = 0.5 * n if n > 1 else 0.5
    step = 0.5
    hi = lo + step
    for _ in range(200):
        if fp(lo) > 0.0 and fp(hi) < 0.0:
            return find_root_bracketed(fp, Bracket(lo, hi), tol)
        lo, hi = hi, hi + step
    raise ConvergenceError(f"could not bracket the first root of J_{n}'")
