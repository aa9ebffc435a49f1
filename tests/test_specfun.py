import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import special

from mmpatch import specfun
from mmpatch.errors import BracketError, ConvergenceError, DomainError
from mmpatch.specfun import (
    Bracket,
    _bessel_series,
    bessel_j,
    bessel_j_rows,
    bessel_j_prime,
    find_root_bracketed,
    jprime_first_root,
)

from oracles import bisect, central_difference, series_bessel_j, series_bessel_j_prime

# Frozen from the series oracle (40 terms) ahead of the implementation.
J1_AT_1_8412 = 0.5818652242276432
J1P_ROOT_1 = 1.8411837813406593
J2P_ROOT_1 = 3.0542369282271403


class TestBesselJ:
    def test_j0_at_zero(self):
        assert bessel_j(0, 0.0) == 1.0

    def test_jn_at_zero(self):
        for n in (1, 2, 5):
            assert bessel_j(n, 0.0) == 0.0

    def test_j1_near_mode_root(self):
        assert bessel_j(1, 1.8412) == pytest.approx(J1_AT_1_8412, abs=1e-12)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 8])
    @pytest.mark.parametrize("x", [0.05, 0.5, 1.8412, 3.0, 7.0, 12.0])
    def test_series_branch_vs_oracle(self, n, x):
        assert bessel_j(n, x) == pytest.approx(series_bessel_j(n, x), abs=1e-10)

    @pytest.mark.parametrize("n", [0, 1, 2, 4])
    @pytest.mark.parametrize("x", [12.5, 15.0, 20.0, 25.0, 30.0])
    def test_recurrence_branch_vs_scipy(self, n, x):
        # series oracle loses precision out here; cross-check against scipy
        assert bessel_j(n, x) == pytest.approx(float(special.jv(n, x)), abs=1e-10)

    @pytest.mark.parametrize("n,x", [(0, 2.5), (1, 4.0), (2, 17.0), (3, 0.7)])
    def test_negative_argument_parity(self, n, x):
        expected = bessel_j(n, x) * (-1.0 if n % 2 else 1.0)
        assert bessel_j(n, -x) == pytest.approx(expected, rel=1e-14, abs=1e-300)

    def test_rejects_bad_order(self):
        with pytest.raises(DomainError):
            bessel_j(-1, 1.0)
        with pytest.raises(DomainError):
            bessel_j(1.5, 1.0)  # type: ignore[arg-type]

    def test_rejects_non_finite_argument(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                bessel_j(0, bad)

    @pytest.mark.parametrize("bad", [101.0, -101.0, math.nan])
    def test_rejects_argument_past_the_bound(self, bad):
        # Miller's recurrence starts near order x, so a huge x would not
        # return; the refusal names the argument
        with pytest.raises(DomainError, match=rf"\|x\| <= 100, got {bad!r}"):
            bessel_j(0, bad)
        assert bessel_j(0, 100.0) == pytest.approx(float(special.jv(0, 100.0)), abs=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8])
    def test_recurrence_identity(self, n):
        # J_{n-1}(x) + J_{n+1}(x) = (2n/x) J_n(x) on (0, 20]
        for x in [0.01, 0.1, 0.9, 2.0, 5.5, 9.0, 13.0, 16.5, 20.0]:
            residual = bessel_j(n - 1, x) + bessel_j(n + 1, x) - (2.0 * n / x) * bessel_j(n, x)
            assert abs(residual) < 1e-8


def scalar_loop(n, values):
    flat = np.ravel(np.asarray(values, dtype=float))
    return np.array([bessel_j(n, float(v)) for v in flat]).reshape(np.shape(values))


def assert_same_bits(a, b):
    # equal values and equal sign bits: -0.0 and 0.0 count as different
    assert a.shape == b.shape
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a), np.signbit(b))


def old_bessel_series(n, x):
    # the series loop as written before the stop-test hoist
    half = 0.5 * x
    term = 1.0
    for k in range(1, n + 1):
        term *= half / k
    total = term
    k = 1
    while True:
        term *= -(half * half) / (k * (k + n))
        total += term
        if abs(term) < 1e-16 * max(abs(total), 1e-300):
            return total
        k += 1
        if k > 200:
            return total


TINY = 2.2250738585072014e-308  # smallest normal float
SPECIAL_ARGS = [0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, TINY / 3, -TINY / 3,
                TINY, 1e-150, 12.0, -12.0, 12.000000000000002, -12.000000000000002,
                17.5, -29.75, 30.0]


class TestBesselArray:
    # The one-row case of the array series, bit-identical to the scalar
    # kernel: it repeats the scalar operations in order.
    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    @pytest.mark.parametrize(
        "x",
        [
            np.linspace(0.0, 3.0, 301),
            np.linspace(-12.0, 12.0, 241),
            np.linspace(12.05, 30.0, 60),
            np.concatenate([np.linspace(-30.0, -12.5, 15), [0.0, 1e-300, 0.7, 12.0]]),
        ],
        ids=["grid-with-zero", "negative", "miller", "mixed"],
    )
    def test_equals_scalar_kernel(self, n, x):
        assert_same_bits(bessel_j_rows((n,), x)[0], scalar_loop(n, x))

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_shape_kept(self, n):
        zero_d = bessel_j_rows((n,), -1.3)[0]
        assert zero_d.shape == ()
        assert float(zero_d) == bessel_j(n, -1.3)
        grid = np.linspace(-20.0, 20.0, 12).reshape(3, 4)
        out = bessel_j_rows((n,), grid)[0]
        assert out.shape == (3, 4)
        assert_same_bits(out, scalar_loop(n, grid))

    def test_rejects_non_finite_argument(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                bessel_j_rows((0,), np.array([0.5, bad]))

    def test_rejects_bad_order(self):
        with pytest.raises(DomainError):
            bessel_j_rows((-1,), np.array([1.0]))
        with pytest.raises(DomainError):
            bessel_j_rows((1.5,), np.array([1.0]))  # type: ignore[arg-type]


class TestBesselRows:
    # One series pass for several orders; each row is bit-identical to the
    # scalar kernel, sign of zero included.
    ORDERS = [(0, 2), (1, 3), (0, 1, 2, 3, 5)]

    @pytest.mark.parametrize("orders", ORDERS)
    @pytest.mark.parametrize(
        "x",
        [
            np.linspace(0.0, 1.6, 2001),
            np.linspace(-12.0, 12.0, 241),
            np.linspace(12.05, 30.0, 60),
            np.array(SPECIAL_ARGS),
        ],
        ids=["far-field-grid", "series-range", "miller", "special"],
    )
    def test_rows_equal_scalar_kernel(self, orders, x):
        rows = bessel_j_rows(orders, x)
        assert rows.shape == (len(orders),) + x.shape
        for row, n in zip(rows, orders):
            assert_same_bits(row, scalar_loop(n, x))

    @settings(max_examples=150, deadline=None)
    @given(
        orders=st.lists(st.integers(0, 8), min_size=1, max_size=4).map(tuple),
        values=st.lists(
            st.one_of(st.floats(-30.0, 30.0), st.sampled_from(SPECIAL_ARGS)),
            min_size=1, max_size=40),
    )
    def test_rows_equal_scalar_kernel_property(self, orders, values):
        x = np.array(values)
        for row, n in zip(bessel_j_rows(orders, x), orders):
            assert_same_bits(row, scalar_loop(n, x))

    @pytest.mark.parametrize("shape", [(), (181, 1), (46, 73)])
    @pytest.mark.parametrize("orders", ORDERS)
    def test_shapes(self, orders, shape):
        x = np.linspace(-14.0, 14.0, max(1, math.prod(shape))).reshape(shape)
        rows = bessel_j_rows(orders, x)
        assert rows.shape == (len(orders),) + shape
        for row, n in zip(rows, orders):
            assert_same_bits(row, scalar_loop(n, x))

    @pytest.mark.parametrize("orders", [(0, -1), (2, 1.5), (-3,), (0, True), ()])
    def test_rejects_bad_order(self, orders):
        with pytest.raises(DomainError):
            bessel_j_rows(orders, np.array([1.0]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_argument(self, bad):
        with pytest.raises(DomainError):
            bessel_j_rows((0, 2), np.array([[0.5, bad]]))
        with pytest.raises(DomainError):
            bessel_j_rows((1,), bad)

    @pytest.mark.parametrize("bad", [101.0, -101.0, math.nan])
    def test_rejects_argument_past_the_bound(self, bad):
        message = rf"\|x\| <= 100, got {bad!r}"
        with pytest.raises(DomainError, match=message):
            bessel_j_rows((0, 2), np.array([[0.5, 100.0], [bad, 2.0]]))
        with pytest.raises(DomainError, match=message):
            bessel_j_rows((1,), bad)

    def test_empty_argument_array(self):
        assert bessel_j_rows((0, 2), np.array([])).shape == (2, 0)


def _ulp_neighbourhood(x, ulps=50):
    # x and the ulps floats on either side of it
    below = [x]
    above = [x]
    for _ in range(ulps):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    return np.array(below[:0:-1] + above)


_ZEROS_BELOW_12 = [(n, float(z)) for n in range(9) for z in special.jn_zeros(n, 5) if z < 12.0]
_ALL_ORDERS = tuple(range(9))


class TestBlockStop:
    # The rows kernel adds every term to every element and tests the stop
    # rule once per block of steps; the terms an element takes after its own
    # stopping step must leave its bits as the scalar loop leaves them. The
    # cases are where the margin is thinnest: sums near zero (cancellation),
    # the largest series arguments (most steps, largest terms), and tiny or
    # subnormal sums, where the rule's 1e-300 floor takes over.

    @pytest.mark.parametrize("n,zero", _ZEROS_BELOW_12,
                             ids=[f"J{n}-{z:.4f}" for n, z in _ZEROS_BELOW_12])
    def test_near_every_zero_below_12(self, n, zero):
        x = _ulp_neighbourhood(zero)
        assert_same_bits(bessel_j_rows((n,), x)[0], scalar_loop(n, x))
        assert_same_bits(bessel_j_rows((n,), -x)[0], scalar_loop(n, -x))
        # with every other order in the same loop, which runs it longer
        assert_same_bits(bessel_j_rows(_ALL_ORDERS, x)[n], scalar_loop(n, x))

    def test_zero_neighbourhoods_cover_the_series_range(self):
        # J0..J7 have 17 zeros below 12; the first zero of J8 is 12.23
        assert len(_ZEROS_BELOW_12) == 17
        assert {n for n, _ in _ZEROS_BELOW_12} == set(range(8))
        assert float(special.jn_zeros(8, 1)[0]) > 12.0

    @pytest.mark.parametrize("orders", [(0,), (2,), (8,), (0, 2), _ALL_ORDERS])
    def test_just_under_12(self, orders):
        x = _ulp_neighbourhood(12.0)[:51]
        x = np.concatenate([x, 12.0 - np.logspace(-12, -1, 23), [11.5, 11.9, 11.99]])
        for row, n in zip(bessel_j_rows(orders, x), orders):
            assert_same_bits(row, scalar_loop(n, x))

    @pytest.mark.parametrize("orders", [(n,) for n in _ALL_ORDERS] + [_ALL_ORDERS])
    def test_tiny_arguments(self, orders):
        # subnormal and tiny x, the edge where -(x/2)^2 underflows to zero
        # (|x| near 3e-154), and leading terms (x/2)^n / n! around the
        # floor and the subnormal range for every order up to 8
        x = np.concatenate([
            [5e-324, 1e-323, TINY / 3, TINY, 1e-300, 1e-200, 1e-160],
            np.geomspace(1e-155, 1e-152, 31),
            np.geomspace(1e-300, 1e-2, 150),
        ])
        x = np.concatenate([x, -x])
        for row, n in zip(bessel_j_rows(orders, x), orders):
            assert_same_bits(row, scalar_loop(n, x))

    @pytest.mark.parametrize("n,lo,hi", [(75, 0.00437, 0.00439), (80, 0.0081, 0.0083)])
    def test_subnormal_sums_of_high_orders(self, n, lo, hi):
        # J_75 and J_80 are subnormal here, below the floor, and the terms
        # after the stopping step are not all zero: added without the
        # scalar loop's second pass, they move the last bits
        x = np.linspace(lo, hi, 201)
        out = bessel_j_rows((n,), x)[0]
        assert (out < TINY).all()
        assert_same_bits(out, scalar_loop(n, x))

    def test_zero_argument_takes_no_scalar_pass(self, monkeypatch):
        # J_n(0) for n >= 1 sums to +0.0, below the 1e-300 floor, but every
        # term after the lead is +-0, so the scalar loop is not run again
        calls = []
        series = specfun._bessel_series
        monkeypatch.setattr(specfun, "_bessel_series",
                            lambda n, x: calls.append((n, x)) or series(n, x))
        x = np.array([0.0, -0.0, 0.5, 0.0])
        rows = bessel_j_rows(_ALL_ORDERS, x)
        assert calls == []
        for row, n in zip(rows, _ALL_ORDERS):
            assert_same_bits(row, scalar_loop(n, x))
            assert float.hex(float(row[0])) == float.hex(bessel_j(n, 0.0))
            assert not np.signbit(row[[0, 1, 3]]).any()


class TestScalarSeries:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 8])
    def test_hoisted_loop_equals_old_loop(self, n):
        values = [abs(v) for v in SPECIAL_ARGS if abs(v) <= 12.0]
        values += np.linspace(0.0, 12.0, 601).tolist()
        for x in values:
            assert float.hex(_bessel_series(n, x)) == float.hex(old_bessel_series(n, x))


class TestBesselJPrime:
    def test_anchor_values(self):
        assert bessel_j_prime(0, 0.0) == 0.0
        assert bessel_j_prime(1, 0.0) == pytest.approx(0.5, abs=1e-15)
        assert abs(bessel_j_prime(1, 1.84118378)) < 1e-7

    def test_against_series_oracle(self):
        for n, x in [(0, 0.3), (1, 1.0), (2, 2.7), (3, 6.0)]:
            assert bessel_j_prime(n, x) == pytest.approx(
                series_bessel_j_prime(n, x), abs=1e-12)

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_matches_finite_difference(self, n):
        for x in [0.1, 0.5, 1.3, 2.9, 5.0, 7.7, 10.0]:
            fd = central_difference(lambda t: bessel_j(n, t), x)
            assert bessel_j_prime(n, x) == pytest.approx(fd, abs=1e-5)


class TestJPrimeFirstRoot:
    def test_mode_root_value(self):
        # bisection oracle on the series derivative over [1.5, 2.5]
        oracle = bisect(lambda x: series_bessel_j_prime(1, x), 1.5, 2.5, tol=1e-13)
        root = jprime_first_root(1)
        assert root == pytest.approx(oracle, abs=1e-8)
        assert root == pytest.approx(J1P_ROOT_1, abs=1e-8)
        assert root == pytest.approx(1.8412, abs=1e-4)

    def test_second_order_root(self):
        oracle = bisect(lambda x: series_bessel_j_prime(2, x), 2.5, 3.5, tol=1e-13)
        assert jprime_first_root(2) == pytest.approx(oracle, abs=1e-8)
        assert jprime_first_root(2) == pytest.approx(J2P_ROOT_1, abs=1e-8)

    def test_higher_orders_are_roots(self):
        for n in (3, 4, 5):
            root = jprime_first_root(n)
            assert abs(bessel_j_prime(n, root)) < 1e-9
            assert root > n  # first extremum sits beyond the order

    def test_order_zero_rejected(self):
        with pytest.raises(DomainError):
            jprime_first_root(0)


class Recorded:
    """A root function that records the points it is evaluated at."""

    def __init__(self, f):
        self.f = f
        self.points = []

    def __call__(self, x):
        self.points.append(x)
        return self.f(x)


def bisection_oracle(f, bracket, tol=1e-10):
    # reference: plain bisection under the same contract and iteration cap
    if not tol > 0.0:
        raise DomainError(f"tolerance must be positive, got {tol}")
    lo, hi = bracket.lo, bracket.hi
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if (flo > 0.0) == (fhi > 0.0):
        raise BracketError(f"no sign change on [{lo}, {hi}]: f(lo)={flo}, f(hi)={fhi}")
    for _ in range(100):
        if hi - lo <= tol:
            return 0.5 * (lo + hi)
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (fmid > 0.0) == (flo > 0.0):
            lo, flo = mid, fmid
        else:
            hi = mid
    raise ConvergenceError(f"bisection did not reach width {tol} within 100 iterations")


def assert_sign_change_within(f, root, tol, lo, hi):
    # f changes sign (or vanishes) within tol of root
    left, right = f(max(lo, root - tol)), f(min(hi, root + tol))
    assert left == 0.0 or right == 0.0 or (left > 0.0) != (right > 0.0)


THIRD = 1.0 / 3.0
HARD_FIXTURES = [
    ("cube", lambda x: (x - THIRD) ** 3, 0.0, 1.0),
    ("ninth-power", lambda x: (x - THIRD) ** 9, 0.0, 1.0),
    ("step", lambda x: -1.0 if x < THIRD else 1.0, 0.0, 1.0),
    ("hyperbola", lambda x: math.inf if x == 0.0 else 1.0 / x - 3.0, 0.0, 1.0),
    ("inverse-ninth", lambda x: math.inf if x == 0.0 else x ** -9 - 1.0, 0.0, 3.0),
]


@st.composite
def monotone_problems(draw):
    """(f, bracket, tol, root): a monotone f whose sign is exact, so its
    only sign change is at root, and a tolerance from 1e-15 of the width.
    The bracket lies in [-4, 8] and is at least 1 wide, so every such
    tolerance is at least the float spacing and bisection reaches it."""
    lo = draw(st.floats(-4.0, 4.0))
    hi = lo + draw(st.floats(1.0, 4.0))
    root = draw(st.floats(lo, hi, exclude_min=True, exclude_max=True))
    sign = draw(st.sampled_from([1.0, -1.0]))
    kind = draw(st.sampled_from(["power", "step", "hyperbola", "tanh"]))
    if kind == "power":
        k = draw(st.sampled_from([1, 3, 5, 9]))
        f = lambda x: sign * (x - root) ** k
    elif kind == "step":
        f = lambda x: -sign if x < root else sign
    elif kind == "hyperbola":
        # (x - root) / (x - pole), with the pole outside the bracket
        gap = draw(st.floats(1e-3, 4.0))
        pole = draw(st.sampled_from([lo - gap, hi + gap]))
        f = lambda x: sign * (x - root) / (x - pole)
    else:
        slope = draw(st.floats(1.0, 1e3))
        f = lambda x: sign * math.tanh(slope * (x - root))
    # (x - root)^9 underflows to zero within about 1e-36 of root
    assume(f(lo) != 0.0 and f(hi) != 0.0)
    tol = (hi - lo) * draw(st.floats(1e-15, 1.0))
    return f, Bracket(lo, hi), tol, root


class TestFindRootBracketed:
    def test_linear_root(self):
        root = find_root_bracketed(lambda x: x - 2.0, Bracket(0.0, 5.0), tol=1e-10)
        assert root == pytest.approx(2.0, abs=1e-9)

    def test_bessel_derivative_root(self):
        root = find_root_bracketed(
            lambda x: bessel_j_prime(1, x), Bracket(1.5, 2.5), tol=1e-10)
        assert root == pytest.approx(J1P_ROOT_1, abs=1e-9)

    def test_no_sign_change_raises(self):
        with pytest.raises(BracketError):
            find_root_bracketed(lambda x: x * x + 1.0, Bracket(0.0, 5.0), tol=1e-10)

    def test_result_stays_inside_bracket_with_smaller_residual(self):
        cases = [
            (lambda x: math.cos(x), 1.0, 2.0),
            (lambda x: x**3 - 2.0, 0.5, 2.0),
            (lambda x: math.exp(x) - 3.0, 0.0, 2.0),
        ]
        for f, lo, hi in cases:
            root = find_root_bracketed(f, Bracket(lo, hi), tol=1e-12)
            assert lo <= root <= hi
            assert abs(f(root)) < min(abs(f(lo)), abs(f(hi)))

    def test_iteration_cap_raises(self):
        # cos never evaluates to exactly zero, so an unreachable width
        # tolerance exhausts the iteration budget
        with pytest.raises(ConvergenceError):
            find_root_bracketed(math.cos, Bracket(1.0, 2.0), tol=1e-300)

    def test_bad_bracket_construction(self):
        with pytest.raises(DomainError):
            Bracket(2.0, 1.0)
        with pytest.raises(DomainError):
            Bracket(0.0, math.inf)

    def test_tolerance_must_be_positive(self):
        with pytest.raises(DomainError):
            find_root_bracketed(lambda x: x, Bracket(-1.0, 1.0), tol=0.0)

    def test_nan_inside_bracket_raises(self):
        # stepping over the nan run would return 0.7 as a root
        f = lambda x: math.nan if 0.3 < x < 0.7 else x - 0.5
        with pytest.raises(DomainError, match=r"nan at x=0\.5"):
            find_root_bracketed(f, Bracket(0.0, 1.0))

    def test_nan_everywhere_raises_domain_error(self):
        # not a BracketError: nan has no sign to compare
        with pytest.raises(DomainError, match=r"nan at x=0\.0"):
            find_root_bracketed(lambda x: math.nan, Bracket(0.0, 1.0))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_infinite_value_keeps_its_sign_and_bisects(self, sign):
        # +-(1/x - 3) is +-inf at 0: the value counts by its sign, and the
        # step after it is the midpoint, not an interpolation through inf
        f = Recorded(lambda x: sign * (math.inf if x == 0.0 else 1.0 / x - 3.0))
        root = find_root_bracketed(f, Bracket(0.0, 1.0), tol=1e-12)
        assert f.points[:3] == [0.0, 1.0, 0.5]
        assert abs(root - 1.0 / 3.0) <= 1e-12

    @pytest.mark.parametrize("name,f,lo,hi", HARD_FIXTURES, ids=[c[0] for c in HARD_FIXTURES])
    @pytest.mark.parametrize("tol", [1e-6, 1e-10, 1e-12, 1e-15])
    def test_hard_fixtures_within_four_of_bisection(self, name, f, lo, hi, tol):
        # Without the budget, Brent's steps on (x - 1/3)^3 leave a bracket
        # wider than 1e-12 after 100 iterations, where bisection takes 42
        # evaluations: the budget keeps the search within 4 of bisection.
        old = Recorded(f)
        bisection_oracle(old, Bracket(lo, hi), tol)
        new = Recorded(f)
        root = find_root_bracketed(new, Bracket(lo, hi), tol)
        assert len(new.points) <= len(old.points) + 4
        assert_sign_change_within(f, root, tol, lo, hi)

    @settings(max_examples=500, deadline=None)
    @given(problem=monotone_problems())
    def test_agrees_with_bisection_oracle(self, problem):
        f, bracket, tol, true_root = problem
        bisection_oracle(f, bracket, tol)  # returns for every drawn problem
        new = Recorded(f)
        root = find_root_bracketed(new, bracket, tol)
        assert bracket.lo <= root <= bracket.hi
        assert abs(root - true_root) <= tol
        # A midpoint that lands on an exact zero ends bisection early, by
        # luck; compare with the count bisection makes without that luck.
        luckless = Recorded(lambda x: f(x) or 1.0)
        bisection_oracle(luckless, bracket, tol)
        assert len(new.points) <= len(luckless.points) + 4
