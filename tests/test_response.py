import io
import json
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mmpatch.circpatch import resonator_terms_circ, synth_circ
from mmpatch.errors import DomainError
from mmpatch.media import SubstrateSpec
from mmpatch.rectpatch import RectPatchDesign
from mmpatch.response import (
    BANDWIDTH_CRITERION_DB,
    CSV_HEADER,
    RL_CLAMP_DB,
    FrequencyResponse,
    ResonatorModel,
    SweepSpec,
    circ_resonator,
    extract_resonance,
    mismatch,
    rect_resonator,
    sweep,
)
from mmpatch.tables import json_text

F0 = 39e9


@pytest.fixture
def model():
    return ResonatorModel(f_res=F0, r_res=65.0, q_total=40.0)


def _impedance(model, f_lo, f_hi):
    # input impedance at the two ends of a 2-point sweep, which hits both exactly
    resp = sweep(model, SweepSpec(f_lo, f_hi, 2))
    return resp.r_in_ohm + 1j * resp.x_in_ohm


class TestImpedanceModel:
    def test_purely_real_at_resonance(self, model):
        z = _impedance(model, model.f_res, 2.0 * model.f_res)[0]
        assert z == pytest.approx(complex(model.r_res, 0.0), abs=1e-12)

    def test_magnitude_even_in_detuning(self, model):
        for x in (1.01, 1.05, 1.2):
            z_lo, z_hi = _impedance(model, model.f_res / x, model.f_res * x)
            assert abs(z_hi) == pytest.approx(abs(z_lo), rel=1e-12)

    def test_half_power_points(self, model):
        # narrowband approximation f_res * (1 +/- 1/(2Q)) lands close...
        half = 1.0 / (2.0 * model.q_total)
        for z in _impedance(model, model.f_res * (1.0 - half), model.f_res * (1.0 + half)):
            assert abs(z) == pytest.approx(model.r_res / math.sqrt(2.0), rel=5e-3)
        # ...and the exact detuning nu = 1/Q lands exactly
        nu = 1.0 / model.q_total
        f_exact = model.f_res * (nu + math.sqrt(nu * nu + 4.0)) / 2.0
        z = _impedance(model, f_exact, 2.0 * f_exact)[0]
        assert abs(z) == pytest.approx(model.r_res / math.sqrt(2.0), rel=1e-12)

    def test_rejects_nonpositive_frequency(self, model):
        with pytest.raises(DomainError):
            sweep(model, SweepSpec(0.0, model.f_res, 2))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 0.0, -1.0])
    @pytest.mark.parametrize("field", ["f_res", "r_res", "q_total"])
    def test_model_rejects_non_finite_and_non_positive(self, field, bad):
        # an infinite resistance or Q used to give an all-NaN sweep
        terms = {"f_res": F0, "r_res": 50.0, "q_total": 40.0, field: bad}
        with pytest.raises(DomainError):
            ResonatorModel(**terms)


class TestReflectionQuantities:
    def test_perfect_match(self):
        gamma_mag, rl, vs = mismatch(complex(50.0, 0.0), 50.0)
        assert gamma_mag == 0.0
        assert rl == -100.0
        assert vs == 1.0

    def test_short_circuit(self):
        gamma_mag, rl, vs = mismatch(complex(0.0, 0.0), 50.0)
        assert gamma_mag == 1.0
        assert rl == 0.0
        assert vs == math.inf

    @pytest.mark.parametrize("z,expected", [
        (50.0, (0.0, -100.0, 1.0)),
        (complex(50.0, 0.0), (0.0, -100.0, 1.0)),
        (0.0, (1.0, 0.0, math.inf)),
        (complex(0.0, 0.0), (1.0, 0.0, math.inf)),
    ])
    def test_scalar_gives_three_float64(self, z, expected):
        # a perfect match and total reflection; the VSWR used to come back
        # as a 0-d array from np.where while |Gamma| and RL were scalars
        values = mismatch(z, 50.0)
        assert [type(v) for v in values] == [np.float64] * 3
        assert values == expected

    def test_nan_reflection_reads_infinite_vswr(self):
        with np.errstate(invalid="ignore"):
            gamma_mag, rl, vs = mismatch(complex(math.nan, 0.0), 50.0)
        assert math.isnan(gamma_mag) and math.isnan(rl)
        assert vs == math.inf

    def test_array_keeps_its_shape(self):
        z = np.array([[50.0, 0.0], [25.0, 100.0]])
        for column in mismatch(z, 50.0):
            assert type(column) is np.ndarray and column.shape == (2, 2)
        assert mismatch(z, 50.0)[2][0].tolist() == [1.0, math.inf]

    def test_vswr_return_loss_pairing(self):
        # a real load at 1.014 z_ref has VSWR 1.014, about -43.2 dB, within
        # 2 dB of the -41.36 dB figure it is quoted alongside
        gamma_mag, rl, vs = mismatch(1.014 * 50.0, 50.0)
        assert gamma_mag == pytest.approx((1.014 - 1.0) / (1.014 + 1.0), rel=1e-12)
        assert vs == pytest.approx(1.014, rel=1e-12)
        assert rl == pytest.approx(-43.2, abs=0.1)
        assert abs(rl - (-41.36)) <= 2.0

    @pytest.mark.parametrize("z_ref", [0.0, -50.0, math.inf, math.nan, 5e-324])
    def test_rejects_bad_reference(self, z_ref):
        # a subnormal z_ref is refused: the complex division overflows there
        with pytest.raises(DomainError):
            mismatch(50.0, z_ref)

    @pytest.mark.parametrize("z_ref", [5e-324, sys.float_info.min / 2])
    def test_spec_refuses_subnormal_reference(self, z_ref):
        with pytest.raises(DomainError, match="normal float"):
            SweepSpec(37e9, 41e9, 3, reference_impedance=z_ref)
        assert SweepSpec(37e9, 41e9, 3, sys.float_info.min).reference_impedance > 0.0

    def test_sweep_refuses_subnormal_reference(self, model):
        with pytest.raises(DomainError):
            sweep(model, SweepSpec(37e9, 41e9, 3, reference_impedance=5e-324))

    def test_real_load_uses_real_division(self):
        # numpy's complex division puts this quotient one ulp off the real
        # one; a real z keeps the real division the CLI design VSWR relies on
        r, z_ref = 53.34077078665794, 75.0
        assert mismatch(r, z_ref)[0] == abs((r - z_ref) / (r + z_ref))

    def test_reactive_load_reflects_totally(self):
        # |Gamma| of 220j against 1e6 rounds to 1 + 2**-52 unless capped at 1
        gamma_mag, rl, vs = mismatch(220j, 1e6)
        assert (gamma_mag, rl, vs) == (1.0, 0.0, math.inf)

    def test_overflowing_load_keeps_its_reflection(self):
        # z + z_ref overflows for these loads: the sum read as inf gave
        # |Gamma| 0, RL -100 dB and VSWR 1 (a perfect match) with an overflow
        # warning; 1.5e308 against 1.7e308 truly reflects 0.2 / 3.2 = 0.0625
        z_ref, z_c = 1.7e308, complex(1.5e308, 1e308)
        gamma_c = abs(complex(-0.2, 1.0) / complex(3.2, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            real = mismatch(1.5e308, z_ref)
            cplx = mismatch(z_c, z_ref)
            grid = mismatch(np.array([[50.0, 1.5e308], [z_c, z_ref]]), z_ref)
            mixed = mismatch(np.array([75.0, 1e308]), 50.0)
        assert real == (pytest.approx(0.0625, rel=1e-15, abs=0.0),
                        pytest.approx(20.0 * math.log10(0.0625), rel=1e-15, abs=0.0),
                        pytest.approx(17.0 / 15.0, rel=1e-15, abs=0.0))
        assert cplx[0] == pytest.approx(gamma_c, rel=1e-14, abs=0.0)
        assert cplx[2] == pytest.approx((1.0 + gamma_c) / (1.0 - gamma_c), rel=1e-14, abs=0.0)
        assert grid[0].shape == (2, 2)
        assert grid[0].ravel().tolist() == pytest.approx([1.0, 0.0625, gamma_c, 0.0],
                                                         rel=1e-14, abs=0.0)
        assert grid[2][1, 1] == 1.0
        # a load that does not overflow keeps the bits it has on its own
        assert [v[0] for v in mixed] == list(mismatch(75.0, 50.0))
        assert (mixed[0][1], mixed[2][1]) == (1.0, math.inf)

    def test_infinite_load_is_an_open_circuit(self):
        # inf / inf in the reflection gave |Gamma| NaN and RL NaN with an
        # "invalid value" warning; the open circuit's limit is |Gamma| 1
        open_circuit = (1.0, 0.0, math.inf)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for z in (math.inf, -math.inf, complex(math.inf, 1.0), complex(1.0, -math.inf)):
                for z_ref in (50.0, 1.7e308):
                    values = mismatch(z, z_ref)
                    assert [type(v) for v in values] == [np.float64] * 3
                    assert values == open_circuit
            grid = mismatch(np.array([[75.0, math.inf], [complex(math.inf, 2.0), 1e308]]), 50.0)
        assert [column.shape for column in grid] == [(2, 2)] * 3
        assert [column[0, 0] for column in grid] == list(mismatch(75.0, 50.0))
        for i, j in ((0, 1), (1, 0), (1, 1)):
            assert tuple(column[i, j] for column in grid) == open_circuit

    def test_nan_load_keeps_its_reading_beside_an_infinite_one(self):
        with np.errstate(invalid="ignore"):
            gamma_mag, rl, vs = mismatch(np.array([math.nan, math.inf]), 50.0)
        assert math.isnan(gamma_mag[0]) and math.isnan(rl[0]) and vs[0] == math.inf
        assert (gamma_mag[1], rl[1], vs[1]) == (1.0, 0.0, math.inf)

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(0.0, 1e9),
        st.floats(-1e9, 1e9),
        st.floats(0.0, 1e6, exclude_min=True),
    )
    def test_mismatch_bounds_and_scalar_parity(self, r, x, z_ref):
        z = complex(r, x)
        if z_ref < sys.float_info.min:
            with pytest.raises(DomainError):
                mismatch(z, z_ref)
            return
        gamma_mag, rl, vs = mismatch(z, z_ref)
        assert 0.0 <= gamma_mag <= 1.0
        assert -100.0 <= rl <= 0.0
        assert vs >= 1.0
        assert (vs == math.inf) == (gamma_mag == 1.0)
        for scalar, column in zip((gamma_mag, rl, vs), mismatch(np.array([z]), z_ref)):
            assert scalar.tobytes() == column[0].tobytes()

    def test_consistency_identity_on_sweep(self, model):
        resp = sweep(model, SweepSpec(37e9, 41e9, 101))
        for g, r, v in zip(resp.gamma_mag, resp.rl_db, resp.vswr):
            assert v == pytest.approx((1.0 + g) / (1.0 - g), rel=1e-12)
            assert r == pytest.approx(max(20.0 * math.log10(g), -100.0), abs=1e-9)


class TestSweep:
    def test_two_point_sweep_hits_endpoints(self, model):
        resp = sweep(model, SweepSpec(37e9, 41e9, 2))
        assert list(resp.f_hz) == [37e9, 41e9]

    def test_sample_invariants(self, model):
        resp = sweep(model, SweepSpec(30e9, 50e9, 257))
        assert np.all(resp.vswr >= 1.0)
        assert np.all(resp.rl_db <= 0.0)
        assert np.all((resp.gamma_mag >= 0.0) & (resp.gamma_mag <= 1.0))

    def test_deterministic(self, model):
        spec = SweepSpec(37e9, 41e9, 401)
        a = sweep(model, spec)
        b = sweep(model, spec)
        assert np.array_equal(a.rl_db, b.rl_db)
        buf_a, buf_b = io.StringIO(), io.StringIO()
        a.write_csv(buf_a)
        b.write_csv(buf_b)
        assert buf_a.getvalue() == buf_b.getvalue()

    def test_csv_format(self, model):
        resp = sweep(model, SweepSpec(37e9, 41e9, 3))
        buf = io.StringIO()
        resp.write_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 4
        assert len(lines[1].split(",")) == 6

    def test_json_payload(self, model):
        resp = sweep(model, SweepSpec(37e9, 41e9, 3))
        payload = json.loads(json_text(resp.to_json_dict()))
        assert payload["reference_impedance"] == 50.0
        assert len(payload["samples"]) == 3
        assert set(payload["samples"][0]) == {
            "f_hz", "r_in_ohm", "x_in_ohm", "gamma_mag", "rl_db", "vswr"}

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            SweepSpec(41e9, 37e9, 11)
        with pytest.raises(DomainError):
            SweepSpec(37e9, 41e9, 1)

    def test_spec_rejects_float_points(self):
        # np.arange(401.5) would give 402 samples
        with pytest.raises(DomainError, match="integer"):
            SweepSpec(37e9, 41e9, 401.5)

    def test_spec_rejects_str_points(self):
        with pytest.raises(DomainError, match="integer"):
            SweepSpec(37e9, 41e9, "401")

    def test_spec_rejects_bool_points(self):
        with pytest.raises(DomainError, match="integer"):
            SweepSpec(37e9, 41e9, True)

    @pytest.mark.parametrize("points", [np.int64(5), np.int32(5), np.uint8(5)])
    def test_spec_accepts_numpy_integer_points(self, model, points):
        resp = sweep(model, SweepSpec(37e9, 41e9, points))
        assert resp.f_hz.tobytes() == np.linspace(37e9, 41e9, 5).tobytes()

    def test_refuses_overflowing_detuning(self):
        # f_res / f is inf on this window, which gave NaN samples
        with pytest.raises(DomainError, match="detuning"):
            sweep(ResonatorModel(40e9, 60.0, 20.0), SweepSpec(1e-310, 2e-310, 401))
        with pytest.raises(DomainError, match="detuning"):
            sweep(ResonatorModel(1e-300, 60.0, 20.0), SweepSpec(1.0, 1e10, 3))

    def test_overflowing_reactance_is_quiet(self):
        # q_total * nu passes the largest float from about 1.8e108 Hz on:
        # the reactance reads inf and z its limit 0, with no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            resp = sweep(ResonatorModel(1.0, 1.0, 1e200), SweepSpec(1.0, 1e150, 11))
        assert resp.r_in_ohm[0] == 1.0 and (resp.r_in_ohm[1:] == 0.0).all()
        assert (resp.gamma_mag[1:] == 1.0).all() and (resp.vswr[1:] == math.inf).all()

    @pytest.mark.parametrize("points", [4, np.int64(4)])
    def test_overflowing_last_grid_product_is_quiet(self, points):
        # 3 * step rounds past the largest float; the last sample is f_stop
        f_max = sys.float_info.max
        assert 3 * ((f_max - 1.0) / 3) == math.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            resp = sweep(ResonatorModel(1e300, 50.0, 1.0), SweepSpec(1.0, f_max, points))
        with np.errstate(over="ignore"):
            grid = np.linspace(1.0, f_max, 4)
        assert resp.f_hz.tobytes() == grid.tobytes()
        assert resp.f_hz[-1] == f_max

    def test_refuses_overflowing_reflection(self):
        # |z + z_ref| near the largest float overflows the complex division
        model = ResonatorModel(2.125, sys.float_info.max, 1.5)
        with pytest.raises(DomainError, match="reflection"):
            sweep(model, SweepSpec(1.0, 2.0, 2))

    @settings(max_examples=300, deadline=None)
    @given(st.tuples(*[st.floats(0.0, math.inf, exclude_min=True, exclude_max=True)] * 6),
           st.integers(2, 64))
    def test_valid_input_gives_finite_samples_or_refusal(self, values, points):
        f_res, r_res, q_total, f_a, f_b, z_ref = values
        try:
            model = ResonatorModel(f_res, r_res, q_total)
            spec = SweepSpec(min(f_a, f_b), max(f_a, f_b), points, z_ref)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                resp = sweep(model, spec)
        except DomainError:
            return
        for name in _FIELDS:
            column = getattr(resp, name)
            if name == "vswr":   # +inf is the defined VSWR at total reflection
                column = np.where(resp.gamma_mag == 1.0, 1.0, column)
            assert np.isfinite(column).all(), name
        extract_resonance(resp)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 0.0, -1.0])
    def test_spec_rejects_non_finite_and_non_positive(self, bad):
        for args in ((bad, 41e9), (37e9, bad)):
            with pytest.raises(DomainError):
                SweepSpec(*args, 11)
        with pytest.raises(DomainError):
            SweepSpec(37e9, 41e9, 11, reference_impedance=bad)


_FIELDS = tuple(CSV_HEADER.split(","))


def _reference_sweep(model, spec):
    """Reference sweep: the np.linspace grid and the out-of-place mismatch
    formulas, kept verbatim to pin the bits of the in-place pass."""
    f = np.linspace(spec.f_start, spec.f_stop, spec.points)
    nu = f / model.f_res - model.f_res / f
    z = model.r_res / (1.0 + 1j * model.q_total * nu)
    z_ref = spec.reference_impedance
    gmag = np.minimum(np.abs((z - z_ref) / (z + z_ref)), 1.0)
    floor = 10.0 ** (RL_CLAMP_DB / 20.0)
    rl = 20.0 * np.log10(np.maximum(gmag, floor))
    with np.errstate(divide="ignore"):
        vs = np.where(gmag < 1.0, (1.0 + gmag) / (1.0 - gmag), np.inf)
    return FrequencyResponse(
        f_hz=f, r_in_ohm=z.real, x_in_ohm=z.imag, gamma_mag=gmag,
        rl_db=rl, vswr=vs, reference_impedance=z_ref,
    )


def _powers_of_ten(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


@st.composite
def _sweep_cases(draw):
    f_res = draw(_powers_of_ten(-3, 12))
    f_start = f_res * draw(_powers_of_ten(-3, 0.5))
    f_stop = f_start * (1.0 + draw(_powers_of_ten(-9, 2)))
    model = (f_res, draw(_powers_of_ten(-3, 6)), draw(_powers_of_ten(-6, 8)))
    spec = (f_start, f_stop, draw(st.integers(2, 600)), draw(_powers_of_ten(-3, 300)))
    return model, spec


class TestBitIdentity:
    """The in-place sweep and mismatch against _reference_sweep, byte for
    byte, and the sweep grid against np.linspace."""

    @settings(max_examples=300, deadline=None)
    @given(_sweep_cases())
    @example(((39e9, 65.0, 40.0), (37e9, 41e9, 2, 50.0)))
    @example(((39e9, 65.0, 40.0), (37e9, 41e9, 401, 1e-3)))
    @example(((39e9, 65.0, 40.0), (37e9, 41e9, 401, 1e300)))
    # r_res == z_ref with f_res on the grid: |Gamma| 0, RL at the clamp, VSWR 1
    @example(((39e9, 50.0, 40.0), (37e9, 41e9, 401, 50.0)))
    @example(((39e9, 65.0, 5e-324), (37e9, 41e9, 401, 50.0)))
    @example(((39e9, 65.0, sys.float_info.max), (37e9, 41e9, 401, 50.0)))
    # a step that underflows to zero takes the np.linspace fallback
    @example(((1e-320, 65.0, 40.0), (5e-324, 1e-323, 401, 50.0)))
    def test_sweep_matches_reference(self, case):
        model, spec = ResonatorModel(*case[0]), SweepSpec(*case[1])
        with np.errstate(over="ignore", invalid="ignore"):
            resp = sweep(model, spec)
            ref = _reference_sweep(model, spec)
        for name in _FIELDS:
            assert getattr(resp, name).tobytes() == getattr(ref, name).tobytes(), name
        report = extract_resonance(resp)
        assert report == extract_resonance(ref)
        bandwidth, notes, has_q = _walk_band(ref.f_hz, ref.rl_db)
        assert float.hex(report.bandwidth_hz) == float.hex(bandwidth)
        assert tuple(n for n in report.notes if n != "rl-min-at-sweep-edge") == notes
        assert (report.q_loaded is not None) == has_q

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.0, math.inf, exclude_min=True, exclude_max=True),
           st.floats(0.0, math.inf, exclude_min=True, exclude_max=True),
           st.integers(2, 2000))
    @example(5e-324, 1e-323, 401)
    @example(1.0, sys.float_info.max, 2)
    def test_grid_is_linspace(self, f_a, f_b, points):
        f_start, f_stop = min(f_a, f_b), max(f_a, f_b)
        if f_start == f_stop:
            return
        f_res = math.sqrt(f_start) * math.sqrt(f_stop)
        # k * step may round past the largest float at k = points - 1, in
        # np.linspace as in sweep, before the last sample is set to f_stop
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            grid = np.linspace(f_start, f_stop, points)
            try:
                resp = sweep(ResonatorModel(f_res, 50.0, 1.0), SweepSpec(f_start, f_stop, points))
            except DomainError:
                # no f_res keeps both detuning ratios finite on so wide a window
                assert f_stop / f_start == math.inf
                return
        assert resp.f_hz.tobytes() == grid.tobytes()


class TestExtractResonance:
    def test_recovers_model_resonance(self, model):
        resp = sweep(model, SweepSpec(37e9, 41e9, 401))
        report = extract_resonance(resp)
        grid_step = (41e9 - 37e9) / 400
        assert abs(report.f_res - model.f_res) < grid_step / 10.0
        assert report.rl_min_db == float(np.min(resp.rl_db))

    def test_single_local_minimum_with_margin(self):
        # one dip inside any sweep containing f_res with >= 3/Q fractional margin
        m = ResonatorModel(f_res=F0, r_res=70.0, q_total=30.0)
        margin = 3.0 / m.q_total
        resp = sweep(m, SweepSpec(F0 * (1 - 1.5 * margin), F0 * (1 + 1.5 * margin), 801))
        rl = resp.rl_db
        minima = [
            i for i in range(1, len(rl) - 1) if rl[i] < rl[i - 1] and rl[i] < rl[i + 1]
        ]
        assert len(minima) == 1

    def test_bandwidth_matches_analytic_width(self):
        m = ResonatorModel(f_res=F0, r_res=65.0, q_total=40.0)
        resp = sweep(m, SweepSpec(36e9, 42e9, 2001))
        report = extract_resonance(resp)
        # -10 dB edges of R/(1+jQnu) against 50 ohm, solved in closed form
        lhs = 0.1 * (m.r_res + 50.0) ** 2 - (m.r_res - 50.0) ** 2
        q_edge = math.sqrt(lhs / 2250.0)
        nu = q_edge / m.q_total
        width = m.f_res * ((nu + math.sqrt(nu**2 + 4)) / 2 - (-nu + math.sqrt(nu**2 + 4)) / 2)
        assert report.bandwidth_hz == pytest.approx(width, rel=0.02)
        assert report.q_loaded == pytest.approx(report.f_res / report.bandwidth_hz, rel=1e-12)
        assert report.notes == ()

    def test_shallow_dip_flags_no_band(self):
        m = ResonatorModel(f_res=F0, r_res=150.0, q_total=40.0)  # RL_min ~ -6 dB
        resp = sweep(m, SweepSpec(37e9, 41e9, 201))
        report = extract_resonance(resp)
        assert report.bandwidth_hz == 0.0
        assert report.q_loaded is None
        assert "no-sample-below-threshold" in report.notes

    def test_truncated_band_flagged(self):
        m = ResonatorModel(f_res=F0, r_res=55.0, q_total=2.0)  # very wide dip
        resp = sweep(m, SweepSpec(38e9, 40e9, 101))
        report = extract_resonance(resp)
        assert "band-truncated-at-sweep-start" in report.notes
        assert "band-truncated-at-sweep-stop" in report.notes
        assert report.bandwidth_hz == pytest.approx(2e9, rel=1e-9)
        assert report.q_loaded is None

    def test_minimum_at_edge_flagged(self):
        m = ResonatorModel(f_res=36e9, r_res=65.0, q_total=40.0)
        resp = sweep(m, SweepSpec(37e9, 41e9, 101))
        report = extract_resonance(resp)
        assert "rl-min-at-sweep-edge" in report.notes
        assert report.f_res == 37e9


def _rl_response(rl) -> FrequencyResponse:
    rl = np.asarray(rl, dtype=float)
    zeros = np.zeros(len(rl))
    return FrequencyResponse(
        f_hz=np.linspace(1e9, 2e9, len(rl)), r_in_ohm=zeros, x_in_ohm=zeros,
        gamma_mag=zeros, rl_db=rl, vswr=zeros + 1.0)


def _walk_band(f, rl):
    """Reference band search: walk sample by sample out from the minimum.
    Returns (bandwidth, band notes, whether a loaded Q is defined)."""
    thr = BANDWIDTH_CRITERION_DB
    n = len(f)
    i_min = int(np.argmin(rl))
    if rl[i_min] > thr:
        return 0.0, ("no-sample-below-threshold",), False
    lo = i_min
    while lo > 0 and rl[lo - 1] <= thr:
        lo -= 1
    hi = i_min
    while hi < n - 1 and rl[hi + 1] <= thr:
        hi += 1
    notes = []
    if lo == 0:
        f_lo = float(f[0])
        notes.append("band-truncated-at-sweep-start")
    else:
        frac = (thr - rl[lo - 1]) / (rl[lo] - rl[lo - 1])
        f_lo = float(f[lo - 1] + frac * (f[lo] - f[lo - 1]))
    if hi == n - 1:
        f_hi = float(f[-1])
        notes.append("band-truncated-at-sweep-stop")
    else:
        frac = (thr - rl[hi + 1]) / (rl[hi] - rl[hi + 1])
        f_hi = float(f[hi + 1] + frac * (f[hi] - f[hi + 1]))
    bandwidth = f_hi - f_lo
    return bandwidth, tuple(notes), 0 < lo and hi < n - 1 and bandwidth > 0.0


class TestBandEdges:
    STEP = 1e9 / 8  # grid step of a 9-sample _rl_response

    def test_uses_the_run_holding_the_minimum(self):
        # two disjoint runs below -10 dB; the deeper one is the second
        report = extract_resonance(_rl_response([-5, -12, -15, -5, -5, -12, -30, -11, -5]))
        f = np.linspace(1e9, 2e9, 9)
        f_lo = f[4] + 5.0 / 7.0 * self.STEP   # -5 -> -12 between samples 4 and 5
        f_hi = f[8] - 5.0 / 6.0 * self.STEP   # -11 -> -5 between samples 7 and 8
        assert report.bandwidth_hz == pytest.approx(f_hi - f_lo, rel=1e-12)
        assert report.notes == ()
        assert report.q_loaded == report.f_res / report.bandwidth_hz

    @pytest.mark.parametrize("rl,notes", [
        ([-12, -20, -15, -5, -3], ("band-truncated-at-sweep-start",)),
        ([-3, -5, -15, -20, -12], ("band-truncated-at-sweep-stop",)),
        ([-12, -20, -15], ("band-truncated-at-sweep-start", "band-truncated-at-sweep-stop")),
    ])
    def test_truncated_bands(self, rl, notes):
        report = extract_resonance(_rl_response(rl))
        assert report.notes == notes
        assert report.q_loaded is None
        assert report.bandwidth_hz == _walk_band(np.linspace(1e9, 2e9, len(rl)), rl)[0]

    def test_one_sample_band(self):
        report = extract_resonance(_rl_response([-5, -5, -11, -5, -5]))
        step = 1e9 / 4
        assert report.bandwidth_hz == pytest.approx(2 * (1.0 - 5.0 / 6.0) * step, rel=1e-12)
        assert report.notes == ()
        assert type(report.q_loaded) is float

    def test_minimum_at_sweep_edge(self):
        report = extract_resonance(_rl_response([-20, -12, -5, -3]))
        assert report.notes == ("rl-min-at-sweep-edge", "band-truncated-at-sweep-start")
        assert report.f_res == 1e9
        assert report.q_loaded is None

    def test_no_sample_below_threshold(self):
        report = extract_resonance(_rl_response([-5, -9, -6]))
        assert report.notes == ("no-sample-below-threshold",)
        assert report.bandwidth_hz == 0.0
        assert report.q_loaded is None

    def test_report_fields_are_python_floats(self, model):
        report = extract_resonance(sweep(model, SweepSpec(37e9, 41e9, 401)))
        assert report.q_loaded is not None
        for value in (report.f_res, report.q_loaded, report.rl_min_db,
                      report.vswr_at_res, report.bandwidth_hz):
            assert type(value) is float

    @settings(max_examples=400, deadline=None)
    @given(st.lists(
        st.sampled_from([-30.0, -12.0, -10.0, -9.5, -3.0, math.nan])
        | st.floats(-40.0, 5.0),
        min_size=2, max_size=40))
    def test_edges_match_sample_walk(self, rl):
        rl = np.asarray(rl)
        f = np.linspace(1e9, 2e9, len(rl))
        report = extract_resonance(_rl_response(rl))
        bandwidth, notes, has_q = _walk_band(f, rl)
        assert float.hex(report.bandwidth_hz) == float.hex(bandwidth)
        assert tuple(n for n in report.notes if n != "rl-min-at-sweep-edge") == notes
        assert (report.q_loaded is not None) == has_q


class TestResonatorBuilders:
    def test_rect_builder_uses_design_frequency(self):
        sub = SubstrateSpec(eps_r=4.7, h=0.8e-3)
        design = RectPatchDesign(1.06e-3, 0.98e-3, 0.05e-3, sub, F0)
        m = rect_resonator(design, "calibrated")
        assert m.f_res == F0
        assert m.r_res == pytest.approx(50.0, abs=1e-9)
        assert m.q_total == pytest.approx(4.224702783582327, rel=1e-12)

    def test_circ_builder_matches_design_chain(self):
        sub = SubstrateSpec(eps_r=2.32, h=0.8e-3)
        design = synth_circ(F0, sub)
        m = circ_resonator(design)
        assert m.f_res == pytest.approx(F0, rel=1e-6)
        assert m.r_res == pytest.approx(68.301, abs=0.01)
        assert m.q_total == pytest.approx(1.5943067126511548, rel=1e-4)
        assert m.q_total == pytest.approx(resonator_terms_circ(design, m.f_res)[1], rel=1e-12)
