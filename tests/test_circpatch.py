import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate, special

from mmpatch import circpatch
from mmpatch.circpatch import (
    J1P_FIRST_ROOT,
    CircPatchDesign,
    circ_analysis,
    circ_design_from_radius,
    directivity,
    effective_radius,
    efficiency,
    far_fields,
    feed_radius_for_match,
    gain,
    input_resistance_circ,
    loss_report,
    p_radiated,
    pattern_cut,
    pattern_cuts,
    r_conductor_circ_printed,
    r_dielectric_circ_printed,
    r_total_circ,
    radiated_power_from_pattern,
    resonant_frequency,
    resonant_radius,
    stored_energy,
    stored_energy_closed_form,
    synth_circ,
)
from mmpatch.errors import DomainError
from mmpatch.media import C0, ETA0, MU0, SubstrateSpec, surface_wave_factor, wavenumber
from mmpatch.response import ResonatorModel, circ_resonator
from mmpatch.specfun import bessel_j, jprime_first_root

from oracles import pattern_integral_series, pattern_power

F0 = 39e9

# The catalogue laminates: permittivities and thicknesses (mm).
CATALOGUE_EPS_R = (2.2, 2.33, 3.0, 3.38, 3.55, 4.4, 6.15, 10.2)
CATALOGUE_H_MM = (0.127, 0.254, 0.508, 0.787, 1.524)

# Frozen from independent oracles (mp-precision Bessel + adaptive quadrature)
# for the 39 GHz design on eps_r = 2.32, h = 0.8 mm. R_r and the values
# built on it (R_c, R_d, R_T, e_r, G, the feed radii and R_in) come from
# scipy alone: brentq for the radius, quad of the pattern integral I and of
# the J1^2 mode profile, and brentq on jv for the feed radii.
GOLD = {
    "a_eff_1p21": 1.4713266894951745e-3,
    "f_res_1p21": 39199891928.88751,
    "f_res_1p21_nofringe": 47665989438.26337,
    "a_synth": 1.2168961638209137e-3,
    "R_r": 437.87485284846053,
    "T1": 0.36293130387318345,
    "W_T": 6.737768340931834e-21,
    "R_c": 0.41380375290772614,
    "R_d": 0.9892602999522027,
    "R_T": 598.1964081788906,
    "e_r": 0.7319917787228072,
    "R_d_printed": 193815.91151118142,
    "R_c_printed": 463346.17656262685,
    "rho0_radiation": 3.223035820514856e-4,
    "rho0_total": 2.742144636878522e-4,
    "R_in_at_rho0": 68.30677809966791,
    "D": 5.335505924309158,
    "G": 3.905546471921136,
    # at the disk's own resonance f_res(a), within 1e-9 of F0
    "Q": 1.653738281317738,
}


@pytest.fixture
def sub():
    return SubstrateSpec(eps_r=2.32, h=0.8e-3)


@pytest.fixture
def design(sub):
    a = resonant_radius(F0, sub)
    return circ_design_from_radius(a, sub, F0)


class TestGeometry:
    def test_mode_constant_matches_root_finder(self):
        assert J1P_FIRST_ROOT == pytest.approx(jprime_first_root(1), abs=1e-9)

    def test_effective_radius_reference(self, sub):
        a_eff = effective_radius(1.21e-3, sub)
        assert a_eff == pytest.approx(GOLD["a_eff_1p21"], rel=1e-12)
        assert a_eff / 1.21e-3 == pytest.approx(1.216, abs=1e-3)

    def test_effective_radius_vanishing_thickness(self):
        # the correction decays like h*ln(1/h), so push h very low
        a = 1.21e-3
        thin = SubstrateSpec(eps_r=2.32, h=1e-10)
        assert effective_radius(a, thin) == pytest.approx(a, rel=1e-6)

    def test_effective_radius_increasing_in_h(self):
        a = 1.21e-3
        values = [effective_radius(a, SubstrateSpec(eps_r=2.32, h=h))
                  for h in np.linspace(0.05e-3, 1.0e-3, 12)]
        assert all(b > c for b, c in zip(values[1:], values[:-1]))

    def test_resonant_frequency_reference(self, sub):
        assert resonant_frequency(1.21e-3, sub) == pytest.approx(
            GOLD["f_res_1p21"], rel=1e-12)
        assert resonant_frequency(1.21e-3, sub) == pytest.approx(39e9, abs=0.8e9)

    def test_resonant_frequency_without_fringing(self, sub):
        closed_form = J1P_FIRST_ROOT * C0 / (2.0 * math.pi * 1.21e-3 * math.sqrt(2.32))
        value = resonant_frequency(1.21e-3, sub, fringing=False)
        assert value == pytest.approx(closed_form, rel=1e-14, abs=0.0)
        assert value == pytest.approx(GOLD["f_res_1p21_nofringe"], rel=1e-12)

    def test_resonant_frequency_inverse_in_radius(self, sub):
        f1 = resonant_frequency(1.0e-3, sub, fringing=False)
        f2 = resonant_frequency(2.0e-3, sub, fringing=False)
        assert f1 == pytest.approx(2.0 * f2, rel=1e-12)

    def test_resonant_radius_reference(self, sub):
        a = resonant_radius(F0, sub)
        assert a == pytest.approx(GOLD["a_synth"], rel=1e-6)
        assert a == pytest.approx(1.21e-3, rel=0.05)

    def test_radius_frequency_round_trip(self):
        for eps_r in (2.0, 4.0, 7.0, 10.0):
            for h in (0.1e-3, 0.5e-3, 1.0e-3):
                for f in (20e9, 40e9, 60e9):
                    sub = SubstrateSpec(eps_r=eps_r, h=h)
                    a = resonant_radius(f, sub)
                    assert resonant_frequency(a, sub) == pytest.approx(f, rel=1e-6)

    @pytest.mark.parametrize("f0", [math.inf, math.nan, 0.0, -1.0])
    @pytest.mark.parametrize("fringing", [True, False])
    def test_resonant_radius_refuses_bad_frequency(self, sub, f0, fringing):
        with pytest.raises(DomainError, match="frequency must be finite and > 0"):
            resonant_radius(f0, sub, fringing)

    def test_no_fringing_radius_closed_form(self, sub):
        a = resonant_radius(F0, sub, fringing=False)
        assert a == pytest.approx(
            J1P_FIRST_ROOT * C0 / (2.0 * math.pi * F0 * math.sqrt(2.32)), rel=1e-14, abs=0.0)

    def test_cavity_field_wavenumbers(self, design):
        # at resonance the in-cavity wavenumber is the mode's, k11 = c / a_eff
        f_res = resonant_frequency(design.a_eff, design.substrate, fringing=False)
        k = wavenumber(f_res) * math.sqrt(design.substrate.eps_r)
        assert k * design.a_eff == pytest.approx(J1P_FIRST_ROOT, rel=1e-15, abs=0.0)


class TestRadiatedPower:
    def test_zero_field_radiates_nothing(self, design):
        assert p_radiated(design, F0, 0.0) == 0.0

    def test_quadratic_in_field(self, design):
        assert p_radiated(design, F0, 3.0) == pytest.approx(
            9.0 * p_radiated(design, F0, 1.0), rel=1e-15, abs=0.0)

    def test_series_bracket_at_0p6(self, sub):
        # P_r over its prefactor is the pattern integral I, here against
        # its exact rational sum
        a_eff = 0.6 / wavenumber(F0)
        small = CircPatchDesign(a=a_eff, a_eff=a_eff, rho0=None, substrate=sub, f_design=F0)
        lam0 = C0 / F0
        prefactor = math.pi**3 * a_eff**2 * sub.h**2 / (2.0 * lam0**2 * ETA0)
        exact = pattern_integral_series(wavenumber(F0) * a_eff)
        assert p_radiated(small, F0) / prefactor == pytest.approx(float(exact), rel=1e-13)

    def test_no_warning_at_large_k0a(self, sub):
        # the pattern integral has no range limit: k0 a_eff = 1.8 and 2.5
        # are read without a warning
        for k0a in (1.8, 2.5):
            a_eff = k0a / wavenumber(F0)
            big = CircPatchDesign(a=a_eff, a_eff=a_eff, rho0=None, substrate=sub, f_design=F0)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                p_radiated(big, F0)
                loss_report(big, F0)

    # Dual route: P_r from the pattern integral against the hemispherical
    # trapezoid of the far-field power; they differ by the 181 x 361 grid's
    # error, 1e-5 to 3e-5.
    def test_series_vs_pattern_quadrature_within_3_percent(self, sub):
        k0 = wavenumber(F0)
        for k0a in (0.05, 0.2, 0.4, 0.6, 0.8):
            a_eff = k0a / k0
            d = CircPatchDesign(a=a_eff, a_eff=a_eff, rho0=None, substrate=sub, f_design=F0)
            assert radiated_power_from_pattern(d, F0) == pytest.approx(
                p_radiated(d, F0), rel=1e-4)

    def test_series_vs_pattern_quadrature_within_8_percent_to_1p2(self, sub):
        k0 = wavenumber(F0)
        for k0a in (0.9, 1.0, 1.2, 1.55, 1.8):
            a_eff = k0a / k0
            d = CircPatchDesign(a=a_eff, a_eff=a_eff, rho0=None, substrate=sub, f_design=F0)
            assert radiated_power_from_pattern(d, F0) == pytest.approx(
                p_radiated(d, F0), rel=1e-4)


class TestResistances:
    def test_radiation_reference_and_field_independence(self, design):
        assert r_total_circ(design, F0).R_r == pytest.approx(GOLD["R_r"], rel=1e-9)
        # (E0 h)^2 / (2 P_r(E0)) is the same resistance at any amplitude
        h = design.substrate.h
        for e0 in (1.0, 7.0):
            voltage_route = (e0 * h) ** 2 / (2.0 * p_radiated(design, F0, e0))
            assert voltage_route == pytest.approx(r_total_circ(design, F0).R_r, rel=1e-12)

    def test_radiation_decreasing_in_radius(self, sub):
        values = []
        for a in np.linspace(0.5e-3, 2.0e-3, 8):
            d = circ_design_from_radius(a, sub, F0)
            values.append(r_total_circ(d, F0).R_r)
        assert all(b < c for b, c in zip(values[1:], values[:-1]))

    def test_surface_wave_reference(self, design, sub):
        r_s = r_total_circ(design, F0).R_s
        _, t1 = surface_wave_factor(sub, F0)
        assert t1 == pytest.approx(GOLD["T1"], rel=1e-9)
        assert r_s == pytest.approx(t1 * r_total_circ(design, F0).R_r, rel=1e-15, abs=0.0)

    def test_no_surface_wave_in_air(self):
        air = SubstrateSpec(eps_r=1.0, h=0.8e-3)
        d = circ_design_from_radius(1.21e-3, air, F0)
        assert r_total_circ(d, F0).R_s == 0.0

    def test_t1_shared_between_geometries(self, design, sub):
        b = r_total_circ(design, F0)
        ratio = b.R_s / b.R_r
        _, t1 = surface_wave_factor(sub, F0)
        assert ratio == pytest.approx(t1, rel=1e-15, abs=0.0)

    def test_conductor_and_dielectric_references(self, design):
        b = r_total_circ(design, F0)
        assert b.R_c == pytest.approx(GOLD["R_c"], rel=1e-5)
        assert b.R_d == pytest.approx(GOLD["R_d"], rel=1e-5)

    def test_dielectric_tracks_loss_tangent(self, design, sub):
        # series convention: the dielectric term scales with its loss power
        doubled = circ_design_from_radius(design.a, replace(sub, tan_delta=2e-3), F0)
        assert r_total_circ(doubled, F0).R_d == pytest.approx(
            2.0 * r_total_circ(design, F0).R_d, rel=1e-9)

    def test_printed_closed_forms_as_cross_checks(self, design, sub):
        r_d_p = r_dielectric_circ_printed(design, F0)
        r_c_p = r_conductor_circ_printed(design, F0)
        assert r_d_p == pytest.approx(GOLD["R_d_printed"], rel=1e-9)
        assert r_c_p == pytest.approx(GOLD["R_c_printed"], rel=1e-9)
        # voltage route: closed forms equal (E0 h)^2 / (2 P_x), and the
        # stored energy written with f equals the budget's W_T, to rounding
        # (4.4e-16, 2.2e-16 and 2.2e-16 at the reference)
        v0sq = sub.h**2
        rep = loss_report(design, F0)
        assert r_d_p == pytest.approx(v0sq / (2.0 * rep.P_d), rel=1e-12)
        assert r_c_p == pytest.approx(v0sq / (2.0 * rep.P_c), rel=1e-12)
        assert stored_energy_closed_form(design, F0) == pytest.approx(rep.W_T, rel=1e-12)
        # R_d_printed * tan_delta is invariant in tan_delta
        doubled = circ_design_from_radius(design.a, replace(sub, tan_delta=2e-3), F0)
        assert r_dielectric_circ_printed(doubled, F0) * 2e-3 == pytest.approx(
            r_d_p * 1e-3, rel=1e-12)

    def test_printed_dielectric_lossless_sentinel(self, design, sub):
        lossless = circ_design_from_radius(design.a, replace(sub, tan_delta=0.0), F0)
        assert r_dielectric_circ_printed(lossless, F0) == math.inf
        assert r_total_circ(lossless, F0).R_d == 0.0

    def test_total_breakdown(self, design):
        b = r_total_circ(design, F0)
        assert b.R_total == b.R_r + b.R_s + b.R_c + b.R_d
        assert b.R_total == pytest.approx(GOLD["R_T"], rel=1e-5)
        for term in (b.R_r, b.R_s, b.R_c, b.R_d):
            assert term > 0.0


class TestStoredEnergy:
    def test_positive_and_quadratic_in_field(self, design):
        w1 = stored_energy(design, 1.0)
        assert w1 > 0.0
        assert stored_energy(design, 10.0) == pytest.approx(100.0 * w1, rel=1e-12)

    def test_linear_in_thickness_at_fixed_geometry(self, design, sub):
        thick = CircPatchDesign(a=design.a, a_eff=design.a_eff, rho0=None,
                                substrate=replace(sub, h=2.0 * sub.h), f_design=F0)
        assert stored_energy(thick) == pytest.approx(2.0 * stored_energy(design), rel=1e-12)

    def test_reference_value(self, design):
        assert stored_energy(design) == pytest.approx(GOLD["W_T"], rel=1e-9)

    def test_radius_and_frequency_closed_forms_agree_at_resonance(self, design):
        # the same Lommel closed form, once through a_eff and once through
        # the resonance frequency it implies
        f_res = resonant_frequency(design.a, design.substrate)
        closed = stored_energy_closed_form(design, f_res)
        assert stored_energy(design) == pytest.approx(closed, rel=1e-12)

    def test_overflowing_radius_rejected(self, sub):
        # a_eff**2 overflows: a DomainError, not the OverflowError of **
        huge = CircPatchDesign(a=1e200, a_eff=1e200, rho0=None, substrate=sub, f_design=F0)
        with pytest.raises(DomainError, match="stored energy overflows"):
            stored_energy(huge)


class TestQuality:
    def test_energy_over_summed_powers(self, design):
        rep = loss_report(design, F0)
        p_sum = rep.P_r + rep.P_s + rep.P_c + rep.P_d
        assert circ_analysis(design, F0)[0].Q == pytest.approx(
            2.0 * math.pi * F0 * rep.W_T / p_sum, rel=1e-12)

    def test_reference_value(self, design):
        f_res = resonant_frequency(design.a, design.substrate)
        assert circ_analysis(design, f_res)[0].Q == pytest.approx(GOLD["Q"], rel=1e-9)

    def test_resonator_terms_equal_separate_calls(self, sub):
        d = synth_circ(F0, sub)
        a, rep = circ_analysis(d, F0)
        assert a.f == F0
        assert a.breakdown == rep.breakdown
        assert a.r_in == input_resistance_circ(d, F0, basis="total")
        # the Q of the same pass that fills the loss report
        assert rep == loss_report(d, F0)
        b = rep.breakdown
        assert a.Q == 2.0 * math.pi * F0 * rep.W_T * b.R_r / (rep.P_r * b.R_total)
        # the resonator is the record at the effective radius's resonance
        m = circ_resonator(d)
        a = circ_analysis(d, m.f_res)[0]
        assert m == ResonatorModel(a.f, a.r_in, a.Q)


class TestLossPowers:
    def test_lossless_limits(self, design, sub):
        no_loss = circ_design_from_radius(design.a, replace(sub, tan_delta=0.0), F0)
        assert loss_report(no_loss, F0).P_d == 0.0
        great_metal = circ_design_from_radius(design.a, replace(sub, sigma=1e30), F0)
        assert loss_report(great_metal, F0).P_c < loss_report(design, F0).P_c * 1e-10

    def test_budget_powers_equal_public_formulas(self, design):
        rep = loss_report(design, F0, E0=1.0)
        sub = design.substrate
        omega = 2.0 * math.pi * F0
        # P_c = omega W_T / (h sqrt(pi f mu0 sigma)), P_d = omega tan_delta W_T
        assert rep.P_c == omega * rep.W_T / (sub.h * math.sqrt(math.pi * F0 * MU0 * sub.sigma))
        assert rep.P_d == omega * sub.tan_delta * rep.W_T
        assert rep.W_T == stored_energy(design)

    def test_power_ratio_identity(self, design, sub):
        rep = loss_report(design, F0)
        ratio = rep.P_d / rep.P_c
        expected = sub.tan_delta * sub.h * math.sqrt(math.pi * F0 * 4e-7 * math.pi * sub.sigma)
        assert ratio == pytest.approx(expected, rel=1e-12)


class TestFeedPlacement:
    def test_target_at_edge_returns_edge(self, design):
        edge_r = input_resistance_circ(design, F0, rho0=design.a, basis="total")
        rho0 = feed_radius_for_match(design, F0, edge_r, basis="total")
        assert rho0 == pytest.approx(design.a, rel=1e-9)

    def test_small_target_moves_feed_inward(self, design):
        rho_small = feed_radius_for_match(design, F0, 0.5, basis="total")
        rho_large = feed_radius_for_match(design, F0, 50.0, basis="total")
        assert rho_small < rho_large
        assert rho_small < 0.05 * design.a

    def test_reference_placements(self, design):
        rho_rad = feed_radius_for_match(design, F0, 50.0, basis="radiation")
        rho_tot = feed_radius_for_match(design, F0, 50.0, basis="total")
        assert rho_rad == pytest.approx(GOLD["rho0_radiation"], rel=1e-6)
        assert rho_tot == pytest.approx(GOLD["rho0_total"], rel=1e-6)

    def test_round_trip_both_bases(self, design):
        for basis in ("total", "radiation"):
            for target in (10.0, 50.0, 150.0):
                rho0 = feed_radius_for_match(design, F0, target, basis=basis)
                back = input_resistance_circ(design, F0, rho0=rho0, basis=basis)
                assert back == pytest.approx(target, rel=1e-3)

    def test_radiation_placement_sees_total_mismatch(self, design):
        # the classical placement rule leaves the total-resistance mismatch
        # that sets the resonance VSWR
        rho0 = feed_radius_for_match(design, F0, 50.0, basis="radiation")
        realized = input_resistance_circ(design, F0, rho0=rho0, basis="total")
        assert realized == pytest.approx(GOLD["R_in_at_rho0"], rel=1e-6)

    def test_unreachable_target_rejected(self, design):
        with pytest.raises(DomainError):
            feed_radius_for_match(design, F0, 1e6, basis="total")

    def test_taper_monotone_to_first_peak(self, design):
        rhos = np.linspace(0.0, design.a, 30)
        values = [input_resistance_circ(design, F0, rho0=float(r), basis="total")
                  for r in rhos]
        assert all(b >= c for b, c in zip(values[1:], values[:-1]))

    def test_synth_pipeline(self, sub):
        d = synth_circ(F0, sub)
        assert d.rho0 == pytest.approx(GOLD["rho0_radiation"], rel=1e-6)
        assert resonant_frequency(d.a, sub) == pytest.approx(F0, rel=1e-6)

    def test_synthesis_root_evaluations(self, monkeypatch):
        # The radius and feed searches take about 21 evaluations per design
        # between them (bisection took 78) on every catalogue laminate
        # from 20 to 80 GHz.
        evals = []
        search = circpatch.find_root_bracketed

        def counting(f, bracket, tol=1e-10):
            def counted(x):
                evals.append(x)
                return f(x)
            return search(counted, bracket, tol)

        monkeypatch.setattr(circpatch, "find_root_bracketed", counting)
        for eps_r in CATALOGUE_EPS_R:
            for h_mm in CATALOGUE_H_MM:
                sub = SubstrateSpec(eps_r=eps_r, h=h_mm * 1e-3)
                for f_ghz in range(20, 81, 5):
                    evals.clear()
                    d = synth_circ(f_ghz * 1e9, sub)
                    assert len(evals) <= 25, (eps_r, h_mm, f_ghz, len(evals))
                    assert resonant_frequency(d.a, sub) == pytest.approx(
                        f_ghz * 1e9, rel=1e-9)


class TestFarFields:
    def test_broadside_symmetry(self, design):
        e_t, _ = far_fields(design, F0, 1.0, 0.0, 0.0)
        _, e_p = far_fields(design, F0, 1.0, 0.0, math.pi / 2)
        assert float(e_t) == pytest.approx(float(e_p), rel=1e-12)

    def test_e_theta_vanishes_in_h_plane(self, design):
        e_t, _ = far_fields(design, F0, 1.0, 0.4, math.pi / 2)
        assert float(e_t) == pytest.approx(0.0, abs=1e-18)

    def test_linear_in_field_amplitude(self, design):
        theta = np.linspace(0.0, math.pi / 2, 7)
        e1_t, e1_p = far_fields(design, F0, 1.0, theta, 0.7)
        e10_t, e10_p = far_fields(design, F0, 10.0, theta, 0.7)
        np.testing.assert_allclose(e10_t, 10.0 * e1_t, rtol=1e-14)
        np.testing.assert_allclose(e10_p, 10.0 * e1_p, rtol=1e-14)

    def test_lower_hemisphere_rejected(self, design):
        with pytest.raises(DomainError):
            far_fields(design, F0, 1.0, -0.1, 0.0)
        with pytest.raises(DomainError):
            far_fields(design, F0, 1.0, math.pi * 0.75, 0.0)

    @pytest.mark.parametrize("theta,phi", [(math.nan, 0.0), (0.3, math.nan),
                                           (np.array([0.1, math.nan]), 0.0),
                                           (0.3, math.inf)])
    def test_non_finite_angles_rejected(self, design, theta, phi):
        with pytest.raises(DomainError):
            far_fields(design, F0, 1.0, theta, phi)

    @pytest.mark.parametrize("E0", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_field_amplitude_rejected(self, design, E0):
        with pytest.raises(DomainError):
            far_fields(design, F0, E0, 0.3, 0.2)

    def test_hemispherical_power_matches_series_at_design(self, design):
        # independent longhand trapezoid oracle on the published grid
        oracle = pattern_power(design, F0)
        assert radiated_power_from_pattern(design, F0) == pytest.approx(oracle, rel=1e-9)
        assert oracle == pytest.approx(p_radiated(design, F0), rel=1e-4)


def _scalar_bessel_rows(orders, values):
    flat = np.ravel(values)
    rows = [[bessel_j(n, float(v)) for v in flat] for n in orders]
    return np.array(rows).reshape((len(orders),) + np.shape(values))


class TestArrayKernelExact:
    # The far-field quadratures must give the same floats as a point-by-point
    # loop over the scalar kernel.
    def _both(self, monkeypatch, fn):
        fast = fn()
        monkeypatch.setattr(circpatch, "bessel_j_rows", _scalar_bessel_rows)
        return fast, fn()

    def test_directivity(self, design, monkeypatch):
        # k0 a_eff = 4.5, 8 and 12: above the power-series range, where the
        # Gauss-Legendre rule calls the kernel
        k0a_at_f0 = wavenumber(F0) * design.a_eff
        fast, ref = self._both(monkeypatch, lambda: [
            directivity(design, F0 * k0a / k0a_at_f0) for k0a in (4.5, 8.0, 12.0)])
        assert fast == ref

    def test_pattern_cut(self, design, monkeypatch):
        fast, ref = self._both(monkeypatch, lambda: [
            pattern_cut(design, F0, plane, step=math.radians(0.5)) for plane in ("E", "H")])
        for a, b in zip(fast, ref):
            assert a.theta.tobytes() == b.theta.tobytes()
            assert a.db.tobytes() == b.db.tobytes()

    def test_far_fields_grid(self, design, monkeypatch):
        theta = np.linspace(0.0, math.pi / 2, 46)
        phi = np.linspace(0.0, 2.0 * math.pi, 73)
        fast, ref = self._both(monkeypatch, lambda: far_fields(
            design, 1.4 * F0, 2.5, theta[:, None], phi[None, :]))
        for a, b in zip(fast, ref):
            assert a.shape == (46, 73)
            assert np.array_equal(a, b)


class TestDirectivityEfficiencyGain:
    def test_small_disk_limit(self, sub):
        a_eff = 0.05 / wavenumber(F0)
        small = CircPatchDesign(a=a_eff, a_eff=a_eff, rho0=None, substrate=sub, f_design=F0)
        assert directivity(small, F0) == pytest.approx(3.0, rel=0.02)

    def test_small_disk_limit_exact(self, sub):
        a_eff = 1e-6 / wavenumber(F0)
        tiny = CircPatchDesign(a=a_eff, a_eff=a_eff, rho0=None, substrate=sub, f_design=F0)
        assert directivity(tiny, F0) == pytest.approx(3.0, rel=1e-12)

    @pytest.mark.parametrize("k0a", [1e-3, 0.1, 0.5, 1.0, 1.5, 1.59, 1.61, 1.84, 3.2, 3.99, 4.01,
                                     5.0, 8.0, 12.0, 20.0])
    def test_matches_adaptive_quadrature(self, sub, k0a):
        def integrand(theta):
            u = k0a * math.sin(theta)
            j0, j2 = special.jv(0, u), special.jv(2, u)
            return ((j0 - j2) ** 2 + math.cos(theta) ** 2 * (j0 + j2) ** 2) * math.sin(theta)

        power, _ = integrate.quad(integrand, 0.0, math.pi / 2, epsabs=0.0, epsrel=1e-13,
                                  limit=200)
        a_eff = k0a / wavenumber(F0)
        d = CircPatchDesign(a=a_eff, a_eff=a_eff, rho0=None, substrate=sub, f_design=F0)
        # the power series up to k0 a_eff = 1.6, Gauss-Legendre above
        rel = 1e-14 if k0a <= 4.0 else 1e-12
        assert directivity(d, F0) == pytest.approx(4.0 / power, rel=rel, abs=0.0)

    @pytest.mark.parametrize("k0a", [20.000001, 25.0, 82.0])
    def test_refused_past_stated_accuracy(self, sub, k0a):
        # past k0 a_eff = 20 the 32-node rule drifts (7e-4 in D at 82):
        # D, R_r and P_r refuse instead of reporting it
        a_eff = k0a / wavenumber(F0)
        d = CircPatchDesign(a=a_eff, a_eff=a_eff, rho0=None, substrate=sub, f_design=F0)
        for read in (directivity, loss_report, p_radiated):
            with pytest.raises(DomainError, match=r"pattern integral needs k0\*a_eff <= 20"):
                read(d, F0)

    @pytest.mark.parametrize("k0a", [math.inf, math.nan])
    def test_non_finite_argument_refused(self, k0a):
        with pytest.raises(DomainError, match=r"pattern integral needs k0\*a_eff <= 20"):
            circpatch._pattern_integral(k0a)

    @pytest.mark.parametrize("k0a", [0.5, 0.9, 1.2, 1.3, 1.4, 1.45, 1.5, 1.55, 1.58, 1.6])
    def test_series_range_correct_to_rounding(self, sub, k0a):
        # against the exact rational sum at the k0 a_eff the model sees; the
        # alternating terms reach 2.7 times the sum at the 1.6 cutoff
        a_eff = k0a / wavenumber(F0)
        d = CircPatchDesign(a=a_eff, a_eff=a_eff, rho0=None, substrate=sub, f_design=F0)
        exact = 4 / pattern_integral_series(wavenumber(F0) * a_eff)
        assert directivity(d, F0) == pytest.approx(float(exact), rel=5e-16, abs=0.0)

    def test_series_truncation_negligible_at_cutoff(self, sub):
        terms = len(circpatch._PATTERN_SERIES)
        first_omitted = circpatch._pattern_series(terms + 1)[-1]
        s2 = circpatch._SERIES_MAX_K0A ** 2
        a_eff = circpatch._SERIES_MAX_K0A / wavenumber(F0)
        d = CircPatchDesign(a=a_eff, a_eff=a_eff, rho0=None, substrate=sub, f_design=F0)
        assert abs(first_omitted) * s2**terms < 1e-17 * 4.0 / directivity(d, F0)

    def test_series_starts_with_the_quartic_terms(self):
        # the exact coefficients 4/3, -8/15, 11/105 of the small-radius expansion
        for c, exact in zip(circpatch._PATTERN_SERIES,
                                 (4.0 / 3.0, -8.0 / 15.0, 11.0 / 105.0)):
            assert abs(c - exact) <= math.ulp(exact)

    def test_reference_directivity(self, design):
        assert directivity(design, F0) == pytest.approx(GOLD["D"], rel=1e-8)

    def test_efficiency_reference_and_bounds(self, design):
        e_r = efficiency(design, F0)
        assert e_r == pytest.approx(GOLD["e_r"], rel=1e-6)
        assert 0.0 < e_r <= 1.0

    def test_gain_identity_and_reference(self, design):
        g = gain(design, F0)
        assert g == pytest.approx(efficiency(design, F0) * directivity(design, F0), rel=1e-15, abs=0.0)
        assert g == pytest.approx(GOLD["G"], rel=1e-8)
        assert 10.0 * math.log10(g) == pytest.approx(4.76, abs=1.5)

    def test_lossless_airlike_gain_equals_directivity(self):
        air = SubstrateSpec(eps_r=1.0, h=0.8e-3, tan_delta=0.0, sigma=1e30)
        d = circ_design_from_radius(1.21e-3, air, F0, fringing=False)
        assert efficiency(d, F0) == pytest.approx(1.0, abs=1e-9)
        assert gain(d, F0) == pytest.approx(directivity(d, F0), rel=1e-9)

    def test_efficiency_decreases_with_loss_tangent(self, design, sub):
        values = [
            efficiency(circ_design_from_radius(design.a, replace(sub, tan_delta=td), F0), F0)
            for td in (0.0, 1e-3, 5e-3, 2e-2)
        ]
        assert all(b < c for b, c in zip(values[1:], values[:-1]))

    def test_field_scale_invariance(self, design):
        r1 = loss_report(design, F0, E0=1.0)
        r10 = loss_report(design, F0, E0=10.0)
        assert r10.P_r == pytest.approx(100.0 * r1.P_r, rel=1e-12)
        for attr in ("e_r", "D", "G"):
            assert getattr(r10, attr) == pytest.approx(getattr(r1, attr), rel=1e-12)
        assert r10.breakdown == r1.breakdown


class TestPatternCut:
    def test_broadside_is_reference_level(self, design):
        for plane in ("E", "H"):
            cut = pattern_cut(design, F0, plane, step=math.radians(5.0))
            center = [db for th, db in cut if abs(th) < 1e-12]
            assert center == [0.0]

    def test_e_plane_symmetric(self, design):
        cut = pattern_cut(design, F0, "E", step=math.radians(5.0))
        thetas = [th for th, _ in cut]
        dbs = [db for _, db in cut]
        for i, th in enumerate(thetas):
            j = thetas.index(-th)
            assert dbs[i] == pytest.approx(dbs[j], abs=1e-9)

    def test_h_plane_null_at_horizon(self, design):
        # cos(theta) null; numerically bottomless at the horizon samples
        cut = pattern_cut(design, F0, "H", step=math.radians(5.0))
        assert cut.db[0] < -250.0
        assert cut.db[-1] < -250.0

    def test_unknown_plane_rejected(self, design):
        with pytest.raises(DomainError):
            pattern_cut(design, F0, "D")

    @pytest.mark.parametrize("step_deg", [0.7, 0.3, 7.0, 13.0, 90.0, 1.0, 0.5, 5.0])
    @pytest.mark.parametrize("plane", ["E", "H"])
    def test_any_step_stays_in_the_hemisphere(self, design, plane, step_deg):
        step = math.radians(step_deg)
        cut = pattern_cut(design, F0, plane, step)
        thetas = [th for th, _ in cut]
        dbs = [db for _, db in cut]
        n = len(cut) // 2
        assert len(cut) == 2 * n + 1
        assert thetas == [k * step for k in range(-n, n + 1)]
        # the outermost multiple of step within pi/2
        assert n * step <= math.pi / 2 + 1e-12 < (n + 1) * step
        assert dbs == dbs[::-1]
        assert dbs[n] == 0.0

    @pytest.mark.parametrize("step_deg", [1.0, 0.5, 0.1, 5.0, 90.0])
    def test_dividing_steps_keep_their_grid(self, design, step_deg):
        cut = pattern_cut(design, F0, "E", math.radians(step_deg))
        assert len(cut) == 2 * round(90.0 / step_deg) + 1

    @pytest.mark.parametrize("step_deg", [100.0, 180.0, 0.0, -1.0, math.nan, math.inf, 1e-6,
                                          math.degrees(1e-300)])
    def test_bad_step_rejected(self, design, step_deg, monkeypatch):
        def no_grid(*args, **kwargs):
            raise AssertionError("a theta grid was built for a refused step")

        # refused before any array is built, so a tiny step allocates nothing
        monkeypatch.setattr(np, "arange", no_grid)
        with pytest.raises(DomainError, match="pattern step"):
            pattern_cut(design, F0, "E", math.radians(step_deg))
        with pytest.raises(DomainError, match="pattern step"):
            pattern_cuts(design, F0, math.radians(step_deg))

    def test_finest_step_accepted(self, design):
        # 0.001 degrees, 180,001 samples per cut
        assert len(pattern_cut(design, F0, "H", math.radians(0.001))) == 180_001

    @pytest.mark.parametrize("step_deg", [1.0, 0.1, 0.7, 13.0, 90.0])
    def test_both_cuts_equal_the_single_cuts(self, design, step_deg):
        step = math.radians(step_deg)
        for cut, plane in zip(pattern_cuts(design, F0, step), ("E", "H")):
            single = pattern_cut(design, F0, plane, step)
            assert cut.theta.tobytes() == single.theta.tobytes()
            assert cut.db.tobytes() == single.db.tobytes()

    @pytest.mark.parametrize("plane", ["E", "H"])
    def test_rows_are_theta_and_db(self, design, plane):
        # the contract of a cut: float64 columns theta (radians) and db of
        # length n, rows that iterate as Python floats, and broadside
        # exactly (0.0, 0.0) with theta = +0.0
        step = math.radians(1.0)
        cut = pattern_cut(design, F0, plane, step)
        assert isinstance(cut, circpatch.PatternCut)
        assert len(cut) == 181
        for column in (cut.theta, cut.db):
            assert column.dtype == np.float64
            assert column.shape == (181,)
        rows = list(cut)
        assert len(rows) == 181
        assert all(type(th) is float and type(db) is float for th, db in rows)
        assert [th for th, _ in rows] == [k * step for k in range(-90, 91)]
        assert max(db for _, db in cut) == 0.0
        assert rows[90] == (0.0, 0.0)
        assert math.copysign(1.0, rows[90][0]) == 1.0

    def test_zero_level_is_minus_inf(self, design, monkeypatch):
        # an exact null of the E plane at the horizon samples, without a
        # divide-by-zero warning
        kernel = circpatch.bessel_j_rows

        def null_at_horizon(orders, x):
            j0, j2 = kernel(orders, x)
            j2[-1] = j0[-1]
            return j0, j2

        monkeypatch.setattr(circpatch, "bessel_j_rows", null_at_horizon)
        cut = pattern_cut(design, F0, "E", math.radians(5.0))
        assert cut.db[0] == cut.db[-1] == -math.inf
        assert np.isfinite(cut.db[1:-1]).all()

    def test_cut_is_frozen(self, design):
        cut = pattern_cut(design, F0, "E")
        with pytest.raises(AttributeError):
            cut.db = cut.theta


class TestCutPlanes:
    # A cut forms the E plane as |J0 - J2| and the H plane as
    # |cos(theta) (J0 + J2)|: the far_fields magnitudes at phi = 0 and
    # phi = pi/2 over their broadside value, to a few roundings, and
    # exactly 1.0 at broadside.
    @pytest.mark.parametrize("step_deg", [1.0, 0.1, 0.7, 13.0])
    # k0 a_eff = 1.21, 1.93 and 3.63: within and above the 1.6 where the
    # directivity rule changes
    @pytest.mark.parametrize("f_scale", [1.0, 1.6, 3.0])
    def test_planes_equal_far_fields(self, design, step_deg, f_scale):
        f = f_scale * F0
        theta, j0, j2 = circpatch._cut_grid(design, f, math.radians(step_deg))
        half = theta[len(j0) - 1:]
        e_ref = far_fields(design, f, 1.0, half, 0.0)[0]
        h_ref = far_fields(design, f, 1.0, half, math.pi / 2)[1]
        for plane, ref in (("E", e_ref), ("H", h_ref)):
            level = circpatch._PLANE_LEVELS[plane](half, j0, j2)
            assert level[0] == 1.0
            assert level == pytest.approx(ref / ref[0], rel=1e-15, abs=0.0)


class TestLossReport:
    def test_report_consistency(self, design, monkeypatch):
        rep = loss_report(design, F0)
        assert rep.G == pytest.approx(rep.e_r * rep.D, rel=1e-15, abs=0.0)
        assert rep.P_s == pytest.approx(GOLD["T1"] * rep.P_r, rel=1e-9)
        assert rep.breakdown.R_total == pytest.approx(GOLD["R_T"], rel=1e-5)
        assert rep.W_T == pytest.approx(GOLD["W_T"], rel=1e-5)
        # every reader of the budget pass agrees with the report bit for bit
        for eps_r in CATALOGUE_EPS_R:
            for h_mm in CATALOGUE_H_MM:
                d = synth_circ(F0, SubstrateSpec(eps_r=eps_r, h=h_mm * 1e-3))
                assert circ_analysis(d, F0)[0].r_in == input_resistance_circ(
                    d, F0, basis="total")
                for E0 in (0.0, 1.0, 3.0):
                    rep = loss_report(d, F0, E0)
                    assert rep.P_r == p_radiated(d, F0, E0)
                    assert rep.breakdown == r_total_circ(d, F0)
                    assert rep.e_r == efficiency(d, F0)
                    assert rep.G == gain(d, F0)
                    # D of the budget pass is the stand-alone directivity
                    assert rep.D == directivity(d, F0)
                    assert gain(d, F0) == efficiency(d, F0) * directivity(d, F0)
        # one pattern integral per budget pass
        calls = []
        integral = circpatch._pattern_integral

        def counting(k0a):
            calls.append(k0a)
            return integral(k0a)

        monkeypatch.setattr(circpatch, "_pattern_integral", counting)
        for eps_r in CATALOGUE_EPS_R:
            for h_mm in CATALOGUE_H_MM:
                d = synth_circ(F0, SubstrateSpec(eps_r=eps_r, h=h_mm * 1e-3))
                for read in (loss_report, gain, lambda d, f: circ_resonator(d)):
                    calls.clear()
                    read(d, F0)
                    assert len(calls) == 1


class TestBudgetRefusals:
    """The budget pass returns finite, positive P_r and R_total or raises."""

    @pytest.mark.parametrize("sub,message", [
        # R_d overflows to inf
        (SubstrateSpec(eps_r=2.32, h=0.8e-3, tan_delta=1e305), "total resistance"),
        # R_c overflows and T1 is NaN, so R_total is NaN
        (SubstrateSpec(eps_r=1e200, h=0.8e-3), "total resistance"),
        # V0^2 = h^2 underflows, so P_r is 0
        (SubstrateSpec(eps_r=2.32, h=1e-300), "radiated power"),
    ])
    def test_non_finite_budget_rejected(self, sub, message):
        # no feed placement, which reads R_r: the budget itself refuses
        d = circ_design_from_radius(resonant_radius(F0, sub), sub, F0)
        for read in (loss_report, r_total_circ, circ_analysis, efficiency, gain):
            with pytest.raises(DomainError, match=message):
                read(d, F0)
        with pytest.raises(DomainError, match=message):
            input_resistance_circ(d, F0, basis="total")

    def test_underflowing_disk_area_refused(self, sub):
        # pi^3 a_eff^2 underflows to 0, and R_r = lam0^2 eta0 / (area I)
        # raised ZeroDivisionError
        tiny = circ_design_from_radius(1e-303, sub, F0)
        assert math.pi**3 * tiny.a_eff * tiny.a_eff == 0.0
        for read in (loss_report, p_radiated, circ_analysis,
                     lambda d, f: input_resistance_circ(d, f, basis="radiation")):
            with pytest.raises(DomainError, match="radiated power must be finite and > 0"):
                read(tiny, F0)

    @pytest.mark.parametrize("sub,f", [
        # V0^2 = h^2 underflows, so P_r is 0
        (SubstrateSpec(eps_r=2.32, h=1e-300), F0),
        # lambda0^2 and a_eff^2 overflow, so P_r and R_r are NaN
        (SubstrateSpec(eps_r=2.32, h=0.8e-3), 1e-291),
    ])
    def test_radiation_readers_refuse_it_too(self, sub, f):
        # the check sits where R_r and P_r are formed, so the radiation-basis
        # readers and the synthesis stop with it as well
        d = circ_design_from_radius(resonant_radius(f, sub), sub, f)
        reads = (
            lambda: p_radiated(d, f),
            lambda: input_resistance_circ(d, f, basis="radiation"),
            lambda: feed_radius_for_match(d, f, 50.0, basis="radiation"),
            lambda: synth_circ(f, sub),
            lambda: loss_report(d, f),
        )
        for read in reads:
            with pytest.raises(DomainError, match="radiated power must be finite and > 0"):
                read()


class TestFieldAmplitudeValidation:
    """One E0 rule: finite everywhere; positive for far fields,
    non-negative for powers and energies (exactly 0 at E0 = 0)."""

    FIELD_CALLS = {
        "far_fields": lambda d, E0: far_fields(d, F0, E0, 0.3, 0.2),
    }
    POWER_CALLS = {
        "p_radiated": lambda d, E0: p_radiated(d, F0, E0),
        "stored_energy": lambda d, E0: stored_energy(d, E0),
        "stored_energy_closed_form": lambda d, E0: stored_energy_closed_form(d, F0, E0),
        # the conductor and dielectric loss powers P_c, P_d
        "p_conductor": lambda d, E0: loss_report(d, F0, E0=E0).P_c,
        "p_dielectric": lambda d, E0: loss_report(d, F0, E0=E0).P_d,
        "loss_report": lambda d, E0: loss_report(d, F0, E0=E0).P_r,
    }

    @pytest.mark.parametrize("E0", [math.nan, math.inf, -math.inf, 0.0, -2.0])
    @pytest.mark.parametrize("name", sorted(FIELD_CALLS) + sorted(POWER_CALLS))
    def test_bad_amplitude_rejected(self, design, name, E0):
        call = {**self.FIELD_CALLS, **self.POWER_CALLS}[name]
        if E0 == 0.0 and name in self.POWER_CALLS:
            assert call(design, E0) == 0.0
            return
        with pytest.raises(DomainError, match="edge field amplitude"):
            call(design, E0)

    def test_zero_field_loss_report_is_all_zero(self, design):
        rep = loss_report(design, F0, E0=0.0)
        assert (rep.P_r, rep.P_s, rep.P_c, rep.P_d, rep.W_T) == (0.0,) * 5
        assert rep.breakdown == loss_report(design, F0).breakdown
