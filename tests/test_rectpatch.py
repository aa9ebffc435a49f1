import math
import random
from dataclasses import replace

import pytest

from mmpatch.errors import ConfigError, DomainError, SingularFeedError, SynthesisError
from mmpatch.media import (
    ETA0, MU0, SubstrateSpec, free_space_wavelength, surface_wave_factor, wavenumber,
)
from mmpatch.rectpatch import (
    RECT_CALIBRATION_SCALE,
    RECT_VARIANTS,
    RectPatchDesign,
    analyze_rect,
    eps_effective,
    input_resistance_rect,
    q_radiation,
    resonator_terms_rect,
    synth_rect,
)
from mmpatch.response import rect_resonator

F0 = 39e9

# Frozen from direct arithmetic oracles ahead of the build (39 GHz reference
# design: eps_r = 4.7, h = 0.8 mm, L = 1.06 mm, W = 0.98 mm, feed 0.05 mm).
GOLD = {
    "eps_ew": 3.0930011862061866,
    "Q_r": 4.224702783582327,
    "R_c": 0.03255128810629593,
    "R_d": 0.07781876507786413,
    "Z0w": 62.40744850138158,
    "Z0a": 115.14446847721885,
    "W_eq": 2.745959222277195e-3,
    "L_ef": 2.3218958975674935e-3,
    "delta_L": 3.5008721625816276e-4,
    "K1": 1522.0150331751345,
    "T1": 1.4023096851068815,
    "R_r_literal": 32.88288475250436,
    "L_synth": 1.1257723861253402e-3,
    "W_synth": 0.8762756002644393e-3,
}


@pytest.fixture
def sub():
    return SubstrateSpec(eps_r=4.7, h=0.8e-3)


@pytest.fixture
def design(sub):
    return RectPatchDesign(L=1.06e-3, W=0.98e-3, feed_offset_a=0.05e-3,
                           substrate=sub, f_design=F0)


class TestSynthesis:
    def test_reference_dimensions(self, sub):
        d = synth_rect(F0, sub)
        assert d.L == pytest.approx(GOLD["L_synth"], rel=1e-12)
        assert d.W == pytest.approx(GOLD["W_synth"], rel=1e-12)
        # within the acceptance band of the published 1.06 mm x 0.98 mm
        assert d.L == pytest.approx(1.06e-3, rel=0.15)
        assert d.W == pytest.approx(0.98e-3, rel=0.15)
        assert d.feed_offset_a == 0.0

    def test_length_scales_as_sqrt_h(self, sub):
        d1 = synth_rect(F0, replace(sub, h=0.1e-3))
        d4 = synth_rect(F0, replace(sub, h=0.4e-3))
        assert d4.L == pytest.approx(2.0 * d1.L, rel=1e-12)

    def test_huge_thickness_is_a_synthesis_error(self):
        with pytest.raises(SynthesisError):
            synth_rect(F0, SubstrateSpec(eps_r=4.7, h=10.0))


class TestEpsEffective:
    def test_air_is_unity(self):
        sub = SubstrateSpec(eps_r=1.0, h=0.8e-3)
        for L in (0.5e-3, 2e-3):
            assert eps_effective(sub, L) == pytest.approx(1.0, abs=1e-15)

    def test_thin_limit_recovers_full_permittivity(self):
        sub = SubstrateSpec(eps_r=4.7, h=1e-9)
        assert eps_effective(sub, 1e-3) == pytest.approx(4.7, rel=1e-9)

    def test_reference_value(self, sub):
        assert eps_effective(sub, 1.06e-3) == pytest.approx(GOLD["eps_ew"], rel=1e-12)

    def test_monotone_in_length_and_permittivity(self, sub):
        values = [eps_effective(sub, L) for L in (0.5e-3, 1e-3, 2e-3, 5e-3)]
        assert values == sorted(values)
        assert eps_effective(SubstrateSpec(eps_r=6.0, h=sub.h), 1e-3) > eps_effective(sub, 1e-3)


class TestQRadiation:
    def test_quarter_wave_air_gives_unity(self):
        sub = SubstrateSpec(eps_r=1.0, h=free_space_wavelength(F0) / 4.0)
        assert q_radiation(sub, F0, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_published_intermediate(self, sub):
        # arithmetic oracle (lambda0 / 4h) * sqrt(2.86)
        assert q_radiation(sub, F0, 2.86) == pytest.approx(4.0625, abs=2e-3)

    def test_reference_value(self, sub):
        assert q_radiation(sub, F0, GOLD["eps_ew"]) == pytest.approx(GOLD["Q_r"], rel=1e-12)

    def test_inverse_in_thickness(self, sub):
        q1 = q_radiation(sub, F0, 3.0)
        q2 = q_radiation(replace(sub, h=2.0 * sub.h), F0, 3.0)
        assert q2 == pytest.approx(0.5 * q1, rel=1e-12)


def _loss_terms(design, f=F0):
    # R_c and R_d of the resistance breakdown; neither depends on the variant
    breakdown = analyze_rect(design, f, "calibrated")[0]
    return breakdown.R_c, breakdown.R_d


def _derived(design, f=F0):
    # the RectDerived record; no field depends on the variant or the feed
    return analyze_rect(design, f, "calibrated")[1]


def _strip(sub, W):
    # Z0w of an edge-fed patch of width W: the substrate-filled strip impedance
    return _derived(RectPatchDesign(L=1.06e-3, W=W, feed_offset_a=0.0,
                                    substrate=sub, f_design=F0)).Z0w


def _closed_form_taper(design, delta_L, f=F0):
    # feed taper from its closed form g(x) = (1 - 2 cos x) / (2 sin^2 x),
    # x = k0 (a + delta_L), normalized to 1 at the radiating edge
    def g(x):
        return (1.0 - 2.0 * math.cos(x)) / (2.0 * math.sin(x) ** 2)

    k0 = wavenumber(f)
    return g(k0 * (design.feed_offset_a + delta_L)) / g(k0 * delta_L)


class TestLossResistances:
    def test_conductor_reference(self, design):
        assert _loss_terms(design)[0] == pytest.approx(GOLD["R_c"], rel=1e-12)

    def test_conductor_quadratic_in_q(self, design):
        # doubling h halves Q_r at (almost) fixed eps_ew; rebuild with a
        # geometry that pins eps_ew by scaling L with h
        r1 = _loss_terms(design)[0]
        scaled = RectPatchDesign(
            L=2.0 * design.L, W=2.0 * design.W, feed_offset_a=0.0,
            substrate=replace(design.substrate, h=2.0 * design.substrate.h),
            f_design=F0)
        assert _loss_terms(scaled)[0] == pytest.approx(0.25 * r1, rel=1e-12)

    def test_dielectric_reference_and_ratio(self, design):
        r_c, r_d = _loss_terms(design)
        assert r_d == pytest.approx(GOLD["R_d"], rel=1e-12)
        ratio = design.substrate.tan_delta * design.substrate.h * math.sqrt(
            math.pi * F0 * MU0 * design.substrate.sigma)
        assert ratio == pytest.approx(2.39, abs=0.01)  # order-of-magnitude anchor
        assert r_d / r_c == pytest.approx(ratio, rel=1e-12)

    def test_lossless_dielectric_gives_zero(self, design):
        lossless = replace(design.substrate, tan_delta=0.0)
        d = RectPatchDesign(design.L, design.W, design.feed_offset_a, lossless, F0)
        assert _loss_terms(d)[1] == 0.0


class TestStripImpedance:
    def test_air_fill_drops_correction_term(self):
        sub = SubstrateSpec(eps_r=1.0, h=0.8e-3)
        W = 0.8e-3
        expected = ETA0 / (math.pi * 2.0) * math.log(
            4.0 + math.sqrt(2.0 + 16.0))
        assert _strip(sub, W) == pytest.approx(expected, rel=1e-12)
        # the air-filled strip of any substrate is the same line
        on_fr4 = RectPatchDesign(L=1.06e-3, W=W, feed_offset_a=0.0,
                                 substrate=replace(sub, eps_r=4.7), f_design=F0)
        assert _derived(on_fr4).Z0a == pytest.approx(expected, rel=1e-12)

    def test_decreasing_in_width(self, sub):
        widths = [0.3e-3, 0.8e-3, 2e-3, 4e-3, 8e-3]
        z = [_strip(sub, w) for w in widths]
        assert z == sorted(z, reverse=True)

    def test_reference_values(self, sub):
        assert _strip(sub, 0.98e-3) == pytest.approx(GOLD["Z0w"], rel=1e-12)
        assert _strip(replace(sub, eps_r=1.0), 0.98e-3) == pytest.approx(GOLD["Z0a"], rel=1e-12)
        der = _derived(RectPatchDesign(L=1.06e-3, W=0.98e-3, feed_offset_a=0.05e-3,
                                       substrate=sub, f_design=F0))
        assert der.Z0w == pytest.approx(GOLD["Z0w"], rel=1e-12)
        assert der.Z0a == pytest.approx(GOLD["Z0a"], rel=1e-12)

    @pytest.mark.parametrize("eps_r", [2.0, 2.32, 4.7, 6.0, 10.0])
    def test_branch_continuity_within_5_percent(self, eps_r):
        h = 0.8e-3
        sub = SubstrateSpec(eps_r=eps_r, h=h)
        below = _strip(sub, 3.3 * h)            # narrow-strip branch
        above = _strip(sub, 3.3 * h * (1 + 1e-9))  # wide-strip branch
        assert above == pytest.approx(below, rel=0.05)


class TestEquivalentWidthAndLength:
    def test_parallel_plate_identity(self, design):
        # W_eq * Z0w * sqrt(eps_ew) == eta0 * h by construction
        der = _derived(design)
        eew = eps_effective(design.substrate, design.L)
        assert der.eps_ew == eew
        assert der.W_eq * der.Z0w * math.sqrt(eew) == pytest.approx(
            ETA0 * design.substrate.h, rel=1e-12)

    def test_reference_value(self, design):
        assert _derived(design).W_eq == pytest.approx(GOLD["W_eq"], rel=1e-12)

    def test_equivalent_width_never_below_physical(self):
        # sweep oracle over W/h in [0.5, 10], eps_r in [2, 10]
        h = 0.8e-3
        for eps_r in (2.0, 3.5, 6.0, 10.0):
            for ratio in (0.5, 1.0, 2.0, 3.3, 5.0, 10.0):
                W = ratio * h
                design = RectPatchDesign(L=W, W=W, feed_offset_a=0.0,
                                         substrate=SubstrateSpec(eps_r=eps_r, h=h),
                                         f_design=F0)
                assert _derived(design).W_eq >= W

    def test_effective_length_reference_and_bound(self, design):
        l_ef = _derived(design).L_ef
        assert l_ef == pytest.approx(GOLD["L_ef"], rel=1e-12)
        assert l_ef > design.L


class TestEdgeExtension:
    def test_reference_value(self, design):
        assert _derived(design).delta_L == pytest.approx(GOLD["delta_L"], rel=1e-12)

    def test_positive(self, design):
        assert _derived(design).delta_L > 0.0

    def test_linear_in_h_at_fixed_ratios(self, design):
        # scaling h and L together keeps eps_ew and L/h fixed
        scaled = RectPatchDesign(
            L=3.0 * design.L, W=design.W, feed_offset_a=0.0,
            substrate=replace(design.substrate, h=3.0 * design.substrate.h),
            f_design=F0)
        assert _derived(scaled).delta_L == pytest.approx(3.0 * _derived(design).delta_L,
                                                         rel=1e-12)


class TestSurfaceWaveFactor:
    def test_air_supports_no_surface_wave(self):
        k1, t1 = surface_wave_factor(SubstrateSpec(eps_r=1.0, h=0.8e-3), F0)
        assert k1 == 0.0
        assert t1 == 0.0

    def test_reference_values(self, sub):
        k1, t1 = surface_wave_factor(sub, F0)
        assert k1 == pytest.approx(GOLD["K1"], rel=1e-9)
        assert t1 == pytest.approx(GOLD["T1"], rel=1e-9)

    def test_low_permittivity_reference(self):
        sub = SubstrateSpec(eps_r=2.32, h=0.8e-3)
        k1, t1 = surface_wave_factor(sub, F0)
        assert k1 == pytest.approx(897.148, rel=1e-4)
        assert k1 * sub.h == pytest.approx(0.718, abs=1e-3)
        assert t1 == pytest.approx(0.363, abs=1e-3)

    def test_t1_increasing_in_thickness(self):
        lam0 = free_space_wavelength(F0)
        previous = 0.0
        for frac in (0.02, 0.05, 0.10, 0.15, 0.20, 0.24):
            _, t1 = surface_wave_factor(SubstrateSpec(eps_r=2.32, h=frac * lam0), F0)
            assert t1 > previous
            previous = t1

    def test_corrected_form_is_smaller(self, sub):
        _, printed = surface_wave_factor(sub, F0, "printed")
        _, corrected = surface_wave_factor(sub, F0, "corrected")
        assert corrected < printed
        circ_sub = SubstrateSpec(eps_r=2.32, h=0.8e-3)
        _, corr = surface_wave_factor(circ_sub, F0, "corrected")
        assert corr == pytest.approx(0.29719900390589366, rel=1e-9)

    def test_unknown_form_rejected(self, sub):
        with pytest.raises(ConfigError):
            surface_wave_factor(sub, F0, "other")


class TestRadiationResistance:
    def test_literal_reference(self, design):
        assert analyze_rect(design, F0, "eq8-literal")[0].R_r == pytest.approx(
            GOLD["R_r_literal"], rel=1e-12)

    def test_literal_structure(self, design):
        breakdown, der, _ = analyze_rect(design, F0, "eq8-literal")
        lam0 = free_space_wavelength(F0)
        assert breakdown.R_r == pytest.approx(
            der.Z0w * lam0 / (2.0 * math.pi * der.L_ef), rel=1e-14, abs=0.0)

    def test_calibrated_is_frozen_rescale(self, design):
        literal = analyze_rect(design, F0, "eq8-literal")[0].R_r
        calibrated = analyze_rect(design, F0, "calibrated")[0].R_r
        assert calibrated == pytest.approx(RECT_CALIBRATION_SCALE * literal, rel=1e-15, abs=0.0)

    def test_unknown_variant_rejected(self, design):
        with pytest.raises(ConfigError):
            analyze_rect(design, F0, "nonsense-variant")

    def test_calibration_constant_rederived(self, design):
        # solve scale * R_base so the full chain returns 50 ohm at the feed
        r_base = analyze_rect(design, F0, "eq8-literal")[0].R_r
        _, t1 = surface_wave_factor(design.substrate, F0)
        tau = _closed_form_taper(design, _derived(design).delta_L)
        losses = sum(_loss_terms(design))
        scale = (50.0 - losses) / (r_base * (tau + t1))
        assert RECT_CALIBRATION_SCALE == pytest.approx(scale, rel=1e-9)


class TestInputResistance:
    def test_calibrated_match_at_reference_feed(self, design):
        assert input_resistance_rect(design, F0, "calibrated") == pytest.approx(50.0, abs=1e-9)

    def test_literal_value_at_reference_feed(self, design):
        assert input_resistance_rect(design, F0, "eq8-literal") == pytest.approx(
            70.93067468675885, rel=1e-9)

    def test_monotone_decreasing_toward_center(self, design):
        values = []
        for a in [0.0, 0.05e-3, 0.15e-3, 0.3e-3, 0.45e-3, 0.53e-3]:
            d = RectPatchDesign(design.L, design.W, a, design.substrate, F0)
            values.append(input_resistance_rect(d, F0, "calibrated"))
        assert values == sorted(values, reverse=True)

    def test_edge_feed_taper_is_unity(self, design):
        d = RectPatchDesign(design.L, design.W, 0.0, design.substrate, F0)
        assert _closed_form_taper(d, _derived(d).delta_L) == 1.0
        # at the edge the taper leaves R_r as it is: r_in is the breakdown's sum
        for variant in RECT_VARIANTS:
            breakdown, _, r_in = analyze_rect(d, F0, variant)
            assert r_in == pytest.approx(breakdown.R_total, rel=1e-15, abs=0.0)

    def test_singular_feed_position_raises(self, sub):
        # inset + edge extension equal to half a wavelength makes the taper
        # denominator vanish; needs an artificially long patch to reach
        lam0 = free_space_wavelength(F0)
        long_patch = RectPatchDesign(L=10.0 * lam0, W=0.98e-3, feed_offset_a=0.0,
                                     substrate=sub, f_design=F0)
        a_bad = lam0 / 2.0 - _derived(long_patch).delta_L
        d = RectPatchDesign(long_patch.L, long_patch.W, a_bad, sub, F0)
        with pytest.raises(SingularFeedError):
            input_resistance_rect(d, F0, "calibrated")


class TestAnalyze:
    def test_breakdown_sums_exactly(self, design):
        breakdown, _, _ = analyze_rect(design, F0, "calibrated")
        assert breakdown.R_total == breakdown.R_r + breakdown.R_s + breakdown.R_c + breakdown.R_d

    def test_surface_wave_ties_to_radiation(self, design):
        breakdown, derived, _ = analyze_rect(design, F0, "calibrated")
        assert breakdown.R_s == pytest.approx(derived.T1 * breakdown.R_r, rel=1e-15, abs=0.0)

    def test_all_terms_positive(self, design):
        for variant in ("eq8-literal", "calibrated"):
            breakdown, _, r_in = analyze_rect(design, F0, variant)
            for term in (breakdown.R_r, breakdown.R_s, breakdown.R_c, breakdown.R_d):
                assert term > 0.0
            assert r_in > 0.0

    def test_derived_record_reference_values(self, design):
        der = _derived(design)
        assert der.eps_ew == pytest.approx(GOLD["eps_ew"], rel=1e-12)
        assert der.lambda_d == pytest.approx(
            free_space_wavelength(F0) / math.sqrt(4.7), rel=1e-14, abs=0.0)

    def test_synthesized_designs_analyze_finitely(self):
        # eps_r in [2, 10], h/lambda0 in [0.05, 0.15]
        lam0 = free_space_wavelength(F0)
        for eps_r in (2.0, 4.0, 7.0, 10.0):
            for frac in (0.05, 0.10, 0.15):
                sub = SubstrateSpec(eps_r=eps_r, h=frac * lam0)
                d = synth_rect(F0, sub)
                _, _, r_in = analyze_rect(d, F0, "eq8-literal")
                assert math.isfinite(r_in) and r_in > 0.0


class TestDesignValidation:
    def test_feed_beyond_half_length_rejected(self, sub):
        with pytest.raises(DomainError):
            RectPatchDesign(L=1e-3, W=1e-3, feed_offset_a=0.6e-3, substrate=sub, f_design=F0)

    def test_nonpositive_dimensions_rejected(self, sub):
        with pytest.raises(DomainError):
            RectPatchDesign(L=0.0, W=1e-3, feed_offset_a=0.0, substrate=sub, f_design=F0)
        with pytest.raises(DomainError):
            RectPatchDesign(L=1e-3, W=-1e-3, feed_offset_a=0.0, substrate=sub, f_design=F0)


def _one_pass_grid():
    # seeded laminates over eps_r 1-12 (eps_r = 1 carries no surface wave)
    # and h/lambda0 0.01-0.08, both variants, both T1 forms, insets 0-0.3 L/2
    rng = random.Random(20261018)
    cases = []
    for k in range(48):
        eps_r = 1.0 if k % 12 < 4 else rng.uniform(1.0, 12.0)
        f = rng.uniform(10.0, 60.0) * 1e9
        h = rng.uniform(0.01, 0.08) * free_space_wavelength(f)
        sub = SubstrateSpec(eps_r=eps_r, h=h, tan_delta=rng.choice([0.0, 1e-3, 2e-2]))
        design = synth_rect(f, sub)
        design = replace(design, feed_offset_a=rng.uniform(0.0, 0.3) * 0.5 * design.L)
        cases.append((design, RECT_VARIANTS[k % 2], ("printed", "corrected")[(k // 2) % 2]))
    return cases


ONE_PASS_GRID = _one_pass_grid()


class TestRectOnePass:
    @pytest.mark.parametrize("design,variant,t1_form", ONE_PASS_GRID)
    def test_breakdown_and_derived_equal_public_helpers(self, design, variant, t1_form):
        # every term against its formula over the pass's own inputs, exactly
        sub, f, h = design.substrate, design.f_design, design.substrate.h
        breakdown, der, r_in = analyze_rect(design, f, variant, t1_form)
        k1, t1 = surface_wave_factor(sub, f, t1_form)
        eew = eps_effective(sub, design.L)
        assert (der.eps_ew, der.Q_r, der.K1, der.T1) == (eew, q_radiation(sub, f, eew), k1, t1)
        assert der.W_eq == ETA0 * h / (der.Z0w * math.sqrt(eew))
        assert der.L_ef == design.L + 0.5 * (der.W_eq - design.W) * (eew + 0.9) / (eew - 0.299)
        ratio = design.L / h
        assert der.delta_L == (0.412 * h * (eew + 0.9) / (eew - 0.299)
                               * (ratio + 0.264) / (ratio + 0.813))
        assert der.lambda_d == free_space_wavelength(f) / math.sqrt(sub.eps_r)
        r_r = der.Z0w * free_space_wavelength(f) / (2.0 * math.pi * der.L_ef)
        if variant == "calibrated":
            r_r = RECT_CALIBRATION_SCALE * r_r
        assert breakdown.R_r == r_r
        assert breakdown.R_s == t1 * breakdown.R_r
        q_r = der.Q_r
        assert breakdown.R_c == 0.00027 * (design.L / design.W) * q_r * q_r * math.sqrt(f / 1e9)
        assert breakdown.R_d == breakdown.R_c * (
            sub.tan_delta * sub.h * math.sqrt(math.pi * f * MU0 * sub.sigma))
        assert r_in == pytest.approx(
            breakdown.R_r * _closed_form_taper(design, der.delta_L, f)
            + breakdown.R_s + breakdown.R_c + breakdown.R_d, rel=1e-9, abs=0.0)
        if sub.eps_r == 1.0:
            assert (der.K1, der.T1, breakdown.R_s) == (0.0, 0.0, 0.0)
            assert der.Z0a == der.Z0w

    @pytest.mark.parametrize("design,variant,t1_form", ONE_PASS_GRID)
    def test_readers_agree_exactly(self, design, variant, t1_form):
        f = design.f_design
        r_in, q_r = resonator_terms_rect(design, f, variant, t1_form)
        assert input_resistance_rect(design, f, variant, t1_form) == analyze_rect(
            design, f, variant, t1_form)[2] == r_in
        model = rect_resonator(design, variant, t1_form)
        assert (model.r_res, model.q_total) == (r_in, q_r)

    def test_bad_variant_and_t1_form_rejected(self, design):
        for reader in (analyze_rect, input_resistance_rect, resonator_terms_rect):
            with pytest.raises(ConfigError):
                reader(design, F0, "nonsense-variant")
            with pytest.raises(ConfigError):
                reader(design, F0, "calibrated", "other")
            # the T1 form is checked before the variant
            with pytest.raises(ConfigError, match="other"):
                reader(design, F0, "nonsense-variant", "other")
        with pytest.raises(ConfigError):
            rect_resonator(design, "nonsense-variant")
        with pytest.raises(ConfigError):
            rect_resonator(design, "calibrated", "other")

    def test_singular_inset_raises_from_every_reader(self, sub):
        lam0 = free_space_wavelength(F0)
        long_patch = RectPatchDesign(L=10.0 * lam0, W=0.98e-3, feed_offset_a=0.0,
                                     substrate=sub, f_design=F0)
        d = replace(long_patch, feed_offset_a=lam0 / 2.0 - _derived(long_patch).delta_L)
        for reader in (analyze_rect, input_resistance_rect, resonator_terms_rect):
            with pytest.raises(SingularFeedError):
                reader(d, F0, "calibrated")
        with pytest.raises(SingularFeedError):
            rect_resonator(d, "calibrated")

    def test_negative_feed_taper_raises_from_every_reader(self):
        # synthesized air patch at h = 0.12 lambda0 fed 0.1 L in: the taper is
        # negative, and r_in came out negative without an error
        lam0 = free_space_wavelength(F0)
        air = SubstrateSpec(eps_r=1.0, h=0.12 * lam0, tan_delta=1e-3, sigma=5.8e7)
        edge_fed = synth_rect(F0, air)
        d = replace(edge_fed, feed_offset_a=0.1 * edge_fed.L)
        assert _closed_form_taper(d, _derived(edge_fed).delta_L) < 0.0
        for variant in RECT_VARIANTS:
            for reader in (analyze_rect, input_resistance_rect, resonator_terms_rect):
                with pytest.raises(DomainError, match="input resistance"):
                    reader(d, F0, variant)
            with pytest.raises(DomainError):
                rect_resonator(d, variant)
        assert input_resistance_rect(edge_fed, F0, "calibrated") > 0.0
