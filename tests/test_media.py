import math

import pytest

from mmpatch.errors import DomainError
from mmpatch.media import (
    C0,
    EPS0,
    ETA0,
    MU0,
    Regime,
    SubstrateSpec,
    free_space_wavelength,
    regime_threshold,
    thickness_regime,
    wavenumber,
)


def test_constants_are_self_consistent():
    assert ETA0 == pytest.approx(math.sqrt(MU0 / EPS0), rel=1e-12)
    assert C0 == 2.99792458e8
    # the analysis formulas treat eta0 and 120*pi interchangeably
    assert ETA0 == pytest.approx(120.0 * math.pi, rel=1e-3)


def test_wavelength_examples():
    assert free_space_wavelength(39e9) == pytest.approx(7.687e-3, rel=1e-4)
    assert free_space_wavelength(3e8) == pytest.approx(0.99931, rel=1e-4)
    with pytest.raises(DomainError):
        free_space_wavelength(0.0)


def test_wavelength_times_frequency_is_c():
    for f in (1e6, 3e8, 39e9, 2.4e11):
        assert free_space_wavelength(f) * f == pytest.approx(C0, rel=1e-15, abs=0.0)


def test_wavenumber_examples():
    assert wavenumber(39e9) == pytest.approx(817.3, rel=1e-3)
    assert wavenumber(78e9) == pytest.approx(2.0 * wavenumber(39e9), rel=1e-14, abs=0.0)
    with pytest.raises(DomainError):
        wavenumber(-1.0)


def test_substrate_validation():
    SubstrateSpec(eps_r=1.0, h=1e-4)  # boundary accepted
    with pytest.raises(DomainError):
        SubstrateSpec(eps_r=0.5, h=1e-4)
    with pytest.raises(DomainError):
        SubstrateSpec(eps_r=2.0, h=0.0)
    with pytest.raises(DomainError):
        SubstrateSpec(eps_r=2.0, h=1e-4, tan_delta=-0.1)
    with pytest.raises(DomainError):
        SubstrateSpec(eps_r=2.0, h=1e-4, sigma=0.0)


def test_substrate_defaults_are_copper_and_mild_loss():
    sub = SubstrateSpec(eps_r=2.32, h=0.8e-3)
    assert sub.sigma == 5.8e7
    assert sub.tan_delta == 1e-3


class TestThicknessRegime:
    def test_anchor_thresholds(self):
        assert regime_threshold(2.32) == pytest.approx(0.09, abs=1e-12)
        assert regime_threshold(10.0) == pytest.approx(0.03, abs=1e-12)

    def test_threshold_clamped_outside_anchors(self):
        assert regime_threshold(1.0) == 0.09
        assert regime_threshold(100.0) == 0.03

    def test_thick_at_39ghz_on_0p8mm(self):
        report = thickness_regime(SubstrateSpec(eps_r=2.32, h=0.8e-3), 39e9)
        assert report.ratio == pytest.approx(0.104, abs=5e-4)
        assert report.regime is Regime.THICK

    def test_thin_case(self):
        report = thickness_regime(SubstrateSpec(eps_r=2.32, h=0.1e-3), 39e9)
        assert report.ratio == pytest.approx(0.013, abs=5e-4)
        assert report.regime is Regime.THIN

    def test_high_permittivity_anchor(self):
        # ratio 0.031 sits just above the 0.03 boundary for eps_r = 10
        f = 39e9
        h = 0.031 * free_space_wavelength(f)
        report = thickness_regime(SubstrateSpec(eps_r=10.0, h=h), f)
        assert report.regime is Regime.THICK

    def test_monotone_in_thickness(self):
        f = 39e9
        previous_thick = False
        for h in [0.05e-3, 0.2e-3, 0.5e-3, 0.8e-3, 1.2e-3, 2.0e-3]:
            report = thickness_regime(SubstrateSpec(eps_r=4.7, h=h), f)
            is_thick = report.regime is Regime.THICK
            assert is_thick or not previous_thick  # once thick, stays thick
            previous_thick = is_thick
        assert previous_thick
