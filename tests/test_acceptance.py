"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion.

Criterion 5 (circular -10 dB bandwidth of 320 MHz +/- 40 %) is expected to
fail and is left failing on purpose: the sweep model's quality factor is
fixed by the stored-energy / loss-power budget of the cavity, which comes
out near 1.6 on this substrate. A 320 MHz band at 39 GHz would need a
loaded Q near 84, fifty times larger than any Q derivable from the model's
own energies, so the narrowband figure is not reproducible from this model.
"""

import math

import numpy as np
import pytest

from mmpatch.circpatch import (
    CircPatchDesign,
    circ_design_from_radius,
    directivity,
    efficiency,
    feed_radius_for_match,
    gain,
    input_resistance_circ,
    loss_report,
    p_radiated,
    radiated_power_from_pattern,
    resonant_frequency,
    resonant_radius,
    r_total_circ,
    synth_circ,
)
from mmpatch.cli import main
from mmpatch.media import C0, SubstrateSpec, wavenumber
from mmpatch.rectpatch import RectPatchDesign, analyze_rect, input_resistance_rect, synth_rect
from mmpatch.response import SweepSpec, circ_resonator, extract_resonance, rect_resonator, sweep
from mmpatch.specfun import bessel_j, bessel_j_prime, jprime_first_root

from oracles import bisect, series_bessel_j_prime

RECT_SUB = SubstrateSpec(eps_r=4.7, h=0.8e-3)
CIRC_SUB = SubstrateSpec(eps_r=2.32, h=0.8e-3)
F0 = 39e9


@pytest.fixture(scope="module")
def circ_design():
    return synth_circ(F0, CIRC_SUB)  # radius + classical 50 ohm feed placement


@pytest.fixture(scope="module")
def circ_sweep_report(circ_design):
    resp = sweep(circ_resonator(circ_design), SweepSpec(37e9, 41e9, 401))
    return extract_resonance(resp)


@pytest.fixture(scope="module")
def rect_design():
    return RectPatchDesign(L=1.06e-3, W=0.98e-3, feed_offset_a=0.05e-3,
                           substrate=RECT_SUB, f_design=F0)


def test_c01_circular_radius_synthesis():
    a = resonant_radius(F0, CIRC_SUB, fringing=True)
    assert a == pytest.approx(1.21e-3, rel=0.05)
    # without the fringing enlargement the same disk resonates far higher
    closed_form = 1.8411837813406593 * C0 / (2.0 * math.pi * 1.21e-3 * math.sqrt(2.32))
    f_nofringe = resonant_frequency(1.21e-3, CIRC_SUB, fringing=False)
    assert f_nofringe == pytest.approx(closed_form, rel=1e-12)
    assert f_nofringe == pytest.approx(47.7e9, rel=0.01)


def test_c02_circular_resonance_location(circ_sweep_report):
    assert abs(circ_sweep_report.f_res - 39e9) <= 0.5e9


def test_c03_circular_vswr_at_resonance(circ_sweep_report):
    assert abs(circ_sweep_report.vswr_at_res - 1.38) <= 0.15


def test_c04_circular_gain():
    design = synth_circ(F0, CIRC_SUB)
    f_res = resonant_frequency(design.a, CIRC_SUB)
    g_db = 10.0 * math.log10(gain(design, f_res))
    assert abs(g_db - 4.76) <= 1.5
    # small-disk directivity limit from the quadrature route
    a_small = 0.05 / wavenumber(F0)
    small = CircPatchDesign(a=a_small, a_eff=a_small, rho0=None,
                            substrate=CIRC_SUB, f_design=F0)
    assert directivity(small, F0) == pytest.approx(3.00, rel=0.02)


def test_c05_circular_bandwidth(circ_sweep_report):
    # KNOWN FAILURE: the energy-budget Q (~1.6) cannot produce a 320 MHz
    # band; see the module docstring.
    assert circ_sweep_report.bandwidth_hz == pytest.approx(320e6, rel=0.40)


def test_c06_rectangular_resonance_and_match(rect_design):
    r_in = input_resistance_rect(rect_design, F0, "calibrated")
    assert abs(r_in - 50.0) <= 1.0
    resp = sweep(rect_resonator(rect_design, "calibrated"), SweepSpec(37e9, 41e9, 401))
    report = extract_resonance(resp)
    assert abs(report.f_res - 38.9e9) <= 0.8e9
    assert report.rl_min_db <= -30.0


def test_c07_rectangular_synthesis():
    design = synth_rect(F0, RECT_SUB)
    assert design.L == pytest.approx(1.06e-3, rel=0.15)
    assert design.W == pytest.approx(0.98e-3, rel=0.15)


def test_c08_bessel_kernel():
    oracle_root = bisect(lambda x: series_bessel_j_prime(1, x), 1.5, 2.5, tol=1e-13)
    assert jprime_first_root(1) == pytest.approx(oracle_root, abs=1e-8)
    assert jprime_first_root(1) == pytest.approx(1.84118378, abs=1e-8)
    for n in (1, 2, 3, 5):
        for x in np.linspace(0.05, 20.0, 40):
            residual = (bessel_j(n - 1, x) + bessel_j(n + 1, x)
                        - (2.0 * n / x) * bessel_j(n, x))
            assert abs(residual) < 1e-8


def test_c09_field_scale_invariance(circ_design):
    f_res = resonant_frequency(circ_design.a, CIRC_SUB)
    rep_1 = loss_report(circ_design, f_res, E0=1.0)
    rep_10 = loss_report(circ_design, f_res, E0=10.0)
    assert rep_10.breakdown == rep_1.breakdown
    assert rep_10.e_r == pytest.approx(rep_1.e_r, rel=1e-12)
    assert rep_10.D == pytest.approx(rep_1.D, rel=1e-12)
    assert rep_10.G == pytest.approx(rep_1.G, rel=1e-12)
    assert rep_10.P_r == pytest.approx(100.0 * rep_1.P_r, rel=1e-12)


def test_c10_series_vs_quadrature():
    k0 = wavenumber(F0)
    for k0a in (0.05, 0.1, 0.2, 0.4, 0.6, 0.8):
        a_eff = k0a / k0
        d = CircPatchDesign(a=a_eff, a_eff=a_eff, rho0=None,
                            substrate=CIRC_SUB, f_design=F0)
        assert radiated_power_from_pattern(d, F0) == pytest.approx(
            p_radiated(d, F0), rel=0.03)


def test_c11_exactness_properties(circ_design):
    f_res = resonant_frequency(circ_design.a, CIRC_SUB)
    b = r_total_circ(circ_design, f_res)
    from mmpatch.media import surface_wave_factor
    _, t1 = surface_wave_factor(CIRC_SUB, f_res)
    assert b.R_s == pytest.approx(t1 * b.R_r, rel=1e-14, abs=0.0)
    assert b.R_total == b.R_r + b.R_s + b.R_c + b.R_d
    e_r = efficiency(circ_design, f_res)
    assert 0.0 < e_r <= 1.0
    assert gain(circ_design, f_res) == pytest.approx(
        e_r * directivity(circ_design, f_res), rel=1e-14, abs=0.0)
    resp = sweep(circ_resonator(circ_design), SweepSpec(37e9, 41e9, 201))
    assert np.all(resp.vswr >= 1.0)
    assert np.all(resp.rl_db <= 0.0)


def test_c12_round_trips(circ_design):
    for eps_r in (2.0, 4.0, 7.0, 10.0):
        for h in (0.1e-3, 0.5e-3, 1.0e-3):
            for f in (20e9, 40e9, 60e9):
                sub = SubstrateSpec(eps_r=eps_r, h=h)
                a = resonant_radius(f, sub)
                assert resonant_frequency(a, sub) == pytest.approx(f, rel=1e-6)
    f_res = resonant_frequency(circ_design.a, CIRC_SUB)
    for basis in ("total", "radiation"):
        for target in (20.0, 50.0, 120.0):
            rho0 = feed_radius_for_match(circ_design, f_res, target, basis=basis)
            back = input_resistance_circ(circ_design, f_res, rho0=rho0, basis=basis)
            assert back == pytest.approx(target, rel=1e-3)


def test_c13_cli_determinism(tmp_path):
    config = tmp_path / "job.cfg"
    config.write_text(
        "geometry = circ\nf_ghz = 39.0\n"
        "substrate.eps_r = 2.32\nsubstrate.h_mm = 0.8\n"
        "sweep.f_start_ghz = 37.0\nsweep.f_stop_ghz = 41.0\nsweep.points = 201\n"
    )
    pairs = []
    for tag in ("a", "b"):
        csv_path = tmp_path / f"sweep_{tag}.csv"
        json_path = tmp_path / f"report_{tag}.json"
        assert main(["sweep", "--config", str(config), "--format", "csv",
                     "--out", str(csv_path)]) == 0
        assert main(["analyze", "--config", str(config),
                     "--out", str(json_path)]) == 0
        pairs.append((csv_path.read_bytes(), json_path.read_bytes()))
    assert pairs[0][0] == pairs[1][0]
    assert pairs[0][1] == pairs[1][1]


def test_analysis_resonance_anchor(rect_design):
    # the analyzed reference design keeps its minimum inside the published
    # resonance window when swept
    resp = sweep(rect_resonator(rect_design, "calibrated"), SweepSpec(37e9, 41e9, 401))
    report = extract_resonance(resp)
    assert report.f_res == pytest.approx(39.0e9, abs=0.05e9)
