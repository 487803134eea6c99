"""Closed-form photocounting moments and their structural identities."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings

from conftest import interferometer_params, midpoint_grid, phases
from sqzmzi import (
    InterferometerParams,
    PhotonStats,
    db_to_squeeze_factor,
    detector_field_stats,
    photon_second_moments,
    photon_stats,
    transfer_gain,
    weighted_variance,
)
from sqzmzi import photostats
from sqzmzi.photostats import photon_mean_slopes

R1_10DB = db_to_squeeze_factor(10.0)


def test_transfer_gain_reference_points():
    assert transfer_gain(InterferometerParams()) == 1.0
    # mu = 0.99, eta = 0.8, e^{2 r2} = 10
    params = InterferometerParams(mu=0.99, eta=0.8, r2=0.5 * math.log(10.0))
    assert math.isclose(transfer_gain(params), 2.8142494558940583, rel_tol=1e-12)


def _means(params, phi):
    stats = photon_stats(params, phi)
    return stats.mean_n1, stats.mean_n2


def _sumdiff(params, phi):
    stats = photon_stats(params, phi)
    return stats.mean_nplus, stats.mean_nminus, stats.var_nplus, stats.var_nminus, stats.cov_npm


def test_mean_photocounts_track_the_fringe():
    ideal = InterferometerParams(n_photons=1e4)
    n1, n2 = _means(ideal, 0.0)
    assert n1 == 0.0 and math.isclose(n2, 1e4, rel_tol=1e-12)
    n1, n2 = _means(ideal, math.pi / 3.0)
    assert math.isclose(n1, 2500.0, rel_tol=1e-12)  # sin^2(pi/6) = 1/4
    assert math.isclose(n2, 7500.0, rel_tol=1e-12)
    n1, n2 = _means(ideal, math.pi / 2.0)
    assert math.isclose(n1, n2, rel_tol=1e-12)


def test_mean_photocounts_scale_with_transfer_gain():
    params = InterferometerParams(mu=0.8, eta=0.5, r2=0.6, n_photons=1e4)
    g2 = transfer_gain(params) ** 2
    n1, n2 = _means(params, 1.2)
    assert math.isclose(n1 + n2, g2 * 1e4, rel_tol=1e-12)


def test_variance_reference_value(solid_params):
    # 10 dB squeezing, lossless, A = 1, phi = pi/2:
    # Var N1 = N sin^2(pi/4) (0.1 cos^2(pi/4) + 1 sin^2(pi/4)) = 1e6 * 0.5 * 0.55
    var1, var2, cov = photon_second_moments(solid_params, math.pi / 2.0)
    assert math.isclose(var1, 2.75e5, rel_tol=1e-9)
    assert math.isclose(var2, 2.75e5, rel_tol=1e-9)
    # Cov = N (A - e^{-2 r1})/4 = 1e6 * 0.9/4
    assert math.isclose(cov, 2.25e5, rel_tol=1e-9)


def test_variances_vanish_at_the_dark_fringe(solid_params):
    var1, var2, cov = photon_second_moments(solid_params, 0.0)
    assert var1 == 0.0
    assert cov == 0.0
    # the bright port still fluctuates: Var N2 = G^4 N (A + eps^2) at phi = 0
    assert math.isclose(var2, 1e6, rel_tol=1e-9)


def test_cross_covariance_vanishes_for_coherent_balance():
    # A = e^{-2 r1} happens exactly for vacuum input and coherent light
    params = InterferometerParams(n_photons=1e5)
    for phi in midpoint_grid(9):
        _, _, cov = photon_second_moments(params, phi)
        assert cov == 0.0


def test_sumdiff_reference_points(solid_params):
    mean_p, mean_m, var_p, var_m, cov_pm = _sumdiff(solid_params, math.pi / 2.0)
    assert math.isclose(mean_p, 1e6, rel_tol=1e-12)
    assert abs(mean_m) < 1e-9
    assert math.isclose(var_p, 1e6, rel_tol=1e-9)
    assert math.isclose(var_m, 1e5, rel_tol=1e-9)  # e^{-2 r1} N
    assert abs(cov_pm) < 1e-9


def test_sum_mean_is_phase_independent(solid_params):
    reference = _sumdiff(solid_params, 0.123)[0]
    for phi in midpoint_grid(11):
        assert math.isclose(_sumdiff(solid_params, phi)[0], reference, rel_tol=1e-12)


def test_difference_variance_flat_for_coherent_ideal_case():
    params = InterferometerParams(n_photons=1e4)  # r1 = 0, A = 1, lossless
    for phi in midpoint_grid(9):
        assert math.isclose(_sumdiff(params, phi)[3], 1e4, rel_tol=1e-12)


def test_weighted_variance_at_the_optimal_weight(solid_params):
    # k = cos(phi) kills the A-dependent term, leaving (e^{-2 r1} + eps^2) sin^2
    for phi in midpoint_grid(9):
        expected = 1e6 * 0.1 * math.sin(phi) ** 2
        assert math.isclose(weighted_variance(solid_params, phi, phi), expected, rel_tol=1e-9)


def test_weighted_variance_reference_value(solid_params):
    # phi = pi/2, phi_apr = pi/2 + 0.1: coefficient 0.1 + sin^2(0.1)
    value = weighted_variance(solid_params, math.pi / 2.0, math.pi / 2.0 + 0.1)
    assert math.isclose(value, 1e6 * 0.10996671107937919, rel_tol=1e-9)


def test_weighted_variance_decomposition_sums_to_the_compact_form(solid_params):
    # Var(N- + k N+) = Var N- + 2k Cov(N+, N-) + k^2 Var N+ with k = cos(phi_apr)
    for phi, phi_apr in [(0.7, 0.9), (2.2, 2.0), (4.0, 4.4)]:
        total = weighted_variance(solid_params, phi, phi_apr)
        stats, k = photon_stats(solid_params, phi), math.cos(phi_apr)
        terms = (stats.var_nminus, 2.0 * k * stats.cov_npm, k * k * stats.var_nplus)
        assert math.isclose(sum(terms), total, rel_tol=1e-10)


def test_weighted_variance_zero_at_dark_fringe_with_matched_weight(solid_params):
    assert weighted_variance(solid_params, 0.0, 0.0) == 0.0


def test_mean_slopes_match_finite_differences(dashed_params):
    h = 1e-6
    # central differences carry O(h^2 N) truncation noise, hence the absolute floor
    floor = 1e-6 * transfer_gain(dashed_params) ** 2 * dashed_params.n_photons
    for phi in midpoint_grid(7):
        slope1, slope2 = photon_mean_slopes(dashed_params, phi)
        fd1 = (_means(dashed_params, phi + h)[0] - _means(dashed_params, phi - h)[0]) / (2 * h)
        fd2 = (_means(dashed_params, phi + h)[1] - _means(dashed_params, phi - h)[1]) / (2 * h)
        assert math.isclose(slope1, fd1, rel_tol=1e-6, abs_tol=floor)
        assert math.isclose(slope2, fd2, rel_tol=1e-6, abs_tol=floor)
        # N+ = N1 + N2 is flat, and N- = N1 - N2 has the slope dN1 - dN2
        assert slope1 + slope2 == 0.0
        fdm = (_sumdiff(dashed_params, phi + h)[1] - _sumdiff(dashed_params, phi - h)[1]) / (2 * h)
        assert math.isclose(slope1 - slope2, fdm, rel_tol=1e-6, abs_tol=floor)


def test_moments_scale_linearly_with_photon_number():
    lo = InterferometerParams.with_technical_noise(3.0, r1=0.7, mu=0.9, eta=0.8, n_photons=1e4)
    hi = InterferometerParams.with_technical_noise(3.0, r1=0.7, mu=0.9, eta=0.8, n_photons=2e4)
    phi = 1.3
    for a, b in zip(photon_stats(lo, phi).as_dict().values(), photon_stats(hi, phi).as_dict().values()):
        if a != 0.0:
            assert math.isclose(b / a, 2.0, rel_tol=1e-9)


@settings(max_examples=200)
@given(interferometer_params(), phases)
def test_structural_identities(params, phi):
    stats = photon_stats(params, phi)
    scale = max(stats.var_n1, stats.var_n2, 1.0)
    assert abs(stats.var_nplus + stats.var_nminus - 2.0 * (stats.var_n1 + stats.var_n2)) <= 1e-10 * scale
    assert abs(stats.cov_npm - (stats.var_n1 - stats.var_n2)) <= 1e-10 * scale
    assert stats.cov_n1n2**2 <= stats.var_n1 * stats.var_n2 * (1.0 + 1e-10) + 1e-10 * scale
    assert abs(stats.mean_nplus - (stats.mean_n1 + stats.mean_n2)) <= 1e-10 * max(stats.mean_nplus, 1.0)


@settings(max_examples=100)
@given(interferometer_params(), phases, phases)
def test_sum_mean_constant_property(params, phi_a, phi_b):
    a = _sumdiff(params, phi_a)[0]
    b = _sumdiff(params, phi_b)[0]
    assert math.isclose(a, b, rel_tol=1e-12)


def test_photon_stats_rejects_inconsistent_moments(solid_params):
    good = photon_stats(solid_params, 1.0).as_dict()
    broken = dict(good, var_nplus=good["var_nplus"] * 1.5)
    with pytest.raises(ValueError, match="var_nplus"):
        PhotonStats(**broken)
    broken = dict(good, cov_n1n2=math.sqrt(good["var_n1"] * good["var_n2"]) * 2.0)
    with pytest.raises(ValueError, match="Cauchy-Schwarz"):
        PhotonStats(**broken)
    broken = dict(good, mean_nplus=good["mean_nplus"] * 2.0)
    with pytest.raises(ValueError, match="mean_nplus"):
        PhotonStats(**broken)
    broken = dict(good, var_n1=-good["var_n1"])
    with pytest.raises(ValueError, match="nonnegative"):
        PhotonStats(**broken)
    broken = dict(good, mean_nminus=good["mean_nminus"] + good["mean_nplus"])
    with pytest.raises(ValueError, match="mean_nminus"):
        PhotonStats(**broken)
    broken = dict(good, cov_npm=good["cov_npm"] + good["var_n1"])
    with pytest.raises(ValueError, match="cov_npm"):
        PhotonStats(**broken)


@settings(max_examples=200)
@given(interferometer_params(), phases)
@example(
    InterferometerParams.with_technical_noise(2.0, r1=1.15, mu=0.9, eta=0.8, r2=0.7, n_photons=1e6),
    1.258,
)
def test_phase_and_grid_give_the_same_bits(params, phi):
    # a moment at one phase must carry the bits of the same phase inside a
    # grid; repr tells every float apart, -0.0 from 0.0 included
    grid = [0.3, phi, 2.0]
    alone = photon_stats(params, phi).as_dict()
    within = photon_stats(params, grid).as_dict()
    for name, value in alone.items():
        point = within[name][1] if isinstance(within[name], np.ndarray) else within[name]
        assert repr(float(point)) == repr(value), name
    alone = detector_field_stats(params, phi, extended=True)
    within = detector_field_stats(params, grid, extended=True)
    assert within.mean[1].tobytes() == alone.mean.tobytes()
    assert within.cov[1].tobytes() == alone.cov.tobytes()


def test_photon_stats_as_dict_field_order(solid_params):
    stats = photon_stats(solid_params, 0.4)
    assert list(stats.as_dict()) == [
        "mean_n1", "mean_n2", "var_n1", "var_n2", "cov_n1n2",
        "mean_nplus", "mean_nminus", "var_nplus", "var_nminus", "cov_npm",
    ]


@pytest.mark.parametrize("phi", [1.1, midpoint_grid(9)])
def test_photon_stats_propagates_the_detector_state_once(solid_params, monkeypatch, phi):
    # the sum/difference cross-check reuses the per-detector second moments
    # instead of computing them, and their detector state, a second time
    calls = []
    original = photostats.detector_field_stats

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(photostats, "detector_field_stats", counting)
    photon_stats(solid_params, phi)
    assert len(calls) == 1
