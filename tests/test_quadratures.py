"""Quadrature propagation: covariances, detector moments, composition checks."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import interferometer_params, midpoint_grid, phases
from sqzmzi import (
    InterferometerParams,
    ParameterError,
    QuadratureStats,
    core_noise_covariance,
    core_output_means,
    db_to_squeeze_factor,
    detector_field_stats,
)
from sqzmzi.model import Phase
from sqzmzi.quadratures import (
    CORE_LABELS,
    CORE_SOURCES,
    VACUUM,
    _core_coefficients,
    _input_variances,
)

R1_10DB = db_to_squeeze_factor(10.0)


def test_input_noise_from_params():
    params = InterferometerParams.with_technical_noise(2.0, r1=R1_10DB, n_photons=1e6)
    var_a1c, var_a1s, var_z2c = _input_variances(params)
    assert math.isclose(var_a1s, 0.05, rel_tol=1e-12)
    assert math.isclose(var_a1c, 5.0, rel_tol=1e-12)
    assert math.isclose(var_z2c, 1.0, rel_tol=1e-9)
    # minimum-uncertainty input saturates the bound
    assert math.isclose(var_a1s * var_a1c, 0.25, rel_tol=1e-12)
    # A = N(g2 - 1) + 1 overflows for a finite N and g2
    message = r"n_photons = 1e\+300 and g2 = 1e\+300 .* A = N\(g2 - 1\) \+ 1 overflows"
    with pytest.raises(ParameterError, match=message):
        _input_variances(InterferometerParams(n_photons=1e300, g2=1e300))


def test_core_output_means_reference_points():
    params = InterferometerParams(n_photons=4.0)
    m1s, m2c = core_output_means(params, 0.0)
    assert m1s == 0.0
    assert math.isclose(m2c, 2.0 * math.sqrt(2.0), rel_tol=1e-12)
    # sqrt(2 mu) alpha sin(phi/2) = sqrt(2) * 2 * sin(pi/4) = 2
    m1s, m2c = core_output_means(params, math.pi / 2.0)
    assert math.isclose(m1s, 2.0, rel_tol=1e-12)
    assert math.isclose(m2c, 2.0, rel_tol=1e-12)
    m1s, m2c = core_output_means(params, math.pi)
    assert math.isclose(m1s, 2.0 * math.sqrt(2.0), rel_tol=1e-12)
    assert abs(m2c) < 1e-12


def test_core_output_means_scale_with_loss():
    params = InterferometerParams(mu=0.5, n_photons=100.0)
    m1s, _ = core_output_means(params, math.pi)
    assert math.isclose(m1s, 10.0, rel_tol=1e-12)  # sqrt(2 * 0.5) * 10


def test_vacuum_inputs_give_vacuum_core_noise():
    params = InterferometerParams(mu=0.7, n_photons=10.0)  # r1 = 0, A = 1
    for phi in midpoint_grid(9):
        stats = core_noise_covariance(params, phi)
        assert np.allclose(stats.cov, 0.5 * np.eye(4), atol=1e-14)


def test_core_noise_at_zero_phase_decouples_ports():
    params = InterferometerParams.with_technical_noise(3.0, r1=1.0, mu=0.8, n_photons=1e4)
    var_a1c, var_a1s, var_z2c = _input_variances(params)
    stats = core_noise_covariance(params, 0.0)
    mu = params.mu
    assert math.isclose(stats.variance("e1s"), mu * var_a1s + (1 - mu) * 0.5, rel_tol=1e-12)
    assert math.isclose(stats.variance("e1c"), mu * var_a1c + (1 - mu) * 0.5, rel_tol=1e-12)
    assert math.isclose(stats.variance("e2c"), mu * var_z2c + (1 - mu) * 0.5, rel_tol=1e-12)
    assert stats.covariance("e1s", "e2c") == 0.0


def test_core_noise_cross_covariance_at_quadrature_point(solid_params):
    # at phi = pi/2 the squeezer and laser noises mix maximally:
    # Cov(e1s, e2c) = mu (A - e^{-2 r1})/4
    stats = core_noise_covariance(solid_params, math.pi / 2.0)
    assert math.isclose(stats.covariance("e1s", "e2c"), 0.9 / 4.0, rel_tol=1e-9)
    # Var(e1s) = e^{-2 r1}/2 cos^2 + A/2 sin^2 = 0.5 (0.05 + 0.5)
    assert math.isclose(stats.variance("e1s"), 0.275, rel_tol=1e-9)


def test_core_noise_covariance_against_direct_sampling(solid_params):
    """Brute-force Monte Carlo of the fluctuation formulas themselves."""
    phi = math.pi / 2.0
    var_a1c, var_a1s, var_z2c = _input_variances(solid_params)
    mu = solid_params.mu
    c, s = math.cos(phi / 2.0), math.sin(phi / 2.0)
    rng = np.random.default_rng(20260819)
    n = 400_000
    a1c = rng.standard_normal(n) * math.sqrt(var_a1c)
    a1s = rng.standard_normal(n) * math.sqrt(var_a1s)
    z2c = rng.standard_normal(n) * math.sqrt(var_z2c)
    z2s = rng.standard_normal(n) * math.sqrt(VACUUM)
    mp_c, mp_s, mm_c, mm_s = (rng.standard_normal(n) * math.sqrt(0.5) for _ in range(4))
    root_mu, leak = math.sqrt(mu), math.sqrt(1.0 - mu)
    de1c = root_mu * (a1c * c - z2s * s) + leak * mp_c
    de1s = root_mu * (a1s * c + z2c * s) + leak * mp_s
    de2c = root_mu * (-a1s * s + z2c * c) + leak * mm_c
    de2s = root_mu * (a1c * s + z2s * c) + leak * mm_s
    empirical = np.cov(np.vstack([de1c, de1s, de2c, de2s]), ddof=1)
    stats = core_noise_covariance(solid_params, phi)
    for i in range(4):
        for j in range(4):
            se = math.sqrt((stats.cov[i, i] * stats.cov[j, j] + stats.cov[i, j] ** 2) / n)
            assert abs(empirical[i, j] - stats.cov[i, j]) < 5.0 * se


def test_detector_variance_normalized_example(solid_params):
    # e^{2 r1} = 10, lossless, A = 1, phi = pi/2: Var(dg1s)/(G^2/2) = 0.55
    stats = detector_field_stats(solid_params, math.pi / 2.0)
    assert math.isclose(stats.variance("g1s") / 0.5, 0.55, rel_tol=1e-9)
    assert math.isclose(stats.variance("g2c") / 0.5, 0.55, rel_tol=1e-9)


def test_detector_means_carry_the_fringe():
    params = InterferometerParams(mu=0.9, eta=0.8, r2=0.4, n_photons=1e4)
    phi = 0.8
    gain = math.sqrt(params.eta) * math.exp(params.r2)
    m1s, m2c = core_output_means(params, phi)
    stats = detector_field_stats(params, phi)
    assert math.isclose(stats.mean_of("g1s"), gain * m1s, rel_tol=1e-12)
    assert math.isclose(stats.mean_of("g2c"), gain * m2c, rel_tol=1e-12)


def test_detector_cross_covariance_vanishes_at_fringe_extrema(solid_params):
    for phi in (0.0, math.pi):
        stats = detector_field_stats(solid_params, phi)
        assert abs(stats.covariance("g1s", "g2c")) < 1e-12


def test_detector_cross_covariance_is_odd_in_phi(solid_params):
    for phi in midpoint_grid(7):
        plus = detector_field_stats(solid_params, phi)
        minus = detector_field_stats(solid_params, -phi)
        assert math.isclose(
            plus.covariance("g1s", "g2c"), -minus.covariance("g1s", "g2c"), rel_tol=1e-12
        )
        assert math.isclose(plus.variance("g1s"), minus.variance("g1s"), rel_tol=1e-12)


def test_extended_stats_expose_the_deamplified_pair():
    params = InterferometerParams(r1=0.5, r2=0.7, mu=0.9, eta=0.85, n_photons=1e4)
    phi = 1.1
    stats = detector_field_stats(params, phi, extended=True)
    assert stats.labels == ("g1c", "g1s", "g2c", "g2s")
    assert stats.mean_of("g1c") == 0.0 and stats.mean_of("g2s") == 0.0
    # amplified quadratures grow, orthogonal ones shrink, relative to r2 = 0
    flat = detector_field_stats(
        InterferometerParams(r1=0.5, r2=0.0, mu=0.9, eta=0.85, n_photons=1e4),
        phi,
        extended=True,
    )
    assert stats.variance("g1s") > flat.variance("g1s")
    assert stats.variance("g1c") < flat.variance("g1c")


def test_ideal_chain_preserves_vacuum_everywhere():
    params = InterferometerParams(n_photons=100.0)  # r1 = r2 = 0, mu = eta = 1, A = 1
    for phi in midpoint_grid(11):
        stats = detector_field_stats(params, phi, extended=True)
        assert np.allclose(stats.cov, 0.5 * np.eye(4), atol=1e-14)


def test_bright_port_phase_noise_never_reaches_the_measured_pair():
    # the z2s column couples nothing into e1s and e2c, the quadratures that
    # are amplified and measured, so no strategy depends on its variance
    z2s = CORE_SOURCES.index("z2s")
    e1c, e1s, e2c = (CORE_LABELS.index(label) for label in ("e1c", "e1s", "e2c"))
    for mu in (1.0, 0.9, 0.5, 0.01):
        for phi in midpoint_grid(7):
            b = _core_coefficients(mu, Phase(phi))
            assert b[e1s, z2s] == 0.0
            assert b[e2c, z2s] == 0.0
            # but it does reach the orthogonal pair
            if math.sin(phi / 2.0) != 0.0:
                assert b[e1c, z2s] != 0.0


def amplification_loss_map(params: InterferometerParams) -> tuple[np.ndarray, np.ndarray]:
    """Linear map from (e1c, e1s, e2c, e2s, n1c, n1s, n2c, n2s) to the detected
    quadratures (g1c, g1s, g2c, g2s), split as (matrix on core, matrix on loss
    ports): the output stage written as a matrix, independently of
    detector_field_stats."""
    g = math.exp(params.r2)
    t = math.sqrt(params.eta)
    l = math.sqrt(1.0 - params.eta)
    core = t * np.diag([1.0 / g, g, g, 1.0 / g])
    ports = l * np.eye(4)
    return core, ports


def _compose_through_output_stage(params, phi):
    """Push the core covariance through the amplification/loss map."""
    core = core_noise_covariance(params, phi)
    m_core, m_ports = amplification_loss_map(params)
    cov = m_core @ core.cov @ m_core.T + m_ports @ (0.5 * np.eye(4)) @ m_ports.T
    return cov


def test_detector_stats_compose_core_with_output_map():
    cases = [
        InterferometerParams.with_technical_noise(1.0, r1=R1_10DB, n_photons=1e6),
        InterferometerParams.with_technical_noise(3.0, r1=0.6, r2=0.9, mu=0.85, eta=0.65),
        InterferometerParams(r1=0.0, r2=1.5, mu=0.99, eta=0.9, n_photons=1e4),
    ]
    for params in cases:
        for phi in midpoint_grid(10):
            composed = _compose_through_output_stage(params, phi)
            direct = detector_field_stats(params, phi, extended=True)
            scale = max(1.0, float(np.max(np.abs(composed))))
            assert np.allclose(direct.cov, composed, rtol=0.0, atol=1e-12 * scale)


@settings(max_examples=150)
@given(interferometer_params(), phases)
def test_composition_consistency_property(params, phi):
    composed = _compose_through_output_stage(params, phi)
    direct = detector_field_stats(params, phi, extended=True)
    scale = max(1.0, float(np.max(np.abs(composed))))
    assert np.allclose(direct.cov, composed, rtol=0.0, atol=1e-12 * scale)


def test_covariances_positive_semidefinite_on_dense_grid():
    params = InterferometerParams.with_technical_noise(
        5.0, r1=1.8, r2=1.2, mu=0.55, eta=0.35, n_photons=1e8
    )
    for i in range(100):
        phi = -2.0 * math.pi + i * (4.0 * math.pi / 99.0)
        for stats in (
            core_noise_covariance(params, phi),
            detector_field_stats(params, phi, extended=True),
        ):
            scale = max(1.0, float(np.max(np.abs(stats.cov))))
            assert float(np.linalg.eigvalsh(stats.cov).min()) >= -1e-10 * scale


def test_quadrature_stats_validation():
    good = QuadratureStats(("a", "b"), np.zeros(2), np.eye(2))
    assert good.variance("a") == 1.0
    assert good.covariance("a", "b") == 0.0
    with pytest.raises(KeyError):
        good.variance("c")
    with pytest.raises(ValueError, match="mean shape"):
        QuadratureStats(("a", "b"), np.zeros(3), np.eye(2))
    with pytest.raises(ValueError, match="cov shape"):
        QuadratureStats(("a", "b"), np.zeros(2), np.eye(3))
    with pytest.raises(ValueError, match="symmetric"):
        QuadratureStats(("a", "b"), np.zeros(2), np.array([[1.0, 0.5], [0.1, 1.0]]))
    with pytest.raises(ValueError, match="positive semidefinite"):
        QuadratureStats(("a", "b"), np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_core_noise_covariance_refuses_a_grid_by_name():
    with pytest.raises(ParameterError, match="phi must be one phase, got a grid of 2"):
        core_noise_covariance(InterferometerParams(), [1.0, 2.0])


def test_quadrature_stats_arrays_are_read_only():
    stats = core_noise_covariance(InterferometerParams(), 0.3)
    with pytest.raises(ValueError):
        stats.cov[0, 0] = 99.0
