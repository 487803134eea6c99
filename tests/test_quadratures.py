"""Quadrature propagation: covariances, detector moments, composition checks."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import chain_state, core_state, interferometer_params, midpoint_grid, phases, state_matrices
from sqzmzi import (
    InterferometerParams,
    ParameterError,
    QuadratureStats,
    db_to_squeeze_factor,
    detector_field_stats,
)
from sqzmzi.oracle import CHANNELS
from sqzmzi.quadratures import _input_variances, _smallest_eigenvalue

R1_10DB = db_to_squeeze_factor(10.0)

# chain_state's rows, the detected quadratures, which core_state's r2 = 0 and
# eta = 1 make the core's
G1C, G1S, G2C, G2S = E1C, E1S, E2C, E2S = range(4)
Z2S = CHANNELS.index("z2s")


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
    # past r1 = float_info.max/2 the doubled r1 is inf itself, where math.exp
    # returns inf instead of raising
    with pytest.raises(ParameterError, match=r"r1 = 1e\+308 is too large"):
        _input_variances(InterferometerParams(r1=1e308))


def _core_means(params: InterferometerParams, phi: float) -> tuple[float, float]:
    """The core means (<e1s>, <e2c>): the detected means without the amplifiers
    and the external loss, at r2 = 0 and eta = 1."""
    stats = detector_field_stats(replace(params, r2=0.0, eta=1.0), phi)
    return stats.mean_g1s, stats.mean_g2c


def test_core_output_means_reference_points():
    params = InterferometerParams(n_photons=4.0)
    m1s, m2c = _core_means(params, 0.0)
    assert m1s == 0.0
    assert math.isclose(m2c, 2.0 * math.sqrt(2.0), rel_tol=1e-12)
    # sqrt(2 mu) alpha sin(phi/2) = sqrt(2) * 2 * sin(pi/4) = 2
    m1s, m2c = _core_means(params, math.pi / 2.0)
    assert math.isclose(m1s, 2.0, rel_tol=1e-12)
    assert math.isclose(m2c, 2.0, rel_tol=1e-12)
    m1s, m2c = _core_means(params, math.pi)
    assert math.isclose(m1s, 2.0 * math.sqrt(2.0), rel_tol=1e-12)
    assert abs(m2c) < 1e-12


def test_core_output_means_scale_with_loss():
    params = InterferometerParams(mu=0.5, n_photons=100.0)
    m1s, _ = _core_means(params, math.pi)
    assert math.isclose(m1s, 10.0, rel_tol=1e-12)  # sqrt(2 * 0.5) * 10


def test_vacuum_inputs_give_vacuum_core_noise():
    params = InterferometerParams(mu=0.7, n_photons=10.0)  # r1 = 0, A = 1
    for phi in midpoint_grid(9):
        _, cov, _ = core_state(params, phi)
        assert np.allclose(cov, 0.5 * np.eye(4), atol=1e-14)


def test_core_noise_at_zero_phase_decouples_ports():
    params = InterferometerParams.with_technical_noise(3.0, r1=1.0, mu=0.8, n_photons=1e4)
    var_a1c, var_a1s, var_z2c = _input_variances(params)
    _, cov, _ = core_state(params, 0.0)
    mu = params.mu
    assert math.isclose(cov[E1S, E1S], mu * var_a1s + (1 - mu) * 0.5, rel_tol=1e-12)
    assert math.isclose(cov[E1C, E1C], mu * var_a1c + (1 - mu) * 0.5, rel_tol=1e-12)
    assert math.isclose(cov[E2C, E2C], mu * var_z2c + (1 - mu) * 0.5, rel_tol=1e-12)
    assert cov[E1S, E2C] == 0.0


def test_core_noise_cross_covariance_at_quadrature_point(solid_params):
    # at phi = pi/2 the squeezer and laser noises mix maximally:
    # Cov(e1s, e2c) = mu (A - e^{-2 r1})/4
    _, cov, _ = core_state(solid_params, math.pi / 2.0)
    assert math.isclose(cov[E1S, E2C], 0.9 / 4.0, rel_tol=1e-9)
    # Var(e1s) = e^{-2 r1}/2 cos^2 + A/2 sin^2 = 0.5 (0.05 + 0.5)
    assert math.isclose(cov[E1S, E1S], 0.275, rel_tol=1e-9)


def test_detector_variance_normalized_example(solid_params):
    # e^{2 r1} = 10, lossless, A = 1, phi = pi/2: Var(dg1s)/(G^2/2) = 0.55
    stats = detector_field_stats(solid_params, math.pi / 2.0)
    assert math.isclose(stats.var_g1s / 0.5, 0.55, rel_tol=1e-9)
    assert math.isclose(stats.var_g2c / 0.5, 0.55, rel_tol=1e-9)


def test_detector_means_carry_the_fringe():
    params = InterferometerParams(mu=0.9, eta=0.8, r2=0.4, n_photons=1e4)
    phi = 0.8
    gain = math.sqrt(params.eta) * math.exp(params.r2)
    amp = math.sqrt(2.0 * params.mu) * params.alpha
    stats = detector_field_stats(params, phi)
    assert math.isclose(stats.mean_g1s, gain * amp * math.sin(phi / 2.0), rel_tol=1e-12)
    assert math.isclose(stats.mean_g2c, gain * amp * math.cos(phi / 2.0), rel_tol=1e-12)


def test_detector_cross_covariance_vanishes_at_fringe_extrema(solid_params):
    for phi in (0.0, math.pi):
        stats = detector_field_stats(solid_params, phi)
        assert abs(stats.cov_g1s_g2c) < 1e-12


def test_detector_cross_covariance_is_odd_in_phi(solid_params):
    for phi in midpoint_grid(7):
        plus = detector_field_stats(solid_params, phi)
        minus = detector_field_stats(solid_params, -phi)
        assert math.isclose(plus.cov_g1s_g2c, -minus.cov_g1s_g2c, rel_tol=1e-12)
        assert math.isclose(plus.var_g1s, minus.var_g1s, rel_tol=1e-12)


def test_extended_stats_expose_the_deamplified_pair():
    params = InterferometerParams(r1=0.5, r2=0.7, mu=0.9, eta=0.85, n_photons=1e4)
    phi = 1.1
    stats = detector_field_stats(params, phi, extended=True)
    assert detector_field_stats(params, phi).var_g1c is None
    # amplified quadratures grow, orthogonal ones shrink, relative to r2 = 0
    flat = detector_field_stats(
        InterferometerParams(r1=0.5, r2=0.0, mu=0.9, eta=0.85, n_photons=1e4),
        phi,
        extended=True,
    )
    assert stats.var_g1s > flat.var_g1s
    assert stats.var_g1c < flat.var_g1c


def test_ideal_chain_preserves_vacuum_everywhere():
    params = InterferometerParams(n_photons=100.0)  # r1 = r2 = 0, mu = eta = 1, A = 1
    for phi in midpoint_grid(11):
        _, cov = state_matrices(detector_field_stats(params, phi, extended=True))
        assert np.allclose(cov, 0.5 * np.eye(4), atol=1e-14)


def test_bright_port_phase_noise_never_reaches_the_measured_pair():
    # the z2s column couples nothing into e1s and e2c, the quadratures that
    # are amplified and measured, so no strategy depends on its variance
    for mu in (1.0, 0.9, 0.5, 0.01):
        for phi in midpoint_grid(7):
            _, _, columns = core_state(InterferometerParams(r1=0.8, mu=mu), phi)
            assert columns[E1S, Z2S] == 0.0
            assert columns[E2C, Z2S] == 0.0
            # but it does reach the orthogonal pair
            if math.sin(phi / 2.0) != 0.0:
                assert columns[E1C, Z2S] != 0.0


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
    _, core, _ = core_state(params, phi)
    m_core, m_ports = amplification_loss_map(params)
    cov = m_core @ core @ m_core.T + m_ports @ (0.5 * np.eye(4)) @ m_ports.T
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
            _, direct = state_matrices(detector_field_stats(params, phi, extended=True))
            scale = max(1.0, float(np.max(np.abs(composed))))
            assert np.allclose(direct, composed, rtol=0.0, atol=1e-12 * scale)


@settings(max_examples=150)
@given(interferometer_params(), phases)
def test_composition_consistency_property(params, phi):
    composed = _compose_through_output_stage(params, phi)
    _, direct = state_matrices(detector_field_stats(params, phi, extended=True))
    scale = max(1.0, float(np.max(np.abs(composed))))
    assert np.allclose(direct, composed, rtol=0.0, atol=1e-12 * scale)


def _assert_matches_chain(params, phi):
    """detector_field_stats(extended=True) against chain_state, in mean and in
    covariance, each to 1e-12 of max(1, its largest |entry|); returns the
    chain's columns and the two covariances."""
    mean, cov, columns = chain_state(params, phi)
    direct_mean, direct_cov = state_matrices(detector_field_stats(params, phi, extended=True))
    for closed, chain in ((direct_mean, mean), (direct_cov, cov)):
        scale = max(1.0, float(np.max(np.abs(chain))))
        assert np.allclose(closed, chain, rtol=0.0, atol=1e-12 * scale), (closed, chain)
    return columns, cov, direct_cov


@settings(max_examples=300)
@given(interferometer_params(), st.floats(min_value=-10.0, max_value=10.0))
def test_detector_state_matches_the_chain_reference(params, phi):
    _assert_matches_chain(params, phi)


@pytest.mark.parametrize("phi", [0.0, math.pi, 2.0 * math.pi, -math.pi])
@pytest.mark.parametrize("loss", [1.0, 1e-3])
@pytest.mark.parametrize("r2", [0.0, 3.0])
def test_chain_reference_at_the_edges(phi, loss, r2):
    params = InterferometerParams.with_technical_noise(
        3.0, r1=R1_10DB, r2=r2, mu=loss, eta=loss, n_photons=1e6
    )
    columns, *covs = _assert_matches_chain(params, phi)
    # the closed forms' exact zeros hold in the chain too: amplification keeps
    # c and s apart on each port, and z2s never reaches the measured pair
    for cov in covs:
        assert cov[G1C, G1S] == cov[G1S, G1C] == 0.0
        assert cov[G2C, G2S] == cov[G2S, G2C] == 0.0
    assert columns[G1S, Z2S] == 0.0
    assert columns[G2C, Z2S] == 0.0


def test_covariances_positive_semidefinite_on_dense_grid():
    params = InterferometerParams.with_technical_noise(
        5.0, r1=1.8, r2=1.2, mu=0.55, eta=0.35, n_photons=1e8
    )
    for i in range(100):
        phi = -2.0 * math.pi + i * (4.0 * math.pi / 99.0)
        for cov in (core_state(params, phi)[1], state_matrices(detector_field_stats(params, phi, extended=True))[1]):
            scale = max(1.0, float(np.max(np.abs(cov))))
            assert float(np.linalg.eigvalsh(cov).min()) >= -1e-10 * scale


@settings(max_examples=300)
@given(*[st.floats(-1e6, 1e6, allow_subnormal=False)] * 3)
def test_closed_form_eigenvalue_of_random_blocks(a, b, d):
    scale = max(abs(a), abs(b), abs(d))
    closed = _smallest_eigenvalue(a, b, d)
    assert abs(closed - np.linalg.eigvalsh([[a, b], [b, d]])[0]) <= 1e-12 * scale


@settings(max_examples=100)
@given(interferometer_params(), phases)
def test_closed_form_eigenvalue_of_detected_blocks(params, phi):
    # at one phase, and over a grid, each point against its own block's scale
    for at in (phi, [0.3, phi, 2.0]):
        stats = detector_field_stats(params, at, extended=True)
        for a, b, d in (
            (stats.var_g1s, stats.cov_g1s_g2c, stats.var_g2c),
            (stats.var_g1c, stats.cov_g1c_g2s, stats.var_g2s),
        ):
            block = np.moveaxis(np.array([[a, b], [b, d]]), (0, 1), (-2, -1))
            scale = np.abs(block).max(axis=(-2, -1))
            exact = np.linalg.eigvalsh(block)[..., 0]
            assert np.all(abs(_smallest_eigenvalue(a, b, d) - exact) <= 1e-12 * scale)


def _measured(var_g1s, cov_g1s_g2c, var_g2c) -> QuadratureStats:
    """A state of the measured pair with zero means and the given block."""
    return QuadratureStats(0.0, 0.0, var_g1s, var_g2c, cov_g1s_g2c)


@pytest.mark.parametrize(
    "build, error, message",
    [
        # the deamplified block at one phase: eigenvalues 3 and -1
        (
            lambda: replace(_measured(1.0, 0.0, 1.0), var_g1c=1.0, var_g2s=1.0, cov_g1c_g2s=2.0),
            ValueError,
            "positive semidefinite",
        ),
        # the measured block at the middle point of a grid
        (
            lambda: _measured(np.ones(3), np.array([0.0, 2.0, 0.0]), np.ones(3)),
            ValueError,
            "positive semidefinite",
        ),
        (lambda: _measured(1.0, math.nan, 1.0), ParameterError, "finite"),
    ],
    ids=["block-at-one-phase", "block-at-one-grid-point", "nan-entry"],
)
def test_quadrature_stats_refusals(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_quadrature_stats_arrays_are_read_only():
    stats = detector_field_stats(InterferometerParams(), [0.3, 0.6])
    with pytest.raises(ValueError):
        stats.var_g1s[0] = 99.0
