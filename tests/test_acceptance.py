"""Acceptance suite: the eight headline guarantees of the package.

One test per criterion; conftest prints a per-criterion pass/fail summary at
the end of the run.  Tolerances are part of the contract and must not be
loosened to make a failing criterion pass.
"""

import math
import time

import numpy as np
from hypothesis import given, settings
from scipy.optimize import brentq, minimize_scalar

from conftest import R1_10DB, interferometer_params, mean_slope, midpoint_grid, phases
from sqzmzi.model import InterferometerParams, Strategy
from sqzmzi.oracle import OracleConfig, linearization_error, run
from sqzmzi.photostats import (
    photon_second_moments,
    photon_stats,
    transfer_gain,
    weighted_variance,
)
from sqzmzi.quadratures import core_noise_covariance, detector_field_stats
from sqzmzi.sensitivity import (
    dphi_min,
    fwhm,
    phase_uncertainty,
    small_deviation_dphi_squared,
)


def _preset_solid():
    return InterferometerParams(r1=R1_10DB, n_photons=1e6)


def _preset_dashed():
    return InterferometerParams(r1=R1_10DB, eta=1.0 / 1.04, n_photons=1e6)


def _preset_dotted():
    return InterferometerParams.with_technical_noise(2.0, r1=R1_10DB, n_photons=1e6)


def test_criterion_1_reference_curves():
    """The three preset sensitivity curves: flat optimal level at the stated
    constants, single-detector minimum at phi = 0, differential minimum at
    phi = pi/2; 721-point sweeps in under a second."""
    cases = [
        (_preset_solid(), 0.316228),
        (_preset_dashed(), 0.374166),
        (_preset_dotted(), 0.316228),
    ]
    grid = [i * 2.0 * math.pi / 720 for i in range(721)]
    strategies = (Strategy.single(), Strategy.differential(), Strategy.optimal())
    # timed through the grid route, the one `sqzmzi sweep` runs
    start = time.perf_counter()
    curves = {
        (id(params), strategy.kind): phase_uncertainty(strategy, params, grid).normalized
        for params, _ in cases
        for strategy in strategies
    }
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"sweeps took {elapsed:.3f} s"

    # the one-phase route gives the same curves bit for bit
    for params, _ in cases:
        for strategy in strategies:
            scalar = [phase_uncertainty(strategy, params, phi).normalized for phi in grid]
            assert np.array(scalar).tobytes() == curves[(id(params), strategy.kind)].tobytes()

    for params, level in cases:
        single = curves[(id(params), Strategy.single().kind)]
        diff = curves[(id(params), Strategy.differential().kind)]
        opt = curves[(id(params), Strategy.optimal().kind)]
        # optimal: constant at the stated level across the whole grid
        assert all(abs(v - level) <= 1e-6 for v in opt)
        # single: global minimum attained at phi = 0, at the same level
        assert single[0] == min(single)
        assert abs(single[0] - level) <= 1e-6
        # differential: global minimum attained at phi = pi/2 (grid index 180)
        assert abs(grid[180] - math.pi / 2.0) < 1e-12
        assert diff[180] == min(diff)
        assert abs(diff[180] - level) <= 1e-6


def test_criterion_2_fwhm_ratio():
    """Differential width is exactly half the single-detector width; the
    closed-form widths agree with direct root-finding on the curves."""
    for params in (_preset_solid(), _preset_dashed(), _preset_dotted()):
        assert fwhm(Strategy.differential(), params) == fwhm(Strategy.single(), params) / 2.0

    params = _preset_solid()
    width_s = fwhm(Strategy.single(), params)
    assert math.isclose(width_s, 4.0 * math.atan(math.sqrt(0.1)), rel_tol=1e-15)

    floor2 = dphi_min(params) ** 2

    def excess_single(phi):
        return phase_uncertainty(Strategy.single(), params, phi).dphi ** 2 - 2.0 * floor2

    # the single lobe is centered on phi = 0; the half-width is the root above it
    half = brentq(excess_single, 1e-6, math.pi - 1e-6, xtol=1e-13, rtol=8.9e-16)
    assert abs(2.0 * half - width_s) <= 1e-9

    def excess_diff(phi):
        return phase_uncertainty(Strategy.differential(), params, phi).dphi ** 2 - 2.0 * floor2

    # one differential lobe is centered on phi = pi/2
    half_d = brentq(excess_diff, math.pi / 2.0, math.pi - 1e-6, xtol=1e-13, rtol=8.9e-16)
    assert abs(2.0 * (half_d - math.pi / 2.0) - fwhm(Strategy.differential(), params)) <= 1e-9


def test_criterion_3_optimal_weight():
    """Minimizing the weighted variance over the a-priori phase recovers the
    true phase (hence the weight cos phi), and the uncertainty there is the
    floor."""
    for params in (_preset_solid(), _preset_dashed()):
        floor = dphi_min(params)
        for phi in midpoint_grid(72):
            # +/- 0.04 never straddles a cosine extremum on this grid, so the
            # weighted variance is unimodal inside the bracket
            res = minimize_scalar(
                lambda phi_apr: weighted_variance(params, phi, phi_apr),
                bracket=(phi - 0.04, phi, phi + 0.04),
                method="golden",
                options={"xtol": 1e-12},
            )
            assert abs(res.x - phi) <= 1e-6
            at_argmin = phase_uncertainty(Strategy.suboptimal(res.x), params, phi).dphi
            assert abs(at_argmin - floor) <= 1e-10 * floor


def test_criterion_4_oracle_equivalence():
    """Linearized-mode Monte-Carlo moments match every closed form with
    |z| <= 5 across five parameter sets and twelve phases, within 30 s."""
    sets = [
        InterferometerParams(n_photons=1e6),
        _preset_solid(),
        _preset_dashed(),
        _preset_dotted(),
        InterferometerParams.with_technical_noise(2.0, r1=R1_10DB, eta=0.5, n_photons=1e6),
    ]
    config = OracleConfig(n_samples=100_000, seed=101, linearized_mode=True)
    start = time.perf_counter()
    for params in sets:
        for phi in midpoint_grid(12):
            report = run(params, phi, config)
            assert report.max_abs_z() <= 5.0, (params, phi, report.z_scores)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"oracle sweep took {elapsed:.1f} s"


def test_criterion_5_linearization_validity():
    """Exact-mode deviations of Var N1 from the closed form shrink as the
    source brightens (monotone within two standard errors)."""
    config = OracleConfig(n_samples=100_000, seed=23)
    points = linearization_error(
        _preset_solid(), math.pi / 2.0, config, (1e2, 1e3, 1e4, 1e6)
    )
    devs = [abs(p.relative_deviation["var_n1"]) for p in points]
    ses = [p.relative_se["var_n1"] for p in points]
    for i in range(len(points) - 1):
        assert devs[i + 1] <= devs[i] + 2.0 * (ses[i] + ses[i + 1]), (devs, ses)
    # and the overall drop is real, not a chain of within-noise steps
    assert devs[-1] < devs[0] / 10.0


def test_criterion_6_error_propagation():
    """Closed-form uncertainties equal sqrt(Var O)/|slope| assembled from the
    photocounting moments at every non-singular grid point; the analytic
    slopes, restated in the test, equal central finite differences."""
    h = 1e-6
    for params in (_preset_solid(), _preset_dashed()):
        scale = transfer_gain(params) ** 2 * params.n_photons
        for phi in midpoint_grid(72):
            closed_s = phase_uncertainty(Strategy.single(), params, phi).dphi
            var1 = photon_second_moments(params, phi)[0]
            slope1 = mean_slope(params, phi)
            assembled_s = math.sqrt(var1) / abs(slope1)
            assert abs(assembled_s - closed_s) <= 1e-10 * closed_s

            closed_d = phase_uncertainty(Strategy.differential(), params, phi).dphi
            var_m = photon_stats(params, phi).var_nminus
            # d<N->/dphi = d<N1>/dphi - d<N2>/dphi
            slope_m = 2.0 * slope1
            assembled_d = math.sqrt(var_m) / abs(slope_m)
            assert abs(assembled_d - closed_d) <= 1e-10 * closed_d

            ahead, behind = photon_stats(params, phi + h), photon_stats(params, phi - h)
            fd1 = (ahead.mean_n1 - behind.mean_n1) / (2.0 * h)
            assert abs(slope1 - fd1) <= 1e-5 * max(abs(slope1), 1e-9 * scale)
            fd_m = (
                (ahead.mean_n1 - ahead.mean_n2) - (behind.mean_n1 - behind.mean_n2)
            ) / (2.0 * h)
            assert abs(slope_m - fd_m) <= 1e-5 * max(abs(slope_m), 1e-9 * scale)


def test_criterion_7_small_deviation_law():
    """For prior offsets up to a tenth of the tolerance bound, the quadratic
    small-deviation law matches the exact suboptimal formula to 1 percent."""
    params = _preset_solid()
    phi = math.pi / 2.0
    bound = math.sqrt(0.1)
    for frac in (1e-3, 1e-2, 1e-1):
        d = frac * bound
        assert d <= 0.1
        exact = phase_uncertainty(Strategy.suboptimal(phi + d), params, phi).dphi ** 2
        law = small_deviation_dphi_squared(params, d)
        assert abs(law - exact) <= 0.01 * exact, (frac, exact, law)


@settings(max_examples=1000)
@given(interferometer_params(), phases)
def test_criterion_8_algebraic_identities(params, phi):
    """Structural identities on randomized valid parameters: sum/difference
    variance bookkeeping, phase-independent total mean, Cauchy-Schwarz for the
    covariances, positive semidefinite quadrature covariance matrices."""
    stats = photon_stats(params, phi)
    scale = max(stats.var_n1, stats.var_n2, 1e-300)
    assert abs(stats.var_nplus + stats.var_nminus - 2.0 * (stats.var_n1 + stats.var_n2)) <= 1e-8 * scale
    total = transfer_gain(params) ** 2 * params.n_photons
    assert math.isclose(stats.mean_nplus, total, rel_tol=1e-9)
    assert stats.cov_n1n2**2 <= stats.var_n1 * stats.var_n2 * (1.0 + 1e-10) + 1e-300
    assert stats.cov_npm**2 <= stats.var_nplus * stats.var_nminus * (1.0 + 1e-10) + 1e-300

    core = core_noise_covariance(params, phi)
    eig_core = np.linalg.eigvalsh(core.cov)
    assert eig_core.min() >= -1e-10 * max(eig_core.max(), 1.0)
    detected = detector_field_stats(params, phi, extended=True)
    eig_det = np.linalg.eigvalsh(detected.cov)
    assert eig_det.min() >= -1e-10 * max(eig_det.max(), 1.0)
