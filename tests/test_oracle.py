"""Monte-Carlo oracle: reproducibility, agreement with the closed forms, and
the diagnostics around the linearized photocounting model."""

import math

import numpy as np
import pytest

from conftest import R1_10DB, midpoint_grid
from sqzmzi.model import InterferometerParams, ParameterError
from sqzmzi.oracle import (
    OracleConfig,
    _sample_detector_quadratures,
    _spawn_streams,
    linearization_error,
    run,
)
from sqzmzi.quadratures import InputNoiseSpec, detector_field_stats


def test_config_validation():
    with pytest.raises(ParameterError):
        OracleConfig(n_samples=0)
    with pytest.raises(ParameterError):
        OracleConfig(n_samples=2.5)
    with pytest.raises(ParameterError):
        OracleConfig(n_samples=100, seed=-1)
    with pytest.raises(ParameterError):
        OracleConfig(n_samples=100, seed=2**64)
    assert OracleConfig(n_samples=100, seed=2**64 - 1).seed == 2**64 - 1
    # batch standard errors need 2 batches of 2 samples
    for n in (2, 3):
        with pytest.raises(ParameterError, match="n_samples must be an integer >= 4"):
            OracleConfig(n_samples=n)
    assert OracleConfig(n_samples=4).n_samples == 4


def test_run_rejects_single_sample(solid_params):
    with pytest.raises(ParameterError):
        run(solid_params, 1.0, OracleConfig(n_samples=1))


def test_reports_are_bit_reproducible(solid_params):
    config = OracleConfig(n_samples=4000, seed=42)
    first = run(solid_params, 1.3, config)
    second = run(solid_params, 1.3, config)
    assert first.empirical.as_dict() == second.empirical.as_dict()
    assert first.standard_errors == second.standard_errors
    other = run(solid_params, 1.3, OracleConfig(n_samples=4000, seed=43))
    assert other.empirical.mean_n1 != first.empirical.mean_n1


def test_linearized_grid_consistency(solid_params):
    # linearized mode samples exactly the model behind the closed forms, so the
    # moments must agree at any brightness up to sampling noise
    config = OracleConfig(n_samples=20_000, seed=7, linearized_mode=True)
    for phi in midpoint_grid(12):
        report = run(solid_params, phi, config)
        assert report.max_abs_z() <= 5.0, (phi, report.z_scores)


def test_exact_mode_agrees_when_bright(solid_params, dashed_params, dotted_params):
    # quadratic detection differs from the linearized model by O(1/alpha^2)
    config = OracleConfig(n_samples=20_000, seed=11)
    for params in (solid_params, dashed_params, dotted_params):
        for phi in (2.0, math.pi / 2.0):
            report = run(params, phi, config)
            assert report.max_abs_z() <= 5.0, (phi, report.z_scores)


def test_exact_mode_energy_bookkeeping():
    # the quadratic detector sees every photon: the coherent signal plus the
    # squeezing photons sinh^2(r1) plus the technical-noise photons (A - 1)/4.
    # The linearized closed form keeps only the first, so check the sampled
    # mean against the full budget rather than against the report.
    params = InterferometerParams.with_technical_noise(2.0, r1=R1_10DB, n_photons=100.0)
    report = run(params, 0.7, OracleConfig(n_samples=200_000, seed=3))
    expected = 100.0 + math.sinh(R1_10DB) ** 2 + (2.0 - 1.0) / 4.0
    se = report.standard_errors["mean_nplus"]
    assert abs(report.empirical.mean_nplus - expected) <= 5.0 * se


def test_vacuum_offset_toggle():
    # with a dark input the quadrature variance alone carries half a photon per
    # mode; the offset subtracts it
    params = InterferometerParams(n_photons=1e-12)
    with_offset = run(params, 1.0, OracleConfig(n_samples=50_000, seed=5))
    without = run(
        params, 1.0, OracleConfig(n_samples=50_000, seed=5, include_vacuum_offset=False)
    )
    assert abs(with_offset.empirical.mean_n1) < 0.02
    assert abs(without.empirical.mean_n1 - 0.5) < 0.02


def test_standard_errors_shrink_with_sample_size(solid_params):
    small = run(solid_params, 1.0, OracleConfig(n_samples=1000, seed=9))
    big = run(solid_params, 1.0, OracleConfig(n_samples=64_000, seed=9))
    ratio = big.standard_errors["mean_n1"] / small.standard_errors["mean_n1"]
    # 64x the samples: expect 1/8, allow slack for batch-mean noise
    assert ratio < 0.4


def test_degenerate_moments_report_zero_z(solid_params):
    # at phi = 0 the linearized dark port is identically zero: difference and
    # standard error both vanish, which must come out as z = 0, not nan
    config = OracleConfig(n_samples=5000, seed=2, linearized_mode=True)
    report = run(solid_params, 0.0, config)
    assert report.z_scores["mean_n1"] == 0.0
    assert report.z_scores["var_n1"] == 0.0
    assert math.isfinite(report.max_abs_z())


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_overflowing_moments_report_nan_z():
    # G^4 N overflows at r2 = 200: the variances and the batch standard errors
    # of the means are inf there, and a finite difference over an inf standard
    # error must not read as z = 0
    params = InterferometerParams(r1=1.0, r2=200.0, mu=0.9, eta=0.9, n_photons=1e6)
    report = run(params, 1.5, OracleConfig(n_samples=2000, linearized_mode=True))
    assert all(math.isnan(z) for z in report.z_scores.values()), report.z_scores


@pytest.mark.parametrize("position", ["first", "last"])
def test_max_abs_z_ranks_nan_highest(solid_params, position):
    # a z-score that could not be computed must not hide behind a finite one,
    # wherever it sits in the dict
    report = run(solid_params, 1.0, OracleConfig(n_samples=1000, seed=4))
    names = list(report.z_scores)
    nan_name = names[0] if position == "first" else names[-1]
    report.z_scores[nan_name] = math.nan
    assert math.isnan(report.max_abs_z())


def test_linearization_error_exact_mode_bias(solid_params):
    # at phi = pi/2 the quadratic terms add (vx^2 + vy^2)/2 to Var N1 on top of
    # the linear term M^2 vx with vx = 0.275, vy = 2.75, M^2 = alpha^2, so the
    # relative deviation starts at 13.9 percent and falls off as 1/alpha^2
    config = OracleConfig(n_samples=20_000, seed=13)
    points = linearization_error(solid_params, math.pi / 2.0, config, (1e2, 1e4, 1e6))
    bias0 = (0.275**2 + 2.75**2) / 2.0 / (1e2 * 0.275)
    assert abs(points[0].relative_deviation["var_n1"] - bias0) <= 5.0 * points[0].relative_se[
        "var_n1"
    ]
    mean_devs = [abs(p.relative_deviation["mean_n1"]) for p in points]
    assert mean_devs[0] > mean_devs[1] > mean_devs[2]
    assert abs(points[2].relative_deviation["var_n1"]) <= 5.0 * points[2].relative_se["var_n1"]


def test_linearization_error_linearized_mode_is_flat(solid_params):
    # in linearized mode the sampled model IS the closed-form model: deviations
    # are pure sampling noise at every brightness
    config = OracleConfig(n_samples=20_000, seed=13, linearized_mode=True)
    for point in linearization_error(solid_params, math.pi / 2.0, config, (1e2, 1e6)):
        for name, dev in point.relative_deviation.items():
            if not math.isnan(dev):
                assert abs(dev) <= 5.0 * point.relative_se[name], (point.alpha_sq, name)


def test_linearization_error_validates_grid(solid_params):
    config = OracleConfig(n_samples=10)
    with pytest.raises(ParameterError):
        linearization_error(solid_params, 1.0, config, ())
    with pytest.raises(ParameterError):
        linearization_error(solid_params, 1.0, config, (1e4, 1e2))
    with pytest.raises(ParameterError):
        linearization_error(solid_params, 1.0, config, (0.0, 1e2))


def test_sampled_quadratures_match_closed_form_state(dashed_params):
    # empirical mean and covariance of (g1c, g1s, g2c, g2s) against the
    # closed-form Gaussian state of the detected modes
    n = 100_000
    phi = 1.9
    noise = InputNoiseSpec.from_params(dashed_params)
    streams = _spawn_streams(17)
    blocks = [
        np.stack(chunk)
        for chunk in _sample_detector_quadratures(dashed_params, phi, noise, n, streams)
    ]
    samples = np.concatenate(blocks, axis=1)
    stats = detector_field_stats(dashed_params, phi, extended=True)

    mean = samples.mean(axis=1)
    cov = np.cov(samples)
    for i in range(4):
        se = math.sqrt(cov[i, i] / n)
        assert abs(mean[i] - stats.mean[i]) <= 5.0 * se
    for i in range(4):
        for j in range(4):
            se = math.sqrt((cov[i, i] * cov[j, j] + cov[i, j] ** 2) / n)
            assert abs(cov[i, j] - stats.cov[i, j]) <= 5.0 * se + 1e-12
