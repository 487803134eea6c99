"""Monte-Carlo oracle: reproducibility, agreement with the closed forms, and
the diagnostics around the linearized photocounting model."""

import json
import math
import re
import sys
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import R1_10DB, midpoint_grid
from sqzmzi import oracle
from sqzmzi.cli import validate_against_oracle
from sqzmzi.model import InterferometerParams, ParameterError, Phase, db_to_squeeze_factor
from sqzmzi.oracle import (
    _CHAIN_ROWS,
    _CHUNK,
    OracleConfig,
    _moments_of,
    _propagate,
    _scaled_draws,
    _spawn_streams,
    linearization_error,
    run,
)
from sqzmzi.photostats import MOMENT_FIELDS
from sqzmzi.quadratures import VACUUM, _input_variances, detector_field_stats

# repr of linearization_error output per case, keyed "<mode>-seed<seed>-phi<phi>",
# on the lossy, amplified parameter set of validate-digests.json
LINEARIZATION_GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "linearization-error.json").read_text()
)

# repr of (empirical, standard_errors, z_scores, max_abs_z()) per case, keyed
# "<set>-<mode>-n<n>-phi<phi>", at sample counts around and across several
# propagation blocks and draw chunks
BLOCKS_GOLDEN = json.loads((Path(__file__).parent / "golden" / "oracle-blocks.json").read_text())
BLOCKS_SETS = {
    # the fig2-dashed preset
    "dashed": InterferometerParams.with_technical_noise(
        1.0, r1=R1_10DB, eta=1.0 / 1.04, n_photons=1e6
    ),
    # the set of validate-digests.json and linearization-error.json
    "lossy": InterferometerParams.with_technical_noise(
        4.0, r1=db_to_squeeze_factor(8.0), r2=0.8, mu=0.93, eta=0.7, n_photons=3e6
    ),
}
BLOCKS_PHASES = {"0": 0.0, "1.3": 1.3, "pi": math.pi}
BLOCKS_CASES = [
    f"{name}-{mode}-n{n}-phi{phi}"
    for name in BLOCKS_SETS
    for mode in ("exact", "linearized")
    for n in (8191, 8193, 3 * 8192 + 5, 50_000, 2**18 + 1)
    for phi in BLOCKS_PHASES
]


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
    assert OracleConfig(n_samples=2**53).n_samples == 2**53


@pytest.mark.parametrize("n", [2**53 + 1, 10**21])
def test_config_refuses_a_sample_count_past_exact_batch_edges(n):
    # run() places its batch edges in float64, exact up to 2^53; the config
    # refuses a larger count before anything is allocated
    with pytest.raises(ParameterError, match="n_samples must be at most 2\\^53"):
        OracleConfig(n_samples=n)


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
    # mode; exact mode subtracts it
    params = InterferometerParams(n_photons=1e-12)
    with_offset = run(params, 1.0, OracleConfig(n_samples=50_000, seed=5))
    assert abs(with_offset.empirical.mean_n1) < 0.02


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


@pytest.mark.parametrize(
    "overrides, knob",
    [
        # G^4 N overflows, so do the closed-form moments
        ({"r2": 200.0}, "r2 = 200.0"),
        # the moments are finite, but squaring them for the batch standard
        # errors overflows
        ({"r2": 160.0}, "r2 = 160.0"),
        ({"r1": 0.0, "r2": 0.0, "mu": 1.0, "eta": 1.0, "n_photons": 1e300}, "n_photons = 1e+300"),
    ],
    ids=["r2-200", "r2-160", "n-1e300"],
)
@pytest.mark.parametrize("linearized", [False, True], ids=["exact", "linearized"])
def test_overflowing_moments_are_refused_before_any_draw(spawn_calls, overrides, knob, linearized):
    params = InterferometerParams(**{"r1": 1.0, "mu": 0.9, "eta": 0.9, "n_photons": 1e6, **overrides})
    config = OracleConfig(n_samples=2000, linearized_mode=linearized)
    with pytest.raises(ParameterError, match=re.escape(knob)):
        run(params, [0.5, 1.5], config)
    with pytest.raises(ParameterError, match=re.escape(knob)):
        linearization_error(params, 1.5, config, (1.0, params.n_photons))
    assert spawn_calls == []


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_non_finite_samples_report_nan_z(solid_params, monkeypatch):
    # a non-finite sample makes the sample moments and the batch standard
    # errors non-finite; a difference over them must read as z = nan, never
    # as a number that could pass
    real_draws = oracle._scaled_draws

    def draws_with_inf(*args):
        fields = real_draws(*args)
        fields["z2c"][0] = math.inf
        return fields

    monkeypatch.setattr(oracle, "_scaled_draws", draws_with_inf)
    report = run(solid_params, 1.5, OracleConfig(n_samples=2000, linearized_mode=True))
    assert all(math.isnan(z) for z in report.z_scores.values()), report.z_scores
    assert math.isnan(report.max_abs_z())


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


def test_linearization_error_validates_grid(solid_params, spawn_calls):
    config = OracleConfig(n_samples=10)
    with pytest.raises(ParameterError):
        linearization_error(solid_params, 1.0, config, ())
    with pytest.raises(ParameterError):
        linearization_error(solid_params, 1.0, config, (1e4, 1e2))
    with pytest.raises(ParameterError):
        linearization_error(solid_params, 1.0, config, (0.0, 1e2))
    # the brightness grid is the only grid: a phase grid is refused too
    for phi in ([0.5, 1.0], np.array([0.5, 1.0])):
        with pytest.raises(ParameterError, match="phi must be one phase"):
            linearization_error(solid_params, phi, config, (1e2, 1e4))
    assert spawn_calls == []


def test_sampled_quadratures_match_closed_form_state(dashed_params):
    # empirical mean and covariance of (g1c, g1s, g2c, g2s) against the
    # closed-form Gaussian state of the detected modes
    n = 100_000
    phi = 1.9
    inputs = _input_variances(dashed_params)
    fields = _scaled_draws(inputs, dashed_params.mu, dashed_params.eta, n, _spawn_streams(17))
    samples = np.stack(_propagate(dashed_params, phi, fields, np.empty((_CHAIN_ROWS, n))))
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


LOSSES = (1.0, 0.9, 1e-3)


@pytest.mark.parametrize("phi", [0.0, 1.3, math.pi], ids=["0", "1.3", "pi"])
@pytest.mark.parametrize("eta", LOSSES)
@pytest.mark.parametrize("mu", LOSSES)
def test_measured_pair_alone_is_bit_identical(mu, eta, phi):
    # linearized mode builds only (g1s, g2c); they must carry the full chain's
    # bits, on the sample path and on the one-element zero-input mean path
    params = InterferometerParams.with_technical_noise(
        2.0, r1=1.0, r2=0.6, mu=mu, eta=eta, n_photons=1e6
    )
    n = 1000
    fields = _scaled_draws(_input_variances(params), mu, eta, n, _spawn_streams(35))
    zero = np.zeros(1)
    zero.flags.writeable = False
    for inputs, m in ((fields, n), (dict.fromkeys(oracle.CHANNELS, zero), 1)):
        full = _propagate(params, phi, inputs, np.empty((_CHAIN_ROWS, m)))
        g1c, g1s, g2c, g2s = _propagate(
            params, phi, inputs, np.empty((_CHAIN_ROWS, m)), measured_only=True
        )
        assert g1c is None and g2s is None
        assert g1s.tobytes() == full[1].tobytes()
        assert g2c.tobytes() == full[2].tobytes()


@pytest.mark.parametrize("linearized", [False, True], ids=["exact", "linearized"])
@pytest.mark.parametrize("phi", [0.0, 1.3, math.pi], ids=["0", "1.3", "pi"])
@pytest.mark.parametrize("eta", LOSSES)
@pytest.mark.parametrize("mu", LOSSES)
def test_undrawn_vacuums_move_no_bit(mu, eta, phi, linearized):
    # a lossless arm's vacuums and the ports linearized mode never builds are
    # not drawn; the chain must give the bits it gives with them drawn from
    # the same streams and admixed, zero amplitudes leaving signed zeros
    params = InterferometerParams.with_technical_noise(
        2.0, r1=1.0, r2=0.6, mu=mu, eta=eta, n_photons=1e6
    )
    n = 1000
    fields = _scaled_draws(_input_variances(params), mu, eta, n, _spawn_streams(36), linearized)
    amplitudes = {"m": math.sqrt(1.0 - mu), "n": math.sqrt(1.0 - eta)}
    normals = _spawn_streams(36)
    admixed = dict(fields)
    for ch in set(oracle.CHANNELS) - set(fields):
        admixed[ch] = normals[ch].standard_normal(n) * math.sqrt(VACUUM) * amplitudes[ch[0]]
        if amplitudes[ch[0]] == 0.0:
            assert np.signbit(admixed[ch]).any() and not admixed[ch].any()
    reduced, full = (
        _propagate(params, phi, inputs, np.empty((_CHAIN_ROWS, n)), measured_only=linearized)
        for inputs in (fields, admixed)
    )
    for g, h in zip(reduced, full):
        assert (g is None) == (h is None)
        if g is not None:
            assert g.tobytes() == h.tobytes()


INPUTS = ("a1c", "a1s", "z2c", "z2s")
INTERNAL = ("m1c", "m1s", "m2c", "m2s")
EXTERNAL = ("n1c", "n1s", "n2c", "n2s")
MEASURED_EXTERNAL = ("n1s", "n2c")


@pytest.mark.parametrize("n", [3000, _CHUNK + 1])
@pytest.mark.parametrize(
    "mu, eta, linearized, drawn",
    [
        (1.0, 1.0, False, INPUTS),
        (1.0, 1.0, True, INPUTS),
        (0.9, 1.0, False, INPUTS + INTERNAL),
        (0.9, 1.0, True, INPUTS + INTERNAL),
        (1.0, 0.9, False, INPUTS + EXTERNAL),
        (1.0, 0.9, True, INPUTS + MEASURED_EXTERNAL),
        (0.9, 0.9, False, INPUTS + INTERNAL + EXTERNAL),
        (0.9, 0.9, True, INPUTS + INTERNAL + MEASURED_EXTERNAL),
    ],
)
def test_a_run_draws_only_the_channels_it_reads(monkeypatch, mu, eta, linearized, drawn, n):
    # a grid of n <= _CHUNK samples draws one set, n from each channel it
    # reads; a longer run draws every phase in chunks
    draws = []

    class Recording:
        def __init__(self, ch, gen):
            self.ch, self.gen = ch, gen

        def standard_normal(self, size):
            draws.append((self.ch, size))
            return self.gen.standard_normal(size)

    def recording_streams(seed):
        return {ch: Recording(ch, gen) for ch, gen in _spawn_streams(seed).items()}

    monkeypatch.setattr(oracle, "_spawn_streams", recording_streams)
    params = InterferometerParams.with_technical_noise(
        2.0, r1=1.0, r2=0.6, mu=mu, eta=eta, n_photons=1e6
    )
    grid = [0.3, 2.5]
    run(params, grid, OracleConfig(n_samples=n, seed=39, linearized_mode=linearized))
    sizes = [n] if n <= _CHUNK else [_CHUNK, n - _CHUNK] * len(grid)
    assert draws == [(ch, m) for m in sizes for ch in drawn]


@pytest.mark.parametrize("knob, other", [("eta", 0.6), ("mu", 0.6)])
def test_points_of_equal_input_noise_but_other_loss_draw_again(
    solid_params, spawn_calls, knob, other
):
    # the draws carry the loss amplitudes, so equal input noise alone must
    # not share them
    params = [solid_params, replace(solid_params, **{knob: other})]
    assert _input_variances(params[0]) == _input_variances(params[1])
    for linearized in (False, True):
        config = OracleConfig(n_samples=3000, seed=37, linearized_mode=linearized)
        spawn_calls.clear()
        reports = oracle._reports([(p, 1.3) for p in params], config)
        assert spawn_calls == [37, 37]
        assert list(map(repr, reports)) == [repr(run(p, 1.3, config)) for p in params]


@pytest.mark.parametrize("size", [2, 4, 5, 7, 1562, 1563, 8193, 50_000, 2**18 + 1])
def test_moments_of_means_are_ndarray_means(size):
    rng = np.random.default_rng(size)
    offset = 1e9 + rng.standard_normal(size)
    signed_zeros = rng.standard_normal(size)
    signed_zeros[::3] = 0.0
    signed_zeros[1::3] = -0.0
    negative_zeros = np.full(size, -0.0)
    for n1, n2 in ((offset, signed_zeros), (signed_zeros, offset), (negative_zeros, offset)):
        mean1, mean2 = float(n1.mean()), float(n2.mean())
        c1, c2 = n1 - mean1, n2 - mean2
        moments = _moments_of(n1[None].copy(), n2[None].copy())
        assert moments["mean_n1"][0].hex() == mean1.hex()
        assert moments["mean_n2"][0].hex() == mean2.hex()
        assert moments["var_n1"] == [float(c1 @ c1) / (size - 1)]
        assert moments["cov_n1n2"] == [float(c1 @ c2) / (size - 1)]


@settings(max_examples=60, deadline=None)
@given(
    height=st.integers(1, 16),
    length=st.integers(2, 9000),
    seed=st.integers(0, 2**32 - 1),
    offset=st.sampled_from([0.0, 1e9, -3.5]),
)
def test_stacked_moments_are_the_moments_of_each_row(height, length, seed, offset):
    # a stack of equal-length batches gives each row the bits of plain numpy
    # on that row alone, and centres each row in place
    rng = np.random.default_rng(seed)
    n1 = offset + rng.standard_normal((height, length))
    n2 = rng.standard_normal((height, length))
    n2[:, ::3] = -0.0
    stack1, stack2 = n1.copy(), n2.copy()
    stacked = _moments_of(stack1, stack2)
    assert list(stacked) == list(MOMENT_FIELDS)
    for row in range(height):
        mean1, mean2 = float(n1[row].mean()), float(n2[row].mean())
        c1, c2 = n1[row] - mean1, n2[row] - mean2
        var1, var2, cov12 = (float(x @ y) / (length - 1) for x, y in ((c1, c1), (c2, c2), (c1, c2)))
        alone = {
            "mean_n1": mean1,
            "mean_n2": mean2,
            "var_n1": var1,
            "var_n2": var2,
            "cov_n1n2": cov12,
            "mean_nplus": mean1 + mean2,
            "mean_nminus": mean1 - mean2,
            "var_nplus": var1 + var2 + 2.0 * cov12,
            "var_nminus": var1 + var2 - 2.0 * cov12,
            "cov_npm": var1 - var2,
        }
        for name, value in alone.items():
            assert stacked[name][row].hex() == value.hex(), (name, row)
        assert stack1[row].tobytes() == c1.tobytes()
        assert stack2[row].tobytes() == c2.tobytes()


@pytest.mark.parametrize("n", [4, 5, 64, 4096, 2**16, 50_000, 2**18 + 1])
def test_only_the_full_sample_moments_have_the_full_sample_size(solid_params, monkeypatch, n):
    # perfbench's tracer tells the full-sample _moments_of call from the batch
    # stacks by size alone (n1.size == n), so no stack of batches may reach n,
    # not even where n splits into batches of one length
    shapes = []

    def recording(n1, n2):
        shapes.append(n1.shape)
        return _moments_of(n1, n2)

    monkeypatch.setattr(oracle, "_moments_of", recording)
    run(solid_params, [0.5, 2.0], OracleConfig(n_samples=n, seed=5, linearized_mode=True))
    full = [i for i, shape in enumerate(shapes) if math.prod(shape) == n]
    # one one-row call per phase, after that phase's batch stacks
    assert [shapes[i] for i in full] == [(1, n), (1, n)]
    assert full == [len(shapes) // 2 - 1, len(shapes) - 1]


@pytest.mark.parametrize("linearized", [False, True], ids=["exact", "linearized"])
def test_closed_forms_and_mean_path_once_per_run_of_equal_params(
    solid_params, dashed_params, monkeypatch, linearized
):
    # every point is still checked against its own closed forms, but each run
    # of consecutive points with equal params evaluates them, and takes its
    # mean path, in one call over the run's phases
    closed_calls, mean_calls = [], []
    photon_stats = oracle.photostats.photon_stats

    def counting_stats(params, phi):
        closed_calls.append(np.size(Phase(phi).phi))
        return photon_stats(params, phi)

    def counting_propagate(params, phi, fields, buf, measured_only=False):
        if fields["a1c"].size == 1:
            mean_calls.append(np.size(Phase(phi).phi))
        return _propagate(params, phi, fields, buf, measured_only=measured_only)

    monkeypatch.setattr(oracle.photostats, "photon_stats", counting_stats)
    monkeypatch.setattr(oracle, "_propagate", counting_propagate)
    config = OracleConfig(n_samples=1000, seed=38, linearized_mode=linearized)
    points = [
        (solid_params, 0.3), (solid_params, 1.0), (dashed_params, 1.0),
        (dashed_params, 2.0), (dashed_params, 2.5), (solid_params, 2.5),
    ]
    reports = oracle._reports(points, config)
    assert closed_calls == [2, 3, 1]
    assert mean_calls == ([2, 3, 1] if linearized else [])
    closed_calls.clear()
    mean_calls.clear()
    grid = run(solid_params, midpoint_grid(12), config)
    assert closed_calls == [12]
    assert mean_calls == ([12] if linearized else [])
    monkeypatch.undo()
    assert list(map(repr, reports)) == [repr(run(p, phi, config)) for p, phi in points]
    assert list(map(repr, grid)) == [repr(run(solid_params, phi, config)) for phi in midpoint_grid(12)]


@pytest.mark.parametrize(
    "case", [c for c in BLOCKS_CASES if c.endswith("phi1.3") and ("-n8191-" in c or "-n50000-" in c)]
)
def test_batches_longer_than_half_the_chain_buffers_match_golden(monkeypatch, case):
    # with 64-sample blocks the chain buffers hold 384 samples, so the idle
    # buffers must grow to hold one batch of n1 and one of n2 (256 and 1563
    # samples); blocking changes no bit
    monkeypatch.setattr(oracle, "_BLOCK", 64)
    assert _blocks_repr(case) == BLOCKS_GOLDEN[case]


@pytest.fixture
def spawn_calls(monkeypatch) -> list[int]:
    """Seeds of the _spawn_streams calls made during the test."""
    seeds = []

    def counting(seed):
        seeds.append(seed)
        return _spawn_streams(seed)

    monkeypatch.setattr(oracle, "_spawn_streams", counting)
    return seeds


def test_phase_grid_draws_once(solid_params, spawn_calls):
    config = OracleConfig(n_samples=2000, seed=21, linearized_mode=True)
    rows, _ = validate_against_oracle(solid_params, midpoint_grid(12), config)
    assert len(rows) == 12
    assert spawn_calls == [21]


def test_brightness_grid_draws_once(solid_params, spawn_calls):
    # A and r1 stay fixed across the grid, so the input noise does too
    config = OracleConfig(n_samples=2000, seed=22)
    linearization_error(solid_params, 1.3, config, (1e2, 1e4, 1e6))
    assert spawn_calls == [22]


def test_brightness_grid_draws_where_the_input_noise_changes(spawn_calls):
    # with A = 3.7, N = 300 and N = 3000 do not give back A bit for bit through
    # g2 = 1 + (A - 1)/N, so each point's input noise differs from its
    # neighbours' and each point draws; each must report what it reports alone
    params = InterferometerParams.with_technical_noise(3.7, r1=1.0, eta=0.8, n_photons=1e6)
    grid = (1e2, 3e2, 1e3, 3e3)
    for linearized in (False, True):
        config = OracleConfig(n_samples=3000, seed=32, linearized_mode=linearized)
        spawn_calls.clear()
        points = linearization_error(params, 1.3, config, grid)
        assert spawn_calls == [32] * len(grid)
        alone = [linearization_error(params, 1.3, config, (a,))[0] for a in grid]
        assert repr(points) == repr(alone)


def test_runs_beyond_one_chunk_draw_per_phase(solid_params, spawn_calls):
    config = OracleConfig(n_samples=_CHUNK + 1, seed=23, linearized_mode=True)
    run(solid_params, [0.7, 2.1], config)
    assert spawn_calls == [23, 23]


def _report_repr(report) -> str:
    return repr((report.empirical, report.standard_errors, report.z_scores))


@pytest.mark.parametrize("n", [5, 8193, 50_000, _CHUNK + 1])
@pytest.mark.parametrize("linearized", [False, True], ids=["exact", "linearized"])
def test_grid_run_matches_runs_at_each_phase(dashed_params, linearized, n):
    config = OracleConfig(n_samples=n, seed=33, linearized_mode=linearized)
    grid = [0.0, 0.9, 2.2, math.pi]
    reports = run(dashed_params, np.array(grid), config)
    assert [report.phi for report in reports] == grid
    assert list(map(_report_repr, reports)) == [
        _report_repr(run(dashed_params, phi, config)) for phi in grid
    ]


def test_concurrent_runs_match_serial_runs(solid_params):
    # four threads, more than the cores, run at once; each must work in its own
    # n1, n2 and chain buffers, or they would mix each other's samples
    configs = [
        OracleConfig(n_samples=20_000, seed=seed, linearized_mode=linearized)
        for seed in (28, 29)
        for linearized in (False, True)
    ]

    def reports(config):
        return [_report_repr(run(solid_params, phi, config)) for phi in (0.3, 1.1, 2.6)]

    serial = [reports(config) for config in configs]
    results = [None] * len(configs)
    barrier = threading.Barrier(len(configs))

    def work(i):
        barrier.wait(timeout=60)
        results[i] = reports(configs[i])

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(configs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == serial


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("linearized", [False, True], ids=["exact", "linearized"])
def test_run_allocates_blocks_not_whole_sample_temporaries(solid_params, linearized):
    # a grid call draws once and allocates n1, n2 and the chain buffers once,
    # so its phases after the first add only their batch copies and small
    # objects; n1 and n2 alone take 0.8 MiB, and one block's chain
    # temporaries 0.4 MiB
    config = OracleConfig(n_samples=50_000, seed=27, linearized_mode=linearized)
    one = _traced_peak(lambda: run(solid_params, 0.4, config))
    three = _traced_peak(lambda: run(solid_params, [0.4, 1.7, 2.9], config))
    assert three - one < 0.25 * 2**20, f"extra peak {(three - one) / 2**20:.2f} MiB"


def test_validate_keeps_nothing_allocated(solid_params):
    # the draws (24 MiB at 2^18 samples), n1, n2 and the chain buffers belong to
    # the call and are freed when it returns
    config = OracleConfig(n_samples=_CHUNK, seed=34, linearized_mode=True)
    tracemalloc.start()
    try:
        rows, _ = validate_against_oracle(solid_params, [0.4, 1.7, 2.9], config)
        current = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(rows) == 3
    assert current < 2**20, f"{current / 2**20:.2f} MiB still allocated"


def test_kept_draws_are_read_only(solid_params, monkeypatch):
    # the phases of a grid share one draw set, and the mean path's channels
    # share one zero input, so no phase may write to either
    received = []

    def recording(params, phi, fields, buf, measured_only=False):
        received.append(fields)
        return _propagate(params, phi, fields, buf, measured_only=measured_only)

    monkeypatch.setattr(oracle, "_propagate", recording)
    for linearized in (False, True):
        received.clear()
        config = OracleConfig(n_samples=1000, seed=26, linearized_mode=linearized)
        run(solid_params, [0.3, 1.0], config)
        # in linearized mode one mean path for the grid, on every channel,
        # then one block per phase, on the four channels the lossless set draws
        blocks = [set(INPUTS)] * 2
        assert [set(fields) for fields in received] == (
            [set(oracle.CHANNELS)] + blocks if linearized else blocks
        )
        for fields in received:
            for values in fields.values():
                with pytest.raises(ValueError, match="read-only"):
                    values[0] = 1.0


def _linearization_repr(case: str) -> str:
    mode, seed, phi = case.split("-")
    params = BLOCKS_SETS["lossy"]
    config = OracleConfig(
        n_samples=2000, seed=int(seed[len("seed"):]), linearized_mode=mode == "linearized"
    )
    points = linearization_error(params, float(phi[len("phi"):]), config, (1e2, 1e4, 1e6))
    return repr(points)


@pytest.mark.parametrize("case", sorted(LINEARIZATION_GOLDEN))
def test_linearization_error_matches_golden(case):
    assert _linearization_repr(case) == LINEARIZATION_GOLDEN[case]


def _blocks_repr(case: str) -> str:
    name, mode, n, phi = case.split("-")
    config = OracleConfig(n_samples=int(n[1:]), seed=31, linearized_mode=mode == "linearized")
    report = run(BLOCKS_SETS[name], BLOCKS_PHASES[phi[len("phi"):]], config)
    return repr((report.empirical, report.standard_errors, report.z_scores, report.max_abs_z()))


@pytest.mark.parametrize("case", BLOCKS_CASES)
def test_multi_block_runs_match_golden(case):
    assert _blocks_repr(case) == BLOCKS_GOLDEN[case]
