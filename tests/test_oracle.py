"""Monte-Carlo oracle: reproducibility, agreement with the closed forms, and
the diagnostics around the linearized photocounting model."""

import json
import math
import sys
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import R1_10DB, midpoint_grid
from sqzmzi import oracle
from sqzmzi.cli import validate_against_oracle
from sqzmzi.model import InterferometerParams, ParameterError, db_to_squeeze_factor
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
from sqzmzi.quadratures import _input_variances, detector_field_stats

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


@pytest.mark.parametrize("mu, eta", [(1.0, 0.8), (0.8, 1.0)])
def test_lossless_vacuums_keep_their_signed_zeros(mu, eta):
    # a zero loss amplitude still multiplies the draws, as the chain's
    # admixing step did, so a negative draw leaves -0.0 rather than +0.0
    params = InterferometerParams.with_technical_noise(1.0, r1=1.0, mu=mu, eta=eta, n_photons=1e6)
    fields = _scaled_draws(_input_variances(params), mu, eta, 1000, _spawn_streams(36))
    normals = _spawn_streams(36)
    for ch in oracle.CHANNELS:
        normal = normals[ch].standard_normal(1000)
        if (ch[0] == "m" and mu == 1.0) or (ch[0] == "n" and eta == 1.0):
            assert not fields[ch].any()
            assert np.array_equal(np.signbit(fields[ch]), np.signbit(normal))
        else:
            assert fields[ch].all()


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
        moments = _moments_of(n1.copy(), n2.copy())
        assert moments["mean_n1"].hex() == mean1.hex()
        assert moments["mean_n2"].hex() == mean2.hex()
        assert moments["var_n1"] == float(c1 @ c1) / (size - 1)
        assert moments["cov_n1n2"] == float(c1 @ c2) / (size - 1)


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
        # one block per phase, plus the mean path in linearized mode
        assert len(received) == (4 if linearized else 2)
        for fields in received:
            assert set(fields) == set(oracle.CHANNELS)
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
