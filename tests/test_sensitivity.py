"""Closed-form sensitivities: frozen reference points, singular phases,
strategy ordering, widths, and the design helpers."""

import math
import sys
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import R1_10DB, interferometer_params, midpoint_grid, phases
from sqzmzi import oracle, photostats, quadratures, sensitivity
from sqzmzi.model import (
    InterferometerParams,
    ParameterError,
    Strategy,
    StrategyKind,
    inefficiency,
    technical_noise_factor,
)
from sqzmzi.photostats import ConsistencyError
from sqzmzi.sensitivity import (
    apriori_tolerance,
    dphi_min,
    fwhm,
    fwhm_approx,
    implied_inefficiency,
    k_factor,
    optimal_weight,
    phase_uncertainty,
    required_r2,
    small_deviation_dphi_squared,
    snl,
    sweep,
)

ALL_STRATEGIES = (
    Strategy.single(),
    Strategy.differential(),
    Strategy.optimal(),
)


def test_snl_reference():
    assert snl(1e6) == 1e-3
    assert math.isclose(snl(4.0), 0.5, rel_tol=1e-15)
    with pytest.raises(ParameterError):
        snl(-1.0)
    with pytest.raises(ParameterError):
        snl(0.0)
    with pytest.raises(ParameterError):
        snl(math.nan)


def test_floor_and_k_reference_points(solid_params, dashed_params, dotted_params):
    # 10 dB squeezing, lossless: floor = sqrt(0.1/N), K = 1/N
    assert math.isclose(dphi_min(solid_params), math.sqrt(1e-7), rel_tol=1e-12)
    assert math.isclose(k_factor(solid_params), 1e-6, rel_tol=1e-12)
    # external loss eps^2 = 0.04 raises both
    assert math.isclose(dphi_min(dashed_params), math.sqrt(0.14e-6), rel_tol=1e-12)
    assert math.isclose(k_factor(dashed_params), 1.04e-6, rel_tol=1e-12)
    # technical noise A = 2 raises only K (A stored through g2 = 1 + 1e-6,
    # so reconstruction is limited by the float granularity of g2 near 1)
    assert math.isclose(dphi_min(dotted_params), math.sqrt(1e-7), rel_tol=1e-12)
    assert math.isclose(k_factor(dotted_params), 2e-6, rel_tol=1e-9)


def test_single_detector_reference_point(solid_params):
    res = phase_uncertainty(Strategy.single(), solid_params, math.pi / 2.0)
    assert math.isclose(res.dphi, math.sqrt(1.1) * 1e-3, rel_tol=1e-12)
    assert math.isclose(res.normalized, math.sqrt(1.1), rel_tol=1e-12)
    assert res.normalized == res.dphi / snl(solid_params.n_photons)
    assert res.fwhm_lobes == 1
    assert res.divergent is False
    assert res.diagnostic is None


def test_differential_reference_point(solid_params):
    # cot(pi/2) = 0: the differential read-out reaches the floor there
    res = phase_uncertainty(Strategy.differential(), solid_params, math.pi / 2.0)
    assert math.isclose(res.dphi, math.sqrt(1e-7), rel_tol=1e-12)
    assert math.isclose(res.normalized, math.sqrt(0.1), rel_tol=1e-12)
    assert res.fwhm_lobes == 2


def test_optimal_is_flat(solid_params, dashed_params):
    for params, floor2 in ((solid_params, 0.1), (dashed_params, 0.14)):
        for phi in midpoint_grid(11):
            res = phase_uncertainty(Strategy.optimal(), params, phi)
            assert math.isclose(res.normalized, math.sqrt(floor2), rel_tol=1e-12)
            assert res.k_opt == math.cos(phi)
            assert res.fwhm is None
            assert res.fwhm_lobes is None


def test_suboptimal_with_matched_prior_equals_optimal(solid_params):
    for phi in midpoint_grid(9):
        sub = phase_uncertainty(Strategy.suboptimal(phi), solid_params, phi)
        opt = phase_uncertainty(Strategy.optimal(), solid_params, phi)
        assert sub.dphi == opt.dphi
        assert sub.k_opt == opt.k_opt


def test_suboptimal_approaches_optimal_continuously(dashed_params):
    phi = 1.0
    opt = phase_uncertainty(Strategy.optimal(), dashed_params, phi)
    sub = phase_uncertainty(Strategy.suboptimal(phi + 1e-8), dashed_params, phi)
    assert math.isclose(sub.dphi, opt.dphi, rel_tol=1e-12)


def test_single_detector_singularity(solid_params):
    res = phase_uncertainty(Strategy.single(), solid_params, math.pi)
    assert res.dphi == math.inf
    assert res.normalized == math.inf
    assert res.divergent is True
    assert res.diagnostic is not None and "pi" in res.diagnostic


def test_differential_singularities(solid_params):
    for phi in (0.0, math.pi, 2.0 * math.pi, -math.pi):
        res = phase_uncertainty(Strategy.differential(), solid_params, phi)
        assert res.dphi == math.inf
        assert res.diagnostic is not None


def test_suboptimal_removable_singularity(solid_params):
    # at phi = 2 pi with prior 0 the frozen weight is exactly optimal,
    # so the 0/0 in the penalty term cancels and the floor is reached
    res = phase_uncertainty(Strategy.suboptimal(0.0), solid_params, 2.0 * math.pi)
    assert res.dphi == dphi_min(solid_params)
    assert res.diagnostic is None
    # with a mismatched prior the same phase diverges
    res = phase_uncertainty(Strategy.suboptimal(0.0), solid_params, math.pi)
    assert res.dphi == math.inf
    assert res.diagnostic is not None


def test_phase_must_be_finite(solid_params, monkeypatch):
    # the oracle must reject a phase before it draws anything
    spawned = []
    monkeypatch.setattr(oracle, "_spawn_streams", spawned.append)
    per_phase = (
        photostats.photon_second_moments,
        photostats.photon_stats,
        quadratures.detector_field_stats,
    )
    entry_points = (
        partial(phase_uncertainty, Strategy.single(), solid_params),
        lambda phi: sweep(solid_params, phi, ALL_STRATEGIES),
        optimal_weight,
        *(partial(fn, solid_params) for fn in per_phase),
        lambda phi: photostats.weighted_variance(solid_params, phi, 0.5),
        lambda phi: photostats.weighted_variance(solid_params, 0.5, phi),
        lambda phi: oracle.run(solid_params, phi, oracle.OracleConfig(n_samples=64)),
    )
    for bad in (math.nan, math.inf, -math.inf):
        for phi in (bad, [0.5, bad, 1.0], np.array([0.5, bad, 1.0])):
            for entry in entry_points:
                with pytest.raises(ParameterError, match="finite"):
                    entry(phi)
    with pytest.raises(ParameterError, match="1-D"):
        phase_uncertainty(Strategy.single(), solid_params, [[0.5, 1.0]])
    with pytest.raises(ParameterError, match="1-D"):
        oracle.run(solid_params, [[0.5, 1.0]], oracle.OracleConfig(n_samples=64))
    assert spawned == []


def test_overflowing_squeeze_factor_names_r1(monkeypatch):
    # e^(2 r1) overflows a float from r1 ~ 355 on; the oracle must refuse
    # before it draws anything
    spawned = []
    monkeypatch.setattr(oracle, "_spawn_streams", spawned.append)
    params = InterferometerParams(r1=360.0)
    entry_points = (
        partial(phase_uncertainty, Strategy.single(), params),
        partial(quadratures.detector_field_stats, params),
        lambda phi: oracle.run(params, phi, oracle.OracleConfig(n_samples=64)),
    )
    for entry in entry_points:
        with pytest.raises(ParameterError, match="r1 = 360.0 is too large"):
            entry(1.0)
    assert spawned == []


@pytest.mark.parametrize(
    "overrides, knob", [({"r2": 360.0}, "r2"), ({"mu": 1e-300}, "mu"), ({"eta": 1e-300}, "eta")]
)
def test_scale_edges_name_their_knob(monkeypatch, overrides, knob):
    # G^4 N overflows at r2 = 360 and underflows at mu or eta = 1e-300; every
    # entry point must refuse, and the oracle before it draws anything
    spawned = []
    monkeypatch.setattr(oracle, "_spawn_streams", spawned.append)
    params = InterferometerParams(**{"r1": 1.0, "r2": 0.5, "mu": 0.9, "eta": 0.9, **overrides})
    entry_points = (
        *(partial(phase_uncertainty, s, params) for s in ALL_STRATEGIES + (Strategy.suboptimal(0.5),)),
        partial(photostats.photon_stats, params),
        lambda phi: oracle.run(params, phi, oracle.OracleConfig(n_samples=64)),
    )
    for entry in entry_points:
        with pytest.raises(ParameterError, match=f"{knob} = {overrides[knob]!r}.* out of the normal float range"):
            entry(1.0)
    assert spawned == []


@pytest.mark.parametrize(
    "entry, overrides, message",
    [
        # mu eta underflows to 0
        (dphi_min, {"mu": 1e-200, "eta": 1e-200}, "mu = 1e-200 and eta = 1e-200 are too small"),
        *(
            (partial(phase_uncertainty, s, phi=1.0), {"mu": 1e-200, "eta": 1e-200}, "are too small")
            for s in ALL_STRATEGIES + (Strategy.suboptimal(0.5),)
        ),
        # eps^2 overflows
        (inefficiency, {"mu": 1e-300, "eta": 1e-10}, "eps\\^2 overflows"),
        # e^(2 r2) and e^(r2) overflow
        (partial(quadratures.detector_field_stats, phi=1.0), {"r2": 355.0}, "r2 = 355.0 is too large"),
        (photostats.transfer_gain, {"r2": 710.0}, "r2 = 710.0 is too large"),
        # A = N(g2 - 1) + 1 overflows: refused where it is formed, so the
        # width approximations that divide by sqrt(A) cannot read 0.0
        *(
            (entry, {"n_photons": 1e200, "g2": 1e200}, "A = N\\(g2 - 1\\) \\+ 1 overflows")
            for entry in (
                technical_noise_factor,
                k_factor,
                partial(fwhm_approx, Strategy.single()),
                partial(fwhm_approx, Strategy.differential()),
            )
        ),
    ],
)
def test_float_range_errors_name_their_knob(entry, overrides, message):
    with pytest.raises(ParameterError, match=message):
        entry(InterferometerParams(**overrides))


def test_underflowing_apriori_tolerance_names_its_knobs():
    # (e^(-2 r1) + eps^2)/(A + eps^2) = 5e-296/1e103 underflows to 0.0, which
    # made the tolerance, both widths and the single and differential fwhm
    # fields read 0.0 while dphi came back checked
    params = InterferometerParams(r1=340.0, n_photons=1e3, g2=1e100)
    message = r"r1 = 340.0, .*g2 = 1e\+100 put \(e\^\(-2 r1\) \+ eps\^2\)/\(A \+ eps\^2\) = 0.0 out"
    entry_points = (
        apriori_tolerance,
        partial(fwhm, Strategy.single()),
        partial(fwhm, Strategy.differential()),
        *(partial(phase_uncertainty, s, phi=1.0) for s in ALL_STRATEGIES[:2]),
        *(partial(sweep, phis=[0.5, 1.0], strategies=(s,)) for s in ALL_STRATEGIES[:2]),
    )
    for entry in entry_points:
        with pytest.raises(ParameterError, match=message):
            entry(params)
    # the flat strategy reads no width
    assert math.isfinite(phase_uncertainty(Strategy.optimal(), params, 1.0).dphi)


@pytest.mark.filterwarnings("error")
def test_overflowing_penalty_on_a_grid_warns_nothing():
    # K ~ 7e283 times tan^2(phi/2) ~ 2.7e32 at phi = pi overflows; the point
    # is divergent, so it reads inf, and its neighbours stay finite
    params = InterferometerParams(r1=4.16, r2=2.55, n_photons=958.6, g2=6.9e283)
    strategies = (Strategy.single(), Strategy.differential(), Strategy.suboptimal(0.5))
    for grid in sweep(params, [0.3, math.pi, 2.0], strategies):
        assert grid.divergent.tolist() == [False, True, False]
        assert grid.dphi[1] == math.inf
        assert np.isfinite(grid.dphi[[0, 2]]).all()
    # just off a divergent phase the product overflows too, and the point is
    # refused by name instead
    params = InterferometerParams(mu=1.29e-46, eta=0.786, n_photons=5.5e5, g2=8.6e299)
    for strategy in strategies:
        with pytest.raises(ParameterError, match=f"largest {strategy.kind.value} dphi"):
            sweep(params, [0.3, math.pi - 6.9e-8, 2.0], (strategy,))


def test_out_of_range_value_prints_as_a_float():
    # the refused value reads as a float, not as the numpy scalar a grid
    # reduction hands over
    params = InterferometerParams(mu=1.29e-46, eta=0.786, n_photons=5.5e5, g2=8.6e299)
    with pytest.raises(ParameterError) as refused:
        sweep(params, [0.3, math.pi - 6.9e-8, 2.0], (Strategy.single(),))
    assert str(refused.value) == (
        "r1 = 0.0, r2 = 0.0, mu = 1.29e-46, eta = 0.786, n_photons = 550000.0, g2 = 8.6e+299"
        " put largest single dphi = inf out of the normal float range"
    )


def test_bright_source_gives_finite_checked_results():
    # at G^4 N ~ 1e300 the Cauchy-Schwarz identity of the photocount moments,
    # which every strategy reads, squares a covariance: it must not overflow
    # while every moment is finite
    params = InterferometerParams(n_photons=1e300)
    stats = photostats.photon_stats(params, 1.0)
    assert all(math.isfinite(v) for v in stats.as_dict().values())
    strategies = ALL_STRATEGIES + (Strategy.suboptimal(0.5),)
    for strategy, grid in zip(strategies, sweep(params, [0.5, 1.0], strategies)):
        assert np.all(np.isfinite(grid.dphi))
        assert math.isfinite(phase_uncertainty(strategy, params, 1.0).dphi)


@st.composite
def wide_params(draw) -> InterferometerParams:
    """Parameter sets over the whole domain, far past where the float range
    ends: r1, r2 in [0, 400], mu and eta log-uniform in [1e-300, 1],
    n_photons log-uniform in [1e-3, 1e300] and g2 log-uniform in [1, 1e300]."""
    return InterferometerParams(
        r1=draw(st.floats(0.0, 400.0)),
        r2=draw(st.floats(0.0, 400.0)),
        mu=10.0 ** draw(st.floats(-300.0, 0.0)),
        eta=10.0 ** draw(st.floats(-300.0, 0.0)),
        n_photons=10.0 ** draw(st.floats(-3.0, 300.0)),
        g2=10.0 ** draw(st.floats(0.0, 300.0)),
    )


def _must_be_finite(out) -> np.ndarray:
    """The numbers in an entry point's result that must be finite: all of
    them but dphi and dphi/dphi_snl at a divergent phase."""
    if isinstance(out, float):
        return np.array([out])
    if isinstance(out, photostats.PhotonStats):
        return np.array(list(out.as_dict().values()))
    if isinstance(out, quadratures.QuadratureStats):
        return np.concatenate([out.mean.ravel(), out.cov.ravel()])
    parts = []
    for g in out if isinstance(out, list) else [out]:
        defined = ~np.atleast_1d(g.divergent)
        parts += [np.atleast_1d(g.dphi)[defined], np.atleast_1d(g.normalized)[defined]]
        parts += [g.k_opt, g.fwhm]
    return np.concatenate([np.ravel(np.asarray(p, dtype=float)) for p in parts if p is not None])


def _widths(out) -> list[float]:
    """The phase widths in an entry point's result: the fwhm of each result
    that has one."""
    if isinstance(out, sensitivity.SensitivityResult):
        out = [out]
    if isinstance(out, list):
        return [g.fwhm for g in out if g.fwhm is not None]
    return []


@settings(max_examples=400)
@given(wide_params(), phases, phases)
# dphi_min^2 = (e^(-2 r1) + eps^2)/N underflows
@example(InterferometerParams(r1=174.0, n_photons=1e211), 1.0, 2.0)
# G^4 is subnormal before N multiplies it
@example(InterferometerParams(eta=2e-157, n_photons=1e300), 1.0, 2.0)
# the floor is within 4x of the float maximum
@example(InterferometerParams(n_photons=5e307), 0.1, math.pi - 0.1)
# A = N(g2 - 1) + 1 overflows, which made both width approximations 0.0
@example(InterferometerParams(n_photons=1e200, g2=1e200), 1.0, 2.0)
# G^4 N < 1, but (A + eps^2)(cos phi - cos phi_apr)^2 overflows before it
# scales the weighted variance
@example(InterferometerParams(eta=1e-5, n_photons=1e8, g2=1e300), 0.0, 2.0)
# from r = float_info.max/2 on, 2 r is inf itself, and math.exp returns inf for
# e^(2 r2) and e^(2 r1) instead of raising
@example(InterferometerParams(r2=1e308), 1.0, 2.0)
@example(InterferometerParams(r1=1e308), 0.0, 2.0)
def test_wide_domain_gives_checked_values_or_parameter_errors(params, phi, phi2):
    # every entry point that takes params gives finite, cross-checked values
    # or a ParameterError: never a ConsistencyError, a raw arithmetic error
    # or nan; and every width is a positive normal float
    strategies = ALL_STRATEGIES + (Strategy.suboptimal(0.5),)
    widths = tuple(
        partial(width, s, params) for width in (fwhm, fwhm_approx) for s in ALL_STRATEGIES[:2]
    )
    entry_points = widths + (
        *(partial(phase_uncertainty, s, params, phi) for s in strategies),
        partial(sweep, params, [phi, phi2], strategies),
        partial(photostats.photon_stats, params, phi),
        partial(photostats.transfer_gain, params),
        partial(photostats.weighted_variance, params, phi, phi2),
        partial(quadratures.detector_field_stats, params, phi),
        partial(quadratures.detector_field_stats, params, phi, extended=True),
        partial(dphi_min, params),
        partial(snl, params.n_photons),
        partial(k_factor, params),
        partial(inefficiency, params),
        partial(technical_noise_factor, params),
        partial(apriori_tolerance, params),
        partial(small_deviation_dphi_squared, params, phi2 - phi),
    )
    for entry in entry_points:
        try:
            out = entry()
        except ParameterError:
            continue
        assert np.all(np.isfinite(_must_be_finite(out))), (entry, out)
        for width in [out] if entry in widths else _widths(out):
            assert sys.float_info.min <= width <= sys.float_info.max, (entry, width)


def test_output_gain_cancels_without_loss():
    # with mu = eta = 1 the output amplifiers touch signal and noise alike
    base = None
    for r2 in (0.0, 0.5, 2.0):
        params = InterferometerParams(r1=R1_10DB, r2=r2, n_photons=1e6)
        res = phase_uncertainty(Strategy.single(), params, 1.1)
        if base is None:
            base = res.dphi
        else:
            assert res.dphi == base


def test_floor_monotonic_in_squeezing_and_efficiency():
    floors_r1 = [
        dphi_min(InterferometerParams(r1=r1, n_photons=1e6)) for r1 in (0.0, 0.5, 1.0, 2.0)
    ]
    assert all(a > b for a, b in zip(floors_r1, floors_r1[1:]))
    floors_eta = [
        dphi_min(InterferometerParams(r1=1.0, eta=eta, n_photons=1e6))
        for eta in (1.0, 0.9, 0.6, 0.3)
    ]
    assert all(a < b for a, b in zip(floors_eta, floors_eta[1:]))


@settings(max_examples=150)
@given(interferometer_params(), phases)
def test_optimal_lower_bounds_every_strategy(params, phi):
    opt = phase_uncertainty(Strategy.optimal(), params, phi)
    assert opt.dphi == dphi_min(params)
    for strategy in (Strategy.single(), Strategy.differential(), Strategy.suboptimal(0.3)):
        assert phase_uncertainty(strategy, params, phi).dphi >= opt.dphi


def test_fwhm_reference_values(solid_params):
    # 4 arctan sqrt(0.1) for the single read-out at 10 dB, lossless
    width = fwhm(Strategy.single(), solid_params)
    assert math.isclose(width, 1.2251094766786779, rel_tol=1e-12)
    assert fwhm(Strategy.differential(), solid_params) == width / 2.0


def test_fwhm_of_unsqueezed_ideal_is_pi():
    params = InterferometerParams(n_photons=100.0)
    assert math.isclose(fwhm(Strategy.single(), params), math.pi, rel_tol=1e-12)


def test_fwhm_undefined_for_flat_strategies(solid_params):
    with pytest.raises(ValueError):
        fwhm(Strategy.optimal(), solid_params)
    with pytest.raises(ValueError):
        fwhm(Strategy.suboptimal(0.1), solid_params)
    with pytest.raises(ValueError):
        fwhm_approx(Strategy.optimal(), solid_params)


def test_fwhm_approx_accuracy(solid_params, dotted_params):
    # small-width regime: the approximation tracks the exact width to a few percent
    for params in (solid_params, dotted_params):
        for strategy in (Strategy.single(), Strategy.differential()):
            exact = fwhm(strategy, params)
            approx = fwhm_approx(strategy, params)
            assert abs(approx - exact) / exact < 0.05


def test_fwhm_approx_degrades_with_inefficiency(dashed_params):
    # eps^2 = 0.04 already pushes the small-width error past 5 percent
    exact = fwhm(Strategy.single(), dashed_params)
    approx = fwhm_approx(Strategy.single(), dashed_params)
    rel = abs(approx - exact) / exact
    assert 0.05 < rel < 0.08


def test_apriori_tolerance_reference(solid_params):
    assert math.isclose(apriori_tolerance(solid_params), math.sqrt(0.1), rel_tol=1e-12)
    # independent of the photon number
    small_n = InterferometerParams(r1=R1_10DB, n_photons=100.0)
    assert apriori_tolerance(small_n) == apriori_tolerance(solid_params)


def test_apriori_tolerance_doubles_the_variance(solid_params):
    tol = apriori_tolerance(solid_params)
    floor2 = dphi_min(solid_params) ** 2
    assert math.isclose(small_deviation_dphi_squared(solid_params, tol), 2.0 * floor2, rel_tol=1e-12)


def test_small_deviation_law_matches_exact_formula(dashed_params):
    # for small prior offsets the frozen-weight penalty K (cos phi - cos phi_apr)^2
    # / sin^2 phi reduces to K dphi_apr^2 regardless of phi
    phi = math.pi / 2.0
    for d in (1e-4, 1e-3, 1e-2):
        exact = phase_uncertainty(Strategy.suboptimal(phi + d), dashed_params, phi).dphi ** 2
        law = small_deviation_dphi_squared(dashed_params, d)
        assert math.isclose(exact, law, rel_tol=1e-4)
    with pytest.raises(ParameterError):
        small_deviation_dphi_squared(dashed_params, math.nan)
    # K dphi_apr^2 overflows
    with pytest.raises(ParameterError, match="dphi_min\\^2 \\+ K dphi_apr\\^2 at dphi_apr = 1e\\+200 = inf"):
        small_deviation_dphi_squared(dashed_params, 1e200)


def test_required_r2_reference_points():
    # lossless interior, eta = 1/2: e^{-2 r2} = target, so 1 percent needs r2 = ln 10
    assert math.isclose(required_r2(1.0, 0.5, 0.01), math.log(10.0), rel_tol=1e-12)
    # already met without amplification
    assert required_r2(1.0, 1.0, 0.0) == 0.0
    assert required_r2(1.0, 0.5, 100.0) == 0.0
    # internal loss sets a floor no output gain can beat
    assert required_r2(0.5, 0.9, 0.5) is None
    assert required_r2(0.9, 1.0, 0.01) is None
    with pytest.raises(ParameterError):
        required_r2(0.0, 0.5, 0.1)
    with pytest.raises(ParameterError):
        required_r2(0.5, 1.5, 0.1)
    with pytest.raises(ParameterError):
        required_r2(0.5, 0.5, -0.1)


@pytest.mark.parametrize("mu, eta, target", [(1.0, 0.5, 5e-324), (1.0, 1e-30, 1e-300)])
def test_required_r2_refuses_a_gain_past_the_float_range(mu, eta, target):
    # (target - floor) mu eta/(1 - eta) underflows to 0, whose log is no number
    message = f"mu = {mu!r}, eta = {eta!r} and target_eps2 = {target!r} need an output gain"
    with pytest.raises(ParameterError, match=message):
        required_r2(mu, eta, target)
    # a subnormal e^(-2 r2) still gives its gain, about 368 or 371
    reduction = target * 1e10 * mu * eta / (1.0 - eta)
    assert 0.0 < reduction < sys.float_info.min
    assert math.isclose(required_r2(mu, eta, target * 1e10), -0.5 * math.log(reduction))


@settings(max_examples=100)
@given(
    st.floats(0.3, 1.0),
    st.floats(0.3, 0.999),
    st.floats(1e-3, 10.0),
)
def test_required_r2_round_trip(mu, eta, extra):
    from sqzmzi.model import inefficiency

    target = (1.0 - mu) / mu + extra
    r2 = required_r2(mu, eta, target)
    assert r2 is not None
    achieved = inefficiency(InterferometerParams(r2=r2, mu=mu, eta=eta))
    if r2 > 0.0:
        assert math.isclose(achieved, target, rel_tol=1e-12)
    else:
        assert achieved <= target * (1.0 + 1e-12)


def test_implied_inefficiency_reference():
    # 7.2 dB of input squeezing observed to deliver only 3.2 dB of gain
    r1 = 7.2 * math.log(10.0) / 20.0
    eps2 = implied_inefficiency(r1, 3.2)
    assert math.isclose(eps2, 10.0 ** -0.32 - 10.0 ** -0.72, rel_tol=1e-12)
    assert math.isclose(eps2, 0.2880840205263135, rel_tol=1e-10)
    # a lossless measurement implies no inefficiency
    assert implied_inefficiency(r1, 7.2) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ParameterError):
        implied_inefficiency(0.0, 1.0)
    with pytest.raises(ParameterError):
        implied_inefficiency(-0.5, 1.0)
    with pytest.raises(ParameterError, match="gain_db must be finite"):
        implied_inefficiency(1.0, math.nan)
    # 10^(-gain_db/10) overflows
    with pytest.raises(ParameterError, match="gain_db = -10000.0 is too small"):
        implied_inefficiency(1.0, -10000.0)


@settings(max_examples=150)
@given(interferometer_params(), phases)
def test_closed_forms_survive_error_propagation(params, phi):
    # phase_uncertainty cross-checks every finite value against
    # sqrt(Var O)/|slope| internally; this exercises that check broadly
    for strategy in ALL_STRATEGIES + (Strategy.suboptimal(1.2),):
        res = phase_uncertainty(strategy, params, phi)
        assert res.dphi > 0.0


@settings(max_examples=100)
@given(
    interferometer_params(),
    st.lists(phases, min_size=1, max_size=20),
    st.sampled_from([0.0, math.pi, 1.2]),
)
def test_grid_matches_scalar_bit_for_bit(params, phis, phi_apr):
    # the singular phases of every strategy, one removable for phi_apr = 0
    phis = phis + [0.0, math.pi, 2.0 * math.pi, -math.pi]
    strategies = ALL_STRATEGIES + (Strategy.suboptimal(phi_apr),)
    # one sweep: every strategy reads the same photocount moments
    shared = sweep(params, phis, strategies)
    for strategy, swept in zip(strategies, shared):
        grid = phase_uncertainty(strategy, params, phis)
        for i, phi in enumerate(phis):
            # repr tells every float apart, -0.0 from 0.0 included
            scalar = repr(phase_uncertainty(strategy, params, phi))
            assert repr(grid.point(i)) == scalar
            assert repr(swept.point(i)) == scalar
        assert list(grid.divergent) == [math.isinf(d) for d in grid.dphi]


def test_sweep_answers_in_kind(solid_params):
    # at one phase a sweep gives every strategy's one-phase result
    strategies = ALL_STRATEGIES + (Strategy.suboptimal(0.5),)
    for phi in (1.0, math.pi, np.float64(0.0), np.array(2.0)):
        alone = [phase_uncertainty(s, solid_params, phi) for s in strategies]
        assert repr(sweep(solid_params, phi, strategies)) == repr(alone)
        assert {(type(r.phi), type(r.dphi), type(r.divergent)) for r in alone} == {(float, float, bool)}
    # over an empty grid every per-phase field is empty
    for strategy, res in zip(strategies, sweep(solid_params, [], strategies)):
        per_phase = [res.phi, res.dphi, res.normalized, res.divergent]
        if strategy.kind in (StrategyKind.OPTIMAL, StrategyKind.SUBOPTIMAL):
            per_phase.append(res.k_opt)
        assert [x.shape for x in per_phase] == [(0,)] * len(per_phase)
        assert repr(phase_uncertainty(strategy, solid_params, [])) == repr(res)


@pytest.mark.parametrize(
    "module, name",
    [(sensitivity, "dphi_min"), (photostats, "inefficiency")],
    ids=["error-propagation", "photocount-moments"],
)
@pytest.mark.parametrize(
    "strategy", ALL_STRATEGIES + (Strategy.suboptimal(1.0),), ids=lambda s: s.kind.value
)
def test_grid_cross_checks_are_live(monkeypatch, module, name, strategy):
    # one closed form off by 1e-8 relative must trip the grid's checks:
    # dphi_min feeds the strategy formulas but not the photocount route,
    # inefficiency feeds the photocount closed forms but not the quadratures
    params = InterferometerParams.with_technical_noise(
        2.0, r1=R1_10DB, r2=0.5, mu=0.95, eta=0.8, n_photons=1e6
    )
    grid = midpoint_grid(24)
    # this strategy first, then the other three, all on one photocount state
    shared = (strategy, *(s for s in ALL_STRATEGIES + (Strategy.suboptimal(1.0),) if s != strategy))
    phase_uncertainty(strategy, params, grid)
    sweep(params, grid, shared)
    exact = getattr(module, name)
    monkeypatch.setattr(module, name, lambda p: exact(p) * (1.0 + 1e-8))
    with pytest.raises(ConsistencyError) as alone:
        phase_uncertainty(strategy, params, grid)
    with pytest.raises(ConsistencyError) as among:
        sweep(params, grid, shared)
    assert str(among.value) == str(alone.value)
