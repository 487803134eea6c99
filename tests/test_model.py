"""Parameter types, dB conversions, and the loss/noise scalar factors."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import interferometer_params
from sqzmzi import (
    InterferometerParams,
    ParameterError,
    Strategy,
    StrategyKind,
    db_to_squeeze_factor,
    inefficiency,
    squeeze_factor_to_db,
    technical_noise_factor,
    validate,
)
from sqzmzi import oracle, sensitivity
from sqzmzi.model import Phase


def test_db_conversion_reference_points():
    assert db_to_squeeze_factor(0.0) == 0.0
    r10 = db_to_squeeze_factor(10.0)
    assert math.isclose(r10, 1.151292546497023, rel_tol=1e-12)
    assert math.isclose(math.exp(2.0 * r10), 10.0, rel_tol=1e-12)
    assert math.isclose(math.exp(2.0 * db_to_squeeze_factor(20.0)), 100.0, rel_tol=1e-12)
    # 3 dB is the common "variance halved" reference
    assert math.isclose(math.exp(-2.0 * db_to_squeeze_factor(3.0)), 10 ** -0.3, rel_tol=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_db_conversion_rejects_non_finite(bad):
    with pytest.raises(ParameterError):
        db_to_squeeze_factor(bad)
    with pytest.raises(ParameterError):
        squeeze_factor_to_db(bad)


@pytest.mark.parametrize("convert", [db_to_squeeze_factor, squeeze_factor_to_db])
@pytest.mark.parametrize("sign", [1, -1], ids=["positive", "negative"])
def test_db_conversion_refuses_an_overflowing_result(convert, sign):
    # 1e308 is finite, but its conversion is not
    with pytest.raises(ParameterError, match="is too large: its .* overflows"):
        convert(sign * 1e308)


@given(st.floats(min_value=-60.0, max_value=60.0))
def test_db_round_trip_is_faithful(db):
    back = squeeze_factor_to_db(db_to_squeeze_factor(db))
    assert abs(back - db) <= 1e-12 * max(1.0, abs(db))


@given(st.floats(min_value=-60.0, max_value=59.0), st.floats(min_value=1e-6, max_value=1.0))
def test_db_conversion_monotone(db, step):
    assert db_to_squeeze_factor(db + step) > db_to_squeeze_factor(db)


def test_technical_noise_factor_examples():
    coherent = InterferometerParams(n_photons=1e6, g2=1.0)
    assert technical_noise_factor(coherent) == 1.0
    noisy = InterferometerParams(n_photons=1e6, g2=1.0 + 1e-6)
    assert math.isclose(technical_noise_factor(noisy), 2.0, rel_tol=1e-9)
    small = InterferometerParams(n_photons=100.0, g2=1.01)
    assert math.isclose(technical_noise_factor(small), 2.0, rel_tol=1e-9)


@given(st.floats(min_value=1.0, max_value=1e9))
def test_coherent_light_has_unit_noise_factor(n):
    assert technical_noise_factor(InterferometerParams(n_photons=n, g2=1.0)) == 1.0


@given(st.floats(min_value=1.0, max_value=100.0), st.floats(min_value=2.0, max_value=9.0))
def test_with_technical_noise_round_trips(a, exponent):
    n = 10.0**exponent
    params = InterferometerParams.with_technical_noise(a, n_photons=n)
    # A is stored through g2 = 1 + (A-1)/N, so the round trip cannot beat the
    # float granularity of g2 near 1, which is N ulps on A
    granularity = 4.0 * n * math.ulp(1.0)
    assert abs(technical_noise_factor(params) - a) <= 1e-9 * a + granularity


def test_with_technical_noise_rejects_sub_coherent():
    with pytest.raises(ParameterError):
        InterferometerParams.with_technical_noise(0.5)
    with pytest.raises(ParameterError, match="n_photons must be > 0"):
        InterferometerParams.with_technical_noise(2.0, n_photons=0.0)
    # ints past the float range, which math.isfinite cannot convert
    with pytest.raises(ParameterError, match="technical noise factor must be >= 1"):
        InterferometerParams.with_technical_noise(10**400)
    with pytest.raises(ParameterError, match="n_photons must be > 0"):
        InterferometerParams.with_technical_noise(2.0, n_photons=10**400)
    # g2 = 1 + (A - 1)/N overflows at a subnormal N: the refusal names the
    # knobs the caller gave, not the g2 it never passed
    message = r"n_photons = 1e-310 is too small for A = 3.0: g2 = 1 \+ \(A - 1\)/N overflows"
    with pytest.raises(ParameterError, match=message):
        InterferometerParams.with_technical_noise(3.0, n_photons=1e-310)


def test_validation_messages_name_the_violation():
    with pytest.raises(ParameterError, match="internal transmissivity must be > 0"):
        InterferometerParams(mu=0.0)
    with pytest.raises(ParameterError, match="internal transmissivity must be <= 1"):
        InterferometerParams(mu=1.2)
    with pytest.raises(ParameterError, match="g2 must be >= 1"):
        InterferometerParams(g2=0.5)
    with pytest.raises(ParameterError, match="external transmissivity must be > 0"):
        InterferometerParams(eta=0.0)
    with pytest.raises(ParameterError, match="n_photons must be > 0"):
        InterferometerParams(n_photons=0.0)
    with pytest.raises(ParameterError, match="r1 must be >= 0"):
        InterferometerParams(r1=-0.1)
    with pytest.raises(ParameterError, match="finite"):
        InterferometerParams(n_photons=math.nan)


@pytest.mark.parametrize("value", [np.float32(0.5), True, False, "0.5"])
@pytest.mark.parametrize("name", ["r1", "r2", "mu", "eta", "n_photons", "g2"])
def test_knobs_are_ints_or_floats(name, value):
    # a bool is an int to Python, and a float32 converts, but neither is a
    # knob's value: the refusal names the type, not finiteness
    with pytest.raises(ParameterError, match=f"^{name} must be an int or float, got "):
        InterferometerParams(**{name: value})


@pytest.mark.parametrize("name", ["r1", "r2", "mu", "eta", "n_photons", "g2"])
def test_int_past_the_float_range_is_not_a_finite_number(name):
    with pytest.raises(ParameterError, match=f"{name} must be a finite number"):
        InterferometerParams(**{name: 10**400})
    # an int inside the range is a number like any other
    assert getattr(InterferometerParams(**{name: 1}), name) == 1


_PARAMS = InterferometerParams(r1=1.0, mu=0.9, eta=0.8)

# every public entry point that takes a number outside InterferometerParams,
# as a function of that number
_NUMBER_TAKERS = {
    "db_to_squeeze_factor": db_to_squeeze_factor,
    "squeeze_factor_to_db": squeeze_factor_to_db,
    "snl": sensitivity.snl,
    "implied_inefficiency-r1": lambda x: sensitivity.implied_inefficiency(x, 1.0),
    "implied_inefficiency-gain_db": lambda x: sensitivity.implied_inefficiency(1.0, x),
    "required_r2": lambda x: sensitivity.required_r2(0.5, 0.5, x),
    "Phase": Phase,
    "Phase-grid": lambda x: Phase([0.0, x]),
    "optimal_weight": sensitivity.optimal_weight,
    "Strategy.suboptimal": Strategy.suboptimal,
    "small_deviation_dphi_squared": lambda x: sensitivity.small_deviation_dphi_squared(_PARAMS, x),
    "sweep": lambda x: sensitivity.sweep(_PARAMS, [0.0, x], [Strategy.optimal()]),
    "phase_uncertainty": lambda x: sensitivity.phase_uncertainty(Strategy.optimal(), _PARAMS, x),
    "oracle.run": lambda x: oracle.run(_PARAMS, x, oracle.OracleConfig(64)),
    "linearization_error": lambda x: oracle.linearization_error(
        _PARAMS, 1.0, oracle.OracleConfig(64), (x,)
    ),
}


@pytest.mark.parametrize("call", _NUMBER_TAKERS.values(), ids=_NUMBER_TAKERS)
@pytest.mark.parametrize("sign", [1, -1], ids=["positive", "negative"])
def test_int_past_the_float_range_is_refused_as_inf_is(call, sign):
    # an int past the float range is no finite float, and raises no
    # OverflowError on its way to the check that refuses inf
    refusals = []
    for value in (sign * math.inf, sign * 10**400):
        with pytest.raises(ParameterError) as excinfo:
            call(value)
        refusals.append(str(excinfo.value).split(", got ")[0])
    assert refusals[0] == refusals[1]


# every public entry point that takes an int, as a function of that int
_INT_TAKERS = {
    **_NUMBER_TAKERS,
    **{
        f"InterferometerParams-{name}": lambda x, name=name: InterferometerParams(**{name: x})
        for name in ("r1", "r2", "mu", "eta", "n_photons", "g2")
    },
    "with_technical_noise": InterferometerParams.with_technical_noise,
    "with_technical_noise-n_photons": lambda x: InterferometerParams.with_technical_noise(
        2.0, n_photons=x
    ),
    "OracleConfig-n_samples": oracle.OracleConfig,
    "OracleConfig-seed": lambda x: oracle.OracleConfig(100, seed=x),
}


@pytest.mark.parametrize("call", _INT_TAKERS.values(), ids=_INT_TAKERS)
@pytest.mark.parametrize("sign", [1, -1], ids=["positive", "negative"])
def test_int_too_long_to_print_is_refused_in_words(call, sign):
    # CPython prints no int of more than 4300 digits (ValueError), so a
    # refusal names such an int in words instead of by its digits
    with pytest.raises(ParameterError, match="got an int past the float range"):
        call(sign * 10**5000)


def test_validation_reports_every_violation_at_once():
    with pytest.raises(ParameterError) as excinfo:
        InterferometerParams(mu=0.0, g2=0.5, eta=2.0)
    message = str(excinfo.value)
    assert "internal transmissivity must be > 0" in message
    assert "g2 must be >= 1" in message
    assert "external transmissivity must be <= 1" in message


def test_defaults_are_a_valid_ideal_instrument():
    params = InterferometerParams()
    validate(params)
    assert params.mu == params.eta == 1.0
    assert inefficiency(params) == 0.0
    assert params.alpha == math.sqrt(1e6)


def test_alpha_is_sqrt_of_photon_number():
    assert InterferometerParams(n_photons=4.0).alpha == 2.0


def test_inefficiency_reference_points():
    assert inefficiency(InterferometerParams()) == 0.0
    # pure external loss without amplification: (1 - eta)/eta
    assert math.isclose(inefficiency(InterferometerParams(eta=0.5)), 1.0, rel_tol=1e-12)
    # e^{2 r2} = 100, i.e. 20 dB of output amplification
    lossy = InterferometerParams(mu=0.99, eta=0.8, r2=0.5 * math.log(100.0))
    assert math.isclose(inefficiency(lossy), 0.012626262626262626, rel_tol=1e-9)


def test_inefficiency_monotone_in_each_knob():
    base = InterferometerParams(mu=0.9, eta=0.7, r2=0.3)
    assert inefficiency(InterferometerParams(mu=0.9, eta=0.7, r2=0.6)) < inefficiency(base)
    assert inefficiency(InterferometerParams(mu=0.95, eta=0.7, r2=0.3)) < inefficiency(base)
    assert inefficiency(InterferometerParams(mu=0.9, eta=0.8, r2=0.3)) < inefficiency(base)


def test_amplification_only_suppresses_external_loss():
    # with eta = 1 the inefficiency is pinned at the internal floor for any r2
    floor = (1.0 - 0.9) / 0.9
    for r2 in (0.0, 1.0, 5.0):
        assert math.isclose(
            inefficiency(InterferometerParams(mu=0.9, r2=r2)), floor, rel_tol=1e-12
        )


@given(interferometer_params())
def test_generated_params_are_self_consistent(params):
    validate(params)
    assert technical_noise_factor(params) >= 1.0 - 1e-9
    assert inefficiency(params) >= 0.0


def test_strategy_constructors():
    assert Strategy.single().kind is StrategyKind.SINGLE
    assert Strategy.differential().kind is StrategyKind.DIFFERENTIAL
    assert Strategy.optimal().phi_apr is None
    sub = Strategy.suboptimal(0.4)
    assert sub.kind is StrategyKind.SUBOPTIMAL and sub.phi_apr == 0.4


def test_strategy_phi_apr_rules():
    with pytest.raises(ParameterError):
        Strategy(StrategyKind.SUBOPTIMAL)  # missing phi_apr
    with pytest.raises(ParameterError):
        Strategy.suboptimal(math.nan)
    with pytest.raises(ParameterError):
        Strategy(StrategyKind.SINGLE, phi_apr=0.2)
