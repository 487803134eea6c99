"""The sweep renderers against a per-value statement of their output rules,
and their refusal of grids that do not share one phase grid."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import interferometer_params
from sqzmzi import cli
from sqzmzi.model import InterferometerParams, ParameterError, Strategy, StrategyKind
from sqzmzi.sensitivity import SensitivityResult


def _fmt(x: float) -> str:
    if math.isinf(x):
        return "inf"
    return f"{x:.12g}"


def _json_number(x: float) -> str:
    return repr(x) if math.isfinite(x) else '"inf"'


def _reference_rows(grids, fmt, row, missing):
    """Every number formatted on its own, phase-major, as the renderers did
    before they formatted each distinct value once."""
    rows = []
    for i, phi in enumerate(grids[0].phi.tolist()):
        for grid in grids:
            k_opt = missing if grid.k_opt is None else fmt(grid.k_opt.tolist()[i])
            rows.append(row % (fmt(phi), grid.strategy.kind.value, fmt(grid.dphi.tolist()[i]),
                               fmt(grid.normalized.tolist()[i]), k_opt))
    return rows


def reference_csv(grids):
    return "\n".join([cli.CSV_HEADER, *_reference_rows(grids, _fmt, "%s,%s,%s,%s,%s", "")]) + "\n"


def reference_json(grids):
    rows = _reference_rows(grids, _json_number, cli._JSON_ROW, "null")
    # json.dumps(rows, indent=2) writes an empty list on one line
    return "[\n" + ",\n".join(rows) + "\n]\n" if rows else "[]\n"


def _assert_renders_like_reference(grids):
    assert cli.render_csv(grids) == reference_csv(grids)
    assert cli.render_json(grids) == reference_json(grids)


SUBOPTIMAL = Strategy(StrategyKind.SUBOPTIMAL, 0.7)
STRATEGIES = (Strategy.single(), Strategy.differential(), Strategy.optimal(), SUBOPTIMAL)

# values on both sides of each switch to exponent notation (%.12g: 1e-4 and
# 1e12, which 999999999999.5 rounds up to; repr: 1e-4 and 1e16), signed zeros,
# subnormals and the non-finite values each format writes its own way
EDGES = [
    0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
    1e-4, 9.999999999999999e-05, 1e-5, -1e-5, 999999999999.4, 999999999999.5, -999999999999.5,
    1e12, 1e16, 9999999999999998.0, -1e16, 1.7976931348623157e308, 0.1, 1.0 / 3.0, -2.5,
]


def _synthetic(strategy, phi, dphi, normalized, k_opt):
    as_array = lambda values: np.array(values, dtype=np.float64)  # noqa: E731
    dphi = as_array(dphi)
    return SensitivityResult(
        strategy=strategy, phi=as_array(phi), dphi=dphi, normalized=as_array(normalized),
        divergent=np.isinf(dphi), k_opt=None if k_opt is None else as_array(k_opt),
    )


def _edge_grids(n):
    """One grid per strategy over the first ``n`` edge values, each column a
    different rotation of them; the weighted strategies carry a k_opt."""
    phi = [x if math.isfinite(x) else 1.0 for x in EDGES[:n]]
    rotated = lambda k: [EDGES[(i + k) % len(EDGES)] for i in range(n)]  # noqa: E731
    return [
        _synthetic(s, phi, rotated(3 * j), rotated(3 * j + 1),
                   rotated(3 * j + 2) if s.kind in (StrategyKind.OPTIMAL, StrategyKind.SUBOPTIMAL) else None)
        for j, s in enumerate(STRATEGIES)
    ]


@pytest.mark.parametrize("n", [0, 1, 2, len(EDGES)])
def test_edge_values_render_like_each_value_alone(n):
    _assert_renders_like_reference(_edge_grids(n))


def test_signed_zeros_in_one_column_keep_their_sign():
    grid = _synthetic(Strategy.optimal(), [-0.0, 0.0, -0.0], [0.0, -0.0, 0.0], [-0.0, -0.0, 0.0],
                      [0.0, 0.0, -0.0])
    _assert_renders_like_reference([grid])
    assert cli.render_csv([grid]).splitlines()[1:] == ["-0,optimal,0,-0,0", "0,optimal,-0,-0,0",
                                                       "-0,optimal,0,0,-0"]


def test_non_finite_rules_differ_between_formats():
    grid = _synthetic(Strategy.optimal(), [1.0, 2.0, 3.0], [math.inf, -math.inf, math.nan],
                      [math.nan, math.inf, -math.inf], [-math.inf, math.nan, math.inf])
    _assert_renders_like_reference([grid])
    assert cli.render_csv([grid]).splitlines()[1:] == ["1,optimal,inf,nan,inf", "2,optimal,inf,inf,nan",
                                                       "3,optimal,nan,inf,inf"]
    assert cli.render_json([grid]).count('"inf"') == 9


def test_constant_columns_and_missing_weights():
    n = 5
    grids = [
        _synthetic(Strategy.single(), range(n), [0.25] * n, [-0.0] * n, None),
        _synthetic(Strategy.optimal(), range(n), [1e-5] * n, [1e16] * n, [math.nan] * n),
        _synthetic(SUBOPTIMAL, range(n), [math.inf] * n, [999999999999.5] * n, [0.7] * n),
    ]
    _assert_renders_like_reference(grids)
    _assert_renders_like_reference(grids[:1])


@given(
    interferometer_params(),
    st.floats(min_value=-7.0, max_value=7.0),
    st.floats(min_value=1e-3, max_value=14.0),
    st.integers(min_value=2, max_value=800),
    st.lists(st.sampled_from(STRATEGIES), min_size=1, max_size=4, unique=True),
)
def test_sweeps_render_like_each_value_alone(params, phi_start, span, points, strategies):
    grids = cli.sweep(params, cli._grid(phi_start, phi_start + span, points), tuple(strategies))
    _assert_renders_like_reference(grids)


def _optimal_then_single(first, second):
    return [*cli.sweep(InterferometerParams(), first, (Strategy.optimal(),)),
            *cli.sweep(InterferometerParams(), second, (Strategy.single(),))]


@pytest.mark.parametrize("render", [cli.render_csv, cli.render_json])
@pytest.mark.parametrize(
    "grids",
    [
        pytest.param([], id="empty"),
        pytest.param(_optimal_then_single([1.1, 1.2], [0.1, 0.2, 0.3]), id="shorter-first"),
        pytest.param(_optimal_then_single([0.1, 0.2, 0.3], [1.1, 1.2]), id="longer-first"),
        pytest.param(_optimal_then_single([1.1, 1.2], [1.1, 1.3]), id="other-phases"),
        pytest.param(_optimal_then_single([0.0, 1.2], [-0.0, 1.2]), id="other-zero-sign"),
    ],
)
def test_renderers_refuse_grids_without_one_shared_phase_grid(render, grids):
    with pytest.raises(ParameterError, match="strategy grid|share one phase grid"):
        render(grids)


@pytest.mark.parametrize("render", [cli.render_csv, cli.render_json])
def test_renderers_refuse_one_phase_results(render):
    # a sweep at one phase answers with one-phase results, which have no rows
    results = cli.sweep(InterferometerParams(), 1.0, STRATEGIES)
    with pytest.raises(ParameterError, match="over a phase grid, not at one phase"):
        render(results)
    with pytest.raises(ParameterError, match="over a phase grid, not at one phase"):
        render([*cli.sweep(InterferometerParams(), [1.0], STRATEGIES[:1]), *results[1:]])


def test_empty_sweeps_render_only_the_header():
    grids = cli.sweep(InterferometerParams(), [], STRATEGIES)
    assert cli.render_csv(grids) == cli.CSV_HEADER + "\n"
    assert cli.render_json(grids) == json.dumps([], indent=2) + "\n"
    _assert_renders_like_reference(grids)
