"""Shared fixtures, hypothesis strategies, and the acceptance summary hook."""

from __future__ import annotations

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from sqzmzi import InterferometerParams, db_to_squeeze_factor, oracle
from sqzmzi.model import Phase
from sqzmzi.quadratures import VACUUM, _input_variances

# sandboxed CI boxes stall unpredictably; timing assertions stay explicit
settings.register_profile("package", deadline=None)
settings.load_profile("package")

R1_10DB = db_to_squeeze_factor(10.0)


@pytest.fixture
def solid_params() -> InterferometerParams:
    """10 dB input squeezing, lossless, coherent-level excess noise."""
    return InterferometerParams.with_technical_noise(1.0, r1=R1_10DB, n_photons=1e6)


@pytest.fixture
def dashed_params() -> InterferometerParams:
    """Same squeezing with external loss tuned to eps^2 = 0.04."""
    return InterferometerParams.with_technical_noise(1.0, r1=R1_10DB, eta=1.0 / 1.04, n_photons=1e6)


@pytest.fixture
def dotted_params() -> InterferometerParams:
    """Lossless but doubled excess photon-number noise (A = 2)."""
    return InterferometerParams.with_technical_noise(2.0, r1=R1_10DB, n_photons=1e6)


@st.composite
def interferometer_params(draw) -> InterferometerParams:
    """Valid parameter sets across the physically sensible ranges."""
    r1 = draw(st.floats(min_value=0.0, max_value=2.0))
    r2 = draw(st.floats(min_value=0.0, max_value=2.0))
    mu = draw(st.floats(min_value=0.05, max_value=1.0))
    eta = draw(st.floats(min_value=0.05, max_value=1.0))
    n_photons = 10.0 ** draw(st.floats(min_value=2.0, max_value=9.0))
    excess = draw(st.floats(min_value=1.0, max_value=50.0))
    return InterferometerParams.with_technical_noise(
        excess, r1=r1, r2=r2, mu=mu, eta=eta, n_photons=n_photons
    )


phases = st.floats(min_value=-7.0, max_value=7.0)


def mean_slope(params: InterferometerParams, phi: float) -> float:
    """d<N1>/dphi = -d<N2>/dphi = G^2 N sin(phi)/2 with G^2 = mu eta e^(2 r2),
    restated from the paper so the slope checks do not read it from sqzmzi."""
    gain2 = params.mu * params.eta * math.exp(2.0 * params.r2)
    return 0.5 * gain2 * params.n_photons * math.sin(phi)


def chain_state(params: InterferometerParams, phi: float):
    """(mean, cov, columns) of the detected quadratures (g1c, g1s, g2c, g2s)
    at one phase, from one sampling-free pass of the oracle's own chain.

    The chain is linear, so each of the 12 input channels, sent alone at its
    standard deviation (the loss vacuums times their loss amplitudes), gives
    one column of L, and cov = L L^T.  The chain carries the fluctuations
    alone, as the oracle's draws do; the means are the oracle's mean path,
    and the orthogonal pair (g1c, g2s) has none."""
    n = len(oracle.CHANNELS)
    variances = _input_variances(params) + (VACUUM,) * (n - 3)
    amplitudes = {"m": math.sqrt(1.0 - params.mu), "n": math.sqrt(1.0 - params.eta)}
    stds = [math.sqrt(v) * amplitudes.get(ch[0], 1.0) for ch, v in zip(oracle.CHANNELS, variances)]
    fields = oracle._split_inputs(dict(zip(oracle.CHANNELS, np.diag(stds))))
    columns = np.array(oracle._propagate(params, phi, fields, np.empty((oracle._CHAIN_ROWS, n))))
    mg1s, mg2c = oracle._mean_path(params, Phase(phi))
    mean = np.array([0.0, mg1s[0], mg2c[0], 0.0])
    return mean, columns @ columns.T, columns


def state_matrices(stats):
    """(mean, cov) of a detected state laid out as a vector and a matrix, over
    (g1s, g2c), or over chain_state's rows (g1c, g1s, g2c, g2s) for an
    extended state, whose orthogonal pair has zero means; over a grid the
    grid is the leading axis."""
    cross = stats.cov_g1s_g2c
    if stats.var_g1c is None:
        mean = [stats.mean_g1s, stats.mean_g2c]
        cov = [[stats.var_g1s, cross], [cross, stats.var_g2c]]
    else:
        zero, orth = np.zeros_like(cross), stats.cov_g1c_g2s
        mean = [zero, stats.mean_g1s, stats.mean_g2c, zero]
        cov = [
            [stats.var_g1c, zero, zero, orth],
            [zero, stats.var_g1s, cross, zero],
            [zero, cross, stats.var_g2c, zero],
            [orth, zero, zero, stats.var_g2s],
        ]
    return np.moveaxis(np.array(mean), 0, -1), np.moveaxis(np.array(cov), (0, 1), (-2, -1))


def core_state(params: InterferometerParams, phi: float):
    """:func:`chain_state` without the amplifiers and the external loss: at
    r2 = 0 and eta = 1 the detected quadratures are the recombining
    beamsplitter's outputs (e1c, e1s, e2c, e2s)."""
    return chain_state(replace(params, r2=0.0, eta=1.0), phi)


def midpoint_grid(n: int, span: float = 2.0 * math.pi) -> list[float]:
    """n phases strictly inside (0, span), avoiding the singular fringe points."""
    return [(i + 0.5) * span / n for i in range(n)]


_ACCEPTANCE_RE = re.compile(r"test_acceptance\.py::test_criterion_(\d+)_(\w+)")
_SEVERITY = {"passed": 1, "skipped": 2, "failed": 3, "error": 3}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion, printed after the run."""
    seen: dict[int, tuple[str, str]] = {}
    for status in ("passed", "skipped", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            nodeid = getattr(report, "nodeid", "")
            match = _ACCEPTANCE_RE.search(nodeid)
            if not match:
                continue
            if status == "passed" and getattr(report, "when", "call") != "call":
                continue
            num, slug = int(match.group(1)), match.group(2)
            if num not in seen or _SEVERITY[status] > _SEVERITY[seen[num][1]]:
                seen[num] = (slug, status)
    if not seen:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for num in sorted(seen):
        slug, status = seen[num]
        verdict = {"passed": "PASS", "skipped": "SKIPPED"}.get(status, "FAIL")
        terminalreporter.write_line(f"criterion {num} ({slug.replace('_', ' ')}): {verdict}")
