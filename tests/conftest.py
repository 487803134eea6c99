"""Shared fixtures, hypothesis strategies, and the acceptance summary hook."""

from __future__ import annotations

import math
import re

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from sqzmzi import InterferometerParams, db_to_squeeze_factor

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
