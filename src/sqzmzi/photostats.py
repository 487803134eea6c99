"""Linearized photocounting statistics of the two detectors.

For a bright interferometer the photon number of each detected mode splits as
N = <N> + <g> dg, with <N> = <g>^2/2 set by the mean field and the fluctuation
carried entirely by the measured quadrature.  All first and second moments of
N1, N2 and of the sum/difference combinations then follow from the quadrature
moments; this module provides them in closed form.  Every moment function
takes its phase, a finite float or 1-D grid (else ``ParameterError``), through
:class:`~sqzmzi.model.Phase` and answers in kind, elementwise over the grid (a
phase-independent moment stays a float).

Every second moment is computed twice: from the compact closed form and by
propagating the detector quadrature statistics.  The two routes must agree to
near machine precision; a disagreement raises, since it can only mean an
internal coding error.  Over a grid each check runs once, on all its points.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .model import InterferometerParams, Phase, inefficiency, technical_noise_factor
from .quadratures import InputNoiseSpec, core_output_means, detector_field_stats

CONSISTENCY_RTOL = 1e-12

MOMENT_FIELDS = (
    "mean_n1",
    "mean_n2",
    "var_n1",
    "var_n2",
    "cov_n1n2",
    "mean_nplus",
    "mean_nminus",
    "var_nplus",
    "var_nminus",
    "cov_npm",
)

# tolerance for the structural identities enforced on construction; sample
# estimates satisfy them to roundoff when computed consistently
IDENTITY_RTOL = 1e-8


class ConsistencyError(RuntimeError):
    """Two independent internal computations of the same moment disagree."""


def _require_close(name: str, a, b, floor: float, rtol: float = CONSISTENCY_RTOL) -> None:
    """Raise :class:`ConsistencyError` where |a - b| > rtol max(|a|, |b|, floor).

    ``a`` and ``b`` are floats or arrays over one grid, compared point by
    point; the first point out of tolerance is reported.  A comparison with
    nan is False, so nan passes.
    """
    bad = abs(a - b) > rtol * _largest(abs(a), abs(b), floor)
    if _anywhere(bad):
        i = int(np.argmax(bad))
        a, b = (float(np.broadcast_to(v, np.shape(bad)).flat[i]) for v in (a, b))
        raise ConsistencyError(f"{name}: {a!r} vs {b!r} differ beyond tolerance")


# The two helpers below let one comparison serve a float and a grid; on plain
# floats they stay in Python, where numpy's dispatch would cost more than the
# comparison itself.


def _largest(*values):
    """Elementwise maximum of floats and arrays over one grid."""
    for v in values:
        if isinstance(v, np.ndarray):
            return functools.reduce(np.maximum, values)
    return max(values)


def _anywhere(condition) -> bool:
    """Whether ``condition``, a bool or a boolean array over a grid, holds
    at any point."""
    return bool(condition.any()) if isinstance(condition, np.ndarray) else bool(condition)


@dataclass(frozen=True)
class PhotonStats:
    """First and second moments of the detected photon numbers.

    Carries N1, N2 moments plus the derived sum/difference combinations
    N+ = N1 + N2 and N- = N1 - N2 (cov_npm is Cov(N+, N-)).  Over a grid of
    phases the phase-dependent fields are arrays, and the identities below
    are checked at every point.
    """

    mean_n1: float
    mean_n2: float
    var_n1: float
    var_n2: float
    cov_n1n2: float
    mean_nplus: float
    mean_nminus: float
    var_nplus: float
    var_nminus: float
    cov_npm: float

    def __post_init__(self) -> None:
        scale = _largest(abs(self.var_n1), abs(self.var_n2), abs(self.cov_n1n2), 1.0)
        if _anywhere(self.var_n1 < -IDENTITY_RTOL * scale) or _anywhere(
            self.var_n2 < -IDENTITY_RTOL * scale
        ):
            raise ValueError("variances must be nonnegative")
        if _anywhere(self.cov_n1n2**2 > self.var_n1 * self.var_n2 + IDENTITY_RTOL * scale**2):
            raise ValueError("cov_n1n2 violates the Cauchy-Schwarz bound")
        mean_scale = _largest(abs(self.mean_n1), abs(self.mean_n2), 1.0)
        if _anywhere(abs(self.mean_nplus - (self.mean_n1 + self.mean_n2)) > IDENTITY_RTOL * mean_scale):
            raise ValueError("mean_nplus must equal mean_n1 + mean_n2")
        if _anywhere(abs(self.mean_nminus - (self.mean_n1 - self.mean_n2)) > IDENTITY_RTOL * mean_scale):
            raise ValueError("mean_nminus must equal mean_n1 - mean_n2")
        if _anywhere(
            abs(self.var_nplus + self.var_nminus - 2.0 * (self.var_n1 + self.var_n2))
            > IDENTITY_RTOL * scale
        ):
            raise ValueError("var_nplus + var_nminus must equal 2(var_n1 + var_n2)")
        if _anywhere(abs(self.cov_npm - (self.var_n1 - self.var_n2)) > IDENTITY_RTOL * scale):
            raise ValueError("cov_npm must equal var_n1 - var_n2")

    def as_dict(self) -> dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def transfer_gain(params: InterferometerParams) -> float:
    """Amplitude gain G = sqrt(mu eta) e^{r2} from the core to the detectors."""
    return math.sqrt(params.mu * params.eta) * math.exp(params.r2)


def _moment_ingredients(params: InterferometerParams) -> tuple[float, float, float, float]:
    g2 = transfer_gain(params) ** 2
    excess = technical_noise_factor(params)
    squeezed = math.exp(-2.0 * params.r1)
    eps2 = inefficiency(params)
    return g2, excess, squeezed, eps2


def photon_means(params: InterferometerParams, phi) -> tuple:
    """Mean photocounts (<N1>, <N2>) = G^2 N (sin^2(phi/2), cos^2(phi/2))."""
    phase = Phase(phi)
    g2 = transfer_gain(params) ** 2
    n = params.n_photons
    s, c = phase.sin_half, phase.cos_half
    return g2 * n * s * s, g2 * n * c * c


def photon_mean_slopes(params: InterferometerParams, phi) -> tuple:
    """Analytic derivatives (d<N1>/dphi, d<N2>/dphi) = +/- G^2 N sin(phi)/2."""
    half = 0.5 * transfer_gain(params) ** 2 * params.n_photons * Phase(phi).sin
    return half, -half


def photon_second_moments(params: InterferometerParams, phi) -> tuple:
    """(Var N1, Var N2, Cov(N1, N2)) of the two photocounts.

    Var N1 = G^4 N sin^2(phi/2) [e^{-2 r1} cos^2(phi/2) + A sin^2(phi/2) + eps^2]
    and symmetrically for N2; the cross covariance G^4 N (A - e^{-2 r1}) sin^2(phi)/4
    changes sign with the squeezing/excess-noise balance.
    """
    phase = Phase(phi)
    g2, excess, squeezed, eps2 = _moment_ingredients(params)
    n = params.n_photons
    s2 = phase.sin_half ** 2
    c2 = phase.cos_half ** 2
    scale = g2 * g2 * n
    var1 = scale * s2 * (squeezed * c2 + excess * s2 + eps2)
    var2 = scale * c2 * (squeezed * s2 + excess * c2 + eps2)
    cov = scale * 0.25 * (excess - squeezed) * phase.sin ** 2

    # independent route: <N> = <g>^2/2, Var N = <g>^2 Var(dg), Cov likewise
    det = detector_field_stats(params, phase)
    m1, m2 = det.mean_of("g1s"), det.mean_of("g2c")
    floor = scale * (excess + squeezed + eps2 + 1.0)
    _require_close("var_n1", var1, m1 * m1 * det.variance("g1s"), floor)
    _require_close("var_n2", var2, m2 * m2 * det.variance("g2c"), floor)
    _require_close("cov_n1n2", cov, m1 * m2 * det.covariance("g1s", "g2c"), floor)
    return var1, var2, cov


def sumdiff_stats(params: InterferometerParams, phi) -> tuple:
    """Moments of N+ = N1 + N2 and N- = N1 - N2.

    Returns (mean_nplus, mean_nminus, var_nplus, var_nminus, cov_npm).
    <N+> = G^2 N is phase-independent, <N-> = -G^2 N cos(phi) carries the fringe.
    """
    phase = Phase(phi)
    g2, excess, squeezed, eps2 = _moment_ingredients(params)
    n = params.n_photons
    cs = phase.cos
    scale = g2 * g2 * n
    mean_plus = g2 * n
    mean_minus = -g2 * n * cs
    var_plus = scale * (excess + eps2)
    var_minus = scale * (squeezed * phase.sin ** 2 + excess * cs * cs + eps2)
    cov_pm = -scale * (excess + eps2) * cs

    # independent route through the per-detector moments
    v1, v2, c12 = photon_second_moments(params, phase)
    floor = scale * (excess + squeezed + eps2 + 1.0)
    _require_close("var_nplus", var_plus, v1 + v2 + 2.0 * c12, floor)
    _require_close("var_nminus", var_minus, v1 + v2 - 2.0 * c12, floor)
    _require_close("cov_npm", cov_pm, v1 - v2, floor)
    return mean_plus, mean_minus, var_plus, var_minus, cov_pm


def sumdiff_mean_slopes(params: InterferometerParams, phi) -> tuple:
    """Analytic derivatives (d<N+>/dphi, d<N->/dphi) = (0, G^2 N sin(phi))."""
    return 0.0, transfer_gain(params) ** 2 * params.n_photons * Phase(phi).sin


def weighted_variance_terms(params: InterferometerParams, phi, phi_apr) -> tuple:
    """Addends of Var(N- + cos(phi_apr) N+): (Var N-, 2 cos(phi_apr) Cov(N+,N-),
    cos^2(phi_apr) Var N+).  ``phi_apr`` is a float or, like ``phi``, an array
    over the grid."""
    _, _, var_plus, var_minus, cov_pm = sumdiff_stats(params, phi)
    k = Phase(phi_apr).cos
    return var_minus, 2.0 * k * cov_pm, k * k * var_plus


def weighted_variance(params: InterferometerParams, phi, phi_apr):
    """Variance of the weighted combination N_k = N- + k N+ with k = cos(phi_apr).

    Compact form G^4 N [(e^{-2 r1} + eps^2) sin^2(phi) + (A + eps^2)(cos(phi) -
    cos(phi_apr))^2]; the quadratic in (cos phi - cos phi_apr) is why freezing k
    at an a-priori phase costs only second order in the phase error.
    """
    phase, apr = Phase(phi), Phase(phi_apr)
    g2, excess, squeezed, eps2 = _moment_ingredients(params)
    scale = g2 * g2 * params.n_photons
    dcos = phase.cos - apr.cos
    compact = scale * ((squeezed + eps2) * phase.sin ** 2 + (excess + eps2) * dcos * dcos)
    decomposition = sum(weighted_variance_terms(params, phase, apr))
    _require_close(
        "weighted_variance", compact, decomposition, scale * (excess + eps2 + 1.0)
    )
    return compact


def photon_stats(params: InterferometerParams, phi) -> PhotonStats:
    """All closed-form photocounting moments at one working point, or over a
    1-D array of them."""
    phase = Phase(phi)
    mean_n1, mean_n2 = photon_means(params, phase)
    var_n1, var_n2, cov_n1n2 = photon_second_moments(params, phase)
    mean_plus, mean_minus, var_plus, var_minus, cov_pm = sumdiff_stats(params, phase)
    return PhotonStats(
        mean_n1=mean_n1,
        mean_n2=mean_n2,
        var_n1=var_n1,
        var_n2=var_n2,
        cov_n1n2=cov_n1n2,
        mean_nplus=mean_plus,
        mean_nminus=mean_minus,
        var_nplus=var_plus,
        var_nminus=var_minus,
        cov_npm=cov_pm,
    )
