"""Linearized photocounting statistics of the two detectors.

For a bright interferometer the photon number of each detected mode splits as
N = <N> + <g> dg, with <N> = <g>^2/2 set by the mean field and the fluctuation
carried entirely by the measured quadrature.  All first and second moments of
N1, N2 and of the sum/difference combinations then follow from the quadrature
moments; :func:`photon_stats` evaluates them all in closed form, at once, and
every read-out of the package reads its observable from the
:class:`PhotonStats` it returns.  Every moment function takes its phase, a
finite float or 1-D grid (else ``ParameterError``), through
:class:`~sqzmzi.model.Phase` and answers in kind, elementwise over the grid (a
phase-independent moment stays a float).

Every second moment is computed twice: from the compact closed form and by
propagating the detector quadrature statistics, or from the per-detector
moments.  The two routes must agree to near machine precision; a
disagreement raises, since it can only mean an internal coding error.  Over a
grid each check runs once, on all its points.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from sys import float_info

import numpy as np

from .model import InterferometerParams, ParameterError, Phase, _require_normal, _shown
from .model import inefficiency, technical_noise_factor
from .quadratures import detector_field_stats

CONSISTENCY_RTOL = 1e-12

# tolerance for the structural identities enforced on construction; sample
# estimates satisfy them to roundoff when computed consistently
IDENTITY_RTOL = 1e-8


class ConsistencyError(RuntimeError):
    """Two independent internal computations of the same moment disagree."""


def _require_close(name: str, a, b, floor: float, rtol: float = CONSISTENCY_RTOL) -> None:
    """Raise :class:`ConsistencyError` unless |a - b| <= rtol max(|a|, |b|, floor).

    ``a`` and ``b`` are floats or arrays over one grid, compared point by
    point; the first point out of tolerance is reported.  The check fails
    closed: a point passes only where its difference is finite and within
    tolerance, so a nan or inf operand raises.
    """
    diff = abs(a - b)
    ok = (diff <= rtol * _largest(abs(a), abs(b), floor)) & (diff < math.inf)
    if not (ok.all() if isinstance(ok, np.ndarray) else ok):
        i = int(np.argmin(ok))
        a, b = (float(np.broadcast_to(v, np.shape(ok)).flat[i]) for v in (a, b))
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
        # in units of scale, so no square overflows where the moments do not
        cov, var1, var2 = self.cov_n1n2 / scale, self.var_n1 / scale, self.var_n2 / scale
        if _anywhere(cov * cov > var1 * var2 + IDENTITY_RTOL):
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
        return {name: getattr(self, name) for name in MOMENT_FIELDS}


MOMENT_FIELDS = tuple(f.name for f in fields(PhotonStats))


def transfer_gain(params: InterferometerParams) -> float:
    """Amplitude gain G = sqrt(mu eta) e^{r2} from the core to the detectors.

    Raises :class:`ParameterError` where mu eta underflows the normal float
    range or e^{r2} overflows."""
    mu, eta = params.mu, params.eta
    if mu * eta < float_info.min:
        raise ParameterError(
            f"mu = {_shown(mu)} and eta = {_shown(eta)} are too small: mu eta = {mu * eta!r} "
            "underflows the normal float range"
        )
    try:
        return math.sqrt(mu * eta) * math.exp(params.r2)
    except OverflowError:
        raise ParameterError(f"amplifier gain r2 = {_shown(params.r2)} is too large: e^(r2) overflows") from None


def _moment_ingredients(params: InterferometerParams) -> tuple:
    """(G^2 N, G^4 N, A, e^{-2 r1}, eps^2, floor): the units of the means and
    second moments, their factors, and the floor G^4 N (A + e^{-2 r1} + eps^2 + 1)
    of every moment check, which bounds every second moment.  No check scales
    one by more than 4, so :class:`ParameterError` is raised unless G^4, G^2 N,
    G^4 N and 4 floor are normal floats (e^{-2 r1} <= 1 only adds to A >= 1)."""
    try:
        g2 = transfer_gain(params) ** 2
    except OverflowError:
        g2 = math.inf
    excess = technical_noise_factor(params)
    squeezed = math.exp(-2.0 * params.r1)
    eps2 = inefficiency(params)
    mean, scale = g2 * params.n_photons, g2 * g2 * params.n_photons
    floor = scale * (excess + squeezed + eps2 + 1.0)
    _require_normal(params, ("G^4", g2 * g2), ("G^2 N", mean), ("G^4 N", scale),
                    ("4 G^4 N (A + e^(-2 r1) + eps^2 + 1)", 4.0 * floor))
    return mean, scale, excess, squeezed, eps2, floor


def photon_second_moments(params: InterferometerParams, phi) -> tuple:
    """(Var N1, Var N2, Cov(N1, N2)) of the two photocounts, from :func:`photon_stats`.

    Var N1 = G^4 N sin^2(phi/2) [e^{-2 r1} cos^2(phi/2) + A sin^2(phi/2) + eps^2]
    and symmetrically for N2; the cross covariance G^4 N (A - e^{-2 r1}) sin^2(phi)/4
    changes sign with the squeezing/excess-noise balance.
    """
    stats = photon_stats(params, phi)
    return stats.var_n1, stats.var_n2, stats.cov_n1n2


def photon_stats(params: InterferometerParams, phi) -> PhotonStats:
    """All closed-form photocounting moments at one working point, or over a
    1-D array of them.

    <N1>, <N2> = G^2 N (sin^2(phi/2), cos^2(phi/2)); <N+> = G^2 N is
    phase-independent and <N-> = -G^2 N cos(phi) carries the fringe.  The
    per-detector second moments are checked against the detector state,
    propagated once, and the sum/difference ones against them.
    """
    phase = Phase(phi)
    mean, scale, excess, squeezed, eps2, floor = _moment_ingredients(params)
    s, c, cs = phase.sin_half, phase.cos_half, phase.cos
    # every square is a product, which rounds alike on a float and a grid
    # (a float's ** 2 is C pow(), a grid's is x * x)
    s2, c2 = s * s, c * c
    v1 = scale * s2 * (squeezed * c2 + excess * s2 + eps2)
    v2 = scale * c2 * (squeezed * s2 + excess * c2 + eps2)
    c12 = scale * 0.25 * (excess - squeezed) * (phase.sin * phase.sin)

    # independent route: <N> = <g>^2/2, Var N = <g>^2 Var(dg), Cov likewise
    det = detector_field_stats(params, phase)
    m1, m2 = det.mean_of("g1s"), det.mean_of("g2c")
    _require_close("var_n1", v1, m1 * m1 * det.variance("g1s"), floor)
    _require_close("var_n2", v2, m2 * m2 * det.variance("g2c"), floor)
    _require_close("cov_n1n2", c12, m1 * m2 * det.covariance("g1s", "g2c"), floor)

    var_plus = scale * (excess + eps2)
    var_minus = scale * (squeezed * (phase.sin * phase.sin) + excess * cs * cs + eps2)
    cov_pm = -scale * (excess + eps2) * cs
    _require_close("var_nplus", var_plus, v1 + v2 + 2.0 * c12, floor)
    _require_close("var_nminus", var_minus, v1 + v2 - 2.0 * c12, floor)
    _require_close("cov_npm", cov_pm, v1 - v2, floor)
    return PhotonStats(
        mean_n1=mean * s * s,
        mean_n2=mean * c * c,
        var_n1=v1,
        var_n2=v2,
        cov_n1n2=c12,
        mean_nplus=mean,
        mean_nminus=-mean * cs,
        var_nplus=var_plus,
        var_nminus=var_minus,
        cov_npm=cov_pm,
    )


def weighted_variance(params: InterferometerParams, phi, phi_apr):
    """Variance of the weighted combination N_k = N- + k N+ with k = cos(phi_apr).

    Compact form G^4 N [(e^{-2 r1} + eps^2) sin^2(phi) + (A + eps^2)(cos(phi) -
    cos(phi_apr))^2]; the quadratic in (cos phi - cos phi_apr) is why freezing k
    at an a-priori phase costs only second order in the phase error.
    ``phi_apr`` is a float or, like ``phi``, an array over the grid.
    """
    phase = Phase(phi)
    return _weighted_variance(params, phase, Phase(phi_apr), photon_stats(params, phase))


def _weighted_variance(params: InterferometerParams, phase: Phase, apr: Phase, stats: PhotonStats):
    """:func:`weighted_variance` at ``phase`` from the moments ``stats`` held
    there, checked against its decomposition
    Var N- + 2k Cov(N+, N-) + k^2 Var N+."""
    _, scale, excess, squeezed, eps2, floor = _moment_ingredients(params)
    dcos = phase.cos - apr.cos
    compact = scale * (
        (squeezed + eps2) * (phase.sin * phase.sin) + (excess + eps2) * dcos * dcos
    )
    k = apr.cos
    decomposition = stats.var_nminus + 2.0 * k * stats.cov_npm + k * k * stats.var_nplus
    _require_close("weighted_variance", compact, decomposition, floor)
    return compact
