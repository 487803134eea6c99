"""Phase sensitivity of the read-out strategies.

Error propagation (Delta phi)^2 = Var(O)/(d<O>/dphi)^2 applied to the
photocounting observables gives, for every strategy, a floor plus a
working-point penalty:

    single        dphi_min^2 + K tan^2(phi/2)
    differential  dphi_min^2 + K cot^2(phi)
    optimal       dphi_min^2                      (flat in phi)
    suboptimal    dphi_min^2 + K (cos phi - cos phi_apr)^2 / sin^2 phi

with dphi_min^2 = (e^{-2 r1} + eps^2)/N and K = (A + eps^2)/N.  Every penalty
is elementwise in phi, so a whole grid of working points is evaluated in one
pass, and the closed forms are cross-checked against the error-propagation
route through the photocounting moments once per grid, at every point.  Every
observable O is a linear combination of the two photocounts, so one
:class:`~sqzmzi.photostats.PhotonStats` gives every strategy's Var O: a
:func:`sweep` evaluates the moments once and all its strategies read them.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from sys import float_info

import numpy as np

from . import photostats
from .model import (
    InterferometerParams,
    ParameterError,
    Phase,
    Strategy,
    StrategyKind,
    _per_phase,
    _require_normal,
    _shown,
    inefficiency,
    technical_noise_factor,
)

# re-exported: eps^2 belongs to the loss model but is mostly consumed here
__all__ = [
    "SensitivityResult",
    "snl",
    "dphi_min",
    "k_factor",
    "optimal_weight",
    "phase_uncertainty",
    "sweep",
    "fwhm",
    "fwhm_approx",
    "apriori_tolerance",
    "small_deviation_dphi_squared",
    "required_r2",
    "implied_inefficiency",
    "inefficiency",
]

# |sin| or |cos| below this counts as an exact singularity of a strategy formula
SINGULARITY_TOL = 1e-12

# closed form vs error propagation, relative
CROSSCHECK_RTOL = 1e-10


def snl(n_photons: float) -> float:
    """Shot-noise-limited phase uncertainty 1/sqrt(N) of an ideal MZI."""
    if not 0.0 < n_photons <= float_info.max:
        raise ParameterError(f"n_photons must be > 0, got {_shown(n_photons)}")
    return 1.0 / math.sqrt(n_photons)


def dphi_min(params: InterferometerParams) -> float:
    """Best attainable phase uncertainty sqrt((e^{-2 r1} + eps^2)/N)."""
    floor2 = (math.exp(-2.0 * params.r1) + inefficiency(params)) / params.n_photons
    _require_normal(params, ("dphi_min^2 = (e^(-2 r1) + eps^2)/N", floor2))
    return math.sqrt(floor2)


def k_factor(params: InterferometerParams) -> float:
    """Deterioration coefficient K = (A + eps^2)/N multiplying the working-point
    penalty of every non-optimal strategy."""
    k = (technical_noise_factor(params) + inefficiency(params)) / params.n_photons
    _require_normal(params, ("K = (A + eps^2)/N", k))
    return k


def optimal_weight(phi: float) -> float:
    """Variance-minimizing weight k = cos(phi) of the N- + k N+ combination.

    Equals -Cov(N+, N-)/Var(N+); the loss and noise factors cancel in the ratio,
    so the weight depends on the phase alone.
    """
    return Phase(phi).cos


@dataclass(frozen=True)
class SensitivityResult:
    """Phase uncertainty of one strategy at one working point or over a 1-D
    grid of them.

    ``phi``, ``dphi``, ``normalized``, ``divergent`` and, for the weighted
    strategies, ``k_opt`` are floats (``divergent`` a bool) at one phase and
    arrays over a grid, as in :class:`~sqzmzi.photostats.PhotonStats`; the
    other fields do not depend on the phase.  dphi is math.inf exactly where
    ``divergent`` marks a singular phase, and normalized = dphi/dphi_snl.
    ``diagnostic`` says why the strategy diverges: at one phase only if it
    does there, over a grid whether or not any of its phases is singular.
    fwhm is the width of the high-sensitivity region where defined (None for
    the flat strategies), k_opt the applied weight for the weighted strategies.
    A result holds only what depends on its strategy: the numbers that depend
    on the parameters alone come from :func:`dphi_min`, :func:`snl`,
    :func:`k_factor` and :func:`~sqzmzi.model.inefficiency`.
    """

    strategy: Strategy
    phi: float | np.ndarray
    dphi: float | np.ndarray
    normalized: float | np.ndarray
    divergent: bool | np.ndarray
    fwhm: float | None = None
    fwhm_lobes: int | None = None
    k_opt: float | np.ndarray | None = None
    diagnostic: str | None = None

    def point(self, i: int) -> SensitivityResult:
        """The result at the grid's ``i``-th phase."""
        return _result(
            self.strategy, self.phi[i], self.dphi[i], self.normalized[i], self.divergent[i],
            None if self.k_opt is None else self.k_opt[i],
            fwhm=self.fwhm, fwhm_lobes=self.fwhm_lobes, diagnostic=self.diagnostic,
        )


def _result(
    strategy, phi, dphi, normalized, divergent, k_opt, *, diagnostic, **constants
) -> SensitivityResult:
    """The one-phase :class:`SensitivityResult` from the per-phase values
    there and the phase-independent ``constants``."""
    return SensitivityResult(
        strategy=strategy,
        phi=float(phi),
        dphi=float(dphi),
        normalized=float(normalized),
        divergent=bool(divergent),
        k_opt=None if k_opt is None else float(k_opt),
        diagnostic=diagnostic if divergent else None,
        **constants,
    )


def _replace(values, where, fill):
    """``values`` with ``fill`` where ``where`` holds, for one phase or a
    grid; one phase stays clear of numpy's slower scalar dispatch."""
    if isinstance(values, np.ndarray) and values.ndim:
        return np.where(where, fill, values)
    return fill if where else values


def _constant(phi, value):
    """``value`` at every phase of ``phi``, one phase or a grid."""
    return np.full(phi.shape, value) if isinstance(phi, np.ndarray) else value


def _times_k(k: float, *factors):
    """K times the penalty ``factors``, multiplied left to right.  Where that
    overflows on a grid it is inf without numpy's warning: the point is then
    divergent, or the peak check of :func:`_evaluate` refuses it."""
    with np.errstate(over="ignore"):
        return functools.reduce(operator.mul, factors, k)


def _squared(x: float) -> float:
    # x ** 2 of a Python float is C pow(), which rounds differently from
    # numpy's x * x for about one argument in a thousand
    return float(x) ** 2


def sweep(
    params: InterferometerParams, phis, strategies: tuple[Strategy, ...]
) -> list[SensitivityResult]:
    """Phase uncertainty of each of ``strategies`` at ``phis``, one phase, a
    1-D sequence of phases or a :class:`Phase`: one :class:`Phase` and one
    :func:`~sqzmzi.photostats.photon_stats` there, which every strategy's
    evaluation reads (see :func:`_evaluate`)."""
    phase = Phase(phis)
    stats = photostats.photon_stats(params, phase)
    return [_evaluate(strategy, params, phase, stats) for strategy in strategies]


def phase_uncertainty(strategy: Strategy, params: InterferometerParams, phi) -> SensitivityResult:
    """Phase uncertainty of ``strategy`` at ``phi``, one phase or a 1-D grid of
    them: a one-strategy :func:`sweep`.  One phase is evaluated in
    Python-float arithmetic, which is faster for one point and gives the grid
    point's bits."""
    phase = Phase(phi)
    return _evaluate(strategy, params, phase, photostats.photon_stats(params, phase))


def _evaluate(
    strategy: Strategy, params: InterferometerParams, phase: Phase, stats: photostats.PhotonStats
) -> SensitivityResult:
    """The :class:`SensitivityResult` of ``strategy`` at ``phase``, one phase
    or a 1-D grid of them, where ``stats`` holds the photocount moments.

    The closed form is cross-checked against error propagation,
    sqrt(Var O)/|d<O>/dphi| of the strategy's photocount observable O, at every
    point where both are defined: not at the singular phases, and not where
    the slope vanishes (the ratio is 0/0 there while the closed form stays
    finite).  Var O is read from ``stats``: Var N1 (single), Var N-
    (differential) or Var(N- + k N+) (optimal and suboptimal, checked against
    its compact form); the moments in ``stats`` were checked when
    :func:`~sqzmzi.photostats.photon_stats` built them.
    """
    floor = dphi_min(params)
    floor2 = floor * floor
    k = k_factor(params)
    shot = snl(params.n_photons)
    kind = strategy.kind

    width = None
    lobes = None
    k_opt = None
    diagnostic = None

    if kind is StrategyKind.SINGLE:
        divergent = abs(phase.cos_half) <= SINGULARITY_TOL
        t = phase.tan_half
        dphi = np.sqrt(floor2 + _times_k(k, t, t))
        diagnostic = "single-detector read-out diverges at phi = pi (mod 2 pi): the fringe slope vanishes"
        width = fwhm(strategy, params)
        lobes = 1
        var_o = stats.var_n1
        slope = 0.5 * stats.mean_nplus * phase.sin
    else:
        slope = stats.mean_nplus * phase.sin
        if kind is StrategyKind.DIFFERENTIAL:
            s = phase.sin
            divergent = abs(s) <= SINGULARITY_TOL
            cot = phase.cos / _replace(s, divergent, 1.0)
            dphi = np.sqrt(floor2 + _times_k(k, cot, cot))
            diagnostic = "differential read-out diverges at phi = 0 and pi (mod pi): the fringe slope vanishes"
            width = fwhm(strategy, params)
            lobes = 2
            var_o = stats.var_nminus
        elif kind is StrategyKind.OPTIMAL:
            divergent = _constant(phase.phi, False)
            dphi = _constant(phase.phi, floor)
            k_opt = phase.cos
            var_o = photostats._weighted_variance(params, phase, phase, stats)
        elif kind is StrategyKind.SUBOPTIMAL:
            apr = Phase(strategy.phi_apr)
            s = phase.sin
            dcos = phase.cos - apr.cos
            k_opt = _constant(phase.phi, apr.cos)
            singular = abs(s) <= SINGULARITY_TOL
            # removable singularity: where cos(phi_apr) = cos(phi) the frozen
            # weight is exactly optimal
            removable = singular & (abs(dcos) <= SINGULARITY_TOL)
            divergent = singular & (abs(dcos) > SINGULARITY_TOL)
            penalty = _per_phase(_squared, dcos / _replace(s, singular, 1.0))
            dphi = _replace(np.sqrt(floor2 + _times_k(k, penalty)), removable, floor)
            diagnostic = (
                "suboptimal read-out diverges where sin(phi) = 0 unless "
                "cos(phi_apr) = cos(phi)"
            )
            var_o = photostats._weighted_variance(params, phase, apr, stats)
        else:  # pragma: no cover - exhaustive over StrategyKind
            raise ParameterError(f"unknown strategy kind {kind!r}")

    # a huge K times the penalty near a singular phase overflows dphi there
    peak = _replace(dphi, divergent, floor)
    # every dphi is at least the floor, which an empty grid's peak reads
    largest = peak.max(initial=floor) if isinstance(peak, np.ndarray) else peak
    _require_normal(params, (f"largest {kind.value} dphi", largest))
    # error propagation against the closed form where it applies, 0 vs 0 elsewhere
    unchecked = divergent | (abs(slope) <= 1e-9 * stats.mean_nplus)
    propagated = np.sqrt(var_o) / _replace(abs(slope), unchecked, 1.0)
    photostats._require_close(
        f"{kind.value} dphi, closed form vs error propagation",
        _replace(dphi, unchecked, 0.0),
        _replace(propagated, unchecked, 0.0),
        0.0,
        rtol=CROSSCHECK_RTOL,
    )
    dphi = _replace(dphi, divergent, math.inf)
    fields = dict(
        dphi=dphi,
        normalized=dphi / shot,
        divergent=divergent,
        fwhm=width,
        fwhm_lobes=lobes,
        k_opt=k_opt,
        diagnostic=diagnostic,
    )
    if isinstance(phase.phi, np.ndarray):
        return SensitivityResult(strategy=strategy, phi=phase.phi, **fields)
    return _result(strategy, phase.phi, **fields)


def fwhm(strategy: Strategy, params: InterferometerParams) -> float:
    """Width of the phase interval where (Delta phi)^2 stays within twice its
    minimum.

    Single: 4 arctan of :func:`apriori_tolerance`, i.e.
    4 arctan sqrt((e^{-2 r1} + eps^2)/(A + eps^2)), one lobe per 2 pi period
    centered on phi = 0.  Differential: exactly half that, but two lobes per
    period (centered on pi/2 and 3 pi/2), so the total usable phase range per
    period is the same.
    """
    if strategy.kind is StrategyKind.SINGLE:
        return 4.0 * math.atan(apriori_tolerance(params))
    if strategy.kind is StrategyKind.DIFFERENTIAL:
        return 2.0 * math.atan(apriori_tolerance(params))
    raise ValueError(
        "FWHM is defined only for the single-detector and differential "
        f"strategies; the {strategy.kind.value} read-out has a phase-independent "
        "uncertainty"
    )


def fwhm_approx(strategy: Strategy, params: InterferometerParams) -> float:
    """Small-width approximation of :func:`fwhm`: (4 or 2)/sqrt(A) times the
    sensitivity enhancement dphi_min/dphi_snl.  Accurate when eps^2 is small
    against A and the enhancement is strong.  Raises :class:`ParameterError`
    where the width leaves the normal float range."""
    if strategy.kind not in (StrategyKind.SINGLE, StrategyKind.DIFFERENTIAL):
        raise ValueError(
            "FWHM is defined only for the single-detector and differential strategies"
        )
    lead = 4.0 if strategy.kind is StrategyKind.SINGLE else 2.0
    enhancement = dphi_min(params) / snl(params.n_photons)
    width = lead / math.sqrt(technical_noise_factor(params)) * enhancement
    _require_normal(params, (f"the {strategy.kind.value} FWHM approximation", width))
    return width


def apriori_tolerance(params: InterferometerParams) -> float:
    """How far the a-priori phase may sit from the true phase before the frozen
    weight doubles (Delta phi)^2: sqrt((e^{-2 r1} + eps^2)/(A + eps^2)).

    Independent of N, and wider than the squeezing-enhanced uncertainty itself
    by a factor sqrt(N) dphi_min, so a previous coarse estimate suffices.
    Raises :class:`ParameterError` where the ratio under the root leaves the
    normal float range.
    """
    ratio = (math.exp(-2.0 * params.r1) + inefficiency(params)) / (
        technical_noise_factor(params) + inefficiency(params)
    )
    _require_normal(params, ("(e^(-2 r1) + eps^2)/(A + eps^2)", ratio))
    return math.sqrt(ratio)


def small_deviation_dphi_squared(params: InterferometerParams, dphi_apr: float) -> float:
    """(Delta phi)^2 predicted by the small-deviation law dphi_min^2 + K dphi_apr^2
    for a suboptimal weight frozen dphi_apr away from the true phase."""
    if not abs(dphi_apr) <= float_info.max:
        raise ParameterError(f"dphi_apr must be finite, got {_shown(dphi_apr)}")
    floor = dphi_min(params)
    law = floor * floor + k_factor(params) * dphi_apr * dphi_apr
    _require_normal(params, (f"dphi_min^2 + K dphi_apr^2 at dphi_apr = {_shown(dphi_apr)}", law))
    return law


def required_r2(mu: float, eta: float, target_eps2: float) -> float | None:
    """Output amplification needed to push eps^2 down to ``target_eps2``.

    Returns 0.0 when the target is already met without amplification, None when
    it is unattainable (below the internal-loss floor (1 - mu)/mu, which no
    amount of output gain can beat).
    """
    if not (0.0 < mu <= 1.0):
        raise ParameterError(f"internal transmissivity must be in (0, 1], got {_shown(mu)}")
    if not (0.0 < eta <= 1.0):
        raise ParameterError(f"external transmissivity must be in (0, 1], got {_shown(eta)}")
    if not 0.0 <= target_eps2 <= float_info.max:
        raise ParameterError(f"target eps^2 must be >= 0, got {_shown(target_eps2)}")
    floor = (1.0 - mu) / mu
    if eta == 1.0:
        return 0.0 if target_eps2 >= floor else None
    if target_eps2 <= floor:
        return None
    reduction = (target_eps2 - floor) * mu * eta / (1.0 - eta)
    if reduction == 0.0:
        raise ParameterError(
            f"mu = {_shown(mu)}, eta = {_shown(eta)} and target_eps2 = {_shown(target_eps2)} "
            "need an output gain past the float range: e^(-2 r2) = "
            "(target_eps2 - (1 - mu)/mu) mu eta/(1 - eta) underflows to 0"
        )
    return max(0.0, -0.5 * math.log(reduction))


def implied_inefficiency(r1: float, gain_db: float) -> float:
    """eps^2 implied by an observed sensitivity gain below the loss-free limit.

    A measured gain of ``gain_db`` dB (amplitude convention) with input squeezing
    r1 means e^{-2 r1} + eps^2 = 10^{-gain_db/10}; solves for eps^2.
    """
    if not 0.0 <= r1 <= float_info.max:
        raise ParameterError(f"r1 must be >= 0, got {_shown(r1)}")
    if not abs(gain_db) <= float_info.max:
        raise ParameterError(f"gain_db must be finite, got {_shown(gain_db)}")
    try:
        total = 10.0 ** (-gain_db / 10.0)
    except OverflowError:
        raise ParameterError(f"gain_db = {_shown(gain_db)} is too small: 10^(-gain_db/10) overflows") from None
    eps2 = total - math.exp(-2.0 * r1)
    if eps2 < 0.0:
        raise ParameterError(
            f"a gain of {gain_db} dB exceeds the loss-free limit for r1 = {r1}"
        )
    return eps2
