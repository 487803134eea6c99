"""The interferometer's closed forms, restated for checking the package.

Written from the formulas in PAPER.md and the sqzmzi module docstrings.  It
imports nothing from sqzmzi, so a fault in the package's algebra cannot cancel
out of a comparison against this module.

A parameter set is (r1, r2, mu, eta, N, g2) as in the package; the excess-noise
factor is A = N (g2 - 1) + 1, and a set given by A stores g2 = 1 + (A - 1)/N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

SINGLE = "single"
DIFFERENTIAL = "differential"
OPTIMAL = "optimal"
SUBOPTIMAL = "suboptimal"
STRATEGIES = (SINGLE, DIFFERENTIAL, OPTIMAL, SUBOPTIMAL)

MOMENTS = (
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


@dataclass(frozen=True)
class Params:
    r1: float = 0.0
    r2: float = 0.0
    mu: float = 1.0
    eta: float = 1.0
    n_photons: float = 1e6
    g2: float = 1.0

    @classmethod
    def with_excess(cls, a: float, *, n_photons: float, **kw: float) -> "Params":
        return cls(n_photons=n_photons, g2=1.0 + (a - 1.0) / n_photons, **kw)


def r_from_db(db: float) -> float:
    """Squeeze factor r of a squeezing of db dB, variance convention 10 log10 e^(2r)."""
    return db * math.log(10.0) / 20.0


def db_from_r(r: float) -> float:
    return 20.0 * r / math.log(10.0)


def excess(p: Params) -> float:
    """A = N (g2 - 1) + 1."""
    return p.n_photons * (p.g2 - 1.0) + 1.0


def eps2_of(mu: float, eta: float, r2: float) -> float:
    """eps^2 = (1 - mu)/mu + (1 - eta)/(mu eta) e^(-2 r2)."""
    return (1.0 - mu) / mu + (1.0 - eta) / (mu * eta) * math.exp(-2.0 * r2)


def eps2(p: Params) -> float:
    return eps2_of(p.mu, p.eta, p.r2)


def snl(p: Params) -> float:
    return 1.0 / math.sqrt(p.n_photons)


def floor_sum(p: Params) -> float:
    """e^(-2 r1) + eps^2, the squeezed noise plus the inefficiency."""
    return math.exp(-2.0 * p.r1) + eps2(p)


def dphi_min(p: Params) -> float:
    """sqrt((e^(-2 r1) + eps^2)/N)."""
    return math.sqrt(floor_sum(p) / p.n_photons)


def k_factor(p: Params) -> float:
    """K = (A + eps^2)/N."""
    return (excess(p) + eps2(p)) / p.n_photons


def penalty(strategy: str, phi: float, phi_apr: float | None = None) -> float:
    """Working-point penalty multiplying K; inf where the slope vanishes exactly.

    single tan^2(phi/2), differential cot^2(phi), optimal 0,
    suboptimal (cos phi - cos phi_apr)^2 / sin^2 phi.
    """
    if strategy == OPTIMAL:
        return 0.0
    if strategy == SINGLE:
        c = math.cos(phi / 2.0)
        return math.inf if c == 0.0 else (math.sin(phi / 2.0) / c) ** 2
    s = math.sin(phi)
    if strategy == DIFFERENTIAL:
        return math.inf if s == 0.0 else (math.cos(phi) / s) ** 2
    if strategy == SUBOPTIMAL:
        d = math.cos(phi) - math.cos(phi_apr)
        return math.inf if s == 0.0 else (d / s) ** 2
    raise ValueError(f"unknown strategy {strategy!r}")


def dphi(strategy: str, p: Params, phi: float, phi_apr: float | None = None) -> float:
    """sqrt(dphi_min^2 + K * penalty)."""
    pen = penalty(strategy, phi, phi_apr)
    if math.isinf(pen):
        return math.inf
    return math.sqrt(floor_sum(p) / p.n_photons + k_factor(p) * pen)


def weight(strategy: str, phi: float, phi_apr: float | None = None) -> float | None:
    """Weight k of N- + k N+: cos phi (optimal), cos phi_apr (suboptimal), else None."""
    if strategy == OPTIMAL:
        return math.cos(phi)
    if strategy == SUBOPTIMAL:
        return math.cos(phi_apr)
    return None


def singular_on_grid(strategy: str, phase_over_pi: Fraction, phi_apr: float | None = None) -> bool:
    """Whether a strategy diverges at the exact phase phase_over_pi * pi.

    Single diverges at odd multiples of pi; differential at every multiple of
    pi; suboptimal there too, unless cos phi_apr equals cos phi (a removable
    singularity where the frozen weight is exactly optimal).
    """
    if phase_over_pi.denominator != 1:
        return False
    k = phase_over_pi.numerator
    if strategy == SINGLE:
        return k % 2 == 1
    if strategy == DIFFERENTIAL:
        return True
    if strategy == SUBOPTIMAL:
        return math.cos(phi_apr) != (1.0 if k % 2 == 0 else -1.0)
    return False


def fwhm(strategy: str, p: Params) -> float:
    """Single: 4 atan sqrt((e^(-2 r1) + eps^2)/(A + eps^2)); differential: half that."""
    lead = {SINGLE: 4.0, DIFFERENTIAL: 2.0}[strategy]
    return lead * math.atan(apriori_tolerance(p))


def fwhm_approx(strategy: str, p: Params) -> float:
    """(4 or 2)/sqrt(A) times dphi_min/dphi_snl."""
    lead = {SINGLE: 4.0, DIFFERENTIAL: 2.0}[strategy]
    return lead / math.sqrt(excess(p)) * dphi_min(p) / snl(p)


def apriori_tolerance(p: Params) -> float:
    return math.sqrt(floor_sum(p) / (excess(p) + eps2(p)))


def sensitivity_gain_db(p: Params) -> float:
    """-20 log10(dphi_min/dphi_snl) = -10 log10(e^(-2 r1) + eps^2)."""
    return -10.0 * math.log10(floor_sum(p))


def implied_eps2(r1: float, gain_db: float) -> float:
    """eps^2 that makes e^(-2 r1) + eps^2 = 10^(-gain_db/10)."""
    return 10.0 ** (-gain_db / 10.0) - math.exp(-2.0 * r1)


def report(p: Params, implied_gain_db: float) -> dict[str, float]:
    """Every field of `sqzmzi report --format json --implied-gain-db g`."""
    return {
        "r1": p.r1,
        "r1_db": db_from_r(p.r1),
        "r2": p.r2,
        "r2_db": db_from_r(p.r2),
        "mu": p.mu,
        "eta": p.eta,
        "n_photons": p.n_photons,
        "g2": p.g2,
        "technical_noise_factor": excess(p),
        "eps2": eps2(p),
        "dphi_snl": snl(p),
        "dphi_min": dphi_min(p),
        "dphi_min_normalized": dphi_min(p) / snl(p),
        "sensitivity_gain_db": sensitivity_gain_db(p),
        "k_factor": k_factor(p),
        "fwhm_single": fwhm(SINGLE, p),
        "fwhm_single_approx": fwhm_approx(SINGLE, p),
        "fwhm_differential": fwhm(DIFFERENTIAL, p),
        "fwhm_differential_approx": fwhm_approx(DIFFERENTIAL, p),
        "apriori_tolerance": apriori_tolerance(p),
        "implied_eps2": implied_eps2(p.r1, implied_gain_db),
    }


def moments(p: Params, phi: float) -> dict[str, float]:
    """Linearized photocount moments, G^2 = mu eta e^(2 r2).

    Per detector: <N1> = G^2 N sin^2(phi/2), <N2> = G^2 N cos^2(phi/2),
    Var N1 = G^4 N s^2 (e^(-2 r1) c^2 + A s^2 + eps^2) and symmetrically,
    Cov(N1, N2) = G^4 N (A - e^(-2 r1)) sin^2(phi)/4.  Sum and difference:
    <N+> = G^2 N, <N-> = -G^2 N cos phi, Var N+ = G^4 N (A + eps^2),
    Var N- = G^4 N (e^(-2 r1) sin^2 phi + A cos^2 phi + eps^2),
    Cov(N+, N-) = -G^4 N (A + eps^2) cos phi.
    """
    g2n = p.mu * p.eta * math.exp(2.0 * p.r2) * p.n_photons
    g4n = g2n * p.mu * p.eta * math.exp(2.0 * p.r2)
    a, e, sq = excess(p), eps2(p), math.exp(-2.0 * p.r1)
    s2, c2 = math.sin(phi / 2.0) ** 2, math.cos(phi / 2.0) ** 2
    return {
        "mean_n1": g2n * s2,
        "mean_n2": g2n * c2,
        "var_n1": g4n * s2 * (sq * c2 + a * s2 + e),
        "var_n2": g4n * c2 * (sq * s2 + a * c2 + e),
        "cov_n1n2": g4n * (a - sq) * math.sin(phi) ** 2 / 4.0,
        "mean_nplus": g2n,
        "mean_nminus": -g2n * math.cos(phi),
        "var_nplus": g4n * (a + e),
        "var_nminus": g4n * (sq * math.sin(phi) ** 2 + a * math.cos(phi) ** 2 + e),
        "cov_npm": -g4n * (a + e) * math.cos(phi),
    }


def gaussian_standard_errors(m: dict[str, float], n: int) -> dict[str, float]:
    """Standard errors of the sample moments of n jointly Gaussian (N1, N2) pairs.

    Mean sqrt(var/n); variance var sqrt(2/(n-1)); covariance
    sqrt((var_a var_b + cov^2)/(n-1)).
    """

    def cov_se(va: float, vb: float, c: float) -> float:
        return math.sqrt((va * vb + c * c) / (n - 1))

    return {
        "mean_n1": math.sqrt(m["var_n1"] / n),
        "mean_n2": math.sqrt(m["var_n2"] / n),
        "var_n1": m["var_n1"] * math.sqrt(2.0 / (n - 1)),
        "var_n2": m["var_n2"] * math.sqrt(2.0 / (n - 1)),
        "cov_n1n2": cov_se(m["var_n1"], m["var_n2"], m["cov_n1n2"]),
        "mean_nplus": math.sqrt(m["var_nplus"] / n),
        "mean_nminus": math.sqrt(m["var_nminus"] / n),
        "var_nplus": m["var_nplus"] * math.sqrt(2.0 / (n - 1)),
        "var_nminus": m["var_nminus"] * math.sqrt(2.0 / (n - 1)),
        "cov_npm": cov_se(m["var_nplus"], m["var_nminus"], m["cov_npm"]),
    }


def required_r2(mu: float, eta: float, target_eps2: float) -> float | None:
    """Output gain r2 >= 0 that brings eps^2 down to target_eps2.

    None when the target lies at or below the internal-loss floor (1 - mu)/mu
    (unless eta = 1 and the floor already meets it), 0 when no gain is needed.
    """
    floor = (1.0 - mu) / mu
    if eta == 1.0:
        return 0.0 if target_eps2 >= floor else None
    if target_eps2 <= floor:
        return None
    return max(0.0, -0.5 * math.log((target_eps2 - floor) * mu * eta / (1.0 - eta)))
