"""Monte-Carlo verification of the closed-form photocounting statistics.

Every input noise quadrature is sampled as an independent Gaussian and pushed
through the exact linear optical chain, step by step: input beamsplitter, arm
phases +/- phi/2, internal loss, recombining beamsplitter, phase-sensitive
amplification, external loss.  Photon numbers are then formed per sample and
their moments estimated empirically.

Two detection models are available.  Exact mode uses the full quadratic form
N = (g_c^2 + g_s^2 - 1)/2 per detector (the -1/2 subtracts the vacuum and
makes <N> the true photon number; switchable off).  Linearized mode keeps only
the term linear in the fluctuation, N = <g>^2/2 + <g> dg, which is the regime
the closed forms describe; in it the empirical moments must match them within
sampling error at any brightness.

Reproducibility contract: one PCG64 stream per input channel, spawned from
SeedSequence(seed) in the fixed CHANNELS order, samples drawn in batch order.
Results for a given (params, phi, config) are bit-identical across runs and
machines, independent of batching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import photostats
from .model import InterferometerParams, ParameterError, Phase, technical_noise_factor
from .quadratures import InputNoiseSpec

# the 12 independent Gaussian inputs; order fixes the RNG stream assignment
CHANNELS = (
    "a1c",
    "a1s",
    "z2c",
    "z2s",
    "m1c",
    "m1s",
    "m2c",
    "m2s",
    "n1c",
    "n1s",
    "n2c",
    "n2s",
)

N_BATCHES = 32
_CHUNK = 1 << 18


@dataclass(frozen=True)
class OracleConfig:
    """Sampling configuration of one oracle run."""

    n_samples: int
    seed: int = 0
    include_vacuum_offset: bool = True
    linearized_mode: bool = False

    def __post_init__(self) -> None:
        # the batch standard errors need at least 2 batches of at least 2
        # samples; with the batch edges run() uses, every n >= 4 gives that
        if not isinstance(self.n_samples, int) or self.n_samples < 4:
            raise ParameterError(f"n_samples must be an integer >= 4, got {self.n_samples!r}")
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise ParameterError(f"seed must be an integer in [0, 2^64), got {self.seed!r}")


@dataclass
class MomentReport:
    """Empirical photocounting moments against the closed forms.

    z_scores holds (empirical - closed_form)/standard_error per moment; a zero
    standard error with zero difference (degenerate but consistent moments,
    e.g. at an exact fringe null in linearized mode) reports z = 0; a non-finite
    empirical moment, closed form or standard error reports z = nan.
    """

    params: InterferometerParams
    phi: float
    config: OracleConfig
    empirical: photostats.PhotonStats
    closed_form: photostats.PhotonStats
    standard_errors: dict[str, float]
    z_scores: dict[str, float]

    def max_abs_z(self) -> float:
        return max((abs(z) for z in self.z_scores.values()), key=rank_abs_z)


def rank_abs_z(abs_z: float) -> tuple[bool, float]:
    """Sort key for |z| that ranks nan above every number, inf included, so a
    z-score that could not be computed is never passed over as small."""
    return (math.isnan(abs_z), abs_z)


def _channel_variances(noise: InputNoiseSpec) -> dict[str, float]:
    out = {ch: noise.vacuum for ch in CHANNELS}
    out["a1c"] = noise.var_a1c
    out["a1s"] = noise.var_a1s
    out["z2c"] = noise.var_z2c
    out["z2s"] = noise.var_z2s
    return out


def _spawn_streams(seed: int) -> dict[str, np.random.Generator]:
    children = np.random.SeedSequence(seed).spawn(len(CHANNELS))
    return {ch: np.random.default_rng(child) for ch, child in zip(CHANNELS, children)}


def _propagate(params: InterferometerParams, phi: float, fields: dict[str, object]):
    """Push the input quadratures through the chain; returns (g1c, g1s, g2c, g2s).

    ``fields`` maps channel name to array (or scalar, for the mean path).  The
    chain here is deliberately stepwise and elementary; it shares no algebra
    with the closed-form modules it is meant to check.
    """
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    alpha = params.alpha

    a1c, a1s = fields["a1c"], fields["a1s"]
    a2c = math.sqrt(2.0) * alpha + fields["z2c"]
    a2s = fields["z2s"]

    # symmetric input beamsplitter
    b1c = (a1c + a2c) * inv_sqrt2
    b1s = (a1s + a2s) * inv_sqrt2
    b2c = (a1c - a2c) * inv_sqrt2
    b2s = (a1s - a2s) * inv_sqrt2

    # opposite arm phases rotate each (c, s) pair by +/- phi/2
    ch, sh = math.cos(0.5 * phi), math.sin(0.5 * phi)
    c1c = b1c * ch - b1s * sh
    c1s = b1c * sh + b1s * ch
    c2c = b2c * ch + b2s * sh
    c2s = -b2c * sh + b2s * ch

    # internal loss admixes one vacuum per arm
    t, leak = math.sqrt(params.mu), math.sqrt(1.0 - params.mu)
    d1c = t * c1c + leak * fields["m1c"]
    d1s = t * c1s + leak * fields["m1s"]
    d2c = t * c2c + leak * fields["m2c"]
    d2s = t * c2s + leak * fields["m2s"]

    # symmetric recombining beamsplitter
    e1c = (d1c + d2c) * inv_sqrt2
    e1s = (d1s + d2s) * inv_sqrt2
    e2c = (d1c - d2c) * inv_sqrt2
    e2s = (d1s - d2s) * inv_sqrt2

    # phase-sensitive amplifiers stretch the measured quadrature of each port
    # (s on port 1, c on port 2) and squeeze the orthogonal one
    g = math.exp(params.r2)
    f1c, f1s = e1c / g, e1s * g
    f2c, f2s = e2c * g, e2s / g

    # external loss admixes one vacuum per detector
    te, le = math.sqrt(params.eta), math.sqrt(1.0 - params.eta)
    g1c = te * f1c + le * fields["n1c"]
    g1s = te * f1s + le * fields["n1s"]
    g2c = te * f2c + le * fields["n2c"]
    g2s = te * f2s + le * fields["n2s"]
    return g1c, g1s, g2c, g2s


def _sample_detector_quadratures(
    params: InterferometerParams,
    phi: float,
    noise: InputNoiseSpec,
    n: int,
    streams: dict[str, np.random.Generator],
):
    """Draw n chain outputs; yields (g1c, g1s, g2c, g2s) chunks."""
    variances = _channel_variances(noise)
    done = 0
    while done < n:
        m = min(_CHUNK, n - done)
        fields = {
            ch: streams[ch].standard_normal(m) * math.sqrt(variances[ch]) for ch in CHANNELS
        }
        yield _propagate(params, phi, fields)
        done += m


def _moments_of(n1: np.ndarray, n2: np.ndarray) -> dict[str, float]:
    """The ten photocounting moments of a sample block (ddof = 1)."""
    mean1 = float(n1.mean())
    mean2 = float(n2.mean())
    d1 = n1 - mean1
    d2 = n2 - mean2
    denom = n1.size - 1
    var1 = float(d1 @ d1) / denom
    var2 = float(d2 @ d2) / denom
    cov12 = float(d1 @ d2) / denom
    return {
        "mean_n1": mean1,
        "mean_n2": mean2,
        "var_n1": var1,
        "var_n2": var2,
        "cov_n1n2": cov12,
        "mean_nplus": mean1 + mean2,
        "mean_nminus": mean1 - mean2,
        # sample moments of n1 +/- n2 expand exactly into these combinations
        "var_nplus": var1 + var2 + 2.0 * cov12,
        "var_nminus": var1 + var2 - 2.0 * cov12,
        "cov_npm": var1 - var2,
    }


def run(params: InterferometerParams, phi: float, config: OracleConfig) -> MomentReport:
    """Sample the chain and compare empirical photocounting moments with the
    closed forms.

    Standard errors come from 32-batch batch means (n // 2 batches below 64
    samples).  A non-finite phi raises :class:`ParameterError` before any draw.
    """
    phase = Phase(phi)
    noise = InputNoiseSpec.from_params(params)
    n = config.n_samples
    streams = _spawn_streams(config.seed)

    if config.linearized_mode:
        zeros = {ch: 0.0 for ch in CHANNELS}
        _, mg1s, mg2c, _ = _propagate(params, phi, zeros)
    offset = 1.0 if config.include_vacuum_offset else 0.0

    n1 = np.empty(n)
    n2 = np.empty(n)
    done = 0
    for g1c, g1s, g2c, g2s in _sample_detector_quadratures(params, phi, noise, n, streams):
        m = g1s.size
        if config.linearized_mode:
            n1[done : done + m] = mg1s * g1s - 0.5 * mg1s * mg1s
            n2[done : done + m] = mg2c * g2c - 0.5 * mg2c * mg2c
        else:
            n1[done : done + m] = 0.5 * (g1c * g1c + g1s * g1s - offset)
            n2[done : done + m] = 0.5 * (g2c * g2c + g2s * g2s - offset)
        done += m

    moments = _moments_of(n1, n2)

    n_batches = min(N_BATCHES, n // 2)
    edges = np.linspace(0, n, n_batches + 1).astype(int)
    blocks = [_moments_of(n1[a:b], n2[a:b]) for a, b in zip(edges[:-1], edges[1:])]
    ses = {
        name: float(np.std([block[name] for block in blocks], ddof=1)) / math.sqrt(n_batches)
        for name in photostats.MOMENT_FIELDS
    }

    closed = photostats.photon_stats(params, phase)
    closed_dict = closed.as_dict()
    z = {}
    for name in photostats.MOMENT_FIELDS:
        diff = moments[name] - closed_dict[name]
        se = ses[name]
        if not all(map(math.isfinite, (moments[name], closed_dict[name], se))):
            z[name] = math.nan
        elif se == 0.0:
            z[name] = 0.0 if diff == 0.0 else math.copysign(math.inf, diff)
        else:
            z[name] = diff / se

    return MomentReport(
        params=params,
        phi=phi,
        config=config,
        empirical=photostats.PhotonStats(**moments),
        closed_form=closed,
        standard_errors=ses,
        z_scores=z,
    )


@dataclass(frozen=True)
class LinearizationPoint:
    """Relative deviation of the empirical moments from the closed forms at one
    brightness (moments whose closed form is zero report nan)."""

    alpha_sq: float
    relative_deviation: dict[str, float]
    relative_se: dict[str, float]


def linearization_error(
    params: InterferometerParams,
    phi: float,
    config: OracleConfig,
    alpha_grid: tuple[float, ...],
) -> list[LinearizationPoint]:
    """Deviation of the sampled moments from the closed forms across brightness.

    The excess-noise factor A is held fixed while N = alpha^2 varies (g2 is
    rescaled accordingly), so the closed forms change only through the photon
    number.  The same seed is reused at every grid point: identical noise
    draws make the deviations directly comparable across brightness.  In exact
    mode the relative deviations shrink as 1/alpha^2; in linearized mode they
    are pure sampling noise at any brightness.
    """
    if len(alpha_grid) == 0:
        raise ParameterError("alpha_grid must not be empty")
    if any(not (math.isfinite(a) and a > 0.0) for a in alpha_grid):
        raise ParameterError(f"alpha_grid entries must be > 0, got {alpha_grid!r}")
    if list(alpha_grid) != sorted(alpha_grid):
        raise ParameterError("alpha_grid must be ascending")
    excess = technical_noise_factor(params)
    out = []
    for alpha_sq in alpha_grid:
        scaled = replace(params, n_photons=alpha_sq, g2=1.0 + (excess - 1.0) / alpha_sq)
        report = run(scaled, phi, config)
        closed = report.closed_form.as_dict()
        emp = report.empirical.as_dict()
        dev = {}
        rse = {}
        for name in photostats.MOMENT_FIELDS:
            if closed[name] == 0.0:
                dev[name] = math.nan
                rse[name] = math.nan
            else:
                dev[name] = (emp[name] - closed[name]) / closed[name]
                rse[name] = report.standard_errors[name] / abs(closed[name])
        out.append(LinearizationPoint(alpha_sq, dev, rse))
    return out
