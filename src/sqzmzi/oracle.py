"""Monte-Carlo verification of the closed-form photocounting statistics.

Every input noise quadrature is sampled as an independent Gaussian and pushed
through the exact linear optical chain, step by step: input beamsplitter, arm
phases +/- phi/2, internal loss, recombining beamsplitter, phase-sensitive
amplification, external loss.  Photon numbers are then formed per sample and
their moments estimated empirically.

Two detection models are available.  Exact mode uses the full quadratic form
N = (g_c^2 + g_s^2 - 1)/2 per detector (the -1/2 subtracts the vacuum and
makes <N> the true photon number).  Linearized mode keeps only
the term linear in the fluctuation, N = <g>^2/2 + <g> dg, which is the regime
the closed forms describe; in it the empirical moments must match them within
sampling error at any brightness, and the chain builds only the measured pair
(g1s, g2c) those photon numbers read.

Reproducibility contract: one PCG64 stream per input channel, spawned from
SeedSequence(seed) in the fixed CHANNELS order, samples drawn in batch order.
Results for a given (params, phi, config) are bit-identical across runs and
machines, independent of batching, of the other phases of a grid and of the
calls made before.

A call of :func:`run` over a phase grid (or of :func:`linearization_error`
over a brightness grid) owns its draws and buffers.  The loss vacuums are
scaled by their loss amplitudes sqrt(1 - mu) and sqrt(1 - eta) when drawn, so
the draws depend on (input variances, mu, eta) but not on phi: when n <= _CHUNK
the call draws one read-only set and its points share it, drawing again only
where a point's (input variances, mu, eta) differs from the previous one's;
larger runs draw _CHUNK samples at a time at every point.  The draws go
through the chain in blocks of _BLOCK samples: each step writes into one of
_CHAIN_ROWS block-sized buffers, and each block's photon numbers go straight
into the sample arrays n1 and n2, allocated once per call.  The steps are
elementwise, so neither the blocks, nor the in-place writes, nor scaling the
vacuums at draw time change an output bit.  Nothing is kept after a call returns and nothing is
shared between calls, so calls from several threads at once are independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import photostats
from .model import InterferometerParams, ParameterError, Phase, technical_noise_factor
from .quadratures import VACUUM, _input_variances

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
_BLOCK = 1 << 13
# block-sized scratch arrays _propagate works in
_CHAIN_ROWS = 6


@dataclass(frozen=True)
class OracleConfig:
    """Sampling configuration of one oracle run."""

    n_samples: int
    seed: int = 0
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


def _spawn_streams(seed: int) -> dict[str, np.random.Generator]:
    children = np.random.SeedSequence(seed).spawn(len(CHANNELS))
    return {ch: np.random.default_rng(child) for ch, child in zip(CHANNELS, children)}


def _mix(x, a: float, y, b: float, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """out = x*a + y*b, elementwise; out may be x (not y), tmp may be y (not out)."""
    np.multiply(x, a, out=out)
    np.multiply(y, b, out=tmp)
    return np.add(out, tmp, out=out)


def _beamsplit(x, y, plus: np.ndarray, minus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x + y)/sqrt2 into plus and (x - y)/sqrt2 into minus, each a sum (or
    difference) followed by a product; minus may be x or y, plus neither."""
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    np.multiply(np.add(x, y, out=plus), inv_sqrt2, out=plus)
    np.multiply(np.subtract(x, y, out=minus), inv_sqrt2, out=minus)
    return plus, minus


def _propagate(
    params: InterferometerParams,
    phi: float,
    fields: dict[str, np.ndarray],
    buf,
    measured_only: bool = False,
):
    """Push the input quadratures through the chain; returns (g1c, g1s, g2c, g2s).

    ``fields`` maps channel name to a sample array, its loss vacuums (m*, n*)
    already scaled by their loss amplitudes (see :func:`_scaled_draws`), and
    ``buf`` is a sequence of _CHAIN_ROWS scratch arrays of the same length:
    every step writes into them, and the quadratures returned are among them.
    With ``measured_only`` only the measured pair (g1s, g2c) is built, which
    is all linearized photon numbers read, and g1c and g2s are None.  The
    chain here is deliberately stepwise and elementary; it shares no algebra
    with the closed-form modules it is meant to check.
    """
    alpha = params.alpha
    p, q, r, u, v, tmp = buf

    a1c, a1s = fields["a1c"], fields["a1s"]
    a2c = np.add(fields["z2c"], math.sqrt(2.0) * alpha, out=p)
    a2s = fields["z2s"]

    # symmetric input beamsplitter
    b1c, b2c = _beamsplit(a1c, a2c, q, a2c)
    b1s, b2s = _beamsplit(a1s, a2s, r, u)

    # opposite arm phases rotate each (c, s) pair by +/- phi/2; the second
    # rotation of a pair writes over its inputs, which frees r for c2c and u
    # and tmp for the measured pair
    ch, sh = math.cos(0.5 * phi), math.sin(0.5 * phi)
    c1c = _mix(b1c, ch, b1s, -sh, v, tmp)
    c1s = _mix(b1c, sh, b1s, ch, b1c, b1s)
    c2c = _mix(b2c, ch, b2s, sh, r, tmp)
    c2s = _mix(b2c, -sh, b2s, ch, b2c, b2s)

    # internal loss admixes one (pre-scaled) vacuum per arm
    t = math.sqrt(params.mu)
    d1c, d1s, d2c, d2s = c1c, c1s, c2c, c2s
    for d, vacuum in ((d1c, "m1c"), (d1s, "m1s"), (d2c, "m2c"), (d2s, "m2s")):
        d *= t
        d += fields[vacuum]

    # each detected quadrature: one output of the symmetric recombining
    # beamsplitter, stretched (the measured s on port 1 and c on port 2) or
    # squeezed (the other two) by its phase-sensitive amplifier, then one
    # (pre-scaled) external-loss vacuum per detector.  The measured pair goes
    # to u and tmp, leaving d1c..d2s intact for the other pair, whose sums
    # (differences) write over d2c (d2s)
    g, te = math.exp(params.r2), math.sqrt(params.eta)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    ports = [
        (np.add, d1s, d2s, np.multiply, "n1s", u),
        (np.subtract, d1c, d2c, np.multiply, "n2c", tmp),
    ]
    if not measured_only:
        ports += [
            (np.add, d1c, d2c, np.divide, "n1c", d2c),
            (np.subtract, d1s, d2s, np.divide, "n2s", d2s),
        ]
    for combine, x, y, amplify, vacuum, out in ports:
        np.multiply(combine(x, y, out=out), inv_sqrt2, out=out)
        amplify(out, g, out=out)
        out *= te
        out += fields[vacuum]
    if measured_only:
        return None, u, tmp, None
    return d2c, u, tmp, d2s


def _scaled_draws(
    inputs: tuple, mu: float, eta: float, m: int, streams: dict[str, np.random.Generator]
) -> dict[str, np.ndarray]:
    """The next m samples of every input channel, scaled to its variance (the
    ``inputs`` of _input_variances for a1c, a1s and z2c, VACUUM for the rest)
    and then, for the loss vacuums, by the amplitude sqrt(1 - mu) (internal, m*)
    or sqrt(1 - eta) (external, n*) with which they enter the chain.  Neither
    depends on phi, so a draw set serves every phase of the same (inputs, mu,
    eta); the two products round as admixing the vacuum in the chain did, and
    a zero amplitude leaves signed zeros."""
    variances = inputs + (VACUUM,) * (len(CHANNELS) - len(inputs))
    amplitudes = {"m": math.sqrt(1.0 - mu), "n": math.sqrt(1.0 - eta)}
    fields = {}
    for ch, variance in zip(CHANNELS, variances):
        x = fields[ch] = streams[ch].standard_normal(m)
        x *= math.sqrt(variance)
        if ch[0] in amplitudes:
            x *= amplitudes[ch[0]]
    return fields


def _moments_of(n1: np.ndarray, n2: np.ndarray) -> dict[str, float]:
    """The ten photocounting moments of a sample block (ddof = 1); centres n1
    and n2 in place."""
    # ndarray.mean is this pairwise sum divided by the count, without its
    # Python-level wrapper
    mean1 = float(np.add.reduce(n1)) / n1.size
    mean2 = float(np.add.reduce(n2)) / n2.size
    n1 -= mean1
    n2 -= mean2
    denom = n1.size - 1
    var1 = float(n1 @ n1) / denom
    var2 = float(n2 @ n2) / denom
    cov12 = float(n1 @ n2) / denom
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


def run(
    params: InterferometerParams, phi, config: OracleConfig
) -> MomentReport | list[MomentReport]:
    """Sample the chain and compare empirical photocounting moments with the
    closed forms.

    ``phi`` is a phase, which gives one :class:`MomentReport`, or a 1-D grid of
    them, which gives a list of reports in grid order, each the report of a
    run at that phase alone.  Standard errors come from 32-batch batch means
    (n // 2 batches below 64 samples).  A non-finite phase or a grid that is
    not 1-D raises :class:`ParameterError` before any draw.
    """
    phase = Phase(phi)
    if isinstance(phase.phi, float):
        return _reports([(params, phase.phi)], config)[0]
    return _reports([(params, p) for p in phase.phi.tolist()], config)


def _reports(points, config: OracleConfig) -> list[MomentReport]:
    """The reports of (params, phi) pairs sampled with one config, in order:
    n1, n2 and the chain buffers are allocated once, and a draw set of
    n <= _CHUNK samples is shared by consecutive points of equal draw key
    (input variances, mu, eta): the draws carry both loss amplitudes."""
    n = config.n_samples
    scratch = np.empty(n), np.empty(n), np.empty((_CHAIN_ROWS, min(n, _BLOCK)))
    reports = []
    drawn = draws = None
    for params, phi in points:
        key = (_input_variances(params), params.mu, params.eta)
        if n > _CHUNK:
            streams = _spawn_streams(config.seed)
            sizes = (min(_CHUNK, n - a) for a in range(0, n, _CHUNK))
            chunks = (_scaled_draws(*key, m, streams) for m in sizes)
        else:
            if key != drawn:
                chunks = draws = None  # drop the old set before drawing
                draws = _scaled_draws(*key, n, _spawn_streams(config.seed))
                for values in draws.values():
                    values.flags.writeable = False
                drawn = key
            chunks = (draws,)
        reports.append(_report(params, phi, config, chunks, scratch))
    return reports


def _report(
    params: InterferometerParams, phi: float, config: OracleConfig, chunks, scratch
) -> MomentReport:
    """The report of one phase: ``chunks`` yields its scaled draws, and
    ``scratch`` holds n1, n2 and the chain buffers it works in."""
    n = config.n_samples
    if config.linearized_mode:
        # the mean path: the same chain on one-element zero inputs
        zero = np.zeros(1)
        zero.flags.writeable = False
        zeros = dict.fromkeys(CHANNELS, zero)
        _, mg1s, mg2c, _ = _propagate(
            params, phi, zeros, np.empty((_CHAIN_ROWS, 1)), measured_only=True
        )
        mg1s, mg2c = float(mg1s[0]), float(mg2c[0])
        half1, half2 = 0.5 * mg1s * mg1s, 0.5 * mg2c * mg2c

    n1, n2, buf = scratch
    done = 0
    for fields in chunks:
        for a in range(0, fields["a1c"].size, _BLOCK):
            block = {ch: values[a : a + _BLOCK] for ch, values in fields.items()}
            m = block["a1c"].size
            g1c, g1s, g2c, g2s = _propagate(
                params, phi, block, buf[:, :m], measured_only=config.linearized_mode
            )
            out1, out2 = n1[done : done + m], n2[done : done + m]
            if config.linearized_mode:
                np.subtract(np.multiply(g1s, mg1s, out=out1), half1, out=out1)
                np.subtract(np.multiply(g2c, mg2c, out=out2), half2, out=out2)
            else:
                for gc, gs, out in ((g1c, g1s, out1), (g2c, g2s, out2)):
                    gc *= gc
                    gs *= gs
                    gc += gs
                    gc -= 1.0
                    np.multiply(gc, 0.5, out=out)
            done += m

    # _moments_of centres its arguments in place: batches get copies, and the
    # full sample goes last
    n_batches = min(N_BATCHES, n // 2)
    edges = np.linspace(0, n, n_batches + 1).astype(int)
    blocks = [
        _moments_of(n1[a:b].copy(), n2[a:b].copy()) for a, b in zip(edges[:-1], edges[1:])
    ]
    moments = _moments_of(n1, n2)

    table = np.array([[block[name] for block in blocks] for name in photostats.MOMENT_FIELDS])
    stds = np.std(table, axis=1, ddof=1).tolist()
    ses = {name: std / math.sqrt(n_batches) for name, std in zip(photostats.MOMENT_FIELDS, stds)}

    closed = photostats.photon_stats(params, phi)
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
    are pure sampling noise at any brightness.  ``phi`` is one phase: a
    non-finite phase or a phase grid raises :class:`ParameterError` before
    any draw.
    """
    if len(alpha_grid) == 0:
        raise ParameterError("alpha_grid must not be empty")
    if any(not (math.isfinite(a) and a > 0.0) for a in alpha_grid):
        raise ParameterError(f"alpha_grid entries must be > 0, got {alpha_grid!r}")
    if list(alpha_grid) != sorted(alpha_grid):
        raise ParameterError("alpha_grid must be ascending")
    phi = Phase(phi).phi
    if not isinstance(phi, float):
        raise ParameterError(f"phi must be one phase, got a grid of {phi.size}")
    excess = technical_noise_factor(params)
    points = [
        (replace(params, n_photons=alpha_sq, g2=1.0 + (excess - 1.0) / alpha_sq), phi)
        for alpha_sq in alpha_grid
    ]
    out = []
    for alpha_sq, report in zip(alpha_grid, _reports(points, config)):
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
