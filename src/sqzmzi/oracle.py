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
Only the channels the chain reads are drawn: a1c, a1s, z2c and z2s always,
the internal-loss vacuums m1c, m1s, m2c and m2s only where mu < 1, n1s and
n2c only where eta < 1, and n1c and n2s only in exact mode with eta < 1.  A
channel left out leaves its own stream unused and no other draw moves, and
at mu = 1 (eta = 1) its admixing step could only have flipped the sign of an
exactly zero sample.  Results for a given (params, phi, config) are
bit-identical across runs and machines, independent of batching, of the
other phases of a grid and of the calls made before.

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
vacuums at draw time change an output bit.

What does not depend on the draws runs once per run of consecutive points
with equal params, not once per phase: the refusal of a point whose scale or
batch errors leave the float range (before any draw), the closed forms (one
:func:`~sqzmzi.photostats.photon_stats` call over the run's phases) and, in
linearized mode, the mean path (one :func:`_propagate` call on one-element
zero inputs, broadcast over those phases).  Every point is still checked
against its own closed forms, which carry the bits of an evaluation at that
phase alone.  One routine takes every sample moment of a phase, on stacks
of equal-length blocks: the 32 batch moments in a few calls, each on a stack
of batches copied into the idle chain buffers, and the full-sample moments
in one call on a one-row stack.  Each row gets the bits of plain numpy on
that row alone.  Nothing is kept after a call returns and nothing is shared
between calls, so calls from several threads at once are independent.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from sys import float_info

import numpy as np

from . import photostats
from .model import InterferometerParams, ParameterError, Phase, _require_normal, _shown
from .model import technical_noise_factor
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
            raise ParameterError(f"n_samples must be an integer >= 4, got {_shown(self.n_samples)}")
        # run() places the batch edges with np.linspace in float64, exact up to 2^53
        if self.n_samples > 2**53:
            raise ParameterError(f"n_samples must be at most 2^53, got {_shown(self.n_samples)}")
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2**64:
            raise ParameterError(f"seed must be an integer in [0, 2^64), got {_shown(self.seed)}")


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
    phi,
    fields: dict[str, np.ndarray],
    buf,
    measured_only: bool = False,
):
    """Push the input quadratures through the chain; returns (g1c, g1s, g2c, g2s).

    ``fields`` maps channel name to a sample array, its loss vacuums (m*, n*)
    already scaled by their loss amplitudes (see :func:`_scaled_draws`); a
    loss vacuum it does not hold is not admixed, as at a zero amplitude, and
    ``buf`` is a sequence of _CHAIN_ROWS scratch arrays of the same length:
    every step writes into them, and the quadratures returned are among them.
    ``phi`` is one phase, or a :class:`Phase` over a grid as long as ``buf``'s
    rows when every field holds one element: each element of the result is
    then that field value taken through the chain at its own phase, with the
    bits of a call at that phase alone.
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
    phase = Phase(phi)
    ch, sh = phase.cos_half, phase.sin_half
    c1c = _mix(b1c, ch, b1s, -sh, v, tmp)
    c1s = _mix(b1c, sh, b1s, ch, b1c, b1s)
    c2c = _mix(b2c, ch, b2s, sh, r, tmp)
    c2s = _mix(b2c, -sh, b2s, ch, b2c, b2s)

    # internal loss admixes one (pre-scaled) vacuum per arm.  A loss step
    # runs only where ``fields`` holds its vacuum: a lossless arm's is not
    # drawn (see _scaled_draws).  Its amplitude is 0 exactly where the
    # transmissivity is exactly 1, so t (te below) is then 1.0, d * 1.0 is d,
    # and adding the signed-zero vacuum could only have turned a -0.0 sample
    # into +0.0: skipping the step moves no bit but the sign of an exact zero
    t = math.sqrt(params.mu)
    d1c, d1s, d2c, d2s = c1c, c1s, c2c, c2s
    for d, vacuum in ((d1c, "m1c"), (d1s, "m1s"), (d2c, "m2c"), (d2s, "m2s")):
        if vacuum in fields:
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
        if vacuum in fields:
            out *= te
            out += fields[vacuum]
    if measured_only:
        return None, u, tmp, None
    return d2c, u, tmp, d2s


def _scaled_draws(
    inputs: tuple,
    mu: float,
    eta: float,
    m: int,
    streams: dict[str, np.random.Generator],
    measured_only: bool = False,
) -> dict[str, np.ndarray]:
    """The next m samples of every input channel the chain reads, scaled to
    its variance (the ``inputs`` of _input_variances for a1c, a1s and z2c,
    VACUUM for the rest) and then, for the loss vacuums, by the amplitude
    sqrt(1 - mu) (internal, m*) or sqrt(1 - eta) (external, n*) with which
    they enter the chain.  Neither depends on phi, so a draw set serves every
    phase of the same (inputs, mu, eta); the two products round as admixing
    the vacuum in the chain did.  A vacuum of zero amplitude is not drawn,
    nor, with ``measured_only``, n1c and n2s, which the measured pair never
    reads: each channel has its own stream, so no other draw moves."""
    variances = inputs + (VACUUM,) * (len(CHANNELS) - len(inputs))
    amplitudes = {"m": math.sqrt(1.0 - mu), "n": math.sqrt(1.0 - eta)}
    unread = ("n1c", "n2s") if measured_only else ()
    fields = {}
    for ch, variance in zip(CHANNELS, variances):
        if amplitudes.get(ch[0]) == 0.0 or ch in unread:
            continue
        x = fields[ch] = streams[ch].standard_normal(m)
        x *= math.sqrt(variance)
        if ch[0] in amplitudes:
            x *= amplitudes[ch[0]]
    return fields


def _moments_of(n1: np.ndarray, n2: np.ndarray) -> dict:
    """The ten photocounting moments (ddof = 1) of each row of a stack of
    equal-length sample blocks, as lists in row order; centres n1 and n2 in
    place.  Each row gets the bits of plain numpy on that row alone: its sums
    are the pairwise sums of ndarray.mean (without its Python-level wrapper),
    and its products the 1-D dot products."""
    size = n1.shape[-1]
    denom = size - 1
    mean1 = np.add.reduce(n1, axis=-1) / size
    mean2 = np.add.reduce(n2, axis=-1) / size
    n1 -= mean1[:, None]
    n2 -= mean2[:, None]
    row1, col1, col2 = n1[:, None, :], n1[:, :, None], n2[:, :, None]
    var1 = (row1 @ col1)[:, 0, 0] / denom
    var2 = (n2[:, None, :] @ col2)[:, 0, 0] / denom
    cov12 = (row1 @ col2)[:, 0, 0] / denom
    moments = {
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
    return {name: value.tolist() for name, value in moments.items()}


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
    """The reports of (params, phi) pairs sampled with one config, in order.

    n1, n2 and the chain buffers are allocated once, and a draw set of
    n <= _CHUNK samples is shared by consecutive points of equal draw key
    (input variances, mu, eta): the draws carry both loss amplitudes.  Each
    run of consecutive points with equal params is refused or passed once,
    before any draw, and gets its closed forms from one
    :func:`~sqzmzi.photostats.photon_stats` call and its linearized mean
    path from one :func:`_propagate` call over its phases.
    """
    runs = [list(run) for _, run in itertools.groupby(points, key=lambda point: point[0])]
    for params in dict.fromkeys(run[0][0] for run in runs):
        # the batch errors square moments up to the floor
        floor = photostats._moment_ingredients(params)[-1]
        _require_normal(params, (f"{N_BATCHES} floor^2", N_BATCHES * floor * floor))
    n = config.n_samples
    n_batches = min(N_BATCHES, n // 2)
    edges = np.linspace(0, n, n_batches + 1).astype(int).tolist()
    batches = list(zip(edges[:-1], edges[1:]))
    # the chain buffers, flat, and long enough to hold one batch of n1 and one
    # of n2 at a time once the chain is idle
    chain = np.empty(max(_CHAIN_ROWS * min(n, _BLOCK), 2 * max(b - a for a, b in batches)))
    scratch = np.empty(n), np.empty(n), chain, batches
    reports = []
    drawn = draws = None
    linearized = config.linearized_mode
    for run in runs:
        phase = Phase([phi for _, phi in run])
        closed = photostats.photon_stats(run[0][0], phase).as_dict()
        means = _mean_path(run[0][0], phase) if linearized else None
        for i, (params, phi) in enumerate(run):
            key = (_input_variances(params), params.mu, params.eta)
            if n > _CHUNK:
                streams = _spawn_streams(config.seed)
                sizes = (min(_CHUNK, n - a) for a in range(0, n, _CHUNK))
                chunks = (_scaled_draws(*key, m, streams, linearized) for m in sizes)
            else:
                if key != drawn:
                    chunks = draws = None  # drop the old set before drawing
                    draws = _scaled_draws(*key, n, _spawn_streams(config.seed), linearized)
                    for values in draws.values():
                        values.flags.writeable = False
                    drawn = key
                chunks = (draws,)
            point_closed = photostats.PhotonStats(
                **{k: float(v[i]) if isinstance(v, np.ndarray) else v for k, v in closed.items()}
            )
            mean = None if means is None else (float(means[0][i]), float(means[1][i]))
            reports.append(_report(params, phi, config, chunks, scratch, point_closed, mean))
    return reports


def _mean_path(params: InterferometerParams, phase: Phase) -> tuple:
    """(<g1s>, <g2c>) at every phase of the grid ``phase``: the same chain on
    one-element zero inputs, broadcast over the phases.  Every channel is
    passed, so every loss step runs and leaves the signed zeros it always
    left at the fringes (phi = 0, pi)."""
    zero = np.zeros(1)
    zero.flags.writeable = False
    zeros = dict.fromkeys(CHANNELS, zero)
    buf = np.empty((_CHAIN_ROWS, phase.phi.size))
    _, mg1s, mg2c, _ = _propagate(params, phase, zeros, buf, measured_only=True)
    return mg1s, mg2c


def _report(
    params: InterferometerParams,
    phi: float,
    config: OracleConfig,
    chunks,
    scratch,
    closed: photostats.PhotonStats,
    mean: tuple[float, float] | None,
) -> MomentReport:
    """The report of one phase: ``chunks`` yields its scaled draws, ``scratch``
    holds n1, n2, the flat chain buffers it works in and the batch bounds,
    ``closed`` holds the closed forms there and, in linearized mode, ``mean``
    the mean fields (<g1s>, <g2c>)."""
    n = config.n_samples
    phase = Phase(phi)
    if config.linearized_mode:
        mg1s, mg2c = mean
        half1, half2 = 0.5 * mg1s * mg1s, 0.5 * mg2c * mg2c

    n1, n2, chain, batches = scratch
    width = min(n, _BLOCK)
    buf = chain[: _CHAIN_ROWS * width].reshape(_CHAIN_ROWS, width)
    done = 0
    for fields in chunks:
        for a in range(0, fields["a1c"].size, _BLOCK):
            block = {ch: values[a : a + _BLOCK] for ch, values in fields.items()}
            m = block["a1c"].size
            g1c, g1s, g2c, g2s = _propagate(
                params, phase, block, buf[:, :m], measured_only=config.linearized_mode
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

    # _moments_of centres its arguments in place, so the batches go through it
    # as copies, stacked by length in the idle chain buffers (n1's in the
    # first half, n2's in the second), and the full sample goes last, as a
    # one-row stack.  A stack holds at most half the batches, so only the
    # full-sample call has the full sample's size
    table = np.empty((len(photostats.MOMENT_FIELDS), len(batches)))
    half = chain.size // 2
    for length in sorted({b - a for a, b in batches}):
        rows = [i for i, (a, b) in enumerate(batches) if b - a == length]
        height = min(half // length, len(batches) // 2)
        for first in range(0, len(rows), height):
            stack = rows[first : first + height]
            size = len(stack) * length
            s1 = chain[:size].reshape(len(stack), length)
            s2 = chain[half : half + size].reshape(len(stack), length)
            for row, i in enumerate(stack):
                a, b = batches[i]
                s1[row] = n1[a:b]
                s2[row] = n2[a:b]
            batch_moments = _moments_of(s1, s2)
            table[:, stack] = [batch_moments[name] for name in photostats.MOMENT_FIELDS]
    moments = {name: row for name, (row,) in _moments_of(n1[None], n2[None]).items()}

    stds = np.std(table, axis=1, ddof=1).tolist()
    ses = {name: std / math.sqrt(len(batches)) for name, std in zip(photostats.MOMENT_FIELDS, stds)}

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
    bad = [a for a in alpha_grid if not 0.0 < a <= float_info.max]
    if bad:
        raise ParameterError(f"alpha_grid entries must be > 0, got {_shown(bad[0])}")
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
