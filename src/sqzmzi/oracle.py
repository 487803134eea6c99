"""Monte-Carlo verification of the closed-form photocounting statistics.

Every input noise quadrature is sampled as an independent Gaussian and pushed
through the exact linear optical chain, step by step: input beamsplitter, arm
phases +/- phi/2, internal loss, recombining beamsplitter, phase-sensitive
amplification, external loss.  The chain is linear, so the samples carry the
fluctuations dg alone; the laser's displacement goes through the same chain
once, as the mean path, and the means <g> enter after it.  Photon numbers
are then formed per sample and their moments estimated empirically.

Two detection models are available.  Exact mode uses the full quadratic form
N = (g_c^2 + g_s^2 - 1)/2 per detector (the -1/2 subtracts the vacuum and
makes <N> the true photon number), with g = <g> + dg.  Linearized mode keeps
only the term linear in the fluctuation, N = <g>^2/2 + <g> dg, which is the
regime the closed forms describe; in it the empirical moments must match them
within sampling error at any brightness, and the chain builds only the
measured pair (g1s, g2c) those photon numbers read.  In either mode the
constant <g>^2/2 stays out of the samples and joins their pooled means, so
the variances resolve at any brightness (see :func:`_report`).

Reproducibility contract: one PCG64 stream per input channel, spawned from
SeedSequence(seed) in the fixed CHANNELS order, samples drawn in batch order.
Only the channels the chain reads are drawn: a1c, a1s, z2c and z2s always,
the internal-loss vacuums m1c, m1s, m2c and m2s only where mu < 1, n1s and
n2c only where eta < 1, and n1c and n2s only in exact mode with eta < 1.  A
channel left out leaves its own stream unused and no other draw moves, and
at mu = 1 (eta = 1) its admixing step could only have flipped the sign of an
exactly zero sample.  Results for a given (params, phi, config) are
bit-identical across runs and machines, independent of batching, of the
other phases of a grid and of the calls made before: every sum is a
pairwise np.add.reduce, and no step calls BLAS, whose kernels differ by CPU.

A call of :func:`run` over a phase grid (or of :func:`linearization_error`
over a brightness grid) owns its draws and buffers; nothing is kept after it
returns and nothing is shared between calls, so calls from several threads
at once are independent.  A draw set is scaled and put through the input
beamsplitter when drawn (see :func:`_scaled_draws`), so it depends on
(input variances, mu, eta) but neither on phi nor on alpha: when n <= _CHUNK
the call draws one read-only set and its points share it, drawing again only
where a point's (input variances, mu, eta) differs from the previous one's;
larger runs draw _CHUNK samples at a time at every point.  The draws go
through the rest of the chain in blocks of _BLOCK samples, in _CHAIN_ROWS
block-sized buffers, and each block's photon numbers go straight into the
sample arrays n1 and n2, allocated once per call.  The steps are
elementwise, so neither the blocks nor the in-place writes change a bit.
Each run gets its closed forms from one
:func:`~sqzmzi.photostats.photon_stats` call over its phases and its mean
path from one :func:`_propagate` call, broadcast over them; every point
still carries the bits of an evaluation at its phase alone.  Every sample,
of n >= 64, is cut into N_BATCHES = 32 contiguous batches of at least 2,
whose moments are taken in place and pooled exactly into the full sample's
(see :func:`_reports` and :func:`_pooled`).
"""

from __future__ import annotations

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

# the input beamsplitter's inputs, each with the output written over it
_SPLIT = {"a1c": "b1c", "z2c": "b2c", "a1s": "b1s", "z2s": "b2s"}

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
        # numpy's integers count too, stored as Python ints; a bool is an int
        # to Python, but neither a count nor a seed
        for name in ("n_samples", "seed"):
            value = getattr(self, name)
            if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
                object.__setattr__(self, name, int(value))
        n = self.n_samples
        # the batch standard errors cut every sample into N_BATCHES batches
        # of at least 2 samples
        if not isinstance(n, int) or n < 2 * N_BATCHES:
            raise ParameterError(f"n_samples must be an integer >= {2 * N_BATCHES}, got {_shown(n)}")
        # _pooled weighs the batches by their sample counts in float64, exact up to 2^53
        if n > 2**53:
            raise ParameterError(f"n_samples must be at most 2^53, got {_shown(n)}")
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2**64:
            raise ParameterError(f"seed must be an integer in [0, 2^64), got {_shown(seed)}")
        if not isinstance(self.linearized_mode, bool):
            raise ParameterError(f"linearized_mode must be a bool, got {_shown(self.linearized_mode)}")


@dataclass
class MomentReport:
    """Empirical photocounting moments at one phase against the closed forms.

    z_scores holds (empirical - closed_form)/standard_error per moment; a zero
    standard error with zero difference (degenerate but consistent moments,
    e.g. at an exact fringe null in linearized mode) reports z = 0; a non-finite
    empirical moment, closed form or standard error reports z = nan.
    """

    phi: float
    empirical: photostats.PhotonStats
    closed_form: photostats.PhotonStats
    standard_errors: dict[str, float]
    z_scores: dict[str, float]

    def worst_moment(self) -> tuple[str | None, float]:
        """(the moment of largest |z|, that |z|), ranked by :func:`rank_abs_z`,
        the first moment winning a tie; where every z is 0 it names no moment."""
        name, abs_z = max(
            ((name, abs(z)) for name, z in self.z_scores.items()),
            key=lambda item: rank_abs_z(item[1]),
        )
        return (None if abs_z == 0.0 else name), abs_z

    def max_abs_z(self) -> float:
        return self.worst_moment()[1]


def rank_abs_z(abs_z: float) -> tuple[bool, float]:
    """Sort key for |z| that ranks nan above every number, inf included, so a
    z-score that could not be computed is never passed over as small."""
    return (math.isnan(abs_z), abs_z)


def max_abs_z_per_moment(reports: list[MomentReport]) -> dict[str, float]:
    """Each moment's largest |z| over ``reports``, ranked by :func:`rank_abs_z`,
    for every moment in :data:`~sqzmzi.photostats.MOMENT_FIELDS` order."""
    return {
        name: max((abs(report.z_scores[name]) for report in reports), key=rank_abs_z)
        for name in photostats.MOMENT_FIELDS
    }


def within(abs_zs, z_threshold: float) -> bool:
    """Whether every |z| of ``abs_zs`` is at most ``z_threshold``; a nan |z|
    never is."""
    return all(abs_z <= z_threshold for abs_z in abs_zs)


def _spawn_streams(seed: int) -> dict[str, np.random.Generator]:
    children = np.random.SeedSequence(seed).spawn(len(CHANNELS))
    return {ch: np.random.default_rng(child) for ch, child in zip(CHANNELS, children)}


def _mix(x, a: float, y, b: float, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """out = x*a + y*b, elementwise; out may be x (not y), tmp may be y (not out)."""
    np.multiply(x, a, out=out)
    np.multiply(y, b, out=tmp)
    return np.add(out, tmp, out=out)


def _beamsplit(
    x, y, plus: np.ndarray, minus: np.ndarray, tmp: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(x + y)/sqrt2 into plus and (x - y)/sqrt2 into minus, each a sum (or
    difference) followed by a product; plus and minus may be x and y, tmp is
    none of the four."""
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    np.add(x, y, out=tmp)
    np.multiply(np.subtract(x, y, out=minus), inv_sqrt2, out=minus)
    np.multiply(tmp, inv_sqrt2, out=plus)
    return plus, minus


def _split_inputs(fields: dict) -> dict:
    """``fields`` with the symmetric input beamsplitter applied in place,
    _BLOCK samples at a time: b1c over a1c and b2c over z2c, b1s over a1s and
    b2s over z2s; the loss vacuums pass unchanged.  No output depends on phi,
    and none on the laser, which enters only :func:`_mean_path`."""
    size = fields["a1c"].size
    tmp = np.empty(min(size, _BLOCK))
    for a in range(0, size, _BLOCK):
        x1c, x2c, x1s, x2s = (fields[ch][a : a + _BLOCK] for ch in _SPLIT)
        part = tmp[: x1c.size]
        _beamsplit(x1c, x2c, x1c, x2c, part)
        _beamsplit(x1s, x2s, x1s, x2s, part)
    return {_SPLIT.get(ch, ch): values for ch, values in fields.items()}


def _propagate(
    params: InterferometerParams,
    phi,
    fields: dict[str, np.ndarray],
    buf,
    measured_only: bool = False,
):
    """The chain after the input beamsplitter; returns (g1c, g1s, g2c, g2s).

    ``fields`` maps channel name to a sample array: the outputs of the input
    beamsplitter (b1c, b1s, b2c and b2s, see :func:`_split_inputs`) and the
    loss vacuums (m*, n*), already scaled by their loss amplitudes (see
    :func:`_scaled_draws`); a loss vacuum it does not hold is not admixed, as
    at a zero amplitude.  ``buf`` is a sequence of _CHAIN_ROWS scratch arrays
    of the same length: every step writes into them, and the quadratures
    returned are among them.
    ``phi`` is one phase, or a :class:`Phase` over a grid as long as ``buf``'s
    rows when every field holds one element: each element of the result is
    then that field value taken through the chain at its own phase, with the
    bits of a call at that phase alone.
    With ``measured_only`` only the measured pair (g1s, g2c) is built, which
    is all linearized photon numbers read, and g1c and g2s are None.  The
    chain here is deliberately stepwise and elementary; it shares no algebra
    with the closed-form modules it is meant to check.
    """
    p, q, r, u, v, tmp = buf
    b1c, b2c, b1s, b2s = fields["b1c"], fields["b2c"], fields["b1s"], fields["b2s"]

    # opposite arm phases rotate each (c, s) pair by +/- phi/2 into v, q, r
    # and p, which leaves u and tmp for the measured pair
    phase = Phase(phi)
    ch, sh = phase.cos_half, phase.sin_half
    c1c = _mix(b1c, ch, b1s, -sh, v, tmp)
    c1s = _mix(b1c, sh, b1s, ch, q, tmp)
    c2c = _mix(b2c, ch, b2s, sh, r, tmp)
    c2s = _mix(b2c, -sh, b2s, ch, p, tmp)

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
    # (differences) write over d2c (d2s).  At unit gain x * 1.0 and x / 1.0
    # are x, so the amplifier step is skipped
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
        if g != 1.0:
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
    they enter the chain, and put through the input beamsplitter in place
    (see :func:`_split_inputs`).  None of it depends on phi or alpha, so a
    draw set serves every phase and brightness of the same (inputs, mu,
    eta).  A vacuum of zero amplitude is not drawn, nor, with
    ``measured_only``, n1c and n2s, which the measured pair never reads:
    each channel has its own stream, so no other draw moves.  The channels
    drawn are the rows of one array, each drawn and scaled _BLOCK samples at
    a time, so no sample-length temporary is made (a stream's draws in
    pieces are its draws in one).  A set is then one allocation, which
    glibc's malloc, once it has freed a block that large, serves from its
    heap again rather than from freshly mapped pages."""
    variances = inputs + (VACUUM,) * (len(CHANNELS) - len(inputs))
    amplitudes = {"m": math.sqrt(1.0 - mu), "n": math.sqrt(1.0 - eta)}
    unread = ("n1c", "n2s") if measured_only else ()
    drawn = [
        (ch, variance)
        for ch, variance in zip(CHANNELS, variances)
        if amplitudes.get(ch[0]) != 0.0 and ch not in unread
    ]
    fields = {}
    for (ch, variance), x in zip(drawn, np.empty((len(drawn), m))):
        for a in range(0, m, _BLOCK):
            normals = streams[ch].standard_normal(min(_BLOCK, m - a))
            piece = np.multiply(normals, math.sqrt(variance), out=x[a : a + _BLOCK])
            if ch[0] in amplitudes:
                piece *= amplitudes[ch[0]]
        fields[ch] = x
    return _split_inputs(fields)


def _moments_of(n1: np.ndarray, n2: np.ndarray) -> dict:
    """The ten photocounting moments (ddof = 1) of each row of a stack of
    equal-length sample blocks, as lists in row order; leaves each row of n1
    and n2 holding its squared deviations from its mean.  Every sum is the
    pairwise sum of np.add.reduce along the row, so each row gets the bits
    of that row alone, whatever stack holds it and whatever the CPU."""
    size = n1.shape[-1]
    denom = size - 1
    mean1 = np.add.reduce(n1, axis=-1) / size
    mean2 = np.add.reduce(n2, axis=-1) / size
    n1 -= mean1[:, None]
    n2 -= mean2[:, None]
    cov12 = np.add.reduce(n1 * n2, axis=-1) / denom
    var1 = np.add.reduce(np.square(n1, out=n1), axis=-1) / denom
    var2 = np.add.reduce(np.square(n2, out=n2), axis=-1) / denom
    return _ten_moments(mean1, mean2, var1, var2, cov12)


def _pooled(table: np.ndarray, sizes: np.ndarray) -> tuple:
    """The means, variances and covariance (ddof = 1) of n1 and n2 over a
    whole sample, in :func:`_ten_moments`' argument order, pooled from its
    batches': ``table`` holds their moments, one row per moment in
    MOMENT_FIELDS order and one column per batch, and ``sizes`` their sample
    counts.  The means are the batch means weighted by count; each centred
    sum of products is the batches' own, (count - 1) times their
    (co)variance, plus count times the product of their means' deviations
    from the whole sample's.  Every sum is a pairwise np.add.reduce over the
    batches."""
    moments = dict(zip(photostats.MOMENT_FIELDS, table))
    m1, m2 = moments["mean_n1"], moments["mean_n2"]
    n = np.add.reduce(sizes)
    mean1 = np.add.reduce(sizes * m1) / n
    mean2 = np.add.reduce(sizes * m2) / n
    d1, d2 = m1 - mean1, m2 - mean2

    def centred(name, x, y):
        return np.add.reduce((sizes - 1.0) * moments[name] + sizes * x * y) / (n - 1.0)

    var1, var2 = centred("var_n1", d1, d1), centred("var_n2", d2, d2)
    return mean1, mean2, var1, var2, centred("cov_n1n2", d1, d2)


def _ten_moments(mean1, mean2, var1, var2, cov12) -> dict:
    """The ten moments in MOMENT_FIELDS order, from the means, variances and
    covariance of n1 and n2 (arrays give lists, scalars floats)."""
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
    run at that phase alone.  Standard errors come from 32 batch means.  A
    non-finite phase or a grid that is not 1-D raises :class:`ParameterError`
    before any draw.
    """
    phase = Phase(phi)
    reports = _reports([(params, phase)], config)
    return reports[0] if isinstance(phase.phi, float) else reports


def _reports(runs, config: OracleConfig) -> list[MomentReport]:
    """The reports of ``runs``, (params, :class:`Phase`) pairs sampled with one
    config, one report per phase, in order.

    n1, n2, the chain buffers and the batch layout are made once, and a draw
    set of n <= _CHUNK samples is shared by consecutive phases of equal draw
    key (input variances, mu, eta).  The 32 batches are contiguous runs of
    the sample, the n % 32 longer ones first, and take their moments in
    place, in stacks of at most 16 batches of one length, so no
    :func:`_moments_of` call has the full sample's size.  Each distinct
    params is refused or passed once, before any draw.
    """
    for params in dict.fromkeys(params for params, _ in runs):
        # the batch errors square moments up to the floor
        floor = photostats._moment_ingredients(params)[-1]
        _require_normal(params, (f"{N_BATCHES} floor^2", N_BATCHES * floor * floor))
    n = config.n_samples
    try:
        buf = np.empty((_CHAIN_ROWS, min(n, _BLOCK)))
        n1, n2 = np.empty(n), np.empty(n)
    except MemoryError:
        raise ParameterError(
            f"n_samples = {n} is too large: its sample buffers cannot be allocated"
        ) from None
    # each stack: its columns of the batch table, its span of the sample and
    # its batch length (``extra`` batches of base + 1 samples, then of base)
    base, extra = divmod(n, N_BATCHES)
    stacks = []
    column = start = 0
    for count, length in ((extra, base + 1), (N_BATCHES - extra, base)):
        for first in range(0, count, N_BATCHES // 2):
            height = min(N_BATCHES // 2, count - first)
            end = start + height * length
            stacks.append((slice(column, column + height), slice(start, end), length))
            column, start = column + height, end
    counts = np.array([base + 1.0] * extra + [float(base)] * (N_BATCHES - extra))
    scratch = n1, n2, buf, stacks, counts
    reports = []
    drawn = draws = None
    linearized = config.linearized_mode
    for params, phase in runs:
        closed = photostats.photon_stats(params, phase).as_dict()
        means = _mean_path(params, phase)
        key = (_input_variances(params), params.mu, params.eta)
        for i, phi in enumerate(np.atleast_1d(phase.phi).tolist()):
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
            mean = float(means[0][i]), float(means[1][i])
            reports.append(_report(params, phi, config, chunks, scratch, point_closed, mean))
    return reports


def _mean_path(params: InterferometerParams, phase: Phase) -> tuple:
    """(<g1s>, <g2c>) at every phase of ``phase``, as arrays: the chain on
    one-element inputs, z2c = sqrt2 alpha (the laser) and every other channel
    zero, broadcast over the phases.  Every loss step runs, leaving the
    signed zeros it always left at the fringes (phi = 0, pi).  <g1c> and
    <g2s> are exact zeros: the laser reaches the arms as exact opposites."""
    inputs = np.zeros((len(CHANNELS), 1))
    inputs[CHANNELS.index("z2c")] = math.sqrt(2.0) * params.alpha
    fields = _split_inputs(dict(zip(CHANNELS, inputs)))
    buf = np.empty((_CHAIN_ROWS, np.size(phase.phi)))
    _, mg1s, mg2c, _ = _propagate(params, phase, fields, buf, measured_only=True)
    return mg1s, mg2c


def _report(
    params: InterferometerParams,
    phi: float,
    config: OracleConfig,
    chunks,
    scratch,
    closed: photostats.PhotonStats,
    mean: tuple[float, float],
) -> MomentReport:
    """The report of one phase: ``chunks`` yields its scaled draws, ``scratch``
    holds n1, n2, the chain buffers, the batch stacks and the batch counts
    (see :func:`_reports`), ``closed`` the closed forms and ``mean`` the mean
    fields (<g1s>, <g2c>).  With g = <g> + dg on each detector's measured
    quadrature, a sample holds N - <g>^2/2: <g> dg linearized, and
    <g> dg + (dg^2 + dg_o^2 - 1)/2 exact, dg_o the other quadrature's.  The
    constant <g>^2/2 joins the pooled means alone: near N = 1e30 a sample of
    N itself holds <g> dg to a few ulps, and the rounding biases every
    variance by more than the batch spread shows."""
    phase = Phase(phi)
    mg1s, mg2c = mean
    n1, n2, buf, stacks, counts = scratch
    done = 0
    for fields in chunks:
        size = next(iter(fields.values())).size
        for a in range(0, size, _BLOCK):
            block = {ch: values[a : a + _BLOCK] for ch, values in fields.items()}
            m = min(_BLOCK, size - a)
            g1c, g1s, g2c, g2s = _propagate(
                params, phase, block, buf[:, :m], measured_only=config.linearized_mode
            )
            out1, out2 = n1[done : done + m], n2[done : done + m]
            if config.linearized_mode:
                np.multiply(g1s, mg1s, out=out1)
                np.multiply(g2c, mg2c, out=out2)
            else:
                for bright, other, mg, out in ((g1s, g1c, mg1s, out1), (g2c, g2s, mg2c, out2)):
                    np.multiply(bright, 2.0 * mg, out=out)
                    bright *= bright
                    other *= other
                    bright += other
                    bright -= 1.0
                    out += bright
                    out *= 0.5
            done += m

    # the batch stacks, in place; the full sample's moments are pooled from
    # the batches', and the constant <g>^2/2 joins the means
    table = np.empty((len(photostats.MOMENT_FIELDS), N_BATCHES))
    for columns, span, length in stacks:
        batch_moments = _moments_of(n1[span].reshape(-1, length), n2[span].reshape(-1, length))
        table[:, columns] = [batch_moments[name] for name in photostats.MOMENT_FIELDS]
    mean1, mean2, *second = _pooled(table, counts)
    moments = _ten_moments(mean1 + 0.5 * mg1s * mg1s, mean2 + 0.5 * mg2c * mg2c, *second)

    # np.std squares the batch moments, and a variance's are squares already:
    # each row is scaled by a power of two near its largest |value| first, and
    # back after, so a spread near the float range's ends neither underflows
    # to 0 nor overflows; the scaling is exact and moves no other bit
    _, exponents = np.frexp(abs(table).max(axis=1))
    scaled = np.ldexp(table, -exponents[:, None])
    stds = np.ldexp(np.std(scaled, axis=1, ddof=1), exponents).tolist()
    ses = {name: std / math.sqrt(N_BATCHES) for name, std in zip(photostats.MOMENT_FIELDS, stds)}

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
        phi=phi,
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
    phase = Phase(phi)
    if not isinstance(phase.phi, float):
        raise ParameterError(f"phi must be one phase, got a grid of {phase.phi.size}")
    excess = technical_noise_factor(params)
    runs = []
    for alpha_sq in alpha_grid:
        g2 = 1.0 + (excess - 1.0) / alpha_sq
        if g2 == math.inf:
            raise ParameterError(
                f"alpha_grid entry {_shown(alpha_sq)} is too small for A = {excess!r}: "
                "g2 = 1 + (A - 1)/N overflows"
            )
        runs.append((replace(params, n_photons=alpha_sq, g2=g2), phase))
    out = []
    for alpha_sq, report in zip(alpha_grid, _reports(runs, config)):
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
