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
other phases of a grid and of the calls made before: every sum is a
pairwise np.add.reduce, and no step calls BLAS, whose kernels differ by CPU.

A call of :func:`run` over a phase grid (or of :func:`linearization_error`
over a brightness grid) owns its draws and buffers.  The loss vacuums are
scaled by their loss amplitudes sqrt(1 - mu) and sqrt(1 - eta) when drawn, so
the draws depend on (input variances, mu, eta) but not on phi: when n <= _CHUNK
the call draws one read-only set and its points share it, drawing again only
where a point's (input variances, mu, eta) differs from the previous one's;
larger runs draw _CHUNK samples at a time at every point.  Where every run
of the call has one alpha, as in :func:`run`, a shared set goes through the
input beamsplitter once, in place over its a1c, z2c, a1s and z2s (see
:func:`_split_draws`), since no phase moves it; a brightness scan's runs
differ in alpha, so their shared set stays raw.  The draws go through the
rest of the chain in blocks of _BLOCK samples: each step writes into one of
_CHAIN_ROWS block-sized buffers, and each block's photon numbers go straight
into the sample arrays n1 and n2, allocated once per call.  The steps are
elementwise, so neither the blocks, nor the in-place writes, nor splitting
the inputs or scaling the vacuums at draw time change an output bit.

A call samples the runs its caller hands it, one params over a phase or a
phase grid each (:func:`run` hands one, :func:`linearization_error` one per
brightness).  Each distinct params is refused before any draw where its
scale or batch errors leave the float range.  Each run gets its closed forms
from one :func:`~sqzmzi.photostats.photon_stats` call over its phases and,
in linearized mode, its mean path from one :func:`_propagate` call on
one-element zero inputs, broadcast over them; every point still carries the
bits of an evaluation at its phase alone.  Every sample, of n >= 64, is cut
into N_BATCHES = 32 batches of at least 2, laid out once per call as stacks
of equal-length batches in views of the idle chain buffers.  A phase's
batches are copied into the stacks and take their moments a stack at a
time, each row with the bits of numpy's pairwise sums on that row alone;
the full sample's moments are then pooled exactly from the batches' (see
:func:`_pooled`), with no further pass over the sample.  Nothing is kept
after a call returns and nothing is shared between calls, so calls from
several threads at once are independent.
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
        n = self.n_samples
        # the batch standard errors cut every sample into N_BATCHES batches
        # of at least 2 samples
        if not isinstance(n, int) or n < 2 * N_BATCHES:
            raise ParameterError(f"n_samples must be an integer >= {2 * N_BATCHES}, got {_shown(n)}")
        # run() places the batch edges with np.linspace in float64, exact up to 2^53
        if n > 2**53:
            raise ParameterError(f"n_samples must be at most 2^53, got {_shown(n)}")
        # a bool is an int to Python, but no seed
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


def _split_inputs(alpha: float, fields: dict, out, tmp: np.ndarray) -> dict:
    """The symmetric input beamsplitter, as a dict: b1c and b2c from a1c and
    z2c (z2c displaced by the laser's sqrt2 alpha), b1s and b2s from a1s and
    z2s, written into ``out``'s four arrays in that order; each may be the
    input it replaces (b1c a1c, b2c z2c, b1s a1s, b2s z2s), and ``tmp`` is
    another array.  No output depends on phi."""
    o1c, o2c, o1s, o2s = out
    a2c = np.add(fields["z2c"], math.sqrt(2.0) * alpha, out=o2c)
    b1c, b2c = _beamsplit(fields["a1c"], a2c, o1c, a2c, tmp)
    b1s, b2s = _beamsplit(fields["a1s"], fields["z2s"], o1s, o2s, tmp)
    return {"b1c": b1c, "b2c": b2c, "b1s": b1s, "b2s": b2s}


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
    loss vacuum it does not hold is not admixed, as at a zero amplitude.  It
    holds the raw inputs (a1c, a1s, z2c and z2s) or their outputs of the
    input beamsplitter (b1c, b1s, b2c and b2s, see :func:`_split_inputs`),
    with the same bits out either way.  ``buf`` is a sequence of _CHAIN_ROWS
    scratch arrays of the same length: every step writes into them, and the
    quadratures returned are among them.
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

    if "a1c" in fields:
        # raw inputs: the input beamsplitter into q, p, r and u
        fields = {**fields, **_split_inputs(params.alpha, fields, (q, p, r, u), tmp)}
    b1c, b2c, b1s, b2s = fields["b1c"], fields["b2c"], fields["b1s"], fields["b2s"]

    # opposite arm phases rotate each (c, s) pair by +/- phi/2 into v, q, r
    # and p, the rows that held b1c, b1s and b2c once they are read, which
    # leaves u and tmp for the measured pair
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
    they enter the chain.  Neither depends on phi, so a draw set serves every
    phase of the same (inputs, mu, eta), and :func:`_split_draws` may put it
    through the input beamsplitter in place; the two products round as
    admixing the vacuum in the chain did.  A vacuum of zero amplitude is not
    drawn, nor, with ``measured_only``, n1c and n2s, which the measured pair
    never reads: each channel has its own stream, so no other draw moves.
    The channels drawn are the rows of one array, each drawn and scaled
    _BLOCK samples at a time, so no sample-length temporary is made (a
    stream's draws in pieces are its draws in one).  A set is then one
    allocation, which glibc's malloc, once it has freed a block that large,
    serves from its heap again rather than from freshly mapped pages."""
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
    return fields


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


def _pooled(table: np.ndarray, sizes: np.ndarray) -> dict:
    """The ten moments (ddof = 1) of a whole sample, as floats, pooled from
    its batches': ``table`` holds their moments, one row per moment in
    MOMENT_FIELDS order and one column per batch, and ``sizes`` their sample
    counts.  The means are the batch means weighted by count; each centred
    sum of products is the batches' own, (count - 1) times their (co)variance,
    plus count times the product of their means' deviations from the whole
    sample's.  Every sum is a pairwise np.add.reduce over the batches."""
    moments = dict(zip(photostats.MOMENT_FIELDS, table))
    m1, m2 = moments["mean_n1"], moments["mean_n2"]
    n = np.add.reduce(sizes)
    mean1 = np.add.reduce(sizes * m1) / n
    mean2 = np.add.reduce(sizes * m2) / n
    d1, d2 = m1 - mean1, m2 - mean2

    def centred(name, x, y):
        return np.add.reduce((sizes - 1.0) * moments[name] + sizes * x * y) / (n - 1.0)

    var1, var2 = centred("var_n1", d1, d1), centred("var_n2", d2, d2)
    return _ten_moments(mean1, mean2, var1, var2, centred("cov_n1n2", d1, d2))


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

    n1, n2, the chain buffers and the batch layout (32 batches, whatever n)
    are made once, and a draw set of n <= _CHUNK samples is shared by
    consecutive phases of equal draw key (input variances, mu, eta): the
    draws carry both loss amplitudes and, where every run has one alpha, have
    been through the input beamsplitter (see :func:`_split_draws`).  Where
    n <= _CHUNK the idle chain buffers hold half the batches of n1 and of n2
    at once, so that each batch length takes one :func:`_moments_of` call.
    Each distinct params is refused or passed once, before any draw, and
    each run gets its closed forms from one
    :func:`~sqzmzi.photostats.photon_stats` call and its linearized mean path
    from one :func:`_propagate` call over its phases.
    """
    for params in dict.fromkeys(params for params, _ in runs):
        # the batch errors square moments up to the floor
        floor = photostats._moment_ingredients(params)[-1]
        _require_normal(params, (f"{N_BATCHES} floor^2", N_BATCHES * floor * floor))
    n = config.n_samples
    edges = np.linspace(0, n, N_BATCHES + 1).astype(int).tolist()
    spans = list(zip(edges[:-1], edges[1:]))
    # the chain buffers, flat; once the chain is idle they hold one batch of
    # n1 and one of n2 at a time and, where n <= _CHUNK (the call then holds
    # 4n samples of draws or more), half the batches of each, n + 32 samples
    # at most
    longest = max(b - a for a, b in spans)
    held = N_BATCHES // 2 if n <= _CHUNK else 1
    try:
        chain = np.empty(max(_CHAIN_ROWS * min(n, _BLOCK), 2 * held * longest))
        n1, n2 = np.empty(n), np.empty(n)
    except MemoryError:
        raise ParameterError(
            f"n_samples = {n} is too large: its sample buffers cannot be allocated"
        ) from None
    buf = chain[: _CHAIN_ROWS * min(n, _BLOCK)].reshape(_CHAIN_ROWS, -1)
    # _moments_of overwrites its arguments, so the batches go through it as
    # copies, stacked by length in the idle chain buffers (n1's in the first
    # half, n2's in the second): each stack is its batch numbers, their spans
    # of the sample and a view in each half.  A stack holds at most half the
    # batches, so no _moments_of call has the full sample's size
    half = chain.size // 2
    stacks = []
    for length in sorted({b - a for a, b in spans}):
        rows = [i for i, (a, b) in enumerate(spans) if b - a == length]
        height = min(half // length, N_BATCHES // 2)
        for first in range(0, len(rows), height):
            stack = rows[first : first + height]
            s1 = chain[: len(stack) * length].reshape(-1, length)
            s2 = chain[half : half + s1.size].reshape(-1, length)
            stacks.append((stack, [spans[i] for i in stack], s1, s2))
    scratch = n1, n2, buf, stacks, np.diff(edges).astype(float)
    reports = []
    drawn = draws = None
    linearized = config.linearized_mode
    # the input beamsplitter depends on alpha, so a shared set goes through it
    # once only where every run has the same alpha (one run, in practice)
    split = len({params.alpha for params, _ in runs}) == 1
    for params, phase in runs:
        closed = photostats.photon_stats(params, phase).as_dict()
        means = _mean_path(params, phase) if linearized else None
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
                    if split:
                        draws = _split_draws(params.alpha, draws, buf[0])
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


def _split_draws(alpha: float, draws: dict, tmp: np.ndarray) -> dict:
    """``draws`` with the input beamsplitter applied in place, _BLOCK samples
    at a time with ``tmp`` (a block-sized array) as scratch: b1c over a1c, b2c
    over z2c, b1s over a1s and b2s over z2s, so the phases that share the set
    enter :func:`_propagate` at the arm rotations.  Every output bit stays as
    on the raw draws."""
    names = {"a1c": "b1c", "z2c": "b2c", "a1s": "b1s", "z2s": "b2s"}
    size = draws["a1c"].size
    for a in range(0, size, _BLOCK):
        block = {ch: draws[ch][a : a + _BLOCK] for ch in names}
        out = block["a1c"], block["z2c"], block["a1s"], block["z2s"]
        _split_inputs(alpha, block, out, tmp[: min(_BLOCK, size - a)])
    return {names.get(ch, ch): values for ch, values in draws.items()}


def _mean_path(params: InterferometerParams, phase: Phase) -> tuple:
    """(<g1s>, <g2c>) at every phase of ``phase``, as arrays: the same chain on
    one-element zero inputs, broadcast over the phases.  Every channel is
    passed, so every loss step runs and leaves the signed zeros it always
    left at the fringes (phi = 0, pi)."""
    zero = np.zeros(1)
    zero.flags.writeable = False
    zeros = dict.fromkeys(CHANNELS, zero)
    buf = np.empty((_CHAIN_ROWS, np.size(phase.phi)))
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
    holds n1, n2, the chain buffers it works in, the batch stacks and the
    batch sizes (see :func:`_reports`), ``closed`` holds the closed forms
    there and, in linearized mode, ``mean`` the mean fields (<g1s>, <g2c>)."""
    phase = Phase(phi)
    if config.linearized_mode:
        mg1s, mg2c = mean
        half1, half2 = 0.5 * mg1s * mg1s, 0.5 * mg2c * mg2c

    n1, n2, buf, stacks, sizes = scratch
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

    # the batch stacks, each copied in; the full sample's moments are pooled
    # from the batches'
    table = np.empty((len(photostats.MOMENT_FIELDS), N_BATCHES))
    for rows, spans, s1, s2 in stacks:
        for row, (a, b) in enumerate(spans):
            s1[row] = n1[a:b]
            s2[row] = n2[a:b]
        batch_moments = _moments_of(s1, s2)
        table[:, rows] = [batch_moments[name] for name in photostats.MOMENT_FIELDS]
    moments = _pooled(table, sizes)

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
    runs = [
        (replace(params, n_photons=alpha_sq, g2=1.0 + (excess - 1.0) / alpha_sq), phase)
        for alpha_sq in alpha_grid
    ]
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
