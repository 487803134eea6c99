"""First and second moments of field quadratures along the optical chain.

Quadrature convention: x_c = (a + a^dag)/sqrt(2), x_s = (a - a^dag)/(i sqrt(2)),
so vacuum has variance 1/2 in both.  The chain is linear throughout: symmetric
beamsplitter -> opposite arm phases +/- phi/2 with internal loss mu -> symmetric
recombining beamsplitter -> phase-sensitive amplifiers e^{+/- r2} -> external
loss eta.  The bright input sits on the c quadrature (alpha real), the squeezed
vacuum enters the other port with its squeezed axis along s.

Internal losses of both arms enter only through the symmetric/antisymmetric
vacuum combinations m_+/- = (m_1 +/- m_2)/sqrt(2), which are again independent
vacua; the external loss ports n_1, n_2 stay separate.

The amplifiers keep the c and s quadratures of each port apart, so the
detected state is two uncoupled 2 x 2 blocks, (g1s, g2c) and (g1c, g2s), and
:class:`QuadratureStats` holds it as their named entries.  The moments are
closed forms written out entry by entry, each detected entry in one step from
the input variances, with no intermediate core state.  That is the one
route: it is the runtime cross-check of the photocount moments, and the tests
hold it to a sampling-free pass of the oracle's stepwise chain, one input
channel at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from sys import float_info

import numpy as np

from .model import InterferometerParams, ParameterError, Phase, _anywhere, _largest, _shown
from .model import technical_noise_factor

PSD_TOL = 1e-10

# quadrature variance of vacuum: the bright input's phase quadrature z2s (it
# never enters the measured linearized observables) and every loss port
VACUUM = 0.5


@dataclass(frozen=True)
class QuadratureStats:
    """Gaussian state of the detected quadratures, entry by entry.

    The amplifiers keep the c and s quadratures of each port apart, so the
    state is two uncoupled 2 x 2 blocks: the measured pair (g1s, g2c), with
    its means, and the deamplified pair (g1c, g2s), whose means are zero and
    which only ``extended=True`` fills in (else its fields are None).  Each
    field is a float at one phase, or a read-only array over a grid, where
    every entry is checked at every point, against its own point's scale.
    """

    mean_g1s: float | np.ndarray
    mean_g2c: float | np.ndarray
    var_g1s: float | np.ndarray
    var_g2c: float | np.ndarray
    cov_g1s_g2c: float | np.ndarray
    var_g1c: float | np.ndarray | None = None
    var_g2s: float | np.ndarray | None = None
    cov_g1c_g2s: float | np.ndarray | None = None

    def __post_init__(self) -> None:
        blocks = [(self.var_g1s, self.cov_g1s_g2c, self.var_g2c)]
        if self.var_g1c is not None:
            blocks.append((self.var_g1c, self.cov_g1c_g2s, self.var_g2s))
        entries = [self.mean_g1s, self.mean_g2c, *(x for block in blocks for x in block)]
        # an entry that is nan or infinite
        if any(_anywhere((x != x) | (abs(x) > float_info.max)) for x in entries):
            raise ParameterError("the moments of the detected quadratures must be finite")
        # each block's eigenvalue in units of the largest |entry| (at least
        # 1), so PSD_TOL is taken of that scale and no sum overflows where
        # the entries do not
        scale = _largest(1.0, *(abs(x) for block in blocks for x in block))
        for a, b, d in blocks:
            if _anywhere(_smallest_eigenvalue(a / scale, b / scale, d / scale) < -PSD_TOL):
                raise ValueError("covariance matrix is not positive semidefinite")
        for x in entries:
            if isinstance(x, np.ndarray):
                x.setflags(write=False)


def _smallest_eigenvalue(a, b, d):
    """Smallest eigenvalue of the symmetric block [[a, b], [b, d]], a float or
    elementwise over a grid."""
    hypot = np.hypot if isinstance(b, np.ndarray) else math.hypot
    return (a + d) / 2.0 - hypot((a - d) / 2.0, b)


def _grown(x: float, refusal: str) -> float:
    """e^(2 x), or a ParameterError with ``refusal`` formatted with x where
    that overflows: math.exp raises for a large finite 2 x, but gives inf once
    2 x has overflowed itself."""
    try:
        grown = math.exp(2.0 * x)
    except OverflowError:
        grown = math.inf
    if grown == math.inf:
        raise ParameterError(refusal.format(_shown(x)))
    return grown


def _input_variances(params: InterferometerParams) -> tuple[float, float, float]:
    """Variances (var_a1c, var_a1s, var_z2c) of the parameter-dependent input
    noise quadratures: the anti-squeezed e^{+2 r1}/2 and squeezed e^{-2 r1}/2
    quadratures of the squeezer output, and the amplitude (excess) noise A/2
    of the bright input.  Every other input, the phase quadrature z2s of the
    bright input and every loss port, is at the VACUUM level."""
    var_a1c = 0.5 * _grown(
        params.r1, "squeeze factor r1 = {} is too large: the anti-squeezed variance e^(2 r1)/2 overflows"
    )
    return var_a1c, 0.5 * math.exp(-2.0 * params.r1), 0.5 * technical_noise_factor(params)


def detector_field_stats(params: InterferometerParams, phi, extended: bool = False) -> QuadratureStats:
    """Moments of the quadratures reaching the detectors, at one phase or over
    a 1-D array of phases.

    Default: the two measured quadratures (g1s, g2c), amplified by e^{r2} and
    attenuated by the external loss.  With ``extended=True`` the deamplified
    orthogonal pair (g1c, g2s) is included, which fixes the full Gaussian state
    of the detected modes.
    """
    phase = Phase(phi)
    var_a1c, var_a1s, var_z2c = _input_variances(params)
    mu, eta = params.mu, params.eta
    amp2 = eta * _grown(params.r2, "amplifier gain r2 = {} is too large: e^(2 r2) overflows")
    gain = math.sqrt(eta) * math.exp(params.r2)
    signal = math.sqrt(2.0 * mu) * params.alpha
    c, s = phase.cos_half, phase.sin_half
    # squared by multiplication, which rounds alike on a float and a grid
    c2 = c * c
    s2 = s * s
    sc = s * c
    # the vacuum each loss step admits: mu's before the amplifiers, eta's after;
    # every entry is bracketed stage by stage, core first, which fixes its bits
    core_leak = (1.0 - mu) * VACUUM
    leak = (1.0 - eta) * VACUUM

    # an amplified entry that overflows on a grid is inf without numpy's
    # warning, and the finite check refuses it as it does at one phase
    with np.errstate(over="ignore"):
        entries = dict(
            mean_g1s=gain * (signal * s),
            mean_g2c=gain * (signal * c),
            var_g1s=amp2 * (mu * (var_a1s * c2 + var_z2c * s2) + core_leak) + leak,
            var_g2c=amp2 * (mu * (var_a1s * s2 + var_z2c * c2) + core_leak) + leak,
            cov_g1s_g2c=amp2 * (mu * sc * (var_z2c - var_a1s)),
        )
        if extended:
            deamp2 = eta * math.exp(-2.0 * params.r2)
            entries.update(
                var_g1c=deamp2 * (mu * (var_a1c * c2 + VACUUM * s2) + core_leak) + leak,
                var_g2s=deamp2 * (mu * (var_a1c * s2 + VACUUM * c2) + core_leak) + leak,
                cov_g1c_g2s=deamp2 * (mu * sc * (var_a1c - VACUUM)),
            )
    return QuadratureStats(**entries)
