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

The moments are closed forms written out entry by entry, each detected entry
in one step from the input variances, with no intermediate core state.  That
is the one route: it is the runtime cross-check of the photocount moments,
and the tests hold it to a sampling-free pass of the oracle's stepwise chain,
one input channel at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import InterferometerParams, ParameterError, Phase, _shown, technical_noise_factor

PSD_TOL = 1e-10

# quadrature variance of vacuum: the bright input's phase quadrature z2s (it
# never enters the measured linearized observables) and every loss port
VACUUM = 0.5

DETECTOR_LABELS = ("g1s", "g2c")
DETECTOR_LABELS_EXTENDED = ("g1c", "g1s", "g2c", "g2s")


@dataclass(frozen=True)
class QuadratureStats:
    """Mean vector and covariance matrix of a set of labeled quadratures.

    Over a grid of working points the grid is the leading axis, mean (m, n)
    and cov (m, n, n); the accessors then return arrays over the grid, and
    symmetry and positive semidefiniteness are checked point by point, each
    against its own point's scale, in one batched pass.
    """

    labels: tuple[str, ...]
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        n = len(self.labels)
        if mean.shape[-1:] != (n,):
            raise ValueError(f"mean shape {mean.shape} does not match {n} labels")
        if cov.shape != mean.shape + (n,):
            raise ValueError(f"cov shape {cov.shape} does not match {n} labels")
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise ParameterError(f"the moments of {self.labels} must be finite")
        if n:
            tol = PSD_TOL * np.maximum(1.0, abs(cov).max(axis=(-2, -1)))
            # np.allclose(cov, cov^T, rtol=0, atol=tol) spelled out: its
            # generality costs more than the whole check on a 2 x 2 matrix
            cov_t = cov.swapaxes(-2, -1)
            if not ((abs(cov - cov_t) <= tol[..., None, None]) | (cov == cov_t)).all():
                raise ValueError("covariance matrix is not symmetric")
            if (np.linalg.eigvalsh(cov).min(axis=-1) < -tol).any():
                raise ValueError("covariance matrix is not positive semidefinite")
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    def _index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown quadrature label {label!r}") from None

    def mean_of(self, label: str):
        return _float_or_grid(self.mean[..., self._index(label)])

    def variance(self, label: str):
        i = self._index(label)
        return _float_or_grid(self.cov[..., i, i])

    def covariance(self, label_a: str, label_b: str):
        return _float_or_grid(self.cov[..., self._index(label_a), self._index(label_b)])


def _float_or_grid(x):
    return float(x) if x.ndim == 0 else x


def _stack(entries: list, shape: tuple[int, ...]) -> np.ndarray:
    """``entries``, all floats or all arrays over one grid, in row-major order
    as an array of ``shape`` behind the grid axis."""
    flat = np.array(entries)
    return flat.T.reshape(flat.shape[1:] + shape)


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

    var_g1s = amp2 * (mu * (var_a1s * c2 + var_z2c * s2) + core_leak) + leak
    var_g2c = amp2 * (mu * (var_a1s * s2 + var_z2c * c2) + core_leak) + leak
    cov_sig = amp2 * (mu * sc * (var_z2c - var_a1s))
    mean_g1s = gain * (signal * s)
    mean_g2c = gain * (signal * c)

    if not extended:
        cov = _stack([var_g1s, cov_sig, cov_sig, var_g2c], (2, 2))
        return QuadratureStats(DETECTOR_LABELS, _stack([mean_g1s, mean_g2c], (2,)), cov)

    deamp2 = eta * math.exp(-2.0 * params.r2)
    var_g1c = deamp2 * (mu * (var_a1c * c2 + VACUUM * s2) + core_leak) + leak
    var_g2s = deamp2 * (mu * (var_a1c * s2 + VACUUM * c2) + core_leak) + leak
    cov_orth = deamp2 * (mu * sc * (var_a1c - VACUUM))
    # amplification keeps c and s uncorrelated, so the only nonzero cross terms
    # pair like quadratures of opposite ports
    zero = np.zeros_like(var_g1c)
    cov = _stack(
        [
            var_g1c, zero, zero, cov_orth,
            zero, var_g1s, cov_sig, zero,
            zero, cov_sig, var_g2c, zero,
            cov_orth, zero, zero, var_g2s,
        ],
        (4, 4),
    )
    mean = _stack([zero, mean_g1s, mean_g2c, zero], (4,))
    return QuadratureStats(DETECTOR_LABELS_EXTENDED, mean, cov)
