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

# noise sources feeding the interferometer core, in the column order used by
# the coefficient matrix of core_noise_covariance
CORE_SOURCES = ("a1c", "a1s", "z2c", "z2s", "m_plus_c", "m_plus_s", "m_minus_c", "m_minus_s")

CORE_LABELS = ("e1c", "e1s", "e2c", "e2s")
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


def _input_variances(params: InterferometerParams) -> tuple[float, float, float]:
    """Variances (var_a1c, var_a1s, var_z2c) of the parameter-dependent input
    noise quadratures: the anti-squeezed e^{+2 r1}/2 and squeezed e^{-2 r1}/2
    quadratures of the squeezer output, and the amplitude (excess) noise A/2
    of the bright input.  Every other input, the phase quadrature z2s of the
    bright input and every loss port, is at the VACUUM level."""
    try:
        var_a1c = 0.5 * math.exp(2.0 * params.r1)
    except OverflowError:
        raise ParameterError(
            f"squeeze factor r1 = {_shown(params.r1)} is too large: the anti-squeezed "
            "variance e^(2 r1)/2 overflows"
        ) from None
    var_z2c = 0.5 * technical_noise_factor(params)
    if not math.isfinite(var_z2c):
        raise ParameterError(
            f"n_photons = {_shown(params.n_photons)} and g2 = {_shown(params.g2)} are too large: "
            "the excess-noise factor A = N(g2 - 1) + 1 overflows"
        )
    return var_a1c, 0.5 * math.exp(-2.0 * params.r1), var_z2c


def core_output_means(params: InterferometerParams, phi):
    """Mean signal quadratures at the recombining beamsplitter outputs.

    Returns (<e1s>, <e2c>) = sqrt(2 mu) alpha (sin(phi/2), cos(phi/2)), floats
    at one phase and arrays over a 1-D array of phases; the orthogonal
    quadratures e1c, e2s have zero mean.
    """
    phase = Phase(phi)
    amp = math.sqrt(2.0 * params.mu) * params.alpha
    return amp * phase.sin_half, amp * phase.cos_half


def _core_coefficients(mu: float, phase: Phase) -> np.ndarray:
    """Coefficients of the core output fluctuations over CORE_SOURCES.

    Rows are (de1c, de1s, de2c, de2s).  Obtained by pushing the input noise
    operators through beamsplitter -> +/- phi/2 rotations -> loss -> beamsplitter;
    the two arm phases collapse into cos/sin(phi/2) couplings between the
    squeezer and bright-port noise.
    """
    c, s = phase.cos_half, phase.sin_half
    t = math.sqrt(mu)
    l = math.sqrt(1.0 - mu)
    # columns: a1c, a1s, z2c, z2s, m+c, m+s, m-c, m-s
    return np.array(
        [
            [t * c, 0.0, 0.0, -t * s, l, 0.0, 0.0, 0.0],
            [0.0, t * c, t * s, 0.0, 0.0, l, 0.0, 0.0],
            [0.0, -t * s, t * c, 0.0, 0.0, 0.0, l, 0.0],
            [t * s, 0.0, 0.0, t * c, 0.0, 0.0, 0.0, l],
        ]
    )


def core_noise_covariance(params: InterferometerParams, phi: float) -> QuadratureStats:
    """Covariance of the four fluctuation quadratures (e1c, e1s, e2c, e2s).

    Built as B diag(v) B^T from the source coefficient matrix, so positive
    semidefiniteness is structural.  Means are zero by construction (the
    fluctuations are defined about the signal)."""
    phase = Phase(phi)
    if not isinstance(phase.phi, float):
        raise ParameterError(f"phi must be one phase, got a grid of {phase.phi.size}")
    b = _core_coefficients(params.mu, phase)
    v = np.array(_input_variances(params) + (VACUUM,) * 5)
    cov = (b * v) @ b.T
    return QuadratureStats(labels=CORE_LABELS, mean=np.zeros(4), cov=cov)


def _core_variances(params: InterferometerParams, phase: Phase) -> dict:
    """Closed forms, entry by entry, for the core second moments (independent
    of the matrix route above; the two are compared in tests)."""
    var_a1c, var_a1s, var_z2c = _input_variances(params)
    c, s = phase.cos_half, phase.sin_half
    # squared by multiplication, which rounds alike on a float and a grid
    c2 = c * c
    s2 = s * s
    sc = s * c
    mu = params.mu
    leak = (1.0 - mu) * VACUUM
    return {
        "var_e1c": mu * (var_a1c * c2 + VACUUM * s2) + leak,
        "var_e1s": mu * (var_a1s * c2 + var_z2c * s2) + leak,
        "var_e2c": mu * (var_a1s * s2 + var_z2c * c2) + leak,
        "var_e2s": mu * (var_a1c * s2 + VACUUM * c2) + leak,
        "cov_e1s_e2c": mu * sc * (var_z2c - var_a1s),
        "cov_e1c_e2s": mu * sc * (var_a1c - VACUUM),
    }


def detector_field_stats(params: InterferometerParams, phi, extended: bool = False) -> QuadratureStats:
    """Moments of the quadratures reaching the detectors, at one phase or over
    a 1-D array of phases.

    Default: the two measured quadratures (g1s, g2c), amplified by e^{r2} and
    attenuated by the external loss.  With ``extended=True`` the deamplified
    orthogonal pair (g1c, g2s) is included, which fixes the full Gaussian state
    of the detected modes.
    """
    phase = Phase(phi)
    core = _core_variances(params, phase)
    m1s, m2c = core_output_means(params, phase)
    eta = params.eta
    try:
        amp2 = eta * math.exp(2.0 * params.r2)
    except OverflowError:
        raise ParameterError(f"amplifier gain r2 = {_shown(params.r2)} is too large: e^(2 r2) overflows") from None
    deamp2 = eta * math.exp(-2.0 * params.r2)
    leak = (1.0 - eta) * VACUUM
    gain = math.sqrt(eta) * math.exp(params.r2)

    var_g1s = amp2 * core["var_e1s"] + leak
    var_g2c = amp2 * core["var_e2c"] + leak
    cov_sig = amp2 * core["cov_e1s_e2c"]
    mean_g1s = gain * m1s
    mean_g2c = gain * m2c

    if not extended:
        cov = _stack([var_g1s, cov_sig, cov_sig, var_g2c], (2, 2))
        return QuadratureStats(DETECTOR_LABELS, _stack([mean_g1s, mean_g2c], (2,)), cov)

    var_g1c = deamp2 * core["var_e1c"] + leak
    var_g2s = deamp2 * core["var_e2s"] + leak
    cov_orth = deamp2 * core["cov_e1c_e2s"]
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
