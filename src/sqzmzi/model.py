"""Parameter types and shared conventions for the squeezed-light interferometer.

The device: a Mach-Zehnder interferometer fed by a bright laser on one port and
squeezed vacuum on the other, with a phase-sensitive amplifier on each output
port and direct photocounting behind them.  Conventions used throughout the
package: phases in radians, squeeze factors as natural-log amplitude gains
(decibels appear only at the CLI boundary), quadrature vacuum variance 1/2.
Every number a public function takes is an int or a float, never a bool, and
finite: :func:`_real` checks it by that one rule, for :func:`validate` too.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from enum import Enum
from sys import float_info

import numpy as np

LN10 = math.log(10.0)


class ParameterError(ValueError):
    """A parameter set violates its physical domain."""


def _shown(value) -> str:
    """``value`` as a refusal message prints it: its ``repr``, but an int past
    the float range in words, since such an int may have more digits than
    Python converts to a string (4300 by default) and none of them matter."""
    if isinstance(value, int) and not abs(value) <= float_info.max:
        return "an int past the float range"
    return repr(value)


def _real(what: str, value, ok=None, rule: str = "finite") -> float:
    """``value``, a number the package takes, as a float; else a ParameterError
    "{what} must be an int or float, got ..." where it is neither (a bool is an
    int to Python, but no number), or "{what} must be {rule}, got ..." where it
    is not finite or fails ``ok``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        rule = "an int or float"
    # an int past the float range is no finite float either
    elif abs(value) <= float_info.max and (ok is None or ok(value)):
        return float(value)
    raise ParameterError(f"{what} must be {rule}, got {_shown(value)}")


def db_to_squeeze_factor(db: float) -> float:
    """Convert squeezing in dB (variance convention, 10*log10 e^{2r}) to the factor r."""
    r = _real("squeezing in dB", db) * LN10 / 20.0
    if not abs(r) <= float_info.max:
        raise ParameterError(f"squeezing of {_shown(db)} dB is too large: its squeeze factor overflows")
    return r


def squeeze_factor_to_db(r: float) -> float:
    """Inverse of :func:`db_to_squeeze_factor`."""
    db = 20.0 * _real("squeeze factor", r) / LN10
    if not abs(db) <= float_info.max:
        raise ParameterError(f"squeeze factor {_shown(r)} is too large: its dB value overflows")
    return db


def _per_phase(fn, phi):
    """``fn``, a function of the ``math`` module, at a phase or elementwise over
    a 1-D array of phases.

    numpy's tan and exp differ from ``math``'s in the last bit for some
    arguments, and one ulp can change a 12-digit output, so every per-phase
    transcendental of the package goes through ``math``, for one phase or a
    grid alike.
    """
    if isinstance(phi, np.ndarray) and phi.ndim:
        return np.fromiter(map(fn, phi.tolist()), float, phi.size)
    return fn(phi)


# The two helpers below let one comparison serve a float and a grid; on plain
# floats they stay in Python, where numpy's dispatch would cost more than the
# comparison itself.


def _largest(*values):
    """Elementwise maximum of floats and arrays over one grid."""
    for v in values:
        if isinstance(v, np.ndarray):
            return functools.reduce(np.maximum, values)
    return max(values)


def _anywhere(condition) -> bool:
    """Whether ``condition``, a bool or a boolean array over a grid, holds
    at any point."""
    return bool(condition.any()) if isinstance(condition, np.ndarray) else bool(condition)


class Phase:
    """A finite phase phi, or a finite 1-D grid of them, with sin and cos of phi
    and sin_half, cos_half and tan_half of phi/2, each taken once through
    :func:`_per_phase`.  ``Phase(phi)`` returns a ``Phase`` unchanged, so a
    phase handed down one evaluation is checked and tabulated once.  One phase
    is a number by :func:`_real`, and so is each entry of a sequence (numpy
    makes a bool among numbers a number); an array holds ints or floats."""

    def __new__(cls, phi):
        if isinstance(phi, Phase):
            return phi
        try:
            grid = np.asarray(phi)
        except ValueError:
            raise ParameterError("phases must form a 1-D grid, got a ragged sequence") from None
        array = isinstance(phi, np.ndarray)
        if grid.ndim == 0 and not array:
            phi = _real("phi", phi)
        elif grid.ndim > 1:
            raise ParameterError(f"phases must form a 1-D grid, got shape {grid.shape}")
        else:
            if grid.dtype.kind not in "iuf" or not (array or set(map(type, phi)) <= {int, float}):
                for x in grid.ravel().tolist() if array else phi:
                    _real("phi", x)
            grid = grid.astype(float)
            # the first phase that is not finite is refused as one phase is
            for x in grid[~np.isfinite(grid)][:1].tolist():
                _real("phi", x)
            phi = float(grid) if grid.ndim == 0 else grid
        self = object.__new__(cls)
        self.phi, half = phi, 0.5 * phi
        self.sin, self.cos = _per_phase(math.sin, phi), _per_phase(math.cos, phi)
        self.sin_half, self.cos_half = _per_phase(math.sin, half), _per_phase(math.cos, half)
        self.tan_half = _per_phase(math.tan, half)
        return self


def _check(ok: bool, msg: str, errors: list[str]) -> None:
    if not ok:
        errors.append(msg)


@dataclass(frozen=True)
class InterferometerParams:
    """Physical knobs of one interferometer configuration.

    r1          amplitude squeeze factor of the input squeezer (>= 0)
    r2          amplitude gain of the two output amplifiers, shared (>= 0)
    mu          internal power transmissivity of each arm, in (0, 1]
    eta         external transmissivity incl. detector efficiency, in (0, 1]
    n_photons   mean photon number N = alpha^2 of the bright input (> 0)
    g2          degree of second-order coherence of the bright input (>= 1)
    """

    r1: float = 0.0
    r2: float = 0.0
    mu: float = 1.0
    eta: float = 1.0
    n_photons: float = 1e6
    g2: float = 1.0

    def __post_init__(self) -> None:
        validate(self)

    @classmethod
    def with_technical_noise(
        cls,
        technical_noise: float,
        *,
        r1: float = 0.0,
        r2: float = 0.0,
        mu: float = 1.0,
        eta: float = 1.0,
        n_photons: float = 1e6,
    ) -> "InterferometerParams":
        """Build params from the excess-noise factor A = N(g2 - 1) + 1 instead of g2."""
        excess = _real("technical noise factor", technical_noise, lambda x: x >= 1.0, ">= 1")
        n = _real("n_photons", n_photons, lambda x: x > 0.0, "> 0")
        g2 = 1.0 + (excess - 1.0) / n
        if g2 == math.inf:
            raise ParameterError(
                f"n_photons = {_shown(n_photons)} is too small for A = {_shown(technical_noise)}: "
                "g2 = 1 + (A - 1)/N overflows"
            )
        return cls(r1=r1, r2=r2, mu=mu, eta=eta, n_photons=n, g2=g2)

    @property
    def alpha(self) -> float:
        """Coherent amplitude alpha = sqrt(N), taken real and positive."""
        return math.sqrt(self.n_photons)


def validate(params: InterferometerParams) -> None:
    """Raise :class:`ParameterError` listing every domain violation in ``params``."""
    errors: list[str] = []
    for name in ("r1", "r2", "mu", "eta", "n_photons", "g2"):
        try:
            _real(name, getattr(params, name), rule="a finite number")
        except ParameterError as exc:
            errors.append(str(exc))
    if not errors:
        _check(params.r1 >= 0.0, f"squeeze factor r1 must be >= 0, got {params.r1}", errors)
        _check(params.r2 >= 0.0, f"amplifier gain r2 must be >= 0, got {params.r2}", errors)
        _check(params.mu > 0.0, f"internal transmissivity must be > 0, got {params.mu}", errors)
        _check(params.mu <= 1.0, f"internal transmissivity must be <= 1, got {params.mu}", errors)
        _check(params.eta > 0.0, f"external transmissivity must be > 0, got {params.eta}", errors)
        _check(params.eta <= 1.0, f"external transmissivity must be <= 1, got {params.eta}", errors)
        _check(params.n_photons > 0.0, f"n_photons must be > 0, got {params.n_photons}", errors)
        _check(params.g2 >= 1.0, f"g2 must be >= 1, got {params.g2}", errors)
    if errors:
        raise ParameterError("; ".join(errors))


def technical_noise_factor(params: InterferometerParams) -> float:
    """Excess photon-number noise of the bright input, A = N(g2 - 1) + 1.

    A = 1 for an ideal coherent state; super-Poissonian lasers have A > 1 and
    A approaches N(g2 - 1) when that product is large.  Raises
    :class:`ParameterError` where A overflows.
    """
    excess = params.n_photons * (params.g2 - 1.0) + 1.0
    if not math.isfinite(excess):
        raise ParameterError(
            f"n_photons = {_shown(params.n_photons)} and g2 = {_shown(params.g2)} are too large: "
            "the excess-noise factor A = N(g2 - 1) + 1 overflows"
        )
    return excess


def inefficiency(params: InterferometerParams) -> float:
    """Combined quantum inefficiency eps^2 of the loss chain.

    eps^2 = (1 - mu)/mu + (1 - eta)/(mu eta) e^{-2 r2}: internal loss enters
    raw, external loss is suppressed by the output amplification.
    """
    mu, eta = params.mu, params.eta
    try:
        eps2 = (1.0 - mu) / mu + (1.0 - eta) / (mu * eta) * math.exp(-2.0 * params.r2)
    except ZeroDivisionError:  # mu eta underflows to 0
        eps2 = math.inf
    if not math.isfinite(eps2):
        raise ParameterError(f"mu = {_shown(mu)} and eta = {_shown(eta)} are too small: eps^2 overflows")
    return eps2


def _require_normal(params: InterferometerParams, *named: tuple[str, float]) -> None:
    """Raise :class:`ParameterError` naming the knobs of ``params`` unless each
    (name, value) pair holds a normal float: finite, and not underflowed."""
    for name, x in named:
        if not float_info.min <= abs(x) <= float_info.max:
            knobs = ", ".join(f"{f.name} = {_shown(getattr(params, f.name))}" for f in fields(params))
            raise ParameterError(f"{knobs} put {name} = {float(x)!r} out of the normal float range")


class StrategyKind(Enum):
    SINGLE = "single"
    DIFFERENTIAL = "differential"
    OPTIMAL = "optimal"
    SUBOPTIMAL = "suboptimal"


@dataclass(frozen=True)
class Strategy:
    """Read-out strategy: which photocurrent combination estimates the phase.

    single        one detector, observable N1
    differential  difference N- = N1 - N2
    optimal       weighted sum N- + k N+ with the variance-minimizing k = cos(phi)
    suboptimal    weighted sum with k = cos(phi_apr) frozen at an a-priori phase
    """

    kind: StrategyKind
    phi_apr: float | None = None

    def __post_init__(self) -> None:
        if self.kind is StrategyKind.SUBOPTIMAL:
            object.__setattr__(self, "phi_apr", _real("phi_apr", self.phi_apr))
        elif self.phi_apr is not None:
            raise ParameterError(f"{self.kind.value} strategy takes no phi_apr")

    @classmethod
    def single(cls) -> "Strategy":
        return cls(StrategyKind.SINGLE)

    @classmethod
    def differential(cls) -> "Strategy":
        return cls(StrategyKind.DIFFERENTIAL)

    @classmethod
    def optimal(cls) -> "Strategy":
        return cls(StrategyKind.OPTIMAL)

    @classmethod
    def suboptimal(cls, phi_apr: float) -> "Strategy":
        return cls(StrategyKind.SUBOPTIMAL, phi_apr=phi_apr)
