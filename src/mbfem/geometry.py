"""Moving-boundary geometry.

Evaluates the boundary curves of a moving interval (alpha(t), beta(t)),
its width gamma = beta - alpha, the map x = alpha(t) + gamma(t) y back
from the fixed coordinate y = (x - alpha(t)) / gamma(t), and the diffusion
scaling b2(t) = 1 / gamma(t)^2 of the transformed equation.  Its advection
coefficient b1(y, t) = (alpha' + gamma' y) / gamma enters the scheme
through the convection matrices (see `stepper`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["BoundaryMotion", "fixed_interval"]

ScalarFunc = Callable[[float], float]


def time_tolerance(T: float) -> float:
    """How far a time may stray past [0, T] by rounding: the final level
    n * delta of a run, and a midpoint t - delta/2, may sit an ulp or so
    off the interval ends."""
    return 1e-12 * max(1.0, T)


@dataclass(frozen=True)
class BoundaryMotion:
    """Boundary curves of a moving interval, with analytic derivatives.

    Derivatives are supplied by the caller rather than obtained by
    differencing: the scheme's accuracy rests on C^2 boundaries, and
    differencing would inject avoidable error.  A finite-difference
    cross-check lives in the test suite, not here.

    Parameters
    ----------
    alpha, beta : callable
        Left and right boundary positions as functions of time.
    alpha_prime, beta_prime : callable
        Their first derivatives.
    T : float
        Final time; all evaluations are restricted to [0, T] up to
        `time_tolerance(T)`.
    """

    alpha: ScalarFunc
    beta: ScalarFunc
    alpha_prime: ScalarFunc
    beta_prime: ScalarFunc
    T: float

    def _check_time(self, t: float) -> None:
        tol = time_tolerance(self.T)
        if t < -tol or t > self.T + tol:
            raise ValueError(f"time {t!r} outside the domain [0, {self.T}]")

    def gamma(self, t: float) -> float:
        """Width beta(t) - alpha(t) of the interval; positive and finite."""
        self._check_time(t)
        g = self.beta(t) - self.alpha(t)
        if not 0.0 < g < math.inf:  # also catches NaN
            raise ValueError(f"interval width gamma({t}) = {g} is not positive and finite")
        return g

    def gamma_prime(self, t: float) -> float:
        """Rate of change of the width, beta'(t) - alpha'(t)."""
        self._check_time(t)
        return self.beta_prime(t) - self.alpha_prime(t)

    def coeff_b2(self, t: float) -> float:
        """Diffusion scaling 1 / gamma(t)^2."""
        g = self.gamma(t)
        return 1.0 / (g * g)

    def to_moving(self, y, t: float):
        """Map reference coordinates in [0, 1] to [alpha(t), beta(t)]."""
        a = self.alpha(t)
        return a + self.gamma(t) * y

    def step_frame(self, y: np.ndarray, t: float, out: np.ndarray) -> tuple[float, float]:
        """gamma(t) and coeff_b2(t), with to_moving(y, t) written into `out`,
        from one evaluation of gamma: the bits of the three methods, since
        gamma y + alpha, the order the buffer is filled in, is alpha + gamma y
        (IEEE addition commutes)."""
        g = self.gamma(t)
        np.multiply(g, y, out=out)
        out += self.alpha(t)
        return g, 1.0 / (g * g)


def fixed_interval(a: float = 0.0, b: float = 1.0, T: float = 1.0) -> BoundaryMotion:
    """Degenerate motion with still boundaries (a cylindrical domain)."""
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"fixed interval ends must be finite, got [{a}, {b}]")
    if not b > a:
        raise ValueError(f"fixed interval needs a < b, got [{a}, {b}]")
    return BoundaryMotion(
        alpha=lambda t: a,
        beta=lambda t: b,
        alpha_prime=lambda t: 0.0,
        beta_prime=lambda t: 0.0,
        T=T,
    )
