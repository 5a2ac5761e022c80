"""Galerkin assembly on the fixed domain.

Builds the time-independent operators of the weak form in banded storage:
mass, stiffness, the two convection pieces, and the weights of the
nonlocal functional.  The time-dependent convection matrix is recovered
exactly as

    C(t) = (alpha'(t) / gamma(t)) * conv_const + (gamma'(t) / gamma(t)) * conv_linear

because b1(y, t) is affine in y, so nothing but the load vector is
re-assembled during time stepping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .discretization import FESpace, sample
from .geometry import BoundaryMotion

__all__ = [
    "BandedMatrix",
    "OperatorSet",
    "assemble_static",
    "assemble_load",
    "nonlocal_value",
    "diffusion_scalar",
]


@dataclass(frozen=True)
class BandedMatrix:
    """Square banded matrix in LAPACK band layout.

    data[kb + i - j, j] holds entry (i, j) for |i - j| <= kb; the unused
    corners of `data` are zero-initialized and never read.
    """

    data: np.ndarray  # (2 * kb + 1, n)
    kb: int           # half bandwidth

    @property
    def n(self) -> int:
        return self.data.shape[1]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros_like(x)
        n = self.n
        for d in range(-self.kb, self.kb + 1):
            j0, j1 = max(d, 0), n + min(d, 0)
            if j0 < j1:
                out[j0 - d : j1 - d] += self.data[self.kb - d, j0:j1] * x[j0:j1]
        return out

    def toarray(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        for d in range(-self.kb, self.kb + 1):
            j0, j1 = max(d, 0), self.n + min(d, 0)
            for j in range(j0, j1):
                a[j - d, j] = self.data[self.kb - d, j]
        return a

    def interior(self) -> "BandedMatrix":
        """Submatrix over dofs 1..n-2 (endpoint rows and columns dropped).

        Same band layout: the sliced array's referenced entries are all
        valid entries of the parent.
        """
        return BandedMatrix(data=self.data[:, 1:-1], kb=self.kb)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return solve_banded((self.kb, self.kb), self.data, rhs, check_finite=False)


def _band_accumulate(data: np.ndarray, kb: int, g0: int, local: np.ndarray) -> None:
    m = local.shape[0]
    for li in range(m):
        for lj in range(m):
            data[kb + li - lj, g0 + lj] += local[li, lj]


@dataclass(frozen=True)
class OperatorSet:
    """Time-independent Galerkin arrays of one FESpace.

    conv_const[i, j] = int phi_j' phi_i dy, conv_linear[i, j] =
    int y phi_j' phi_i dy, nonlocal_weights[j] = int phi_j dy.
    """

    space: FESpace
    mass: BandedMatrix
    stiffness: BandedMatrix
    conv_const: BandedMatrix
    conv_linear: BandedMatrix
    nonlocal_weights: np.ndarray


def assemble_static(space: FESpace) -> OperatorSet:
    """Assemble all five time-independent arrays by Gauss quadrature.

    Elements are visited in order, so assembly is bit-reproducible.  Mass
    and stiffness local blocks are formed as S'S with S the shape table
    scaled by sqrt(weight), which makes them symmetric to the last bit.
    """
    k = space.degree
    n = space.n_dofs
    width = 2 * k + 1
    mass = np.zeros((width, n))
    stiff = np.zeros((width, n))
    conv0 = np.zeros((width, n))
    conv1 = np.zeros((width, n))
    weights = np.zeros(n)

    V = space.shape_values
    D = space.shape_derivs
    w = space.quad.weights
    for e in range(space.n_elements):
        jac = space.jacobians[e]
        y_q = space.element_quad_points[e]
        sv = V * np.sqrt(w * jac)[:, None]
        sd = D * np.sqrt(w / jac)[:, None]
        g0 = e * k
        _band_accumulate(mass, k, g0, sv.T @ sv)
        _band_accumulate(stiff, k, g0, sd.T @ sd)
        # the jacobians of dy and d/dy cancel in the convection integrals
        _band_accumulate(conv0, k, g0, V.T @ (w[:, None] * D))
        _band_accumulate(conv1, k, g0, V.T @ ((w * y_q)[:, None] * D))
        weights[g0 : g0 + k + 1] += jac * (w @ V)

    return OperatorSet(
        space=space,
        mass=BandedMatrix(mass, k),
        stiffness=BandedMatrix(stiff, k),
        conv_const=BandedMatrix(conv0, k),
        conv_linear=BandedMatrix(conv1, k),
        nonlocal_weights=weights,
    )


def nonlocal_value(
    weights: np.ndarray, coeffs: np.ndarray, motion: BoundaryMotion, t: float
) -> float:
    """Integral of the expansion over the moving interval at time t.

    Under the change of variables this is gamma(t) times the fixed-domain
    integral, so it equals gamma(t) * weights . coeffs.
    """
    if np.shape(weights) != np.shape(coeffs):
        raise ValueError(
            f"dimension mismatch: {np.shape(weights)} weights, {np.shape(coeffs)} coefficients"
        )
    return motion.gamma(t) * float(np.dot(weights, coeffs))


def assemble_load(space: FESpace, problem, i: int, t: float) -> np.ndarray:
    """Load vector of equation i at time t: entry j is
    int f_i(alpha + gamma y, t) phi_j(y) dy."""
    motion = problem.motion
    f = problem.forcing[i]
    x_q = motion.to_moving(space.element_quad_points, t)
    fv = sample(f, x_q, t)
    if not np.all(np.isfinite(fv)):
        e_bad, q_bad = np.argwhere(~np.isfinite(fv))[0]
        raise ValueError(
            f"forcing {i} returned a non-finite value at x={x_q[e_bad, q_bad]}, t={t}"
        )

    k = space.degree
    w = space.quad.weights
    contrib = (fv * w[None, :]) @ space.shape_values * space.jacobians[:, None]
    out = np.zeros(space.n_dofs)
    for e in range(space.n_elements):
        out[e * k : e * k + k + 1] += contrib[e]
    return out


def diffusion_scalar(problem, i: int, nonlocal_values) -> float:
    """Diffusion coefficient of equation i at the given nonlocal values,
    checked against the problem's declared bounds."""
    a = float(problem.diffusion[i](*nonlocal_values))
    lo, hi = problem.diffusion_bounds[i]
    if not (np.isfinite(a) and lo <= a <= hi):
        raise ValueError(
            f"diffusion coefficient of equation {i} is {a} at arguments "
            f"{tuple(nonlocal_values)}, outside declared bounds [{lo}, {hi}]"
        )
    return a
