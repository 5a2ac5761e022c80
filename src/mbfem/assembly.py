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

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dgbsv, dgtsv

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
        """Solution x of A x = rhs, by the LAPACK routine scipy's
        `solve_banded` picks for this shape: one division for a 1x1 system,
        tridiagonal `dgtsv` for kb == 1, banded LU `dgbsv` otherwise.

        Raises LinAlgError on an exactly singular system.  Neither `data`
        nor `rhs` is modified.
        """
        kb, n = self.kb, self.n
        if n == 0:
            return np.empty(0)
        if n == 1:
            pivot = self.data[kb, 0]
            if pivot == 0.0:
                raise LinAlgError("singular matrix")
            return rhs / pivot
        if kb == 1:
            a = self.data
            *_, x, info = dgtsv(a[2, :-1], a[1], a[0, 1:], rhs)
        else:
            # gbsv needs kb spare rows above the band for the fill-in of
            # row pivoting; Fortran order lets it factor in place
            ab = np.zeros((3 * kb + 1, n), order="F")
            ab[kb:] = self.data
            *_, x, info = dgbsv(kb, kb, ab, rhs, overwrite_ab=True)
        if info > 0:
            raise LinAlgError("singular matrix")
        if info < 0:
            raise ValueError(f"LAPACK reported an illegal value in argument {-info}")
        return x


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
    # Work arrays of the time steps taken with these operators, filled by
    # the stepper on its first step; they are freed with this object.
    step_work: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def _scatter_blocks(data: np.ndarray, kb: int, local: np.ndarray) -> None:
    """Add the (nt, m, m) element blocks into band storage, one (li, lj)
    pair at a time over all elements; within one pair the elements hit
    distinct columns."""
    nt, m, _ = local.shape
    step = m - 1
    for li in range(m):
        for lj in range(m):
            data[kb + li - lj, lj : lj + nt * step : step] += local[:, li, lj]


def _scatter_vectors(out: np.ndarray, local: np.ndarray) -> None:
    """Add the (nt, k + 1) element vectors into the global vector: each
    entry is 0.0 plus one term, or two at a node shared by two elements."""
    nt, m = local.shape
    k = m - 1
    body = out[:-1].reshape(nt, k)
    body += local[:, :k]
    out[k::k] += local[:, k]


def assemble_static(space: FESpace) -> OperatorSet:
    """Assemble all five time-independent arrays by Gauss quadrature.

    The local blocks of all elements are formed at once by batched matrix
    products and added into the bands one local index pair at a time.
    Every band entry is 0.0 plus at most two element terms (two only on
    the diagonal at a node two elements share), and such a sum does not
    depend on the order of its terms, so the scatter adds nothing
    order-dependent to the local blocks.  Mass and stiffness local blocks
    are formed as S'S with S the shape table scaled by sqrt(weight), which
    makes them symmetric to the last bit.  The bands are stored in Fortran
    order, so that the interior columns the solver reads are contiguous.
    """
    k = space.degree
    n = space.n_dofs
    width = 2 * k + 1
    mass, stiff, conv0, conv1 = (np.zeros((width, n), order="F") for _ in range(4))
    weights = np.zeros(n)

    V = space.shape_values
    D = space.shape_derivs
    w = space.quad.weights
    jac = space.jacobians[:, None]
    SV = V * np.sqrt(w * jac)[:, :, None]
    SD = D * np.sqrt(w / jac)[:, :, None]
    _scatter_blocks(mass, k, SV.transpose(0, 2, 1) @ SV)
    _scatter_blocks(stiff, k, SD.transpose(0, 2, 1) @ SD)
    # the jacobians of dy and d/dy cancel in the convection integrals, so
    # the constant piece is the same block on every element
    conv0_block = V.T @ (w[:, None] * D)
    _scatter_blocks(conv0, k, np.broadcast_to(conv0_block, (space.n_elements,) + conv0_block.shape))
    _scatter_blocks(conv1, k, V.T @ ((w * space.element_quad_points)[:, :, None] * D))
    _scatter_vectors(weights, jac * (w @ V))

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

    w = space.quad.weights
    contrib = (fv * w[None, :]) @ space.shape_values * space.jacobians[:, None]
    out = np.zeros(space.n_dofs)
    _scatter_vectors(out, contrib)
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
