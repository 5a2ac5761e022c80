"""Fixed-domain discretization.

Uniform meshes of [0, 1], continuous Lagrange elements of arbitrary
degree with equispaced nodes, Gauss-Legendre quadrature, nodal
interpolation, and natural cubic splines for tabulated initial data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

__all__ = [
    "QuadratureRule",
    "FESpace",
    "gauss_legendre",
    "build_space",
    "interpolate",
    "natural_cubic_spline",
]


@dataclass(frozen=True)
class QuadratureRule:
    """Quadrature points in (-1, 1) and positive weights summing to 2."""

    points: np.ndarray
    weights: np.ndarray

    @property
    def n(self) -> int:
        return len(self.points)


def gauss_legendre(q: int) -> QuadratureRule:
    """Gauss-Legendre rule with q points, exact through degree 2q - 1."""
    if q < 1:
        raise ValueError(f"need at least one quadrature point, got q={q}")
    pts, wts = np.polynomial.legendre.leggauss(q)
    return QuadratureRule(points=pts, weights=wts)


def lagrange_table(nodes: np.ndarray, x) -> tuple[np.ndarray, np.ndarray]:
    """Values and first derivatives of the Lagrange cardinal polynomials.

    Returns arrays of shape (len(x), len(nodes)).  Product formula; fine
    for the small degrees used here.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    m = len(nodes)
    vals = np.ones((x.size, m))
    ders = np.zeros((x.size, m))
    for i in range(m):
        for j in range(m):
            if j == i:
                continue
            vals[:, i] *= (x - nodes[j]) / (nodes[i] - nodes[j])
        for r in range(m):
            if r == i:
                continue
            term = np.full(x.size, 1.0 / (nodes[i] - nodes[r]))
            for j in range(m):
                if j == i or j == r:
                    continue
                term *= (x - nodes[j]) / (nodes[i] - nodes[j])
            ders[:, i] += term
    return vals, ders


@dataclass(frozen=True)
class FESpace:
    """Continuous piecewise-polynomial space on a uniform mesh of [0, 1].

    Degrees of freedom are the k + 1 equispaced Lagrange nodes of each
    element, shared at element interfaces, nt * k + 1 in total.  For
    homogeneous Dirichlet problems the two endpoint dofs are eliminated
    from the solved systems; they stay in the vectors, pinned to zero.

    Immutable after construction; evaluation methods are reentrant.
    """

    breakpoints: np.ndarray       # (nt + 1,) uniform, 0 to 1
    degree: int
    quad: QuadratureRule
    dof_positions: np.ndarray     # (nt * k + 1,)
    shape_values: np.ndarray      # (q, k + 1) at quad points, reference element
    shape_derivs: np.ndarray      # (q, k + 1) d/dxi on the reference element
    element_quad_points: np.ndarray  # (nt, q) quad points mapped into [0, 1]
    jacobians: np.ndarray            # (nt,) half element lengths

    @property
    def n_elements(self) -> int:
        return len(self.breakpoints) - 1

    @property
    def n_dofs(self) -> int:
        return len(self.dof_positions)

    def eval_basis(self, local_point):
        """Shape values and reference derivatives at points in [-1, 1].

        Every element shares the reference nodes, so the result holds for
        all of them.  Returns (values, derivatives) with shape
        (npts, k + 1); values sum to 1, derivatives (taken on the
        reference element) sum to 0.
        """
        nodes = np.linspace(-1.0, 1.0, self.degree + 1)
        return lagrange_table(nodes, local_point)


def build_space(nt: int, k: int) -> FESpace:
    """Uniform partition of [0, 1] into nt elements of degree k, with the
    (k + 2)-point Gauss rule: exact for the mass matrix, with margin."""
    if nt < 1:
        raise ValueError(f"need at least one element, got nt={nt}")
    if k < 1:
        raise ValueError(f"polynomial degree must be >= 1, got {k}")

    rule = gauss_legendre(k + 2)
    bp = np.linspace(0.0, 1.0, nt + 1)
    h = np.diff(bp)
    # each element's first k nodes; a shared node keeps its breakpoint exactly
    pos = np.append(bp[:-1, None] + h[:, None] * np.linspace(0.0, 1.0, k + 1)[:k], 1.0)

    ref_nodes = np.linspace(-1.0, 1.0, k + 1)
    sv, sd = lagrange_table(ref_nodes, rule.points)
    jac = 0.5 * h
    eqp = bp[:-1, None] + (rule.points[None, :] + 1.0) * jac[:, None]
    return FESpace(
        breakpoints=bp,
        degree=k,
        quad=rule,
        dof_positions=pos,
        shape_values=sv,
        shape_derivs=sd,
        element_quad_points=eqp,
        jacobians=jac,
    )


def sample(fn, pts: np.ndarray, *args) -> np.ndarray:
    """fn(pts, *args), one whole-array call, as a float array of pts' shape.

    A callable that rejects the array (a TypeError, as math.sin raises) or
    returns another shape is a ValueError naming the shapes.
    """
    try:
        out = np.asarray(fn(pts, *args), dtype=float)
    except TypeError as exc:
        raise ValueError(f"a problem callable failed on points of shape {pts.shape}: {exc}") from exc
    if out.shape != pts.shape:
        raise ValueError(f"a problem callable returned shape {out.shape} for points of shape {pts.shape}")
    return out


def interpolate(space: FESpace, u) -> np.ndarray:
    """Nodal interpolant: coefficient j is u at dof position j.

    The endpoint coefficients are forced to zero, matching the
    homogeneous-Dirichlet trial space.
    """
    vals = sample(u, space.dof_positions)
    if not np.all(np.isfinite(vals)):
        bad = space.dof_positions[~np.isfinite(vals)]
        raise ValueError(f"non-finite sample of the interpolated function at y={bad[0]}")
    vals[0] = 0.0
    vals[-1] = 0.0
    return vals


def natural_cubic_spline(knots):
    """C^2 piecewise cubic through the knots, second derivative zero at
    both end knots.

    Parameters
    ----------
    knots : sequence of (position, value)
        At least three, strictly increasing positions.

    Returns
    -------
    callable accepting scalars or arrays.
    """
    pts = np.asarray(knots, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 3:
        raise ValueError("need at least three (position, value) knots")
    x, v = pts[:, 0], pts[:, 1]
    if np.any(np.diff(x) <= 0.0):
        raise ValueError("knot positions must be strictly increasing")
    return CubicSpline(x, v, bc_type="natural")
