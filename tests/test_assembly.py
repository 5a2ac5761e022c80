import math

import numpy as np
import pytest
from scipy.linalg import LinAlgError, solve_banded

from mbfem import (
    BandedMatrix,
    assemble_load,
    assemble_static,
    build_space,
    fixed_interval,
    interpolate,
    nonlocal_value,
)
from mbfem.assembly import diffusion_scalar
from mbfem.discretization import sample
from mbfem.problems import example1, example2


# --- independent oracle -----------------------------------------------------
# Cardinal Lagrange polynomials in coefficient form (np.poly1d), integrated
# with composite Simpson panels.  Shares no code with the assembly path,
# which uses barycentric-style product evaluation and Gauss rules.


def cardinal_polys(k):
    nodes = np.linspace(-1.0, 1.0, k + 1)
    polys = []
    for m in range(k + 1):
        p = np.poly1d([1.0])
        for j, xj in enumerate(nodes):
            if j != m:
                p *= np.poly1d([1.0, -xj]) / (nodes[m] - xj)
        polys.append(p)
    return polys


def simpson_weights(a, b, panels):
    x = np.linspace(a, b, 2 * panels + 1)
    w = np.full(x.size, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    w *= (b - a) / (2 * panels) / 3.0
    return x, w


def dense_operators(space, panels=400):
    """Mass, stiffness, both convection matrices, and the weight vector."""
    k = space.degree
    n = space.n_dofs
    polys = cardinal_polys(k)
    derivs = [p.deriv() for p in polys]
    mass = np.zeros((n, n))
    stiff = np.zeros((n, n))
    conv0 = np.zeros((n, n))
    conv1 = np.zeros((n, n))
    wvec = np.zeros(n)
    for e in range(space.n_elements):
        a, b = space.breakpoints[e], space.breakpoints[e + 1]
        jac = (b - a) / 2.0
        y, w = simpson_weights(a, b, panels)
        xi = (y - a) / jac - 1.0
        g0 = e * k
        for li in range(k + 1):
            vi = polys[li](xi)
            wvec[g0 + li] += w @ vi
            for lj in range(k + 1):
                vj = polys[lj](xi)
                dj = derivs[lj](xi) / jac
                mass[g0 + li, g0 + lj] += w @ (vi * vj)
                stiff[g0 + li, g0 + lj] += w @ ((derivs[li](xi) / jac) * dj)
                conv0[g0 + li, g0 + lj] += w @ (vi * dj)
                conv1[g0 + li, g0 + lj] += w @ (y * vi * dj)
    return mass, stiff, conv0, conv1, wvec


# --- closed forms -----------------------------------------------------------


def test_mass_linear_elements_closed_form():
    space = build_space(2, 1)
    h = 0.5
    expected = (h / 6.0) * np.array([[2.0, 1.0, 0.0], [1.0, 4.0, 1.0], [0.0, 1.0, 2.0]])
    assert np.allclose(assemble_static(space).mass.toarray(), expected, atol=1e-15)


def test_stiffness_single_linear_element():
    space = build_space(1, 1)
    expected = np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert np.allclose(assemble_static(space).stiffness.toarray(), expected, atol=1e-14)


def test_weights_sum_to_one():
    for nt, k in ((1, 1), (3, 2), (5, 4)):
        ops = assemble_static(build_space(nt, k))
        assert ops.nonlocal_weights.sum() == pytest.approx(1.0, rel=1e-14)


def test_mass_and_stiffness_are_symmetric_bitwise():
    ops = assemble_static(build_space(5, 3))
    m = ops.mass.toarray()
    s = ops.stiffness.toarray()
    assert np.array_equal(m, m.T)
    assert np.array_equal(s, s.T)


# --- oracle comparison ------------------------------------------------------


@pytest.mark.parametrize("nt,k", [(1, 1), (2, 2), (3, 3), (4, 2)])
def test_operators_match_simpson_oracle(nt, k):
    space = build_space(nt, k)
    ops = assemble_static(space)
    mass, stiff, conv0, conv1, wvec = dense_operators(space)
    assert np.allclose(ops.mass.toarray(), mass, atol=1e-10)
    assert np.allclose(ops.stiffness.toarray(), stiff, atol=1e-9)
    assert np.allclose(ops.conv_const.toarray(), conv0, atol=1e-10)
    assert np.allclose(ops.conv_linear.toarray(), conv1, atol=1e-10)
    assert np.allclose(ops.nonlocal_weights, wvec, atol=1e-12)


# --- banded container -------------------------------------------------------


def test_banded_matvec_and_interior_match_dense():
    space = build_space(4, 3)
    ops = assemble_static(space)
    rng = np.random.default_rng(11)
    a = ops.mass
    x = rng.standard_normal(a.n)
    assert np.allclose(a.matvec(x), a.toarray() @ x, atol=1e-14)
    inner = a.interior()
    assert np.allclose(inner.toarray(), a.toarray()[1:-1, 1:-1], atol=0.0)
    xi = rng.standard_normal(inner.n)
    assert np.allclose(inner.matvec(xi), inner.toarray() @ xi, atol=1e-14)


def test_banded_solve_matches_dense_solve():
    space = build_space(6, 2)
    ops = assemble_static(space)
    a = ops.mass
    rng = np.random.default_rng(5)
    rhs = rng.standard_normal(a.n)
    assert np.allclose(a.solve(rhs), np.linalg.solve(a.toarray(), rhs), rtol=1e-12, atol=1e-14)


# --- bit-identity with the element-loop implementations ---------------------
# The vectorized assembly and the direct LAPACK solve keep the arithmetic of
# the element loops and of scipy's solve_banded; these references are those
# implementations, and the results must match them bit for bit.


def loop_assemble_static(space):
    """Mass, stiffness, both convection bands and the weights, one element
    at a time."""
    k = space.degree
    n = space.n_dofs
    bands = [np.zeros((2 * k + 1, n)) for _ in range(4)]
    weights = np.zeros(n)
    V, D, w = space.shape_values, space.shape_derivs, space.quad.weights
    for e in range(space.n_elements):
        jac = space.jacobians[e]
        y_q = space.element_quad_points[e]
        sv = V * np.sqrt(w * jac)[:, None]
        sd = D * np.sqrt(w / jac)[:, None]
        locals_ = (sv.T @ sv, sd.T @ sd, V.T @ (w[:, None] * D), V.T @ ((w * y_q)[:, None] * D))
        for band, local in zip(bands, locals_):
            for li in range(k + 1):
                for lj in range(k + 1):
                    band[k + li - lj, e * k + lj] += local[li, lj]
        weights[e * k : e * k + k + 1] += jac * (w @ V)
    return bands, weights


def loop_assemble_load(space, problem, i, t):
    k = space.degree
    fv = sample(problem.forcing[i], problem.motion.to_moving(space.element_quad_points, t), t)
    contrib = (fv * space.quad.weights[None, :]) @ space.shape_values * space.jacobians[:, None]
    out = np.zeros(space.n_dofs)
    for e in range(space.n_elements):
        out[e * k : e * k + k + 1] += contrib[e]
    return out


# (nt, k, q): kb = 1 takes the tridiagonal path, (1, 2) has one interior
# unknown, (1, 1) none; q = None is the default k + 2, q = 3 the fewest for k = 2
BIT_GRID = [
    (4096, 3, None),
    (32, 2, None),
    (4, 4, None),
    (7, 1, None),
    (16, 6, None),
    (1, 1, None),
    (1, 2, None),
    (1, 3, None),
    (33, 3, None),
    (9, 3, 7),
    (6, 2, 3),
]


@pytest.mark.parametrize("nt,k,q", BIT_GRID)
def test_assemble_static_equals_the_element_loop(nt, k, q):
    space = build_space(nt, k, q)
    ops = assemble_static(space)
    bands, weights = loop_assemble_static(space)
    got = (ops.mass, ops.stiffness, ops.conv_const, ops.conv_linear)
    for name, band, expected in zip(("mass", "stiffness", "conv_const", "conv_linear"), got, bands):
        assert np.array_equal(band.data, expected), name
    assert np.array_equal(ops.nonlocal_weights, weights)


@pytest.mark.parametrize("nt,k,q", BIT_GRID)
def test_assemble_load_equals_the_element_loop(nt, k, q):
    space = build_space(nt, k, q)
    p = example1()
    for i, t in ((0, 0.0), (1, 0.37)):
        assert np.array_equal(assemble_load(space, p, i, t), loop_assemble_load(space, p, i, t))


@pytest.mark.parametrize("nt,k,q", BIT_GRID)
def test_banded_solve_equals_solve_banded(nt, k, q):
    # a Crank-Nicolson matrix of example1 at t = 0.25, dt = 1e-3
    space = build_space(nt, k, q)
    ops = assemble_static(space)
    c_half = 0.5 * (-0.3 * ops.conv_const.data + 1.7 * ops.conv_linear.data)
    lhs = BandedMatrix(ops.mass.data / 1e-3 + 0.8 * ops.stiffness.data - c_half, k).interior()
    rhs = np.random.default_rng(nt * 10 + k).standard_normal(lhs.n)
    expected = solve_banded((k, k), lhs.data, rhs)
    assert np.array_equal(lhs.solve(rhs), expected)
    assert np.array_equal(BandedMatrix(np.ascontiguousarray(lhs.data), k).solve(rhs), expected)


@pytest.mark.parametrize("k", [1, 3])
def test_banded_solve_raises_on_a_singular_system(k):
    for n in (1, 5):
        with pytest.raises(LinAlgError):
            BandedMatrix(np.zeros((2 * k + 1, n)), k).solve(np.ones(n))


# --- loads ------------------------------------------------------------------


def zero_motion_problem(forcing):
    from mbfem import ProblemSpec

    return ProblemSpec(
        ne=1,
        diffusion=(lambda r: 1.0,),
        forcing=(forcing,),
        initial=(lambda x: 0.0 * np.asarray(x),),
        motion=fixed_interval(0.0, 1.0, T=1.0),
        T=1.0,
    )


def test_load_zero_forcing():
    space = build_space(3, 2)
    p = zero_motion_problem(lambda x, t: np.zeros_like(np.asarray(x, float)))
    assert np.all(assemble_load(space, p, 0, 0.3) == 0.0)


def test_load_unit_forcing_equals_weights():
    space = build_space(3, 2)
    p = zero_motion_problem(lambda x, t: np.ones_like(np.asarray(x, float)))
    ops = assemble_static(space)
    assert np.allclose(assemble_load(space, p, 0, 0.5), ops.nonlocal_weights, atol=1e-15)


def test_load_example2_matches_dense_integration():
    # f1(x, t) = 0.1 x / (1+t)^4; at t=0 the interval is (0, 1) so x = y
    p = example2()
    space = build_space(2, 1)
    load = assemble_load(space, p, 0, 0.0)
    polys = cardinal_polys(1)
    expected = np.zeros(3)
    for e in range(2):
        a, b = space.breakpoints[e], space.breakpoints[e + 1]
        y, w = simpson_weights(a, b, 500)
        xi = 2.0 * (y - a) / (b - a) - 1.0
        for li in range(2):
            expected[e + li] += w @ (0.1 * y * polys[li](xi))
    assert np.allclose(load, expected, atol=1e-10)


def test_load_reports_nonfinite_forcing():
    space = build_space(2, 1)
    p = zero_motion_problem(lambda x, t: np.full(np.asarray(x, float).shape, np.nan))
    with pytest.raises(ValueError, match="non-finite"):
        assemble_load(space, p, 0, 0.0)


# --- nonlocal values and diffusion scalars ----------------------------------


def test_nonlocal_value_zero():
    space = build_space(3, 1)
    ops = assemble_static(space)
    m = fixed_interval(0.0, 1.0, T=1.0)
    assert nonlocal_value(ops.nonlocal_weights, np.zeros(space.n_dofs), m, 0.5) == 0.0


def test_nonlocal_value_constant_on_width_two_interval():
    space = build_space(3, 1)
    ops = assemble_static(space)
    m = fixed_interval(0.0, 2.0, T=1.0)
    ones = np.ones(space.n_dofs)
    assert nonlocal_value(ops.nonlocal_weights, ones, m, 0.3) == pytest.approx(2.0, rel=1e-14)


def test_nonlocal_value_quadratic():
    space = build_space(3, 2)
    ops = assemble_static(space)
    m = fixed_interval(0.0, 1.0, T=1.0)
    coeffs = interpolate(space, lambda y: y * (1.0 - y))
    value = nonlocal_value(ops.nonlocal_weights, coeffs, m, 0.0)
    assert value == pytest.approx(1.0 / 6.0, abs=1e-12)


def test_diffusion_scalar_values():
    p1 = example1()
    assert diffusion_scalar(p1, 0, (0.0, 0.0)) == pytest.approx(2.0, rel=1e-15)
    p2 = example2()
    assert diffusion_scalar(p2, 1, (0.0, 7.3)) == pytest.approx(1.0, rel=1e-15)


def test_diffusion_scalar_enforces_bounds():
    from dataclasses import replace

    p = replace(example1(), diffusion_bounds=((1.0, 1.5), (2.0, 5.0)))
    with pytest.raises(ValueError, match="outside declared bounds"):
        diffusion_scalar(p, 0, (0.0, 0.0))  # a1(0,0) = 2 > 1.5
