import math

import numpy as np
import pytest

from mbfem import build_space
from mbfem.analysis import l2_error_vs_function
from mbfem.discretization import gauss_legendre, interpolate, lagrange_table, natural_cubic_spline


def test_gauss_rule_integrates_polynomials_exactly():
    # q points are exact through degree 2q-1
    for q in (1, 2, 3, 5):
        rule = gauss_legendre(q)
        assert rule.points.shape == (q,)
        assert rule.weights.sum() == pytest.approx(2.0, rel=1e-14)
        for deg in range(2 * q):
            quad = float(rule.weights @ rule.points**deg)
            exact = (1.0 - (-1.0) ** (deg + 1)) / (deg + 1)
            assert quad == pytest.approx(exact, abs=1e-13)


def test_space_shapes_linear():
    space = build_space(2, 1)
    assert space.n_dofs == 3
    assert np.allclose(space.dof_positions, [0.0, 0.5, 1.0])
    assert space.n_elements == 2


def test_space_shapes_quadratic():
    space = build_space(4, 2)
    assert space.n_dofs == 9
    assert np.diff(space.breakpoints) == pytest.approx([0.25] * 4)
    assert space.quad.n == 4


def test_space_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_space(0, 1)
    with pytest.raises(ValueError):
        build_space(4, 0)


def loop_dof_positions(nt, k):
    """The element-by-element dof positions the whole-array build replaced."""
    bp = np.linspace(0.0, 1.0, nt + 1)
    local = np.linspace(0.0, 1.0, k + 1)
    pos = np.empty(nt * k + 1)
    for e in range(nt):
        a, b = bp[e], bp[e + 1]
        pos[e * k : e * k + k + 1] = a + (b - a) * local
    pos[0], pos[-1] = 0.0, 1.0
    return pos


@pytest.mark.parametrize("nt", [1, 2, 3, 7, 64, 1000, 4096])
def test_dof_positions_equal_the_element_loop(nt):
    for k in range(1, 7):
        space = build_space(nt, k)
        assert np.array_equal(space.dof_positions, loop_dof_positions(nt, k))
        # shared nodes are the breakpoints themselves
        assert np.array_equal(space.dof_positions[::k], space.breakpoints)


def test_basis_cardinality():
    space = build_space(3, 3)
    nodes = np.linspace(-1.0, 1.0, 4)
    vals, _ = space.eval_basis(nodes)
    assert np.allclose(vals, np.eye(4), atol=1e-13)


def test_basis_linear_midpoint():
    space = build_space(2, 1)
    vals, _ = space.eval_basis(np.array([0.0]))
    assert np.allclose(vals, [[0.5, 0.5]], atol=1e-15)


def test_basis_quadratic_matches_closed_form():
    # cardinal quadratics on nodes {-1, 0, 1}
    space = build_space(4, 2)
    pts = gauss_legendre(3).points
    vals, ders = space.eval_basis(pts)
    expected = np.column_stack([pts * (pts - 1.0) / 2.0, 1.0 - pts**2, pts * (pts + 1.0) / 2.0])
    expected_d = np.column_stack([pts - 0.5, -2.0 * pts, pts + 0.5])
    assert np.allclose(vals, expected, atol=1e-13)
    assert np.allclose(ders, expected_d, atol=1e-13)


def test_lagrange_table_partition_of_unity():
    nodes = np.linspace(-1.0, 1.0, 6)
    x = np.linspace(-1.0, 1.0, 40)
    vals, ders = lagrange_table(nodes, x)
    assert np.allclose(vals.sum(axis=1), 1.0, atol=1e-12)
    assert np.allclose(ders.sum(axis=1), 0.0, atol=1e-11)


def test_interpolate_reproduces_polynomial():
    space = build_space(3, 2)
    coeffs = interpolate(space, lambda y: y * (1.0 - y))
    assert l2_error_vs_function(space, coeffs, lambda y: y * (1.0 - y)) <= 1e-14


def test_interpolate_zero():
    space = build_space(4, 3)
    assert np.all(interpolate(space, lambda y: 0.0 * y) == 0.0)


def test_interpolate_forces_boundary_dofs():
    space = build_space(2, 1)
    coeffs = interpolate(space, lambda y: np.ones_like(y))
    assert coeffs[0] == 0.0 and coeffs[-1] == 0.0
    assert coeffs[1] == 1.0


def test_interpolation_error_scales_with_degree():
    u = lambda y: np.sin(np.pi * y)
    for k in (1, 2, 3):
        errs = []
        for nt in (4, 8, 16):
            space = build_space(nt, k)
            errs.append(l2_error_vs_function(space, interpolate(space, u), u))
        ratio = errs[0] / errs[1]
        assert 2.0 ** (k + 1) * 0.7 < ratio < 2.0 ** (k + 1) * 1.4


def test_l2_norm_values():
    space = build_space(4, 1)
    norm = lambda c: l2_error_vs_function(space, c, np.zeros_like)
    assert norm(np.zeros(space.n_dofs)) == 0.0
    assert norm(np.ones(space.n_dofs)) == pytest.approx(1.0, rel=1e-14)
    coeffs = space.dof_positions.copy()  # nodal interpolant of y
    assert norm(coeffs) == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-13)


def test_natural_spline_through_collinear_knots_is_linear():
    spline = natural_cubic_spline([(0.0, 1.0), (0.4, 1.8), (1.0, 3.0)])
    x = np.linspace(0.0, 1.0, 33)
    assert np.allclose(spline(x), 1.0 + 2.0 * x, atol=1e-12)
    assert np.allclose(spline(x, 2), 0.0, atol=1e-10)


def test_natural_spline_interpolates_knots():
    knots = [(0.0, 0.0), (0.2, 1.0), (0.5, 0.5), (1.0, 0.0)]
    spline = natural_cubic_spline(knots)
    for x, v in knots:
        assert spline(x) == pytest.approx(v, abs=1e-14)
    # natural end conditions: vanishing second derivative
    assert spline(0.0, 2) == pytest.approx(0.0, abs=1e-10)
    assert spline(1.0, 2) == pytest.approx(0.0, abs=1e-10)


def test_natural_spline_rejects_bad_knots():
    with pytest.raises(ValueError):
        natural_cubic_spline([(0.0, 0.0), (1.0, 1.0)])
    with pytest.raises(ValueError):
        natural_cubic_spline([(0.0, 0.0), (0.5, 1.0), (0.5, 2.0), (1.0, 0.0)])
