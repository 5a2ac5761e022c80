import math
import os
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import LinAlgError, solve_banded
from scipy.linalg.lapack import dgbcon, dgbtrf

import mbfem
from mbfem import build_space, fixed_interval, nonlocal_value
from mbfem.assembly import BandedMatrix, assemble_load, assemble_static
from mbfem.discretization import gauss_legendre, interpolate, lagrange_table
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


def toarray(band: BandedMatrix) -> np.ndarray:
    """Dense copy of a banded matrix: entry (i, j) is data[kb + i - j, j]
    within the band, zero outside it."""
    n, kb = band.n, band.kb
    a = np.zeros((n, n))
    for i in range(n):
        for j in range(max(0, i - kb), min(n, i + kb + 1)):
            a[i, j] = band.data[kb + i - j, j]
    return a


def in_band(band: BandedMatrix) -> np.ndarray:
    """Mask of the entries of `band.data` that hold matrix entries: row r of
    column j is entry (j + r - kb, j), which must lie in 0..n-1."""
    kb, n = band.kb, band.n
    rows = np.arange(n)[None, :] + np.arange(2 * kb + 1)[:, None] - kb
    return (rows >= 0) & (rows < n)


def condition_1norm(band: BandedMatrix) -> float:
    """LAPACK's estimate of the 1-norm condition number of a banded matrix:
    `dgbtrf`, then `dgbcon` with the 1-norm of the entries in the band (its
    unused corners masked out)."""
    kb = band.kb
    entries = np.where(in_band(band), band.data, 0.0)
    ab = np.zeros((3 * kb + 1, band.n), order="F")
    ab[kb:] = entries
    lu, ipiv, info = dgbtrf(ab, kb, kb)
    assert info == 0, info
    rcond, info = dgbcon(kb, kb, lu, ipiv, np.abs(entries).sum(axis=0).max())
    assert info == 0, info
    return 1.0 / rcond


def loop_matvec(band: BandedMatrix, x: np.ndarray) -> np.ndarray:
    """A x by a Python loop over the 2kb + 1 diagonals, each added in order
    from the lowest column: the product `BandedMatrix.matvec` replaced."""
    kb, n = band.kb, band.n
    out = np.zeros(n)
    for d in range(-kb, kb + 1):
        j0, j1 = max(d, 0), n + min(d, 0)
        if j0 < j1:
            out[j0 - d : j1 - d] += band.data[kb - d, j0:j1] * x[j0:j1]
    return out


# --- closed forms -----------------------------------------------------------


def test_mass_linear_elements_closed_form():
    space = build_space(2, 1)
    h = 0.5
    expected = (h / 6.0) * np.array([[2.0, 1.0, 0.0], [1.0, 4.0, 1.0], [0.0, 1.0, 2.0]])
    assert np.allclose(toarray(assemble_static(space).mass), expected, atol=1e-15)


def test_stiffness_single_linear_element():
    space = build_space(1, 1)
    expected = np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert np.allclose(toarray(assemble_static(space).stiffness), expected, atol=1e-14)


def test_weights_sum_to_one():
    for nt, k in ((1, 1), (3, 2), (5, 4)):
        ops = assemble_static(build_space(nt, k))
        assert ops.nonlocal_weights.sum() == pytest.approx(1.0, rel=1e-14)


def test_mass_and_stiffness_are_symmetric_bitwise():
    ops = assemble_static(build_space(5, 3))
    m = toarray(ops.mass)
    s = toarray(ops.stiffness)
    assert np.array_equal(m, m.T)
    assert np.array_equal(s, s.T)


# --- oracle comparison ------------------------------------------------------


@pytest.mark.parametrize("nt,k", [(1, 1), (2, 2), (3, 3), (4, 2)])
def test_operators_match_simpson_oracle(nt, k):
    space = build_space(nt, k)
    ops = assemble_static(space)
    mass, stiff, conv0, conv1, wvec = dense_operators(space)
    assert np.allclose(toarray(ops.mass), mass, atol=1e-10)
    assert np.allclose(toarray(ops.stiffness), stiff, atol=1e-9)
    assert np.allclose(toarray(ops.conv_const), conv0, atol=1e-10)
    assert np.allclose(toarray(ops.conv_linear), conv1, atol=1e-10)
    assert np.allclose(ops.nonlocal_weights, wvec, atol=1e-12)


# --- banded container -------------------------------------------------------


def test_banded_matvec_and_interior_match_dense():
    space = build_space(4, 3)
    ops = assemble_static(space)
    rng = np.random.default_rng(11)
    a = ops.mass
    x = rng.standard_normal(a.n)
    assert np.allclose(a.matvec(x), toarray(a) @ x, atol=1e-14)
    inner = BandedMatrix(a.data[:, 1:-1], a.kb)
    assert np.allclose(toarray(inner), toarray(a)[1:-1, 1:-1], atol=0.0)
    xi = rng.standard_normal(inner.n)
    assert np.allclose(inner.matvec(xi), toarray(inner) @ xi, atol=1e-14)


def test_banded_solve_matches_dense_solve():
    space = build_space(6, 2)
    ops = assemble_static(space)
    a = ops.mass
    rng = np.random.default_rng(5)
    rhs = rng.standard_normal(a.n)
    assert np.allclose(a.solve(rhs), np.linalg.solve(toarray(a), rhs), rtol=1e-12, atol=1e-14)


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


def space_with_rule(nt, k, q):
    """build_space(nt, k), or the same space with a q-point Gauss rule in
    place of its k + 2 points: assembly must not assume the default rule."""
    space = build_space(nt, k)
    if q is None:
        return space
    rule = gauss_legendre(q)
    values, derivs = lagrange_table(np.linspace(-1.0, 1.0, k + 1), rule.points)
    points = space.breakpoints[:-1, None] + (rule.points[None, :] + 1.0) * space.jacobians[:, None]
    return replace(space, quad=rule, shape_values=values, shape_derivs=derivs, element_quad_points=points)


# (nt, k, q): kb = 1 takes the tridiagonal path, (1, 2) has one interior
# unknown, (1, 1) none; q = None is build_space's k + 2, q = 3 the fewest for k = 2
BIT_GRID = [
    (4096, 3, None),
    (32, 2, None),
    (4, 4, None),
    (7, 1, None),
    (16, 6, None),
    (1, 1, None),
    (1, 2, None),
    (1, 3, None),
    (2, 1, None),  # kb = 1 with one unknown: dgbsv, since dgtsv rejects n = 1
    (33, 3, None),
    (9, 3, 7),
    (6, 2, 3),
]


@pytest.mark.parametrize("nt,k,q", BIT_GRID)
def test_assemble_static_equals_the_element_loop(nt, k, q):
    space = space_with_rule(nt, k, q)
    ops = assemble_static(space)
    bands, weights = loop_assemble_static(space)
    got = (ops.mass, ops.stiffness, ops.conv_const, ops.conv_linear)
    for name, band, expected in zip(("mass", "stiffness", "conv_const", "conv_linear"), got, bands):
        assert np.array_equal(band.data, expected), name
    assert np.array_equal(ops.nonlocal_weights, weights)


@pytest.mark.parametrize("nt,k,q", BIT_GRID)
def test_assemble_load_equals_the_element_loop(nt, k, q):
    space = space_with_rule(nt, k, q)
    p = example1()
    for i, t in ((0, 0.0), (1, 0.37)):
        x_q = p.motion.to_moving(space.element_quad_points.T, t)
        assert np.array_equal(assemble_load(space, p, i, x_q, t), loop_assemble_load(space, p, i, t))


@pytest.mark.parametrize("nt,k,q", BIT_GRID)
def test_assemble_load_has_the_same_bits_for_either_point_order(nt, k, q):
    # the step kernel passes C-ordered (q, nt) points; a transposed view of
    # the space's (nt, q) points must give the same bits
    space = space_with_rule(nt, k, q)
    p = example1()
    for i, t in ((0, 0.0), (1, 0.37)):
        x_q = p.motion.to_moving(space.element_quad_points.T, t)
        by_rows = assemble_load(space, p, i, np.ascontiguousarray(x_q), t)
        assert np.array_equal(assemble_load(space, p, i, np.asfortranarray(x_q), t), by_rows)


@pytest.mark.parametrize("nt,k,q", BIT_GRID)
def test_banded_solve_equals_solve_banded(nt, k, q):
    # a Crank-Nicolson matrix of example1 at t = 0.25, dt = 1e-3
    space = space_with_rule(nt, k, q)
    ops = assemble_static(space)
    c_half = 0.5 * (-0.3 * ops.conv_const.data + 1.7 * ops.conv_linear.data)
    lhs = BandedMatrix((ops.mass.data / 1e-3 + 0.8 * ops.stiffness.data - c_half)[:, 1:-1], k)
    rhs = np.random.default_rng(nt * 10 + k).standard_normal(lhs.n)
    expected = solve_banded((k, k), lhs.data, rhs)
    assert np.array_equal(lhs.solve(rhs), expected)
    assert np.array_equal(BandedMatrix(np.ascontiguousarray(lhs.data), k).solve(rhs), expected)


# with nt = 1 a band has fewer than 2kb + 1 rows, so `matvec` pads the product
MATVEC_SIZES = list(dict.fromkeys([(1, 4)] + [(nt, k) for nt, k, _ in BIT_GRID]))


@pytest.mark.parametrize("nt,k", MATVEC_SIZES)
def test_banded_matvec_equals_the_dense_product(nt, k):
    # each entry of A x is a sum of at most 2kb + 1 products, so two orders
    # of summation differ by at most 2 (2kb + 1) eps (|A| |x|); the unused
    # corners, filled with NaN, must not reach the result
    ops = assemble_static(build_space(nt, k))
    rng = np.random.default_rng(nt * 10 + k)
    eps = np.finfo(float).eps
    interior = BandedMatrix(ops.conv_const.data[:, 1:-1], k)
    for a in (ops.mass, ops.conv_linear, interior) if interior.n else (ops.mass, ops.conv_linear):
        x = rng.standard_normal(a.n)
        got = a.matvec(x)
        if a.n <= 1000:
            expected, scale = toarray(a) @ x, np.abs(toarray(a)) @ np.abs(x)
        else:  # a dense copy at 12,289 dofs would take 1.2 GB
            expected, scale = loop_matvec(a, x), loop_matvec(BandedMatrix(np.abs(a.data), k), np.abs(x))
        assert got.shape == (a.n,)
        assert np.all(np.abs(got - expected) <= 2 * (2 * k + 1) * eps * scale)
        poisoned = BandedMatrix(np.where(in_band(a), a.data, np.nan), k)
        assert np.array_equal(poisoned.matvec(x), got)


@pytest.mark.parametrize("k", [1, 3])
def test_banded_solve_raises_on_a_singular_system(k):
    for n in (1, 5):
        with pytest.raises(LinAlgError, match=rf"^zero pivot at unknown 1 of {n}$"):
            BandedMatrix(np.zeros((2 * k + 1, n)), k).solve(np.ones(n))
    # a zero pivot further down is named by its own index
    data = np.zeros((2 * k + 1, 5))
    data[k, :3] = 1.0
    with pytest.raises(LinAlgError, match=r"^zero pivot at unknown 4 of 5$"):
        BandedMatrix(data, k).solve(np.ones(5))


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
    assert np.all(assemble_load(space, p, 0, space.element_quad_points.T, 0.3) == 0.0)


def test_load_unit_forcing_equals_weights():
    space = build_space(3, 2)
    p = zero_motion_problem(lambda x, t: np.ones_like(np.asarray(x, float)))
    ops = assemble_static(space)
    assert np.allclose(assemble_load(space, p, 0, space.element_quad_points.T, 0.5), ops.nonlocal_weights, atol=1e-15)


def test_load_example2_matches_dense_integration():
    # f1(x, t) = 0.1 x / (1+t)^4; at t=0 the interval is (0, 1) so x = y
    p = example2()
    space = build_space(2, 1)
    load = assemble_load(space, p, 0, space.element_quad_points.T, 0.0)
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
        assemble_load(space, p, 0, space.element_quad_points.T, 0.0)


@pytest.mark.parametrize("order", ["C", "F"])
def test_load_names_the_point_where_the_forcing_is_not_finite(order):
    # NaNs at element 2, point 1 and at element 3, point 0: the reported x
    # must be the first in element order, in either memory order of the
    # (q, nt) points
    space = build_space(4, 2)
    points = np.array(space.element_quad_points.T, order=order)
    bad = points[1, 2]
    p = zero_motion_problem(lambda x, t: np.where((x == bad) | (x == points[0, 3]), np.nan, x))
    with pytest.raises(ValueError, match=re.escape(f"non-finite value at x={bad}, t=0.0")):
        assemble_load(space, p, 0, points, 0.0)



def test_a_load_written_into_a_row_has_the_allocating_bits_and_touches_no_other_row():
    # the step kernel assembles equation i's load into row i of one (ne, n)
    # array, through kept work arrays; the row starts as garbage
    space = build_space(8, 3)
    p = example1()
    x_q = p.motion.to_moving(np.ascontiguousarray(space.element_quad_points.T), 0.37)
    work = (np.empty((len(space.quad.weights), space.n_elements)), np.empty((space.degree + 1, space.n_elements)))
    rows = np.full((3, space.n_dofs), 7.0)
    for i in range(p.ne):
        got = assemble_load(space, p, i, x_q, 0.37, out=rows[1], work=work)
        assert np.shares_memory(got, rows[1])
        assert rows[1].tobytes() == assemble_load(space, p, i, x_q, 0.37).tobytes()
        assert np.all(rows[[0, 2]] == 7.0)
    bad = zero_motion_problem(lambda x, t: np.full(np.asarray(x, float).shape, np.nan))
    with pytest.raises(ValueError) as allocating:
        assemble_load(space, bad, 0, x_q, 0.0)
    with pytest.raises(ValueError) as into_row:
        assemble_load(space, bad, 0, x_q, 0.0, out=rows[1], work=work)
    assert "non-finite" in str(into_row.value) and str(into_row.value) == str(allocating.value)

# --- nonlocal values and diffusion scalars ----------------------------------


def test_nonlocal_value_zero():
    space = build_space(3, 1)
    ops = assemble_static(space)
    m = fixed_interval(0.0, 1.0, T=1.0)
    assert nonlocal_value(ops.nonlocal_weights, np.zeros(space.n_dofs), m.gamma(0.5)) == 0.0


def test_nonlocal_value_constant_on_width_two_interval():
    space = build_space(3, 1)
    ops = assemble_static(space)
    m = fixed_interval(0.0, 2.0, T=1.0)
    ones = np.ones(space.n_dofs)
    assert nonlocal_value(ops.nonlocal_weights, ones, m.gamma(0.3)) == pytest.approx(2.0, rel=1e-14)


def test_nonlocal_value_quadratic():
    space = build_space(3, 2)
    ops = assemble_static(space)
    m = fixed_interval(0.0, 1.0, T=1.0)
    coeffs = interpolate(space, lambda y: y * (1.0 - y))
    value = nonlocal_value(ops.nonlocal_weights, coeffs, m.gamma(0.0))
    assert value == pytest.approx(1.0 / 6.0, abs=1e-12)


def test_nonlocal_value_of_a_stack_is_a_list_of_python_floats_and_of_a_vector_one():
    # the diffusion callables and the bounds message read the values, so
    # they are Python floats whether one vector or a stack is integrated
    space = build_space(4, 2)
    w = assemble_static(space).nonlocal_weights
    stack = np.random.default_rng(3).standard_normal((3, space.n_dofs))
    one = nonlocal_value(w, stack[1], 0.7)
    assert type(one) is float
    values = nonlocal_value(w, stack, 0.7)
    assert type(values) is list and [type(v) for v in values] == [float] * 3
    assert values[1] == one
    assert nonlocal_value(w, stack[:1], 0.7) == [nonlocal_value(w, stack[0], 0.7)]


@pytest.mark.parametrize("shape", [(8,), (3, 8), (3, 10), (9, 8)])
def test_nonlocal_value_of_the_wrong_length_is_a_value_error(shape):
    w = assemble_static(build_space(4, 2)).nonlocal_weights
    with pytest.raises(ValueError, match=r"dimension mismatch: \(9,\) weights"):
        nonlocal_value(w, np.ones(shape), 1.0)


def test_a_stacked_nonlocal_value_has_each_rows_bits_at_any_blas_thread_count():
    # each row of a stack gets the bits of the one-vector call on that row,
    # at 1 and 2 BLAS threads, on both sides of the 8,192-entry chunk and of
    # OpenBLAS's 10,000-entry threading threshold
    sizes = (9, 8191, 8192, 8193, 12289)
    code = (
        "import numpy as np; from mbfem import nonlocal_value\n"
        f"for n in {sizes!r}:\n"
        "    w, *rows = np.random.default_rng(n).standard_normal((4, n))\n"
        "    stacked = nonlocal_value(w, np.array(rows), 1.5)\n"
        "    alone = [nonlocal_value(w, v, 1.5) for v in rows]\n"
        "    print(' '.join(v.hex() for v in stacked + alone))"
    )
    src = os.path.dirname(os.path.dirname(mbfem.__file__))
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    children = [
        subprocess.Popen(
            [sys.executable, "-c", code],
            stdout=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": pythonpath, "OPENBLAS_NUM_THREADS": threads},
        )
        for threads in ("1", "2")
    ]
    outputs = [child.communicate(timeout=60)[0].splitlines() for child in children]
    assert [child.returncode for child in children] == [0, 0]
    assert outputs[0] == outputs[1] and len(outputs[0]) == len(sizes)
    for n, line in zip(sizes, outputs[0]):
        values = line.split()
        assert values[:3] == values[3:]
        w, *rows = np.random.default_rng(n).standard_normal((4, n))
        for value, v in zip(values, rows):
            assert float.fromhex(value) == pytest.approx(1.5 * math.fsum(w * v), rel=1e-12, abs=1e-12)


def test_nonlocal_value_has_the_same_bits_at_any_blas_thread_count():
    # OpenBLAS splits a ddot of more than 10,000 entries across threads;
    # 12,289 is the dof count of nt=4096, k=3.  The same children apply a
    # band of that size by `BandedMatrix.matvec` and assemble a load of
    # that size on the step kernel's points, a (4, 5) by (5, 4096) dgemm;
    # their bits must not depend on the thread count either
    n = 12289
    code = (
        "import numpy as np; from mbfem import nonlocal_value, build_space, example2; "
        "from mbfem.assembly import BandedMatrix, assemble_load, assemble_static; "
        "from mbfem.stepper import StepKernel; "
        f"w, v = np.random.default_rng(0).standard_normal((2, {n})); "
        "print(nonlocal_value(w, v, 1.5).hex()); "
        f"band = BandedMatrix(np.asfortranarray(np.random.default_rng(1).standard_normal((7, {n}))), 3); "
        "print(band.matvec(v).tobytes().hex()); "
        "space = build_space(4096, 3); p = example2(); "
        "x_q = p.motion.to_moving(StepKernel(assemble_static(space), p.ne, 0.01).quad_points, 0.3); "
        "print(assemble_load(space, p, 0, x_q, 0.3).tobytes().hex())"
    )
    src = os.path.dirname(os.path.dirname(mbfem.__file__))
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    children = [
        subprocess.Popen(
            [sys.executable, "-c", code],
            stdout=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": pythonpath, "OPENBLAS_NUM_THREADS": threads},
        )
        for threads in ("1", "2")
    ]
    outputs = [child.communicate(timeout=60)[0].split() for child in children]
    assert [child.returncode for child in children] == [0, 0]
    (value, product, load), (value_2, product_2, load_2) = outputs
    assert value == value_2
    assert product == product_2
    assert load == load_2
    w, v = np.random.default_rng(0).standard_normal((2, n))
    assert float.fromhex(value) == pytest.approx(1.5 * math.fsum(w * v), rel=1e-12)
    band = BandedMatrix(np.random.default_rng(1).standard_normal((7, n)), 3)
    assert np.allclose(np.frombuffer(bytes.fromhex(product)), loop_matvec(band, v), rtol=1e-12, atol=1e-12)
    space = build_space(4096, 3)
    assert np.array_equal(np.frombuffer(bytes.fromhex(load)), loop_assemble_load(space, example2(), 0, 0.3))


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
