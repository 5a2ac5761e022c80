import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial
from scipy.linalg import solve_banded

import mbfem
from mbfem import ErrorTracker, ProblemSpec, build_space, example1, example2, fixed_interval, run
from mbfem.analysis import fit_slope, l2_error_vs_function, measure
from mbfem import assembly, stepper
from mbfem.assembly import (
    BandedMatrix,
    _back_substitute,
    _element_blocks,
    _element_entries,
    _eliminate_interiors,
    _gather_entries,
    _scatter_entries,
    assemble_static,
    nonlocal_value,
)
from mbfem.geometry import BoundaryMotion
from mbfem.cli import parse_problem
from mbfem.stepper import (
    CONDENSE_MIN_ELEMENTS,
    SchemeState,
    StepKernel,
    advance,
    bootstrap_first_step,
    initialize,
    level_grid,
)
from conftest import heat_problem
from test_assembly import cardinal_polys, condition_1norm, loop_matvec, simpson_weights, toarray


def zero_problem(T=1.0):
    return ProblemSpec(
        ne=1,
        diffusion=(lambda r: 1.0 + r * r,),
        forcing=(lambda x, t: np.zeros_like(np.asarray(x, float)),),
        initial=(lambda x: 0.0 * np.asarray(x, float),),
        motion=fixed_interval(0.0, 1.0, T=T),
        T=T,
    )


def test_initialize_zero_data():
    p = zero_problem()
    space = build_space(4, 2)
    state = initialize(space, p, 0.1)
    assert state.time == 0.0 and state.t_index == 0
    assert all(np.all(v == 0.0) for v in state.current)
    assert state.previous is None


def test_initialize_example1_matches_quartic_sampling():
    # at t = 0 the transform is the identity, so V0 interpolates q1, q2
    from mbfem.problems import _Q1_COEFFS, _Q2_COEFFS

    p = example1()
    space = build_space(7, 3)
    state = initialize(space, p, 0.01)
    y = space.dof_positions
    inner = slice(1, -1)
    assert np.allclose(state.current[0][inner], Polynomial(_Q1_COEFFS)(y[inner]), rtol=1e-13)
    assert np.allclose(state.current[1][inner], Polynomial(_Q2_COEFFS)(y[inner]), rtol=1e-13)
    assert state.current[0][0] == 0.0 and state.current[0][-1] == 0.0


def test_bootstrap_zero_fixed_point():
    p = zero_problem()
    space = build_space(4, 2)
    s1 = bootstrap_first_step(initialize(space, p, 0.05), StepKernel(assemble_static(space), p.ne), p)
    assert all(np.all(v == 0.0) for v in s1.current)
    assert s1.time == pytest.approx(0.05)
    assert s1.t_index == 1


def test_bootstrap_heat_decay_factor():
    # one Crank-Nicolson step must damp the first mode by e^{-pi^2 delta}
    # up to O(delta^3) + O(h^{k+1})
    delta = 0.01
    p = heat_problem(T=1.0)
    space = build_space(64, 2)
    state = initialize(space, p, delta)
    s1 = bootstrap_first_step(state, StepKernel(assemble_static(space), p.ne), p)
    norm = lambda v: l2_error_vs_function(space, v, np.zeros_like)
    ratio = norm(s1.current[0]) / norm(state.current[0])
    assert ratio < 1.0
    assert ratio == pytest.approx(math.exp(-math.pi**2 * delta), abs=5e-4)


def test_bootstrap_example1_first_step_accuracy():
    # error after one step stays within C(h^3 + delta^2); measured 3.6e-5
    # at these parameters, asserted with a tenfold margin
    p = example1()
    space = build_space(100, 2)
    s1 = bootstrap_first_step(initialize(space, p, 0.01), StepKernel(assemble_static(space), p.ne), p)
    rec = measure(p, space, s1.time, s1.current)
    assert max(rec.l2_moving) <= 5e-4


def test_advance_keeps_zero():
    p = zero_problem()
    space = build_space(4, 2)
    result = run(p, space, 0.125)
    assert all(np.all(v == 0.0) for v in result.final.current)
    assert result.final.time == pytest.approx(1.0)


def test_temporal_order_on_heat_equation():
    p = heat_problem(T=0.5)
    space = build_space(128, 2)
    pts = []
    for delta in (0.05, 0.025, 0.0125):
        final = run(p, space, delta).final
        rec = measure(p, space, final.time, final.current)
        pts.append((delta, rec.l2_moving[0]))
    fit = fit_slope(pts, axis="delta")
    assert fit.slope == pytest.approx(2.0, abs=0.2)


def test_run_integer_step_count():
    p = zero_problem(T=3.0)
    space = build_space(2, 1)
    seen = []
    result = run(p, space, 0.01, observers=[lambda n, t, v: seen.append(t)])
    assert result.n_steps == 300
    assert result.final.time == 3.0
    assert seen[0] == 0.0
    assert len(seen) == 301
    assert seen == level_grid(3.0, 0.01).tolist()


def swap_equations(p):
    """The two-equation problem with its equations in the other order: each
    diffusion takes its nonlocal arguments in the other order too."""
    a0, a1 = p.diffusion
    return replace(
        p,
        diffusion=(lambda r, s: a1(s, r), lambda r, s: a0(s, r)),
        diffusion_bounds=p.diffusion_bounds[::-1],
        forcing=p.forcing[::-1],
        initial=p.initial[::-1],
        exact=None if p.exact is None else p.exact[::-1],
    )


@pytest.mark.parametrize("make", [example1, example2])
def test_swapping_the_equations_swaps_every_level(make):
    # the equations of a step are solved independently and the coupling
    # reads only nonlocal values, so the swapped run is the same
    # arithmetic in the other order: equal bit for bit, level by level
    space = build_space(8, 3)

    def levels_and_errors(p):
        seen = []
        observers = [lambda n, t, v: seen.append((n, t, v))]
        if p.exact is not None:
            observers.append(ErrorTracker(p, space, times=[0.05, 0.2], delta=0.01))
        run(p, space, 0.01, observers=observers)
        return seen, observers[1].records if p.exact is not None else []

    problem = replace(make(), T=0.2)
    original, errors = levels_and_errors(problem)
    swapped, swapped_errors = levels_and_errors(swap_equations(problem))
    assert len(original) == len(swapped) == 21
    for (n, t, v), (m, u, w) in zip(original, swapped):
        assert (n, t) == (m, u)
        assert np.array_equal(v[0], w[1]) and np.array_equal(v[1], w[0])
    assert len(errors) == len(swapped_errors) == (2 if problem.exact is not None else 0)
    for r, q in zip(errors, swapped_errors):
        assert (r.time, r.l2_moving, r.max_nodal) == (q.time, q.l2_moving[::-1], q.max_nodal[::-1])


# Three catalog equations, each diffusion reading one nonlocal value
# (expsq:j reads r_j) or none; affine_inverse is left out, since its sum
# over r_1..r_ne runs in argument order and so rounds differently permuted.
THREE_EQUATIONS = [
    {"diffusion": "expsq:2", "initial": "poly:0,1,-1", "forcing": "poly:0,1;texp:-1"},
    {"diffusion": "const:0.7", "initial": "poly:0,2,-1,-1", "forcing": "gaussx;tpow:2"},
    {"diffusion": "expsq:1", "initial": "poly:0,0.5,0.5,-1", "forcing": "poly:1,0,-2;const:0.3"},
]


def three_equation_problem(order):
    """The catalog problem with THREE_EQUATIONS listed in `order`, each
    expsq index moved to where its equation now stands."""
    position = {old: new for new, old in enumerate(order)}
    lines = [
        "ne=3 T=0.2 motion=rational",
        "alpha_num=0,-0.3 alpha_den=1,1 beta_num=1,0.8 beta_den=1,0.5",
    ]
    for n, old in enumerate(order, 1):
        eq = THREE_EQUATIONS[old]
        family, _, j = eq["diffusion"].partition(":")
        diffusion = f"expsq:{position[int(j) - 1] + 1}" if family == "expsq" else eq["diffusion"]
        lines.append(f"diffusion{n}={diffusion} initial{n}={eq['initial']} forcing{n}={eq['forcing']}")
    return parse_problem("\n".join(lines))


def test_cycling_three_catalog_equations_cycles_every_level():
    # the swap oracle above for a permutation of more than two equations:
    # (0, 1, 2) -> (2, 0, 1), the diffusions' nonlocal arguments moved with them
    order = (2, 0, 1)
    space = build_space(8, 2)
    levels = []
    for p in (three_equation_problem((0, 1, 2)), three_equation_problem(order)):
        seen = []
        run(p, space, 0.01, observers=[lambda n, t, v: seen.append((n, t, v))])
        levels.append(seen)
    original, cycled = levels
    assert len(original) == len(cycled) == 21
    for (n, t, v), (m, u, w) in zip(original, cycled):
        assert (n, t) == (m, u)
        assert all(np.array_equal(w[new], v[old]) for new, old in enumerate(order))



def decoupled_problem(equations):
    """The catalog problem of the listed THREE_EQUATIONS, each expsq diffusion
    reading its own equation's nonlocal value and no other."""
    lines = [
        f"ne={len(equations)} T=0.2 motion=rational",
        "alpha_num=0,-0.3 alpha_den=1,1 beta_num=1,0.8 beta_den=1,0.5",
    ]
    for n, old in enumerate(equations, 1):
        eq = THREE_EQUATIONS[old]
        diffusion = f"expsq:{n}" if eq["diffusion"].startswith("expsq") else eq["diffusion"]
        lines.append(f"diffusion{n}={diffusion} initial{n}={eq['initial']} forcing{n}={eq['forcing']}")
    return parse_problem("\n".join(lines))

def run_levels(p, space, delta):
    """The coefficient vectors of every level of a run."""
    levels = []
    run(p, space, delta, observers=[lambda n, t, v: levels.append(v)])
    return levels



@pytest.mark.parametrize("nt", [4, CONDENSE_MIN_ELEMENTS])
def test_decoupled_equations_have_the_bits_of_each_equation_run_alone(nt, condensations):
    # when a_i reads only l_i, the equations of a run share nothing but the
    # arrays they are stacked in, so every level's row i has the bytes of
    # equation i run as a one-equation problem, on the dgbsv path (nt = 4)
    # and on the condensed path, where each run alone condenses too
    space = build_space(nt, 2)
    together = run_levels(decoupled_problem((0, 1, 2)), space, 0.01)
    for i in range(3):
        alone = run_levels(decoupled_problem((i,)), space, 0.01)
        assert len(alone) == len(together) == 21
        for v, u in zip(together, alone):
            assert v.shape == (3, space.n_dofs) and u.shape == (1, space.n_dofs)
            assert v[i].tobytes() == u[0].tobytes()
    assert condensations == ([3] * 21 + [1] * 63 if nt == CONDENSE_MIN_ELEMENTS else [])

def dense_mass_and_stiffness(nt, k):
    """Mass and stiffness of degree-k Lagrange elements on nt equal elements
    of [0, 1], from numpy's Gauss-Legendre rule, exact for these integrands."""
    xi, w = np.polynomial.legendre.leggauss(k + 2)
    polys = cardinal_polys(k)
    values = np.array([p(xi) for p in polys])
    derivs = np.array([p.deriv()(xi) for p in polys])
    jac = 0.5 / nt
    n = nt * k + 1
    mass, stiff = np.zeros((n, n)), np.zeros((n, n))
    for e in range(nt):
        dofs = slice(e * k, e * k + k + 1)
        mass[dofs, dofs] += jac * (values * w) @ values.T
        stiff[dofs, dofs] += (derivs * w) @ derivs.T / jac
    return mass, stiff


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_fixed_interval_with_constant_diffusion_is_dense_crank_nicolson(k):
    # on (0, 1) with a constant a and f = 0 the scheme is plain Crank-Nicolson
    # Galerkin, [M/d + aK/2] V^n = [M/d - aK/2] V^(n-1) on the interior dofs,
    # whose M-norm never grows; one element (k >= 2) has fewer than 2k + 1
    # dofs, so its bands take the padded BLAS product, and CONDENSE_MIN_ELEMENTS
    # quadratic elements are solved by static condensation
    for nt in (6, 1) if k > 1 else (6,):
        check_dense_crank_nicolson(nt, k)
    if k == 2:
        check_dense_crank_nicolson(CONDENSE_MIN_ELEMENTS, k, condition_scaled=True)


def check_dense_crank_nicolson(nt, k, condition_scaled=False):
    # the levels agree within 1e-12 of max|v|, or, on a mesh whose LHS is too
    # ill-conditioned for that (kappa_1 = 2e4 at 1,023 unknowns, where dgbsv
    # drifts by 2.3e-11), within the last-bit rule summed over the 20 steps
    a, delta = 0.7, 0.01
    p = replace(heat_problem(T=0.2), diffusion=(lambda r: a,))
    levels = run_levels(p, build_space(nt, k), delta)
    mass, stiff = dense_mass_and_stiffness(nt, k)
    inner = slice(1, -1)
    lhs = (mass / delta + 0.5 * a * stiff)[inner, inner]
    rhs = (mass / delta - 0.5 * a * stiff)[inner, inner]
    nodes = np.linspace(0.0, 1.0, nt * k + 1)
    v = np.sin(np.pi * nodes)
    v[0] = v[-1] = 0.0
    assert len(levels) == 21
    eps = np.finfo(float).eps
    tol = 20 * LAST_BIT_C * eps * np.linalg.cond(lhs, 1) if condition_scaled else 1e-12
    for level in levels:
        (u,) = level
        assert np.max(np.abs(u - v)) <= tol * np.max(np.abs(v))
        v = np.concatenate([[0.0], np.linalg.solve(lhs, rhs @ v[inner]), [0.0]])
    norms = [u @ mass @ u for (u,) in levels]
    assert all(later <= earlier for earlier, later in zip(norms, norms[1:]))


@pytest.mark.parametrize("nt,k", [(8, 2), (8, 1), (16, 3), (CONDENSE_MIN_ELEMENTS, 2)])
@pytest.mark.parametrize("domain", ["fixed", "expanding", "shrinking"])
def test_without_forcing_the_moving_domain_norm_never_grows(nt, k, domain, condensations):
    # example2's nonlocal diffusions and initial data without forcing: with
    # f = 0 and u = 0 at both moving ends, d/dt int u^2 dx =
    # -2 int a_i u_x^2 dx <= 0, and the discrete L2 norm on (alpha, beta) is
    # sqrt(gamma) ||V||_M.  On a fixed interval C = 0, and a step gives
    # ||V^n||_M^2 - ||V^(n-1)||_M^2 = -4 dt (a_i b2/2) (K Vbar, Vbar) <= 0
    # with Vbar = (V^n + V^(n-1))/2; on example2's expanding motion and on
    # (0.5 t, 1 - 0.5 t) the same is measured (every step shrank the norm
    # by at least 6.8% and 10.7%).  The two equations of
    # CONDENSE_MIN_ELEMENTS quadratic elements are condensed.
    motion = {
        "fixed": fixed_interval(0.0, 1.0, T=1.0),
        "expanding": example2().motion,
        "shrinking": linear_motion(0.5, -0.5),
    }[domain]
    p = replace(example2(), forcing=zero_problem().forcing * 2, motion=motion, T=0.2)
    space = build_space(nt, k)
    mass = assemble_static(space).mass
    norms = []
    observe = lambda n, t, v: norms.append([math.sqrt(p.motion.gamma(t) * (u @ mass.matvec(u))) for u in v])
    run(p, space, 0.01, observers=[observe])
    assert len(norms) == 21
    assert bool(condensations) == (nt == CONDENSE_MIN_ELEMENTS)
    eps = np.finfo(float).eps
    for earlier, later in zip(norms, norms[1:]):
        assert all(b <= a * (1.0 + 4 * eps) for a, b in zip(earlier, later)), (earlier, later)


@pytest.mark.parametrize("L", [2.0, 4.0])
def test_stretching_the_interval_scales_the_diffusion(L):
    # u_t = a(l) u_xx + f on (0, L) is w_t = (a(L r) / L^2) w_zz + f(L z, t)
    # on (0, 1) with w(z) = u(L z) and r = l / L; for a power of two L the
    # map, b2 = 1/L^2 and the scaling of a are exact, so every level agrees
    # bit for bit
    def a(r):
        return 1.0 + 0.5 / (1.0 + r * r)

    def f(x, t):
        return np.sin(3.0 * x) * (1.0 + t)

    def u0(x):
        return x * (L - x) * np.cos(x)

    stretched = ProblemSpec(
        ne=1,
        diffusion=(a,),
        forcing=(f,),
        initial=(u0,),
        motion=fixed_interval(0.0, L, T=0.2),
        T=0.2,
        diffusion_bounds=((1.0, 1.5),),
    )
    unit = ProblemSpec(
        ne=1,
        diffusion=(lambda r: a(L * r) / L**2,),
        forcing=(lambda z, t: f(L * z, t),),
        initial=(lambda z: u0(L * z),),
        motion=fixed_interval(0.0, 1.0, T=0.2),
        T=0.2,
        diffusion_bounds=((1.0 / L**2, 1.5 / L**2),),
    )
    space = build_space(8, 2)
    levels, unit_levels = run_levels(stretched, space, 0.01), run_levels(unit, space, 0.01)
    assert len(levels) == len(unit_levels) == 21
    for (v,), (w,) in zip(levels, unit_levels):
        assert np.array_equal(v, w)


def test_run_T_smaller_than_delta():
    # no whole number of steps of 0.5 reaches 0.01: rejected before any work
    calls = []
    p = replace(heat_problem(T=0.01), initial=(lambda x: calls.append(x) or np.zeros_like(x),))
    with pytest.raises(ValueError, match=r"delta=0\.5 does not divide T=0\.01"):
        run(p, build_space(16, 1), 0.5)
    assert calls == []


def test_observers_do_not_change_results():
    p = example1()
    space = build_space(4, 2)
    bare = run(p, space, 0.05)
    seen = []

    def observer(n, t, vectors):
        seen.append((n, t))
        vectors[0].sum()  # read-only access

    observed = run(p, space, 0.05, observers=[observer])
    for a, b in zip(bare.final.current, observed.final.current):
        assert np.array_equal(a, b)
    assert seen[0] == (0, 0.0)
    assert len(seen) == bare.n_steps + 1


@pytest.mark.parametrize(
    "T,delta,levels",
    [
        (0.5, 0.125, [(0, 0.0), (1, 0.125), (2, 0.25), (3, 0.375), (4, 0.5)]),
    ],
)
def test_observers_see_every_level_once(T, delta, levels):
    seen = []
    run(zero_problem(T=T), build_space(2, 1), delta, observers=[lambda n, t, v: seen.append((n, t))])
    assert seen == levels
    assert [t for _, t in seen] == level_grid(T, delta).tolist()


@pytest.mark.parametrize(
    "T,delta,n_full,last",
    [
        (0.3, 0.1, 3, 0.30000000000000004),  # 3 delta, one ulp past T: no extra step
        (3.0, 1 / 160, 480, 3.0),
    ],
)
def test_run_levels_are_the_level_grid(T, delta, n_full, last):
    times = level_grid(T, delta)
    assert times.tolist() == [n * delta for n in range(n_full + 1)]
    assert times[-1] == last
    seen = []
    run(zero_problem(T=T), build_space(2, 1), delta, observers=[lambda n, t, v: seen.append(t)])
    assert seen == times.tolist()


@pytest.mark.parametrize(
    "T,delta",
    [
        (1.0, 0.03),  # 33 steps reach 0.99
        (0.1, 0.5),  # T < delta
        (1.0, 0.33333333334),  # 3 steps land 2e-11 past T, outside the geometry's domain
        (1.0 + 1.5e-10, 0.1),  # 10 steps stop 1.5e-10 short of T
    ],
)
def test_level_grid_rejects_a_delta_that_does_not_divide_T(T, delta):
    with pytest.raises(ValueError, match=rf"delta={delta!r} does not divide T={T!r} .*T/delta = "):
        level_grid(T, delta)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    T=st.floats(1e-3, 1e3),
    n=st.integers(1, 1000),
    nudge=st.sampled_from([0.0, 1e-15, -1e-15, 1e-13, 1e-11, -1e-9, 1e-6, 0.5]),
)
def test_level_grid_levels_are_whole_steps_ending_at_T(T, n, nudge):
    # delta near T/n, off by a relative nudge: either a ValueError, or
    # levels n * delta whose last lies within the geometry's tolerance of T
    delta = T / n * (1.0 + nudge)
    try:
        times = level_grid(T, delta)
    except ValueError:
        return
    assert times.tolist() == [i * delta for i in range(len(times))]
    assert abs(times[-1] - T) <= 1e-12 * max(1.0, T)


def test_observer_vectors_are_read_only():
    p = zero_problem()
    space = build_space(2, 1)

    def vandal(n, t, vectors):
        with pytest.raises(ValueError):
            vectors[0][0] = 1.0

    run(p, space, 0.25, observers=[vandal])


def assert_zero_boundaries_and_read_only(v):
    """The invariant of every stored vector: boundary entries +0.0 (as the
    snapshot text shows them), and no writes."""
    assert v[0] == v[-1] == 0.0 and not np.signbit(v[[0, -1]]).any()
    with pytest.raises(ValueError, match="read-only"):
        v[1] = 1.0


def test_state_vectors_are_read_only_and_observers_get_them():
    p = example1()
    space = build_space(4, 2)
    kernel = StepKernel(assemble_static(space), p.ne)
    s0 = initialize(space, p, 0.05)
    s1 = bootstrap_first_step(s0, kernel, p)
    s2 = advance(s1, kernel, p)
    for state in (s0, s1, s2):
        for vectors in (state.current, state.previous):
            if vectors is None:
                continue
            assert vectors.shape == (p.ne, space.n_dofs)
            with pytest.raises(ValueError, match="read-only"):
                vectors[0, 1] = 1.0
            for v in vectors:
                assert_zero_boundaries_and_read_only(v)
    seen = []
    result = run(replace(p, T=0.2), space, 0.05, observers=[lambda n, t, v: seen.append(v)])
    assert seen[-1] is result.final.current


@pytest.mark.parametrize(
    "field,fn,shapes",
    [
        ("forcing", lambda x, t: 1.0, r"shape \(\) for points of shape \(4, 2\)"),
        ("initial", lambda x: math.sin(math.pi * x), r"points of shape \(5,\)"),
    ],
    ids=["scalar-forcing", "math-sin-initial"],
)
def test_a_callable_that_is_not_whole_array_is_a_value_error(field, fn, shapes):
    p = example1()
    scalar_only = replace(p, **{field: (fn, getattr(p, field)[1])})
    with pytest.raises(ValueError, match=shapes):
        run(replace(scalar_only, T=0.1), build_space(2, 2), 0.05)


def test_a_forcing_that_raises_is_called_once():
    calls = []

    def forcing(x, t):
        calls.append(x.shape)
        raise ValueError("outside the forcing's domain")

    p = replace(zero_problem(), forcing=(forcing,))
    with pytest.raises(ValueError, match="outside the forcing's domain"):
        run(p, build_space(2, 1), 0.1)
    assert calls == [(3, 2)]  # (q, nt)


def test_runs_are_deterministic():
    p = example1()
    space = build_space(4, 2)
    a = run(p, space, 0.05)
    b = run(p, space, 0.05)
    for va, vb in zip(a.final.current, b.final.current):
        assert np.array_equal(va, vb)


def test_runs_have_the_same_bytes_at_any_blas_thread_count():
    # every level of three whole runs, hashed in children at 1 and 2 BLAS
    # threads: example2 at (4096, 3), whose 12,289-entry products OpenBLAS
    # may split across threads, and example1 at (32, 3) and (512, 2), the
    # last on the condensed path
    assert example1().ne * 512 >= CONDENSE_MIN_ELEMENTS  # the size rule condenses (512, 2)
    code = (
        "import hashlib\n"
        "from dataclasses import replace\n"
        "from mbfem import build_space, example1, example2, run\n"
        "for make, nt, k in ((example2, 4096, 3), (example1, 32, 3), (example1, 512, 2)):\n"
        "    digest = hashlib.sha256()\n"
        "    levels = [lambda step, time, vectors: digest.update(vectors.tobytes())]\n"
        "    run(replace(make(), T=0.1), build_space(nt, k), 0.01, observers=levels)\n"
        "    print(digest.hexdigest())"
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
    outputs = [child.communicate(timeout=120)[0].split() for child in children]
    assert [child.returncode for child in children] == [0, 0]
    assert len(outputs[0]) == 3 and outputs[0] == outputs[1]


@pytest.mark.parametrize("delta", [math.inf, math.nan])
def test_run_rejects_non_finite_delta(delta):
    with pytest.raises(ValueError, match="finite"):
        run(zero_problem(), build_space(2, 1), delta)


@pytest.mark.parametrize("T", [math.inf, math.nan])
def test_run_rejects_non_finite_final_time(T):
    with pytest.raises(ValueError, match="final time"):
        run(zero_problem(T=T), build_space(2, 1), 0.1)


def test_run_rejects_bad_delta():
    p = zero_problem()
    space = build_space(2, 1)
    with pytest.raises(ValueError):
        run(p, space, 0.0)
    with pytest.raises(ValueError):
        run(p, space, -0.1)


# --- the step kernel against the plain band expressions ---------------------


def half_convection(ops, motion, t_mid):
    """C/2 at t_mid in the kernel's operand order."""
    g = motion.gamma(t_mid)
    return (motion.alpha_prime(t_mid) / (2.0 * g)) * ops.conv_const.data + (
        motion.gamma_prime(t_mid) / (2.0 * g)
    ) * ops.conv_linear.data


def plain_bands(ops, motion, t_mid, a_i, dt, v_prev, load):
    """One equation's full-width LHS band and RHS of the midpoint form as
    plain band expressions in the kernel's operand order, (M/d - C/2) + D
    with D = (a_i b2/2) K and (2M/d) V^(n-1) + G, the band 2 (M/d) applied
    by `BandedMatrix.matvec`."""
    m_over_dt = ops.mass.data / dt
    diff_half = (0.5 * a_i * motion.coeff_b2(t_mid)) * ops.stiffness.data
    rhs = BandedMatrix(2.0 * m_over_dt, ops.mass.kb).matvec(v_prev) + load
    return m_over_dt - half_convection(ops, motion, t_mid) + diff_half, rhs


def plain_equation(ops, motion, t_mid, a_i, dt, v_prev, load):
    """One equation's step from `plain_bands`, solved by scipy's
    solve_banded for U and returned as U - V^(n-1): the arithmetic of the
    kernel's banded path."""
    lhs, rhs = plain_bands(ops, motion, t_mid, a_i, dt, v_prev, load)
    kb = ops.mass.kb
    u = np.zeros_like(v_prev)
    u[1:-1] = solve_banded((kb, kb), lhs[:, 1:-1], rhs[1:-1])
    return u - v_prev


# The static condensation on the band layout, kept as the stepper ran it
# before the step kernel held condensing steps in an element-entry store:
# the reference the store's elimination and back-substitution must match
# bit for bit.


def band_eliminate_interiors(a: BandedMatrix, b: np.ndarray, work: np.ndarray) -> None:
    """First half of a static condensation of `a`, the band of the
    E = (a.n - 1) // k degree-k Lagrange elements laid end to end from
    column 0 (kb == k; columns past the last whole element are left alone):
    eliminate the k - 1 interior dofs of every element.  b is the
    (k + 1, E) `_element_entries` view of the right-hand side, which the
    caller makes once for all the condensations of one vector.

    The elimination runs without pivoting, one local pivot at a time over
    all E elements at once: entry (r, c) of every element block is the
    strided view a.data[k + r - c, c::k], read k entries apart when a.data
    is row-major (either order gives the same bits), and only the vertex
    diagonals are shared between elements.  It needs nonsingular element
    blocks, which a positive-definite symmetric part of the matrix
    guarantees.  An element whose interior meets its vertices in no entry
    has multipliers 0 and changes no entry another element reads.

    Afterwards rows 0, k and 2k of a.data at the vertex columns hold the
    tridiagonal Schur complement on the vertices, and the right-hand side
    its right-hand side there; the caller solves it for x at the vertices,
    then calls `band_back_substitute`.  Overwrites a.data and the right-hand
    side through b; work is (2, k, E) scratch.
    """
    d, k = a.data, a.kb
    span = b.shape[1] * k
    # every operation runs along the elements: a view of one block entry is
    # a band row read k entries apart, since the band is row-major, and the
    # multipliers of pivot p (rows p+1..k, then row 0) and their products
    # go to the caller's contiguous work rows, not to new arrays per pivot
    mult, prod = work
    for p in range(1, k):
        m = k - p
        pivot = d[k, p : p + span : k]
        np.divide(d[k + 1 : k + 1 + m, p : p + span : k], pivot, out=mult[:m])
        np.divide(d[k - p, p : p + span : k], pivot, out=mult[m])
        for c in (0, *range(p + 1, k + 1)):
            cols = slice(c, c + span, k)
            np.multiply(mult[: m + 1], d[k + p - c, cols], out=prod[: m + 1])
            below, top = d[k + p + 1 - c : 2 * k + 1 - c, cols], d[k - c, cols]
            np.subtract(below, prod[:m], out=below)
            np.subtract(top, prod[m], out=top)
        np.multiply(mult[: m + 1], b[p], out=prod[: m + 1])
        np.subtract(b[p + 1 :], prod[:m], out=b[p + 1 :])
        np.subtract(b[0], prod[m], out=b[0])


def band_back_substitute(a: BandedMatrix, b: np.ndarray, u: np.ndarray, work: np.ndarray) -> None:
    """Second half of the static condensation that `band_eliminate_interiors`
    began on `a` and the right-hand side viewed by b: write every element's
    interior dofs into the solution x, viewed by u as b views the
    right-hand side, from the vertex values x already holds, its first and
    last entries included.  An element reads only its own block, its
    right-hand side and its two vertex values.  work is the elimination's."""
    d, k = a.data, a.kb
    span = b.shape[1] * k
    term = work[1, 0]
    for p in range(k - 1, 0, -1):
        np.multiply(d[k + p, 0:span:k], u[0], out=term)
        np.subtract(b[p], term, out=u[p])
        for c in range(p + 1, k + 1):
            np.multiply(d[k + p - c, c : c + span : k], u[c], out=term)
            np.subtract(u[p], term, out=u[p])
        np.divide(u[p], d[k, p : p + span : k], out=u[p])



def condensed_solution(data, rhs, k, own, systems):
    """The solutions x of the `systems` Dirichlet-interior systems of the
    band `data` laid end to end, each `own` columns, of which its first
    and last vertex are its boundary (x = 0 there), by the band-layout
    reference: `band_eliminate_interiors`, one tridiagonal
    `BandedMatrix.solve` per system on its interior vertices, then
    `band_back_substitute`, both on the `_element_entries` views of rhs
    and x.  `data` and `rhs` are not changed."""
    band, rhs = BandedMatrix(data.copy(order="K"), k), rhs.copy()
    x = np.zeros(len(rhs))
    b, u = _element_entries(rhs, k), _element_entries(x, k)
    work = np.empty((2, k, b.shape[1]))
    band_eliminate_interiors(band, b, work)
    for i in range(systems):
        vertices = slice(i * own + k, (i + 1) * own - k, k)
        x[vertices] = BandedMatrix(band.data[::k, vertices], 1).solve(rhs[vertices])
    band_back_substitute(band, b, u, work)
    return x


def plain_condensed(ops, motion, t_mid, a_i, dt, v_prev, load):
    """One equation's step from `plain_bands`, solved for U by static
    condensation of that one system and returned as U - V^(n-1): the
    arithmetic the kernel's condensed path must reproduce for every
    equation it lays end to end."""
    lhs, rhs = plain_bands(ops, motion, t_mid, a_i, dt, v_prev, load)
    return condensed_solution(lhs, rhs, ops.mass.kb, len(rhs), 1) - v_prev


def loop_equation(ops, motion, t_mid, a_i, dt, v_prev, load):
    """One equation's step in the operand order (M/d + D) - C/2 and
    (M/d - D) + C/2, applied by a Python loop over the diagonals and solved
    by scipy's solve_banded: the arithmetic of the kernel before it formed
    per-step bases and used BLAS.  Returns the step and the interior LHS
    band it solved."""
    g = motion.gamma(t_mid)
    c_half = 0.5 * (
        (motion.alpha_prime(t_mid) / g) * ops.conv_const.data
        + (motion.gamma_prime(t_mid) / g) * ops.conv_linear.data
    )
    m_over_dt = ops.mass.data / dt
    diff_half = (0.5 * a_i * motion.coeff_b2(t_mid)) * ops.stiffness.data
    kb = ops.mass.kb
    rhs = loop_matvec(BandedMatrix(m_over_dt - diff_half + c_half, kb), v_prev) + load
    lhs = BandedMatrix((m_over_dt + diff_half - c_half)[:, 1:-1], kb)
    v_new = np.zeros_like(v_prev)
    v_new[1:-1] = solve_banded((kb, kb), lhs.data, rhs[1:-1])
    return v_new, lhs


def level(n, delta, current):
    """The state at level n of the time grid of step delta, with the (ne,
    n_dofs) vectors `current` and no previous level."""
    return SchemeState(t_index=n, delta=delta, current=current, previous=None)


def kernel_steps(nt, k):
    """The kernel's result and the arguments of `plain_equation` for six
    one-equation steps on example1's motion with random data, each by
    `solve_all` on the banded path from a level whose V^(n-1) is a random
    (1, n) array, the load the kernel's one row of loads; a repeated delta
    keeps M/dt, a new one recomputes it."""
    motion = example1().motion
    space = build_space(nt, k)
    ops = assemble_static(space)
    kernel = StepKernel(ops, 1)
    rng = np.random.default_rng(nt + k)
    for n, delta, a_i in ((10, 0.01, 1.7), (11, 0.01, 2.3), (17, 0.007, 0.9)):
        one = constant_problem(motion, (a_i,))
        for _ in range(2):
            v_prev = rng.standard_normal(space.n_dofs)
            v_prev[[0, -1]] = 0.0
            kernel.begin_step(one, level(n, delta, v_prev[None, :]))
            kernel.condense = False
            load = rng.standard_normal(space.n_dofs)
            kernel.loads[0] = load
            (got,) = kernel.solve_all(one, (0.0,))
            yield got, (ops, motion, kernel.t_mid, a_i, delta, v_prev, load)


@pytest.mark.parametrize("nt,k", [(8, 1), (1, 2), (8, 3), (64, 2)])
def test_step_kernel_equals_the_plain_expressions(nt, k):
    for got, args in kernel_steps(nt, k):
        assert np.array_equal(got, plain_equation(*args))
        assert_zero_boundaries_and_read_only(got)


# c of the last-bit rule (README, "Performance"), fixed before measuring; the
# largest drift seen since is 3.5 eps kappa_1, on an 8-equation catalog run
LAST_BIT_C = 10


@pytest.mark.parametrize("nt,k", [(8, 1), (1, 2), (8, 3), (64, 2), (4096, 3)])
def test_step_kernel_moves_last_bits_within_the_condition_scaled_rule(nt, k):
    # a reordered sum moves the bands and the RHS by a few eps of their
    # entries, and the solve amplifies that by at most about kappa_1 of the
    # LHS band, which is about 3e6 at (4096, 3)
    eps = np.finfo(float).eps
    for got, args in kernel_steps(nt, k):
        expected, lhs = loop_equation(*args)
        bound = LAST_BIT_C * eps * condition_1norm(lhs) * np.abs(expected).max()
        assert np.abs(got - expected).max() <= bound


# --- static condensation against the banded solve ----------------------------


def linear_motion(alpha_rate, beta_rate):
    """(0, 1) moving as alpha = alpha_rate t, beta = 1 + beta_rate t, T = 1."""
    return BoundaryMotion(
        alpha=lambda t: alpha_rate * t,
        beta=lambda t: 1.0 + beta_rate * t,
        alpha_prime=lambda t: alpha_rate,
        beta_prime=lambda t: beta_rate,
        T=1.0,
    )


@settings(max_examples=30, deadline=None)
@given(nt=st.integers(1, 16), k=st.integers(1, 6))
def test_convection_has_the_symmetric_parts_of_integration_by_parts(nt, k):
    # on the Dirichlet interior phi_i phi_j vanishes at both ends, so
    # int (phi_i phi_j)' = 0 and int y (phi_i phi_j)' = -int phi_i phi_j:
    # sym(conv_const) = 0 and sym(conv_linear) = -M/2, the premise of the
    # step kernel's condensation guard
    ops = assemble_static(build_space(nt, k))
    inner = slice(1, -1)
    tol = 128 * np.finfo(float).eps
    c0, c1 = (toarray(band) for band in (ops.conv_const, ops.conv_linear))
    mass = toarray(ops.mass)[inner, inner]
    assert np.abs(c0[inner, inner] + c0[inner, inner].T).max(initial=0.0) <= tol * np.abs(c0).max()
    assert np.abs(c1[inner, inner] + c1[inner, inner].T + mass).max(initial=0.0) <= tol * np.abs(c1).max()


def constant_problem(motion, a):
    """len(a) equations on `motion`, equation i with the constant diffusion
    coefficient a[i] (declared as its bounds) and zero data."""
    zero = zero_problem()
    return replace(
        zero,
        ne=len(a),
        diffusion=tuple((lambda *r, a_i=a_i: a_i) for a_i in a),
        diffusion_bounds=tuple((a_i, a_i) for a_i in a),
        forcing=zero.forcing * len(a),
        initial=zero.initial * len(a),
        motion=motion,
    )


def random_step(kernel, p, n, delta, rng):
    """`solve_all` of the kernel's step of p from level n of the time grid
    of step delta, V^(n-1) a random (ne, n_dofs) array (zero at the
    boundary dofs) and the loads random, written into the kernel's (ne,
    n_dofs) loads; with that V^(n-1) and those loads."""
    v_prev = rng.standard_normal((p.ne, kernel.space.n_dofs))
    v_prev[:, [0, -1]] = 0.0
    kernel.begin_step(p, level(n, delta, v_prev))
    loads = rng.standard_normal(kernel.loads.shape)
    kernel.loads[:] = loads
    return kernel.solve_all(p, (0.0,) * p.ne), v_prev, loads


@pytest.fixture
def condensations(monkeypatch):
    """The number of equations of each `_eliminate_interiors` call the
    stepper makes, each call checked to take the `_element_blocks` views of
    the whole (k (k + 2), ne, nt + 1) element-entry store read flat and the
    element view of every element of it."""
    calls = []

    def counted(blocks, b, work):
        k, store = len(blocks) - 1, blocks[0].base
        elements = store.shape[1] * store.shape[2] - 1
        assert store.ndim == 3 and store.shape[0] == k * (k + 2)
        assert all(block.base is store and block.shape == (k + 1, elements) for block in blocks)
        assert b.shape == (k + 1, elements) and work.shape == (2, k, elements)
        calls.append(store.shape[1])
        return _eliminate_interiors(blocks, b, work)

    monkeypatch.setattr(stepper, "_eliminate_interiors", counted)
    return calls


def kernel_band(kernel, array):
    """One of the kernel's padded operators (M/d, the base, ...) as a
    (2k+1, n') band: a condensing kernel keeps it as an element-entry
    store, which is scattered into a new band."""
    if not kernel.large:
        return array
    band = np.empty((2 * kernel.kb + 1, kernel.space.n_dofs + kernel.kb - 1))
    _scatter_entries(array, band)
    return band


@pytest.mark.parametrize("shrinking", [False, True])
@pytest.mark.parametrize("nt,k", [(CONDENSE_MIN_ELEMENTS, k) for k in range(2, 7)] + [(4096, 3)])
def test_condensed_solve_agrees_with_the_banded_solve(nt, k, shrinking, condensations):
    # random coefficients inside the guard, 4 gamma + dt gamma' > 0 and
    # a_i > 0, for two equations condensed in one call; each must agree with
    # solve_banded on the same interior band and the RHS of the two-sided
    # form, (M/d + C/2 - D) V^(n-1) + G, within the last-bit rule
    rng = np.random.default_rng(nt + 10 * k + shrinking)
    space = build_space(nt, k)
    ops = assemble_static(space)
    kernel = StepKernel(ops, 2)
    eps = np.finfo(float).eps
    for _ in range(2):
        rate = rng.uniform(0.2, 1.0)
        motion = linear_motion(rng.uniform(-1.0, 1.0), -rate if shrinking else rate)
        t, dt = rng.uniform(0.05, 0.5), rng.uniform(1e-3, 0.05)
        a = rng.uniform(0.05, 5.0, size=2).tolist()
        # the last level whose step's midpoint is at most t
        got, v_prev, loads = random_step(kernel, constant_problem(motion, a), int(t / dt - 0.5), dt, rng)
        t_mid = kernel.t_mid
        n = space.n_dofs  # the kernel's M/d and base are padded past column n
        base, m_over_dt = kernel_band(kernel, kernel.lhs_base)[:, :n], kernel_band(kernel, kernel.m_over_dt)[:, :n]
        for a_i, v, load, u in zip(a, v_prev, loads, got):
            diff_half = (0.5 * a_i * kernel.b2) * ops.stiffness.data
            lhs = BandedMatrix((base + diff_half)[:, 1:-1], k)
            rhs_band = m_over_dt + half_convection(ops, motion, t_mid) - diff_half
            rhs = BandedMatrix(rhs_band, k).matvec(v) + load
            expected = solve_banded((k, k), lhs.data, rhs[1:-1])
            bound = LAST_BIT_C * eps * condition_1norm(lhs) * np.abs(expected).max()
            assert u[0] == u[-1] == 0.0
            assert np.abs(u[1:-1] - expected).max() <= bound
    assert condensations == [2, 2]


@pytest.mark.parametrize("nt,k", [(CONDENSE_MIN_ELEMENTS, k) for k in range(2, 7)] + [(4096, 3)])
def test_both_solves_give_the_same_bits_on_either_band_order(nt, k, monkeypatch):
    # the kernel condenses its element-entry store; scattered into the
    # (2k+1, ne n') band it stands for, the band-layout reference
    # condensation must give the kernel's bits, and it and the banded solve
    # of each equation's window must not depend on whether the band is
    # row-major or column-major (LAPACK's layout); equation i owns the
    # (nt + 1) k columns from i (nt + 1) k, its interior from 1 past that
    stacks = []

    def keep(blocks, b, work):
        stacks.append((kernel.stack.copy(), kernel.stack_rhs.reshape(-1).copy()))
        return _eliminate_interiors(blocks, b, work)

    monkeypatch.setattr(stepper, "_eliminate_interiors", keep)
    kernel = StepKernel(assemble_static(build_space(nt, k)), 2)
    got, v_prev, _ = random_step(
        kernel, constant_problem(linear_motion(0.3, 0.6), (0.9, 2.2)), 19, 0.01, np.random.default_rng(nt + k)
    )
    ((store, rhs),) = stacks
    own, inner = (nt + 1) * k, slice(1, nt * k)
    band = np.empty((2 * k + 1, 2, own))
    _scatter_entries(store, band)
    condensed, banded = [], []
    for order in "CF":
        data = np.array(band.reshape(2 * k + 1, -1), order=order)
        windows = [BandedMatrix(data[:, i * own :][:, inner], k).solve(rhs[i * own :][inner]) for i in range(2)]
        condensed.append(condensed_solution(data, rhs, k, own, 2))
        banded.append(np.concatenate(windows))
    assert np.array_equal(*condensed)
    assert np.array_equal(*banded)
    n = nt * k + 1
    assert (condensed[0].reshape(2, own)[:, :n] - v_prev).tobytes() == got.tobytes()


def block_positions(k, columns):
    """Mask of the positions of a (2k+1, columns) band that hold an entry of
    an element block, for degree-k elements laid end to end from column 0:
    row i = j + R - k and column j of position (R, j) lie in one element."""
    rows, cols = np.indices((2 * k + 1, columns))
    i = cols + rows - k
    lo, hi = np.minimum(i, cols), np.maximum(i, cols)
    return (0 <= i) & (i < columns) & (hi <= (lo // k + 1) * k)


@pytest.mark.parametrize("k", range(2, 7))
def test_the_element_entry_store_keeps_each_block_entry_once(k):
    # two equations of three elements and a padding element each, laid end
    # to end as in the kernel's flat stack: the store holds every entry of
    # every element block exactly once, and nothing else but positions whose
    # row lies outside the band; scattered back, the kept entries keep
    # their bits and every other entry is +0.0
    ne, nt = 2, 3
    own = (nt + 1) * k
    band = np.random.default_rng(k).standard_normal((2 * k + 1, ne, own))
    store = _gather_entries(band)
    assert store.shape == (k * (k + 2), ne, nt + 1)
    ids = _gather_entries(np.arange(band.size, dtype=float).reshape(band.shape)).astype(int).ravel()
    assert len(np.unique(ids)) == ids.size
    flat = band.reshape(2 * k + 1, -1)
    kept = np.zeros(flat.shape, bool)
    kept.flat[ids] = True
    rows, cols = np.indices(flat.shape)
    outside = (cols + rows - k < 0) | (cols + rows - k >= ne * own)
    blocks = block_positions(k, ne * own)
    assert not (blocks & ~kept).any() and not (kept & ~blocks & ~outside).any()
    back = np.full_like(band, np.nan)
    _scatter_entries(store, back)
    back = back.reshape(flat.shape)
    assert back[kept].tobytes() == flat[kept].tobytes()
    assert (back[~kept] == 0.0).all() and not np.signbit(back[~kept]).any()


@pytest.mark.parametrize("k", range(2, 7))
def test_the_condensation_of_the_store_has_the_bits_of_the_band_reference(k):
    # random, diagonally dominant element blocks of two padded equations:
    # eliminating on the store, solving each equation's vertex system on
    # the store's planes (0, 0), (k, 0) and (2k, 0), and back-substituting
    # give the band-layout reference's bits, in the eliminated matrix and in
    # the solution
    ne, nt = 2, 5
    own = (nt + 1) * k
    rng = np.random.default_rng(10 + k)
    flat = np.where(block_positions(k, ne * own), rng.uniform(-1.0, 1.0, (2 * k + 1, ne * own)), 0.0)
    flat[k] += 4.0 * k
    rhs = rng.standard_normal(ne * own)
    expected = condensed_solution(flat, rhs, k, own, ne)
    reference, b_ref = BandedMatrix(flat.copy(), k), _element_entries(rhs.copy(), k)
    band_eliminate_interiors(reference, b_ref, np.empty((2, k, b_ref.shape[1])))

    store = _gather_entries(flat.reshape(2 * k + 1, ne, own))
    blocks = _element_blocks(store.reshape(len(store), -1), k)
    b_flat, x = rhs.copy(), np.zeros((ne, own))
    b, u = _element_entries(b_flat, k), _element_entries(x.reshape(-1), k)
    work = np.empty((2, k, b.shape[1]))
    _eliminate_interiors(blocks, b, work)
    assert store.tobytes() == _gather_entries(reference.data.reshape(2 * k + 1, ne, own)).tobytes()
    assert b.tobytes() == b_ref.tobytes()
    vertices = slice(k, nt * k, k)
    for i in range(ne):
        x[i, vertices] = BandedMatrix(store[0 : 2 * k + 1 : k, i, 1:nt], 1).solve(b_flat.reshape(ne, own)[i, vertices])
    _back_substitute(blocks, b, u, work)
    assert x.tobytes() == expected.tobytes()


def pinching_motion():
    """gamma = 1e-6 + (0.999 - t)^2 on (0, 1): a valid motion, but at
    t = 0.9975, the midpoint of the step from level 199 at dt = 0.005,
    4 gamma + dt gamma' = -2e-6."""
    return BoundaryMotion(
        alpha=lambda t: 0.0,
        beta=lambda t: 1e-6 + (0.999 - t) ** 2,
        alpha_prime=lambda t: 0.0,
        beta_prime=lambda t: -2.0 * (0.999 - t),
        T=1.0,
    )


@pytest.mark.parametrize("case", ["pinching", "a zero diffusion coefficient"])
def test_a_condensing_kernels_banded_step_has_the_bits_of_a_band_kernel(case, monkeypatch, condensations):
    # a condensing kernel keeps its operators in the element-entry store, so
    # a step it does not condense scatters the store into its band and
    # solves the windows; that must give the bytes of the same step on a
    # kernel that keeps the band, made by raising the size threshold
    if case == "pinching":
        motion, a, n, dt = pinching_motion(), (1.3,), 199, 0.005
    else:
        motion, a, n, dt = linear_motion(0.3, 0.6), (1.3, 0.0, 0.7), 19, 0.01
    p = constant_problem(motion, a)
    ops = assemble_static(build_space(CONDENSE_MIN_ELEMENTS, 2))
    steps = []
    for threshold in (CONDENSE_MIN_ELEMENTS, 10**9):
        monkeypatch.setattr(stepper, "CONDENSE_MIN_ELEMENTS", threshold)
        kernel = StepKernel(ops, p.ne)
        got, _, _ = random_step(kernel, p, n, dt, np.random.default_rng(5))
        steps.append((kernel.large, kernel.stack.shape[0], got.tobytes()))
    (store_large, store_planes, got), (band_large, band_rows, want) = steps
    assert (store_large, store_planes, band_large, band_rows) == (True, 8, False, 5)
    assert got == want and condensations == []


def exact_step(kernel, a_i, v_prev, load):
    """V^(n) of a one-equation kernel's step from the float64 interior system
    the kernel builds, base + s K with s = (a_i / 2) b2 and the RHS
    (2M/d) V^(n-1) + G, solved in mpmath at dps = 40 and rounded to float64;
    with that system's interior band."""
    import mpmath as mp

    n, k = kernel.space.n_dofs, kernel.kb
    s = 0.5 * np.array([a_i]) * kernel.b2
    lhs = kernel_band(kernel, kernel.lhs_base)[:, :n] + s[0] * kernel_band(kernel, kernel.stiffness)[:, :n]
    rhs = kernel.two_m_over_dt.matvec(v_prev) + load
    interior = BandedMatrix(lhs[:, 1:-1], k)
    with mp.workdps(40):
        u = mp.lu_solve(mp.matrix(toarray(interior).tolist()), mp.matrix(rhs[1:-1].tolist()))
        exact = np.zeros(n)
        exact[1:-1] = [float(u[j] - mp.mpf(float(v_prev[j + 1]))) for j in range(n - 2)]
    return exact, interior


@pytest.mark.parametrize("dt", [0.005, 0.5])
@pytest.mark.parametrize("k", range(1, 7))
def test_both_solve_paths_are_within_the_last_bit_rule_of_an_exact_solve(k, dt, monkeypatch, condensations):
    # the float64 system one step builds, solved exactly, against dgbsv on a
    # band kernel and (k >= 2) condensation on a store kernel, the size
    # threshold raised or lowered for each: on the shrinking gamma =
    # 1 - 1.1 t with alpha' = 0.7, so C != 0, and at the midpoints 0.2975
    # (level 59 at dt = 0.005) and 0.25 (level 0 at dt = 0.5)
    # 4 gamma + dt gamma' > 0
    eps = np.finfo(float).eps
    p = constant_problem(linear_motion(0.7, -0.4), (1.3,))
    ops = assemble_static(build_space(8, k))
    for threshold in (10**9, 1) if k >= 2 else (10**9,):
        monkeypatch.setattr(stepper, "CONDENSE_MIN_ELEMENTS", threshold)
        kernel = StepKernel(ops, 1)
        (got,), (v_prev,), (load,) = random_step(kernel, p, {0.005: 59, 0.5: 0}[dt], dt, np.random.default_rng(k))
        expected, interior = exact_step(kernel, 1.3, v_prev, load)
        bound = LAST_BIT_C * eps * condition_1norm(interior) * np.abs(expected).max()
        assert np.abs(got - expected).max() <= bound
    assert condensations == ([1] if k >= 2 else [])


def test_a_pinching_step_takes_the_banded_solve(condensations):
    # the step from level 199 at dt = 0.005, about t = 0.9975, fails the
    # guard on the pinching motion: the interior LHS may lose its
    # positive-definite symmetric part, so the kernel keeps dgbsv
    motion = pinching_motion()
    p = constant_problem(motion, (1.3,))
    space = build_space(CONDENSE_MIN_ELEMENTS, 2)
    ops = assemble_static(space)
    kernel = StepKernel(ops, p.ne)
    rng = np.random.default_rng(3)
    for n, condensed, reference in ((99, [1], plain_condensed), (199, [], plain_equation)):
        condensations.clear()
        (got,), (v_prev,), (load,) = random_step(kernel, p, n, 0.005, rng)
        assert condensations == condensed
        assert np.array_equal(got, reference(ops, motion, kernel.t_mid, 1.3, 0.005, v_prev, load))


@pytest.mark.parametrize("nt,k,a", [(CONDENSE_MIN_ELEMENTS, 2, (0.4, 1.7, 3.1)), (4096, 3, (0.9, 2.2))])
def test_condensing_equations_end_to_end_equals_condensing_each_alone(nt, k, a, condensations):
    # the padded bands laid end to end share no column, and the padding
    # element between two equations eliminates with multipliers 0, so every
    # equation gets the bits of its own single-system condensation; the
    # rows are the state's (ne, n) array, read-only
    motion = linear_motion(0.3, 0.6)
    space = build_space(nt, k)
    ops = assemble_static(space)
    kernel = StepKernel(ops, len(a))
    got, v_prev, loads = random_step(kernel, constant_problem(motion, a), 19, 0.01, np.random.default_rng(nt))
    assert condensations == [len(a)]
    for a_i, v, load, u in zip(a, v_prev, loads, got):
        assert np.array_equal(u, plain_condensed(ops, motion, kernel.t_mid, a_i, 0.01, v, load))
        assert u[0] == u[-1] == 0.0
        with pytest.raises(ValueError, match="read-only"):
            u[1] = 1.0


def test_a_zero_diffusion_coefficient_takes_the_banded_solve_for_every_equation(condensations):
    # a_1 = 0 leaves the second interior LHS without the stiffness term its
    # positive-definite symmetric part needs, so no equation is condensed
    # and every one keeps dgbsv, bit for bit
    a = (1.3, 0.0, 0.7)
    motion = linear_motion(0.3, 0.6)
    space = build_space(CONDENSE_MIN_ELEMENTS, 2)
    ops = assemble_static(space)
    kernel = StepKernel(ops, len(a))
    got, v_prev, loads = random_step(kernel, constant_problem(motion, a), 19, 0.01, np.random.default_rng(5))
    assert kernel.condense and condensations == []
    for a_i, v, load, u in zip(a, v_prev, loads, got):
        assert np.array_equal(u, plain_equation(ops, motion, kernel.t_mid, a_i, 0.01, v, load))


def counted_motion(motion, counts):
    """The motion with each callable named in `counts` counting its calls there."""

    def counted(name):
        fn = getattr(motion, name)

        def call(t):
            counts[name] += 1
            return fn(t)

        return call

    return replace(motion, **{name: counted(name) for name in counts})


def test_motion_calls_per_advance_do_not_grow_with_ne():
    # every moving-domain quantity of a step is a function of t alone, so a
    # step evaluates the motion the same number of times for any ne
    per_advance = {}
    for ne in (1, 3):
        counts = dict.fromkeys(("alpha", "beta", "alpha_prime", "beta_prime"), 0)
        p = ProblemSpec(
            ne=ne,
            diffusion=(lambda *r: 1.0 + r[0] ** 2,) * ne,
            forcing=(lambda x, t: np.sin(x + t),) * ne,
            initial=(lambda x: x * (1.0 - x),) * ne,
            motion=counted_motion(example1().motion, counts),
            T=1.0,
        )
        space = build_space(4, 2)
        kernel = StepKernel(assemble_static(space), p.ne)
        s1 = bootstrap_first_step(initialize(space, p, 0.1), kernel, p)
        before = dict(counts)
        advance(s1, kernel, p)
        per_advance[ne] = {name: counts[name] - before[name] for name in counts}
    assert per_advance[1] == per_advance[3]
    assert all(per_advance[1].values())


@pytest.mark.parametrize("make", [example1, example2, lambda: three_equation_problem((0, 1, 2))],
                         ids=["example1", "example2", "rational catalog"])
def test_begin_step_has_the_bits_of_the_motion_methods(make):
    # begin_step takes the midpoint of the step from a level n of the grid
    # with the bits of 0.5 delta at level 0 and 0.5 (n delta + (n+1) delta)
    # at level n, and gamma, b2 and the quadrature points there from one
    # `step_frame` call: the same bits as calling the three methods
    p = make()
    space = build_space(8, 3)
    kernel = StepKernel(assemble_static(space), p.ne)
    delta = p.T / 16
    state = initialize(space, p, delta)
    for n in (0, 6, 15):
        kernel.begin_step(p, replace(state, t_index=n))
        t = 0.5 * delta if n == 0 else 0.5 * (n * delta + (n + 1) * delta)
        assert np.float64(kernel.t_mid).view(np.uint64) == np.float64(t).view(np.uint64)
        assert kernel.gamma == p.motion.gamma(t)
        assert np.float64(kernel.b2).view(np.uint64) == np.float64(p.motion.coeff_b2(t)).view(np.uint64)
        want = p.motion.to_moving(kernel.quad_points, t)
        assert np.array_equal(kernel.x_q.view(np.uint64), want.view(np.uint64))
        assert kernel.x_q.flags.c_contiguous


def test_a_forcing_that_fills_a_new_array_has_the_load_bits_of_its_elementwise_form():
    # the kernel's points are one C-ordered (q, nt) array, numpy's default
    # layout, so a forcing that writes into np.empty(x.shape) returns the
    # layout the load contracts without a rule on memory order
    def filling(x, t):
        out = np.empty(x.shape)
        out.reshape(-1)[:] = 0.1 * x.reshape(-1)
        out /= (1.0 + t) ** 4
        return out

    p = example2()  # forcing 0 is 0.1 x / (1 + t)^4
    filled = replace(p, forcing=(filling, p.forcing[1]))
    space = build_space(16, 3)
    loads = []
    for problem in (p, filled):
        kernel = StepKernel(assemble_static(space), p.ne)
        kernel.begin_step(problem, replace(initialize(space, problem, 0.01), t_index=5))
        assert kernel.x_q.shape == (len(space.quad.weights), space.n_elements)
        assert kernel.x_q.flags.c_contiguous
        loads.append(kernel.loads[0].tobytes())
    assert loads[0] == loads[1]


def test_each_step_makes_ne_solves_and_ne_loads(monkeypatch):
    # the pattern the traced benchmark checks: ne banded solves and ne load
    # assemblies per advance, 2 ne solves and ne loads in the bootstrap, on
    # either solve path; a condensed step condenses its ne equations in one
    # call, and the rule counts the elements of all equations, so three
    # equations of CONDENSE_MIN_ELEMENTS / 2 elements are condensed
    counts = {"solve": 0, "load": 0, "condensed": 0}
    steps = []

    def counting(key, fn):
        def call(*args):
            counts[key] += 1
            return fn(*args)

        return call

    def recording(step):
        def call(*args):
            before = dict(counts)
            new = step(*args)
            steps.append((step.__name__, counts["solve"] - before["solve"], counts["load"] - before["load"]))
            return new

        return call

    monkeypatch.setattr(BandedMatrix, "solve", counting("solve", BandedMatrix.solve))
    monkeypatch.setattr(stepper, "assemble_load", counting("load", stepper.assemble_load))
    monkeypatch.setattr(stepper, "_eliminate_interiors", counting("condensed", stepper._eliminate_interiors))
    for name in ("bootstrap_first_step", "advance"):
        monkeypatch.setattr(stepper, name, recording(getattr(stepper, name)))
    cases = (
        (replace(example1(), T=0.1), 4, 0.01),
        (three_equation_problem((0, 1, 2)), 4, 0.02),
        (replace(example1(), T=0.1), CONDENSE_MIN_ELEMENTS, 0.01),
        (three_equation_problem((0, 1, 2)), CONDENSE_MIN_ELEMENTS // 2, 0.02),
    )
    for p, nt, delta in cases:
        steps.clear()
        condensed = counts["condensed"]
        run(p, build_space(nt, 2), delta)
        ne = p.ne
        assert steps == [("bootstrap_first_step", 2 * ne, ne)] + [("advance", ne, ne)] * 9
        assert counts["condensed"] - condensed == (11 if ne * nt >= CONDENSE_MIN_ELEMENTS else 0)


@pytest.mark.parametrize("nt", [4, CONDENSE_MIN_ELEMENTS])
def test_a_step_builds_no_banded_matrix(nt, monkeypatch, condensations):
    # the kernel makes every system it solves when it is built, so an
    # advance on either path constructs no BandedMatrix and still makes ne
    # solves, over the windows (nt = 4) or the vertex systems
    p = example1()
    space = build_space(nt, 2)
    kernel = StepKernel(assemble_static(space), p.ne)
    s1 = bootstrap_first_step(initialize(space, p, 0.01), kernel, p)
    counts = {"built": 0, "solve": 0}
    init, solve = BandedMatrix.__init__, BandedMatrix.solve

    def built(*args, **kwargs):
        counts["built"] += 1
        init(*args, **kwargs)

    def solved(*args):
        counts["solve"] += 1
        return solve(*args)

    monkeypatch.setattr(BandedMatrix, "__init__", built)
    monkeypatch.setattr(BandedMatrix, "solve", solved)
    condensations.clear()
    advance(s1, kernel, p)
    assert counts == {"built": 0, "solve": p.ne}
    assert condensations == ([p.ne] if nt == CONDENSE_MIN_ELEMENTS else [])


@pytest.mark.parametrize("nt", [4, CONDENSE_MIN_ELEMENTS])
def test_a_step_makes_one_nonlocal_call_and_no_element_view(nt, monkeypatch, condensations):
    # the nonlocal values of all ne equations of a level are one call, so
    # the bootstrap makes two and an advance one; a condensed step works on
    # the element views (of the right-hand side, the solution and the
    # store) the kernel made when it was built; and a step that
    # succeeds never formats the name its errors would give it
    p = example1()
    space = build_space(nt, 2)
    kernel = StepKernel(assemble_static(space), p.ne)
    counts = {"nonlocal": 0, "views": 0, "labels": 0}

    def counting(key, fn):
        def call(*args):
            counts[key] += 1
            return fn(*args)

        return call

    monkeypatch.setattr(stepper, "nonlocal_value", counting("nonlocal", stepper.nonlocal_value))
    for module in (assembly, stepper):
        for name in ("_element_entries", "_element_blocks"):
            monkeypatch.setattr(module, name, counting("views", getattr(module, name)))
    monkeypatch.setattr(StepKernel, "_step_name", counting("labels", StepKernel._step_name))
    s1 = bootstrap_first_step(initialize(space, p, 0.01), kernel, p)
    assert counts == {"nonlocal": 2, "views": 0, "labels": 0}
    advance(s1, kernel, p)
    assert counts == {"nonlocal": 3, "views": 0, "labels": 0}
    assert condensations == ([p.ne] * 3 if nt == CONDENSE_MIN_ELEMENTS else [])


def test_a_step_label_reads_as_the_eager_text_did():
    # a failing step is named when it raises, by the level it reaches and
    # that level's time n delta as an f-string gives it: the step from level
    # 2 at delta = 0.1 is step 3 at 0.30000000000000004; singular as in
    # test_singular_system_names_step_time_and_equation
    p = second_equation_diffusion(0.0)
    space = build_space(4, 2)
    ops = assemble_static(space)
    zero = BandedMatrix(np.zeros_like(ops.mass.data), 2)
    kernel = StepKernel(replace(ops, mass=zero, conv_const=zero, conv_linear=zero), p.ne)
    state = initialize(space, p, 0.1)
    kernel.begin_step(p, replace(state, t_index=2))
    l_init = nonlocal_value(kernel.weights, state.current, p.motion.gamma(0.0))
    t = 3 * 0.1
    for stage in ("", "the corrector of "):
        with pytest.raises(RuntimeError) as failure:
            kernel.solve_all(p, l_init, stage)
        assert str(failure.value).startswith(f"singular Crank-Nicolson system at {stage}step 3 (t={t}), equation 1 (")


def implicit_final_level(p, space, delta):
    """Final vectors of the fully implicit Crank-Nicolson scheme: each step
    takes the nonlocal values at the level average (V^n + V^(n+1))/2, found
    by fixed-point iteration from V^n until no entry moves by 1e-14."""
    kernel = StepKernel(assemble_static(space), p.ne)
    state = initialize(space, p, delta)
    n_steps = len(level_grid(p.T, delta)) - 1
    for n in range(n_steps):
        kernel.begin_step(p, state)
        new = v = state.current
        for _ in range(50):
            l_mid = [nonlocal_value(kernel.weights, 0.5 * (a + b), kernel.gamma) for a, b in zip(new, v)]
            new, last = kernel.solve_all(p, l_mid), new
            if max(np.abs(a - b).max() for a, b in zip(new, last)) < 1e-14:
                break
        else:
            raise AssertionError(f"the fixed point of step {n + 1} did not converge")
        state = SchemeState(t_index=n + 1, delta=delta, current=new, previous=v)
    return state.current


def test_extrapolated_coefficients_differ_from_the_implicit_scheme_by_delta_squared():
    # the linearization replaces l at the level average by its extrapolation
    # 3/2 V^n - 1/2 V^(n-1) (and a predictor-corrector first step), an
    # O(delta^2) change per unit time, so halving delta quarters the gap
    p = replace(example1(), T=0.5)
    space = build_space(16, 2)
    gaps = []
    for delta in (1 / 40, 1 / 80, 1 / 160):
        linearized = run(p, space, delta).final.current
        implicit = implicit_final_level(p, space, delta)
        gaps.append(max(np.abs(a - b).max() for a, b in zip(linearized, implicit)))
    ratios = [coarse / fine for coarse, fine in zip(gaps, gaps[1:])]
    assert all(3.5 <= r <= 4.5 for r in ratios), (gaps, ratios)


# --- the convection term against the transformed PDE ------------------------


def dense_convection(space, b1, panels=400):
    """The integrals of b1(y) phi_j'(y) phi_i(y) over (0, 1), from cardinal
    polynomials and composite Simpson panels as in test_assembly."""
    k, n = space.degree, space.n_dofs
    polys = cardinal_polys(k)
    derivs = [p.deriv() for p in polys]
    conv = np.zeros((n, n))
    for e in range(space.n_elements):
        a, b = space.breakpoints[e], space.breakpoints[e + 1]
        jac = (b - a) / 2.0
        y, w = simpson_weights(a, b, panels)
        xi = (y - a) / jac - 1.0
        g0 = e * k
        for li in range(k + 1):
            for lj in range(k + 1):
                conv[g0 + li, g0 + lj] += w @ (b1(y) * polys[li](xi) * derivs[lj](xi) / jac)
    return conv


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("problem,times", [(example1, (0.3, 1.5, 2.9)), (example2, (0.1, 0.5, 0.95))])
def test_convection_is_the_transformed_advection_term(problem, times, k):
    # u(x, t) = v(y, t) with y = (x - alpha(t)) / gamma(t) gives
    # u_t = v_t - b1 v_y, b1 = (alpha' + gamma' y) / gamma, so the step's
    # C must be the matrix of the integrals of b1 phi_j' phi_i
    p = problem()
    motion = p.motion
    space = build_space(3, k)
    kernel = StepKernel(assemble_static(space), p.ne)
    state = initialize(space, p, 0.01)
    for t in times:
        # the step from the level nearest t, about t + 0.005
        kernel.begin_step(p, replace(state, t_index=round(t / 0.01)))
        t_mid = kernel.t_mid

        def b1(y):
            return (motion.alpha_prime(t_mid) + motion.gamma_prime(t_mid) * y) / motion.gamma(t_mid)

        # the LHS base is M/d - C/2, both padded past column n
        dense = dense_convection(space, b1)
        n = space.n_dofs
        conv = 2.0 * (kernel.m_over_dt[:, :n] - kernel.lhs_base[:, :n])
        assert np.allclose(toarray(BandedMatrix(conv, k)), dense, atol=1e-10)
        assert np.allclose(toarray(BandedMatrix(conv[:, 1:-1], k)), dense[1:-1, 1:-1], atol=1e-10)


# --- failures name the step, its time and the equation ----------------------


def second_equation_diffusion(a):
    """example1 with the second diffusion coefficient fixed at a."""
    p = example1()
    return replace(
        p,
        diffusion=(p.diffusion[0], lambda r, s: a),
        diffusion_bounds=(p.diffusion_bounds[0], (a, a)),
    )


@pytest.mark.parametrize("k", [1, 2])
def test_singular_system_names_step_time_and_equation(k):
    # without mass and convection the matrix is a_i b2 K / 2, singular
    # exactly when a_i = 0, which only the second equation has
    p = second_equation_diffusion(0.0)
    space = build_space(4, k)
    ops = assemble_static(space)
    zero = BandedMatrix(np.zeros_like(ops.mass.data), k)
    singular = replace(ops, mass=zero, conv_const=zero, conv_linear=zero)
    state = initialize(space, p, 0.01)
    n = space.n_dofs - 2  # the interior unknowns
    with pytest.raises(RuntimeError, match=rf"singular Crank-Nicolson system at the predictor of step 1 \(t=0\.01\), equation 1 \(zero pivot at unknown 1 of {n}\)$"):
        bootstrap_first_step(state, StepKernel(singular, p.ne), p)
    s1 = bootstrap_first_step(state, StepKernel(ops, p.ne), p)
    with pytest.raises(RuntimeError, match=rf"singular Crank-Nicolson system at step 2 \(t=0\.02\), equation 1 \(zero pivot at unknown 1 of {n}\)$"):
        advance(s1, StepKernel(singular, p.ne), p)


@pytest.mark.parametrize("nt", [4, CONDENSE_MIN_ELEMENTS])
def test_a_singular_equation_is_reported_before_a_non_finite_earlier_one(nt, condensations):
    # every equation of a step is solved before the solution is checked: on
    # (0, 1/2) b2 = 4, so a_0 = 1.7e308 overflows the first band, and
    # without mass and convection a_1 = 0 leaves the second band zero; a_1 = 0
    # fails the condensation guard, so both meshes take dgbsv
    p = replace(
        example1(),
        diffusion=(lambda r, s: 1.7e308, lambda r, s: 0.0),
        diffusion_bounds=((1.7e308, 1.7e308), (0.0, 0.0)),
        motion=fixed_interval(0.0, 0.5, T=3.0),
    )
    space = build_space(nt, 2)
    ops = assemble_static(space)
    zero = BandedMatrix(np.zeros_like(ops.mass.data), 2)
    kernel = StepKernel(replace(ops, mass=zero, conv_const=zero, conv_linear=zero), p.ne)
    n = space.n_dofs - 2  # the interior unknowns
    with pytest.raises(RuntimeError, match=rf"singular Crank-Nicolson system at the predictor of step 1 \(t=0\.01\), equation 1 \(zero pivot at unknown 1 of {n}\)$"):
        bootstrap_first_step(initialize(space, p, 0.01), kernel, p)
    assert kernel.condense == (nt == CONDENSE_MIN_ELEMENTS) and condensations == []


def test_non_finite_solution_names_step_time_and_equation():
    # a declared diffusion of 1e308 overflows the second equation's bands
    p = second_equation_diffusion(1e308)
    space = build_space(4, 2)
    with pytest.raises(RuntimeError, match=r"non-finite solution at the predictor of step 1 \(t=0\.01\), equation 1$"):
        run(p, space, 0.01)


def test_the_corrector_names_its_step():
    # the second diffusion is 1 at l(V^0), where the predictor takes it, and
    # 1e308 anywhere else, so at the corrector's averaged level it
    # overflows the second equation's bands
    p = example1()
    space = build_space(4, 2)
    weights = assemble_static(space).nonlocal_weights
    l_init = tuple(nonlocal_value(weights, initialize(space, p, 0.01).current, p.motion.gamma(0.0)))
    p = replace(
        p,
        diffusion=(p.diffusion[0], lambda r, s: 1.0 if (r, s) == l_init else 1e308),
        diffusion_bounds=(p.diffusion_bounds[0], (1.0, 1e308)),
    )
    with pytest.raises(RuntimeError, match=r"^non-finite solution at the corrector of step 1 \(t=0\.01\), equation 1$"):
        run(p, space, 0.01)


def test_an_overflow_on_the_condensed_path_is_a_non_finite_solution(condensations):
    # the same overflow on a mesh the kernel condenses: the elimination's
    # inf and NaN reach the solution, not a numpy warning
    p = second_equation_diffusion(1e308)
    space = build_space(CONDENSE_MIN_ELEMENTS, 2)
    kernel = StepKernel(assemble_static(space), p.ne)
    state = initialize(space, p, 0.01)
    kernel.begin_step(p, state)
    l_init = [nonlocal_value(kernel.weights, v, p.motion.gamma(0.0)) for v in state.current]
    with pytest.raises(RuntimeError, match=r"non-finite solution at the predictor of step 1 \(t=0\.01\), equation 1$"):
        kernel.solve_all(p, l_init, "the predictor of ")
    assert condensations == [2]


def test_an_overflowing_coefficient_is_named_not_its_neighbour(condensations):
    # on (0, 1/2) b2 = 4, so s = a_1 b2/2 itself overflows and the second
    # band's corner s 0, in the column it shares with the first band, is
    # NaN; the first equation reads that column and must not see it
    p = replace(second_equation_diffusion(1.7e308), motion=fixed_interval(0.0, 0.5, T=3.0))
    with pytest.raises(RuntimeError, match=r"non-finite solution at the predictor of step 1 \(t=0\.01\), equation 1$"):
        run(p, build_space(CONDENSE_MIN_ELEMENTS, 2), 0.01)
    assert condensations == [2]



@pytest.mark.parametrize("k", [2, 3])
def test_an_overflowing_middle_equation_leaves_the_bits_of_both_neighbours(k, monkeypatch):
    # on (0, 1/2) b2 = 4, so s = a_1 b2/2 overflows and every zero entry of
    # the middle band, its padding element's included, is inf 0 = NaN; the
    # condensed U of equations 0 and 2 must keep the bits they have beside a
    # finite middle equation, and the error must name equation 1 alone
    space = build_space(CONDENSE_MIN_ELEMENTS // 2, k)
    solutions, kernels = [], []

    def keep(a, b, u, work):
        _back_substitute(a, b, u, work)
        solutions.append(kernels[-1].solution[:, : space.n_dofs].copy())

    monkeypatch.setattr(stepper, "_back_substitute", keep)
    motion = fixed_interval(0.0, 0.5, T=3.0)
    finite = constant_problem(motion, (0.9, 1.0, 2.2))
    kernels.append(StepKernel(assemble_static(space), 3))
    random_step(kernels[-1], finite, 19, 0.01, np.random.default_rng(7))
    overflowing = constant_problem(motion, (0.9, 1.7e308, 2.2))
    kernels.append(StepKernel(assemble_static(space), 3))
    with pytest.raises(RuntimeError, match=r"non-finite solution at step 20 \(t=0\.2\), equation 1$"):
        random_step(kernels[-1], overflowing, 19, 0.01, np.random.default_rng(7))
    before, after = solutions
    assert np.isfinite(before).all() and not np.isfinite(after[1, 1:-1]).any()
    assert after[[0, 2]].tobytes() == before[[0, 2]].tobytes()

def test_a_singular_vertex_system_names_step_time_and_equation(condensations):
    # mass I, no convection and a stiffness of +1 on the element-interior
    # and -1 on the vertex diagonals: at dt = 1/2 every element-interior
    # pivot is 2 + a_i b2/2 and every vertex diagonal of the Schur complement
    # 2 - a_i b2/2, zero for a_1 = 4 alone at b2 = 1 and for a_1 = 1 alone at
    # b2 = 4, where a_0 = 1.7e308 overflows the first band but the singular
    # later equation is still the one named
    nt, k = CONDENSE_MIN_ELEMENTS, 2
    space = build_space(nt, k)
    ops = assemble_static(space)
    mass, stiffness, zero = (np.zeros_like(ops.mass.data) for _ in range(3))
    mass[k] = 1.0
    stiffness[k] = 1.0
    stiffness[k, ::k] = -1.0
    fake = replace(
        ops,
        mass=BandedMatrix(mass, k),
        stiffness=BandedMatrix(stiffness, k),
        conv_const=BandedMatrix(zero, k),
        conv_linear=BandedMatrix(zero, k),
    )
    for L, a in ((1.0, (1.0, 4.0)), (0.5, (1.7e308, 1.0))):
        p = constant_problem(fixed_interval(0.0, L, T=1.0), a)
        with pytest.raises(RuntimeError, match=rf"singular Crank-Nicolson system at the predictor of step 1 \(t=0\.5\), equation 1 \(zero pivot at unknown 1 of {nt - 1}\)$"):
            bootstrap_first_step(initialize(space, p, 0.5), StepKernel(fake, p.ne), p)
    assert condensations == [2, 2]
