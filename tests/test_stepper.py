import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import solve_banded

from mbfem import (
    BandedMatrix,
    ProblemSpec,
    advance,
    assemble_static,
    bootstrap_first_step,
    build_space,
    example1,
    fit_slope,
    fixed_interval,
    initialize,
    l2_norm,
    measure,
    run,
)
from mbfem.stepper import _StepKernel
from conftest import heat_problem


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
    from mbfem.problems import _Q1_COEFFS, _Q2_COEFFS, _quartic

    p = example1()
    space = build_space(7, 3)
    state = initialize(space, p, 0.01)
    y = space.dof_positions
    inner = slice(1, -1)
    assert np.allclose(state.current[0][inner], _quartic(_Q1_COEFFS, y[inner]), rtol=1e-13)
    assert np.allclose(state.current[1][inner], _quartic(_Q2_COEFFS, y[inner]), rtol=1e-13)
    assert state.current[0][0] == 0.0 and state.current[0][-1] == 0.0


def test_bootstrap_zero_fixed_point():
    p = zero_problem()
    space = build_space(4, 2)
    ops = assemble_static(space)
    s1 = bootstrap_first_step(initialize(space, p, 0.05), ops, p)
    assert all(np.all(v == 0.0) for v in s1.current)
    assert s1.time == pytest.approx(0.05)
    assert s1.t_index == 1


def test_bootstrap_heat_decay_factor():
    # one Crank-Nicolson step must damp the first mode by e^{-pi^2 delta}
    # up to O(delta^3) + O(h^{k+1})
    delta = 0.01
    p = heat_problem(T=1.0)
    space = build_space(64, 2)
    ops = assemble_static(space)
    state = initialize(space, p, delta)
    s1 = bootstrap_first_step(state, ops, p)
    ratio = l2_norm(space, s1.current[0]) / l2_norm(space, state.current[0])
    assert ratio < 1.0
    assert ratio == pytest.approx(math.exp(-math.pi**2 * delta), abs=5e-4)


def test_bootstrap_example1_first_step_accuracy():
    # error after one step stays within C(h^3 + delta^2); measured 3.6e-5
    # at these parameters, asserted with a tenfold margin
    p = example1()
    space = build_space(100, 2)
    ops = assemble_static(space)
    s1 = bootstrap_first_step(initialize(space, p, 0.01), ops, p)
    rec = measure(s1, p, space)
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
        rec = measure(run(p, space, delta).final, p, space)
        pts.append((delta, rec.l2_moving[0]))
    fit = fit_slope(pts, axis="delta")
    assert fit.slope == pytest.approx(2.0, abs=0.2)


def test_run_integer_step_count():
    p = zero_problem(T=3.0)
    space = build_space(2, 1)
    result = run(p, space, 0.01)
    assert result.n_steps == 300
    assert result.final.time == 3.0
    assert result.times[0] == 0.0
    assert len(result.times) == 301


def test_run_shortened_final_step_lands_on_T():
    p = heat_problem(T=0.25)
    space = build_space(16, 1)
    result = run(p, space, 0.1)  # 2 full steps + remainder 0.05
    assert result.final.time == 0.25
    assert result.n_steps == 3
    rec = measure(result.final, p, space)
    assert rec.l2_moving[0] < 0.05


def test_run_T_smaller_than_delta():
    p = heat_problem(T=0.01)
    space = build_space(16, 1)
    result = run(p, space, 0.5)
    assert result.final.time == 0.01
    assert result.n_steps == 1
    rec = measure(result.final, p, space)
    assert rec.l2_moving[0] < 0.01


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


def test_observer_vectors_are_read_only():
    p = zero_problem()
    space = build_space(2, 1)

    def vandal(n, t, vectors):
        with pytest.raises(ValueError):
            vectors[0][0] = 1.0

    run(p, space, 0.25, observers=[vandal])


def test_runs_are_deterministic():
    p = example1()
    space = build_space(4, 2)
    a = run(p, space, 0.05)
    b = run(p, space, 0.05)
    for va, vb in zip(a.final.current, b.final.current):
        assert np.array_equal(va, vb)


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


def plain_equation(ops, motion, t_mid, a_i, dt, v_prev, load):
    """One equation's step written as plain band expressions, solved by
    scipy's solve_banded: the arithmetic the kernel must reproduce."""
    g = motion.gamma(t_mid)
    c_half = 0.5 * (
        (motion.alpha_prime(t_mid) / g) * ops.conv_const.data
        + (motion.gamma_prime(t_mid) / g) * ops.conv_linear.data
    )
    m_over_dt = ops.mass.data / dt
    diff_half = (0.5 * a_i * motion.coeff_b2(t_mid)) * ops.stiffness.data
    kb = ops.mass.kb
    rhs = BandedMatrix(m_over_dt - diff_half + c_half, kb).matvec(v_prev) + load
    v_new = np.zeros_like(v_prev)
    v_new[1:-1] = solve_banded((kb, kb), (m_over_dt + diff_half - c_half)[:, 1:-1], rhs[1:-1])
    return v_new


@pytest.mark.parametrize("nt,k", [(8, 1), (1, 2), (8, 3), (64, 2)])
def test_step_kernel_equals_the_plain_expressions(nt, k):
    p = example1()
    space = build_space(nt, k)
    ops = assemble_static(space)
    kernel = _StepKernel(ops)
    rng = np.random.default_rng(nt + k)
    # a repeated dt keeps M/dt, a new one recomputes it
    for t_mid, dt, a_i in ((0.105, 0.01, 1.7), (0.115, 0.01, 2.3), (0.1235, 0.007, 0.9)):
        b2 = kernel.begin_step(p.motion, t_mid, dt)
        for _ in range(2):
            v_prev = rng.standard_normal(space.n_dofs)
            v_prev[[0, -1]] = 0.0
            load = rng.standard_normal(space.n_dofs)
            got = kernel.solve(b2, a_i, v_prev, load, "a test step")
            assert np.array_equal(got, plain_equation(ops, p.motion, t_mid, a_i, dt, v_prev, load))


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
    with pytest.raises(RuntimeError, match=r"singular Crank-Nicolson system at the predictor of step 1 \(t=0\.01\), equation 1 \(condition estimate"):
        bootstrap_first_step(state, singular, p)
    s1 = bootstrap_first_step(state, ops, p)
    with pytest.raises(RuntimeError, match=r"singular Crank-Nicolson system at step 2 \(t=0\.02\), equation 1 \(condition estimate"):
        advance(s1, singular, p)


def test_non_finite_solution_names_step_time_and_equation():
    # a declared diffusion of 1e308 overflows the second equation's bands
    p = second_equation_diffusion(1e308)
    space = build_space(4, 2)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RuntimeError, match=r"non-finite solution at the predictor of step 1 \(t=0\.01\), equation 1$"):
            run(p, space, 0.01)
