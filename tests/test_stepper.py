import math
from dataclasses import replace

import numpy as np
import pytest

from mbfem import (
    ProblemSpec,
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
