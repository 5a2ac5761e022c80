import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from mbfem import BoundaryMotion, ProblemSpec, example1, example1_forcing, example2, fixed_interval, validate
from mbfem.problems import (
    _Q1_COEFFS,
    _Q1_INTEGRAL,
    _Q2_COEFFS,
    _Q2_INTEGRAL,
    _ex1_z,
    _quartic,
)


# --- first benchmark ---------------------------------------------------------


def test_z_is_identity_at_t0():
    x = np.linspace(-0.2, 1.2, 9)
    assert np.allclose(_ex1_z(x, 0.0), x, rtol=1e-15)


def test_z_is_the_boundary_fixing_coordinate():
    p = example1()
    m = p.motion
    for t in (0.0, 0.7, 2.4):
        x = np.linspace(m.alpha(t), m.beta(t), 11)
        assert np.allclose(_ex1_z(x, t), m.to_fixed(x, t), rtol=1e-13, atol=1e-14)


def test_exact_solutions_vanish_on_moving_boundaries():
    p = example1()
    for t in np.linspace(0.0, 3.0, 13):
        for u in p.exact:
            assert abs(u(p.motion.alpha(t), t)) < 1e-12
            assert abs(u(p.motion.beta(t), t)) < 1e-12


def test_exact_u2_at_t0_is_the_quartic():
    p = example1()
    x = np.linspace(0.0, 1.0, 17)
    assert np.allclose(p.exact[1](x, 0.0), _quartic(_Q2_COEFFS, x), rtol=1e-14)


def test_nonlocal_integrals_at_t0_match_exact_polynomial_integration():
    p = example1()
    for u, expected in zip(p.exact, (_Q1_INTEGRAL, _Q2_INTEGRAL)):
        value, err = quad(lambda x: u(x, 0.0), 0.0, 1.0, epsabs=1e-13)
        assert value == pytest.approx(expected, abs=1e-11)


def test_quartic_integrals_are_exact():
    # antiderivative of sum c_m s^m evaluated at 1
    for coeffs, expected in ((_Q1_COEFFS, _Q1_INTEGRAL), (_Q2_COEFFS, _Q2_INTEGRAL)):
        total = sum(c / (m + 2) for m, c in enumerate(coeffs))
        assert total == pytest.approx(expected, rel=1e-15)


def test_forcing_matches_independent_t0_closed_form():
    # at t = 0: gamma = 1, b1 = 3y - 1, F_i = 1, F_i' = -1, so
    # f_i(x, 0) = -q_i(x) - (3x - 1) q_i'(x) - a_i(Q1, Q2) q_i''(x)
    p = example1()
    a_at_Q = [p.diffusion[i](_Q1_INTEGRAL, _Q2_INTEGRAL) for i in range(2)]
    x = np.linspace(0.0, 1.0, 23)
    for i, coeffs in enumerate((_Q1_COEFFS, _Q2_COEFFS)):
        q = np.polynomial.Polynomial([0.0, *coeffs])
        expected = -q(x) - (3.0 * x - 1.0) * q.deriv()(x) - a_at_Q[i] * q.deriv(2)(x)
        assert np.allclose(example1_forcing(i, x, 0.0), expected, rtol=1e-12, atol=1e-12)


def test_forcing_finite_on_boundaries():
    p = example1()
    for t in (0.0, 0.5, 1.5, 3.0):
        for i in range(2):
            assert np.isfinite(example1_forcing(i, p.motion.alpha(t), t))
            assert np.isfinite(example1_forcing(i, p.motion.beta(t), t))


def test_forcing_rejects_points_outside_domain():
    with pytest.raises(ValueError):
        example1_forcing(0, 5.0, 0.0)
    with pytest.raises(ValueError):
        example1_forcing(0, 0.5, 4.0)


def test_diffusion_bounds_hold_on_declared_ranges():
    p = example1()
    rng = np.random.default_rng(0)
    args = rng.uniform(-20.0, 20.0, size=(200, 2))
    for i, (lo, hi) in enumerate(p.diffusion_bounds):
        vals = np.array([p.diffusion[i](r, s) for r, s in args])
        assert np.all(vals >= lo) and np.all(vals <= hi)


# --- second benchmark --------------------------------------------------------


def test_example2_boundaries_at_t0():
    p = example2()
    assert p.motion.alpha(0.0) == pytest.approx(0.0, abs=1e-15)
    assert p.motion.beta(0.0) == pytest.approx(1.0, rel=1e-15)


def test_example2_symmetric_expansion():
    p = example2()
    for t in np.linspace(0.0, 1.0, 9):
        assert p.motion.alpha(t) + p.motion.beta(t) == pytest.approx(1.0, rel=1e-14)
        assert p.motion.alpha_prime(t) < 0.0


def test_example2_initial_data_interpolates_knots():
    p = example2()
    knots1 = ((0.0, 0.0), (0.2, 1.0), (0.5, 0.5), (1.0, 0.0))
    knots2 = ((0.0, 0.0), (0.6, 0.65), (0.8, 1.0), (1.0, 0.0))
    for u0, knots in zip(p.initial, (knots1, knots2)):
        for x, v in knots:
            assert float(u0(x)) == pytest.approx(v, abs=1e-13)


def test_example2_forcing_formulas():
    p = example2()
    x = np.array([0.1, 0.4, 0.9])
    assert np.allclose(p.forcing[0](x, 1.0), 0.1 * x / 2.0**4, rtol=1e-14)
    assert np.allclose(p.forcing[1](x, 0.0), np.exp(-(x**2)), rtol=1e-14)


# --- spec container ----------------------------------------------------------


def test_problemspec_validates_lengths():
    m = fixed_interval(0.0, 1.0, T=1.0)
    with pytest.raises(ValueError):
        ProblemSpec(
            ne=2,
            diffusion=(lambda r, s: 1.0,),
            forcing=(lambda x, t: x, lambda x, t: x),
            initial=(lambda x: x, lambda x: x),
            motion=m,
            T=1.0,
        )


def test_problemspec_rejects_T_beyond_motion():
    m = fixed_interval(0.0, 1.0, T=1.0)
    with pytest.raises(ValueError):
        ProblemSpec(
            ne=1,
            diffusion=(lambda r: 1.0,),
            forcing=(lambda x, t: 0.0 * x,),
            initial=(lambda x: 0.0 * x,),
            motion=m,
            T=2.0,
        )


# --- hypothesis validation ---------------------------------------------------


def test_validate_example1_passes():
    report = validate(example1())
    assert report.status == "pass", str(report)


def test_validate_example2_passes():
    report = validate(example2())
    assert report.status == "pass", str(report)


def test_validate_fails_a_nan_width():
    nan_motion = BoundaryMotion(
        alpha=lambda t: math.nan,
        beta=lambda t: 1.0,
        alpha_prime=lambda t: -1.0,
        beta_prime=lambda t: 1.0,
        T=1.0,
    )
    report = validate(replace(example2(), motion=nan_motion))
    width = next(c for c in report.checks if c.name == "H1 positive width")
    assert width.status == "fail", str(report)
    assert not report.passed


def test_validate_flags_unbounded_diffusion():
    p = replace(
        example1(),
        diffusion=(lambda r, s: r, lambda r, s: 1.0),
        diffusion_bounds=((0.0, 1.0), (0.5, 2.0)),
    )
    report = validate(p)
    assert report.status == "fail"
    assert any(c.status == "fail" and "bound" in c.name for c in report.checks)


def test_validate_flags_shrinking_domain():
    shrinking = ProblemSpec(
        ne=1,
        diffusion=(lambda r: 1.0,),
        forcing=(lambda x, t: 0.0 * np.asarray(x, float),),
        initial=(lambda x: np.sin(np.pi * np.asarray(x, float)),),
        motion=fixed_interval(0.0, 1.0, T=1.0),
        T=1.0,
    )
    report = validate(shrinking)  # alpha' = 0 violates strict monotonicity
    assert report.status == "fail"
    # both boundaries violate it at every sample, which counts once
    monotonicity = next(c for c in report.checks if c.name == "H2 boundary monotonicity")
    assert monotonicity.detail.endswith("violated at 201 of 201 samples")
    relaxed = validate(shrinking, require_expanding=False)
    assert relaxed.status == "warn"
    assert relaxed.passed


def test_validate_flags_incompatible_initial_data():
    p = ProblemSpec(
        ne=1,
        diffusion=(lambda r: 1.0,),
        forcing=(lambda x, t: 0.0 * np.asarray(x, float),),
        initial=(lambda x: np.cos(np.pi * np.asarray(x, float)),),  # 1 at x=0
        motion=fixed_interval(0.0, 1.0, T=1.0),
        T=1.0,
    )
    report = validate(p, require_expanding=False)
    assert report.status == "fail"
    assert any(c.status == "fail" and "compat" in c.name for c in report.checks)
