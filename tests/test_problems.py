import math
import re
from dataclasses import replace

import numpy as np
import pytest
from numpy.polynomial import Polynomial
from scipy.integrate import quad

from mbfem import BoundaryMotion, ProblemSpec, build_space, example1, example2, fixed_interval, run, validate
from mbfem import problems
from mbfem.problems import _Q1_COEFFS, _Q2_COEFFS, manufactured

# int_0^1 q_i of example1's quartic profiles, in exact arithmetic
Q1_INTEGRAL = 703.0 / 1260.0
Q2_INTEGRAL = 1331.0 / 2520.0


# --- first benchmark ---------------------------------------------------------


def test_z_is_identity_at_t0():
    # alpha(0) = 0 and gamma(0) = 1, so the exact solutions at t = 0 are
    # the profiles themselves, to the last bit
    p = example1()
    x = np.linspace(0.0, 1.0, 9)
    for u, q in zip(p.exact, (_Q1_COEFFS, _Q2_COEFFS)):
        assert np.array_equal(u(x, 0.0), Polynomial(q)(x))


def test_z_is_the_boundary_fixing_coordinate():
    # example1's own closed form of z = (x - alpha) / gamma
    p = example1()
    m = p.motion
    for t in (0.0, 0.7, 2.4):
        x = np.linspace(m.alpha(t), m.beta(t), 11)
        z = ((1.0 + t) * x + t) / (1.0 + 4.0 * t)
        expected = (Polynomial(_Q1_COEFFS)(z) / (1.0 + t), math.exp(-t) * Polynomial(_Q2_COEFFS)(z))
        for u, want in zip(p.exact, expected):
            assert np.allclose(u(x, t), want, rtol=1e-13, atol=1e-14)


def test_exact_solutions_vanish_on_moving_boundaries():
    p = example1()
    for t in np.linspace(0.0, 3.0, 13):
        for u in p.exact:
            assert abs(u(p.motion.alpha(t), t)) < 1e-12
            assert abs(u(p.motion.beta(t), t)) < 1e-12


def test_exact_u2_at_t0_is_the_quartic():
    p = example1()
    x = np.linspace(0.0, 1.0, 17)
    assert np.allclose(p.exact[1](x, 0.0), Polynomial(_Q2_COEFFS)(x), rtol=1e-14)


def test_nonlocal_integrals_at_t0_match_exact_polynomial_integration():
    p = example1()
    for u, expected in zip(p.exact, (Q1_INTEGRAL, Q2_INTEGRAL)):
        value, err = quad(lambda x: u(x, 0.0), 0.0, 1.0, epsabs=1e-13)
        assert value == pytest.approx(expected, abs=1e-11)


def test_quartic_integrals_are_exact():
    # the antiderivative by polyint, as `manufactured` takes it
    for coeffs, expected in ((_Q1_COEFFS, Q1_INTEGRAL), (_Q2_COEFFS, Q2_INTEGRAL)):
        assert Polynomial(coeffs).integ()(1.0) == pytest.approx(expected, rel=1e-15)


def test_forcing_matches_independent_t0_closed_form():
    # at t = 0: gamma = 1, b1 = 3y - 1, F_i = 1, F_i' = -1, so
    # f_i(x, 0) = -q_i(x) - (3x - 1) q_i'(x) - a_i(Q1, Q2) q_i''(x)
    p = example1()
    a_at_Q = [p.diffusion[i](Q1_INTEGRAL, Q2_INTEGRAL) for i in range(2)]
    x = np.linspace(0.0, 1.0, 23)
    for i, coeffs in enumerate((_Q1_COEFFS, _Q2_COEFFS)):
        q = Polynomial(coeffs)
        expected = -q(x) - (3.0 * x - 1.0) * q.deriv()(x) - a_at_Q[i] * q.deriv(2)(x)
        assert np.allclose(p.forcing[i](x, 0.0), expected, rtol=1e-12, atol=1e-12)


def test_forcing_finite_on_boundaries():
    p = example1()
    for t in (0.0, 0.5, 1.5, 3.0):
        for i in range(2):
            assert np.isfinite(p.forcing[i](p.motion.alpha(t), t))
            assert np.isfinite(p.forcing[i](p.motion.beta(t), t))


def test_forcing_rejects_points_outside_domain():
    # forcing and exact solutions take x up to 1e-9 max(1, |alpha|, |beta|)
    # outside [alpha, beta] and t in the motion's domain, nothing further
    p = example1()
    for t in (0.0, 0.7, 3.0):
        a, b = p.motion.alpha(t), p.motion.beta(t)
        tol = 1e-9 * max(1.0, abs(a), abs(b))
        for fn in (*p.forcing, *p.exact):
            for x in (a - tol, a, b, b + tol):
                assert np.isfinite(fn(x, t))
            assert np.isfinite(fn(np.array([a - tol, 0.5 * (a + b), b + tol]), t)).all()
            for x in (np.nextafter(a - tol, -np.inf), np.nextafter(b + tol, np.inf), math.nan, 5.0):
                with pytest.raises(ValueError, match="outside the moving interval"):
                    fn(x, t)
                with pytest.raises(ValueError, match="outside the moving interval"):
                    fn(np.array([0.5 * (a + b), x]), t)
            for bad_t in (4.0, -1e-6):
                with pytest.raises(ValueError, match="outside the domain"):
                    fn(0.5, bad_t)
            with pytest.raises(ValueError):
                fn(0.5, math.nan)


def test_the_range_check_names_the_points_and_passes_empty_arrays():
    # the range check reads the points' min and max: a NaN anywhere, or one
    # point past either end, fails it and the error shows the points; an
    # empty array has no min and passes as an empty result
    p = example1()
    t = 0.7
    a, b = p.motion.alpha(t), p.motion.beta(t)
    tol = 1e-9 * max(1.0, abs(a), abs(b))
    inside = np.linspace(a, b, 6).reshape(2, 3, order="F")
    for fn in (*p.forcing, *p.exact):
        for bad in (math.nan, np.nextafter(a - tol, -np.inf), np.nextafter(b + tol, np.inf)):
            x = inside.copy(order="F")
            x[1, 2] = bad
            with pytest.raises(ValueError, match=re.escape(f"position {x} outside the moving interval")):
                fn(x, t)
            with pytest.raises(ValueError, match=re.escape(f"position {bad} outside")):
                fn(bad, t)
        for empty in (np.empty(0), np.empty((0, 3)), np.empty((4, 0), order="F")):
            out = fn(empty, t)
            assert out.shape == empty.shape
        assert fn(inside, t).flags.f_contiguous


def test_the_forcings_share_one_evaluation_of_the_motion_per_t(monkeypatch):
    # a step calls its ne forcings with one t object at one set of points;
    # the first forcing evaluates the motion, every time factor, every a_i
    # and z once, the second does none of that work, and each gives the bits
    # of the same forcing of a second problem called with an equal t of
    # another object
    counts = dict.fromkeys(("alpha", "beta", "alpha_prime", "beta_prime", "F", "F'", "a", "frame"), 0)

    def counted(name, fn):
        def call(*args):
            counts[name] += 1
            return fn(*args)

        return call

    base = example1().motion
    motion = replace(base, **{name: counted(name, getattr(base, name)) for name in list(counts)[:4]})
    time_factors = ((lambda t: 1.0 / (1.0 + t), lambda t: -1.0 / (1.0 + t) ** 2), (math.exp, math.exp))
    diffusion = (lambda r, s: 2.0 + r * s, lambda r, s: 3.0 - r * s)
    make = lambda m, tf, d: manufactured(m, (_Q1_COEFFS, _Q2_COEFFS), tf, d, ((1, 4), (2, 5)), 3.0)
    alone = make(base, time_factors, diffusion)
    shared = make(
        motion,
        tuple((counted("F", F), counted("F'", dF)) for F, dF in time_factors),
        tuple(counted("a", a) for a in diffusion),
    )
    monkeypatch.setattr(problems, "_frame", counted("frame", problems._frame))
    x = np.linspace(0.0, 1.0, 7)
    for t in (0.25, 1.5, 0.25):
        got, calls = [], []
        for f in shared.forcing:
            before = dict(counts)
            got.append(f(x, t))
            calls.append({name: counts[name] - before[name] for name in counts})
        assert all(calls[0].values())
        assert (calls[0]["F"], calls[0]["F'"], calls[0]["a"], calls[0]["frame"]) == (2, 2, 2, 1)  # once per equation, z once
        assert not any(calls[1].values())
        for g, f in zip(got, alone.forcing):
            assert np.array_equal(g.view(np.uint64), f(x, float(repr(t))).view(np.uint64))


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
    with pytest.raises(ValueError, match="time-factor pair"):
        manufactured(m, ((0.0, 1.0, -1.0),) * 2, ((math.exp, math.exp),), (lambda r, s: 1.0,) * 2, ((1.0, 1.0),) * 2, 1.0)


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


def test_validate_samples_initial_and_exact_data_on_whole_arrays():
    # callables that read x.shape run fine; validate must call them as a
    # run does, on arrays, not point by point
    p = ProblemSpec(
        ne=1,
        diffusion=(lambda r: 1.0,),
        forcing=(lambda x, t: np.zeros(x.shape),),
        initial=(lambda x: np.sin(np.pi * x) * np.ones(x.shape),),
        motion=example1().motion,
        T=1.0,
        exact=(lambda x, t: np.sin(np.pi * x) * np.ones(x.shape),),
        diffusion_bounds=((1.0, 1.0),),
    )
    run(p, build_space(4, 2), 0.5)
    report = validate(p)
    assert report.status == "pass", str(report)
    details = [c.detail for c in report.checks if c.name.endswith("equation 0") and not c.name.startswith("H5")]
    assert details == ["|u0(-0)| = 0.000e+00, |u0(1)| = 1.225e-16", "max difference 0.000e+00 at t=0"]


def test_validate_passes_the_diffusion_python_floats_as_a_run_does():
    # H5 samples the diffusion at the argument types a run passes it
    seen = []

    def a(r, s):
        seen.append((type(r), type(s)))
        return 1.5

    p = replace(example2(), diffusion=(a, a), diffusion_bounds=((1.0, 2.0), (1.0, 2.0)))
    run(p, build_space(4, 2), 0.5)
    assert set(seen) == {(float, float)}
    seen.clear()
    report = validate(p)
    assert report.status == "pass", str(report)
    assert len(seen) == 2 * 21**2 and set(seen) == {(float, float)}


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


def test_validate_reports_overflowing_initial_data_without_warnings():
    # the suite turns RuntimeWarnings into errors, so an overflow that
    # escaped validate's sampling would fail here
    from mbfem.cli import parse_problem

    def check(problem, name):
        return next(c for c in validate(problem, require_expanding=False).checks if c.name == name)

    p = parse_problem("ne=1 T=1 diffusion1=const:1 initial1=poly:1e308,1e308")
    compat = check(p, "initial data compatibility, equation 0")
    assert compat.status == "fail" and "|u0(1)| = inf" in compat.detail
    match = check(replace(p, exact=(lambda x, t: 0.0 * x,)), "exact solution matches initial data, equation 0")
    assert (match.status, match.detail) == ("fail", "max difference inf at t=0")
