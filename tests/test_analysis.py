import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from mbfem import ErrorTracker, ProblemSpec, build_space, convergence_study, example1, example2, fixed_interval, run
from mbfem import analysis
from mbfem.analysis import due_steps, fit_slope, l2_error_vs_function, measure, write_rows
from mbfem.discretization import gauss_legendre, interpolate
from conftest import heat_problem


def still_problem(exact_fn, T=1.0):
    return ProblemSpec(
        ne=1,
        diffusion=(lambda r: 1.0,),
        forcing=(lambda x, t: np.zeros_like(np.asarray(x, float)),),
        initial=(lambda x: exact_fn(np.asarray(x, float), 0.0),),
        motion=fixed_interval(0.0, 1.0, T=T),
        T=T,
        exact=(exact_fn,),
    )


def test_measure_zero_against_zero():
    p = still_problem(lambda x, t: 0.0 * np.asarray(x, float))
    space = build_space(4, 2)
    rec = measure(p, space, 0.0, (np.zeros(space.n_dofs),))
    assert rec.l2_moving == (0.0,)
    assert rec.max_nodal == (0.0,)


def test_measure_exact_interpolant_of_polynomial():
    # degree <= k lies in the space: both errors at the roundoff floor
    p = still_problem(lambda x, t: np.asarray(x, float) * (1.0 - np.asarray(x, float)))
    space = build_space(3, 2)
    coeffs = interpolate(space, lambda y: y * (1.0 - y))
    rec = measure(p, space, 0.0, (coeffs,))
    assert rec.l2_moving[0] <= 1e-12
    assert rec.max_nodal[0] <= 1e-12


def test_measure_requires_exact_solutions():
    p = heat_problem()
    from dataclasses import replace

    space = build_space(4, 1)
    with pytest.raises(ValueError):
        measure(replace(p, exact=None), space, 0.0, (np.zeros(space.n_dofs),))


def test_l2_error_uses_elevated_quadrature():
    # sin is not in the space; the measured value must be close to the
    # true integral, not to a same-rule quadrature artifact
    space = build_space(16, 1)
    coeffs = interpolate(space, lambda y: np.sin(np.pi * y))
    err = l2_error_vs_function(space, coeffs, lambda y: np.sin(np.pi * y))
    from scipy.integrate import quad

    def sq(y):
        # a degree-1 expansion is the piecewise-linear interpolant of its coefficients
        return (np.interp(y, space.dof_positions, coeffs) - math.sin(math.pi * y)) ** 2

    true, _ = quad(sq, 0.0, 1.0, limit=200)
    assert err == pytest.approx(math.sqrt(true), rel=1e-3)


def loop_l2_error(space, coeffs, fn):
    """The element-by-element l2_error_vs_function the whole-array one replaced."""
    rule = gauss_legendre(space.quad.n + 2)
    table, _ = space.eval_basis(rule.points)
    c = np.asarray(coeffs, dtype=float)
    k = space.degree
    acc = 0.0
    for e in range(space.n_elements):
        a, b = space.breakpoints[e], space.breakpoints[e + 1]
        jac = 0.5 * (b - a)
        y_q = a + (rule.points + 1.0) * jac
        diff = table @ c[e * k : e * k + k + 1] - np.asarray(fn(y_q), dtype=float)
        acc += jac * float(rule.weights @ (diff * diff))
    return math.sqrt(acc)


@pytest.mark.parametrize("nt", [1, 2, 3, 5, 32, 257, 1024, 4096])
def test_l2_error_equals_the_element_loop(nt):
    fn = lambda y: np.sin(np.pi * y) * np.exp(y)
    rng = np.random.default_rng(nt)
    for k in range(1, 7):
        space = build_space(nt, k)
        for coeffs in (rng.standard_normal(space.n_dofs), interpolate(space, fn), np.zeros(space.n_dofs)):
            assert l2_error_vs_function(space, coeffs, fn) == loop_l2_error(space, coeffs, fn)


def test_fit_slope_exact_cubic():
    pts = [(h, h**3) for h in (0.2, 0.1, 0.05, 0.025)]
    fit = fit_slope(pts)
    assert fit.slope == pytest.approx(3.0, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.reliable


def test_fit_slope_dominant_term():
    pts = [(h, 5.0 * h**2 + h**4) for h in (0.1, 0.05, 0.025)]
    fit = fit_slope(pts)
    assert abs(fit.slope - 2.0) < 0.05


def test_fit_slope_needs_three_points():
    with pytest.raises(ValueError):
        fit_slope([(0.1, 1.0), (0.05, 0.25)])


def test_fit_slope_needs_distinct_abscissae():
    # three errors at one abscissa have no slope; polyfit would return one
    with pytest.raises(ValueError, match="distinct abscissae"):
        fit_slope([(0.25, 1.0), (0.25, 0.5), (0.25, 0.3)])


def test_fit_slope_rejects_nonpositive():
    with pytest.raises(ValueError):
        fit_slope([(0.1, 1.0), (0.05, 0.0), (0.025, 0.1)])


def test_error_tracker_records_requested_times():
    p = heat_problem(T=0.2)
    space = build_space(8, 2)
    tracker = ErrorTracker(p, space, times=[0.0, 0.1, 0.2], delta=0.01)
    run(p, space, 0.01, observers=[tracker])
    times = [r.time for r in tracker.records]
    assert times == pytest.approx([0.0, 0.1, 0.2], abs=1e-12)
    # the tracker matches step indices and consumes nothing: a second run
    # with the same T and delta is measured at the same levels
    run(p, space, 0.01, observers=[tracker])
    assert tracker.records[3:] == tracker.records[:3]


def test_due_steps_snap_to_the_nearest_level():
    # levels 0, 0.25, ..., 1: a request halfway between two takes the
    # earlier, and a level asked for twice is one index
    assert due_steps([1.0, 0.125, 0.375, 0.3, 0.0], 1.0, 0.25) == {0, 1, 4}


def test_convergence_study_spatial_axis():
    p = heat_problem(T=0.1)
    result = convergence_study(p, degrees=[1], mesh_sizes=[4, 8, 16], deltas=[0.002])
    assert len(result.rows) == 3
    assert all(r.axis == "h" for r in result.rows)
    assert [r.nt for r in result.rows] == [4, 8, 16]
    assert len(result.fits) == 1
    assert result.fits[0].slope == pytest.approx(2.0, abs=0.15)


def test_convergence_study_temporal_axis():
    p = heat_problem(T=0.1)
    result = convergence_study(p, degrees=[2], mesh_sizes=[32], deltas=[0.025, 0.0125, 0.00625])
    assert all(r.axis == "delta" for r in result.rows)
    assert result.fits[0].slope == pytest.approx(2.0, abs=0.25)


def test_convergence_study_rejects_two_axes():
    p = heat_problem()
    with pytest.raises(ValueError):
        convergence_study(p, degrees=[1], mesh_sizes=[4, 8], deltas=[0.1, 0.05])


def test_convergence_study_rejects_a_delta_that_does_not_divide_T(monkeypatch):
    # 33 steps of 0.03 miss T = 1: the study fails before its first run
    # instead of spending the valid runs and dropping the fit
    runs = []
    monkeypatch.setattr(analysis, "run", lambda *args: runs.append(args))
    with pytest.raises(ValueError, match=r"delta=0\.03 does not divide T=1\.0"):
        convergence_study(replace(example1(), T=1.0), degrees=[1], mesh_sizes=[4], deltas=[0.1, 0.05, 0.03])
    assert runs == []


@pytest.mark.parametrize(
    "problem,degrees,mesh_sizes,message",
    [
        (replace(example2(), T=0.5), [2], [4, 8, 16], "no exact solutions"),
        (replace(example1(), T=0.5), [2], [8], "three points"),
        (replace(example1(), T=0.5), [2], [4, 8, 4], "distinct"),
        (replace(example1(), T=0.5), [2, 3, 2], [4, 8, 16], r"distinct degrees, got \[2, 3, 2\]"),
    ],
    ids=["no-exact-solutions", "one-level", "repeated-level", "repeated-degree"],
)
def test_convergence_study_checks_its_preconditions_before_any_run(monkeypatch, problem, degrees, mesh_sizes, message):
    runs = []
    monkeypatch.setattr(analysis, "run", lambda *args: runs.append(args))
    with pytest.raises(ValueError, match=message):
        convergence_study(problem, degrees=degrees, mesh_sizes=mesh_sizes, deltas=[0.01])
    assert runs == []


def test_convergence_study_survives_failed_runs():
    p = heat_problem(T=0.1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = convergence_study(p, degrees=[1], mesh_sizes=[4, 0, 8, -1, 16], deltas=[0.002])
    assert sum("failed" in str(w.message) for w in caught) == 2
    nan_rows = [r for r in result.rows if math.isnan(r.l2_error)]
    assert [r.nt for r in nan_rows] == [0, -1] and all(math.isnan(r.max_nodal_error) for r in nan_rows)
    assert len(result.fits) == 1  # fitted from the three surviving levels
    assert result.fits[0].slope == pytest.approx(2.0, abs=0.15)


def test_csv_writers_are_deterministic(tmp_path):
    p = heat_problem(T=0.1)
    result = convergence_study(p, degrees=[1], mesh_sizes=[4, 8, 16], deltas=[0.005])
    header = ["axis", "k", "h", "equation", "l2_error"]
    rows = [(r.axis, r.k, r.h, r.equation, r.l2_error) for r in result.rows]
    s1, s2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_rows(s1, header, rows)
    write_rows(s2, header, rows)
    assert s1.read_bytes() == s2.read_bytes()
    assert b"\r" not in s1.read_bytes()
    lines = s1.read_text().splitlines()
    assert lines[0] == "axis,k,h,equation,l2_error"
    assert lines[1].split(",")[:4] == ["h", "1", "0.25", "0"]  # ints and strings as they are
    assert len(lines) == 1 + len(rows)


def test_csv_floats_roundtrip(tmp_path):
    p = heat_problem(T=0.1)
    space = build_space(8, 1)
    tracker = ErrorTracker(p, space, times=[0.1], delta=0.01)
    run(p, space, 0.01, observers=[tracker])
    path = tmp_path / "errors.csv"
    rec = tracker.records[0]
    header = ["time", "equation", "l2_error", "max_nodal_error"]
    write_rows(path, header, [(rec.time, 0, rec.l2_moving[0], rec.max_nodal[0])])
    lines = path.read_text().splitlines()
    assert lines[0] == "time,equation,l2_error,max_nodal_error"
    t, eq, l2, mx = lines[1].split(",")
    assert float(l2) == tracker.records[0].l2_moving[0]  # 17 digits round-trip
    assert float(mx) == tracker.records[0].max_nodal[0]
