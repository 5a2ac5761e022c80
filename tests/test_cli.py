import copy
import csv
import math
import os
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial

import mbfem
from mbfem import ErrorTracker, analysis, build_space, cli, example1, problems, run, stepper
from mbfem.analysis import write_rows
from mbfem.cli import ConfigError, SnapshotRecorder, SnapshotRows, main, parse_config, parse_problem
from mbfem.problems import _Q1_COEFFS, _ex1_motion


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def cli_in_child(tmp_path, command, config):
    """`python -m mbfem.cli <command>` in a child process that imports the
    same mbfem as this one, installed or not."""
    src = os.path.dirname(os.path.dirname(mbfem.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = [] if command == "validate" else ["--out", str(tmp_path / "o")]
    return subprocess.run(
        [sys.executable, "-m", "mbfem.cli", command, "--config", config, *out],
        capture_output=True,
        text=True,
        env=env,
    )


# --- config parsing ----------------------------------------------------------


def test_parse_minimal_config():
    config = parse_config("problem=example1 nt=100 k=2 delta=0.01")
    assert config.problem.name == "example1"
    assert config.nt == (100,)
    assert config.k == (2,)
    assert config.delta == (0.01,)
    assert config.problem.T == 3.0


def test_parse_config_missing_nt():
    with pytest.raises(ConfigError, match="nt"):
        parse_config("problem=example1 k=2 delta=0.01")


def test_parse_config_zero_delta():
    with pytest.raises(ConfigError, match="delta"):
        parse_config("problem=example1 nt=4 k=2 delta=0")


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e400"])
def test_parse_config_rejects_non_finite_delta(value):
    with pytest.raises(ConfigError, match="delta"):
        parse_config(f"problem=example1 nt=4 k=2 delta={value}")


@pytest.mark.parametrize(
    "command,config",
    [
        ("solve", "problem=example2 nt=2 k=1 delta=0.33333333334"),  # 3 steps land 2e-11 past T
        ("study", "problem=example1 nt=4,8,16 k=1 delta=0.03 T=1"),  # 33 steps reach 0.99
        ("validate", "problem=example2 nt=2 k=1 delta=0.33333333334"),
    ],
    ids=["solve", "study", "validate"],
)
def test_a_delta_that_does_not_divide_T_is_a_config_error(tmp_path, monkeypatch, capsys, command, config):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(cli, "run", no_run)
    monkeypatch.setattr(analysis, "run", no_run)
    args = [command, "--config", write(tmp_path, "run.cfg", config + "\n")]
    if command != "validate":
        args += ["--out", str(tmp_path / "o")]
    assert main(args) == 2
    err = capsys.readouterr().err
    pattern = r"config error: delta=\S+ does not divide T=1\.0 into whole steps \(T/delta = \S+\)\n"
    assert re.fullmatch(pattern, err), err
    assert not (tmp_path / "o").exists()


def test_parse_config_unknown_key_has_line_number():
    for pair in ("wavelength=3", "q=5", "out=x", "emit_moving=false"):
        with pytest.raises(ConfigError, match=f"line 2: unknown run key '{pair.split('=')[0]}'"):
            parse_config(f"problem=example1 nt=4\n{pair} k=2 delta=0.01")


def test_parse_config_repeatable_and_comma_values():
    config = parse_config(
        "problem=example1\nnt=4,8\nnt=16\nk=2 delta=0.01\nsnapshot_time=0.5 snapshot_time=1.0"
    )
    assert config.nt == (4, 8, 16)
    assert config.snapshot_times == (0.5, 1.0)


def test_parse_config_T_override():
    config = parse_config("problem=example1 nt=4 k=2 delta=0.01 T=1.5")
    assert config.problem.T == 1.5
    for value in ("99", "inf", "nan"):
        with pytest.raises(ConfigError, match="time domain"):
            parse_config(f"problem=example1 nt=4 k=2 delta=0.01 T={value}")


def test_parse_config_snapshot_outside_T():
    with pytest.raises(ConfigError, match="snapshot"):
        parse_config("problem=example1 nt=4 k=2 delta=0.01 T=1 snapshot_time=2")


# --- user problem catalog ----------------------------------------------------

HEAT_PROBLEM = """
ne=1 T=0.1
motion=fixed a=0 b=1
diffusion1=const:1
initial1=poly:0,3.1415926,0,-0,0  # placeholder, replaced below
"""


def test_parse_problem_fixed_heat(tmp_path):
    text = "ne=1 T=0.5\nmotion=fixed a=0 b=1\ndiffusion1=const:1\ninitial1=poly:0,1,-1\n"
    p = parse_problem(text)
    assert p.ne == 1
    assert p.motion.gamma(0.3) == 1.0
    assert p.diffusion[0](123.0) == 1.0
    assert p.diffusion_bounds[0] == (1.0, 1.0)
    x = np.linspace(0.0, 1.0, 5)
    assert np.allclose(p.initial[0](x), x * (1.0 - x), rtol=1e-14)
    assert np.all(p.forcing[0](x, 0.2) == 0.0)


def test_parse_problem_rational_motion_matches_reference():
    text = (
        "ne=1 T=3\nmotion=rational\n"
        "alpha_num=0,-1 alpha_den=1,1\n"
        "beta_num=1,3 beta_den=1,1\n"
        "diffusion1=const:1\ninitial1=poly:0,1,-1\n"
    )
    p = parse_problem(text)
    ref = _ex1_motion()
    for t in (0.0, 0.8, 2.5):
        assert p.motion.alpha(t) == pytest.approx(ref.alpha(t), rel=1e-14, abs=1e-15)
        assert p.motion.beta(t) == pytest.approx(ref.beta(t), rel=1e-14)
        assert p.motion.alpha_prime(t) == pytest.approx(ref.alpha_prime(t), rel=1e-13)
        assert p.motion.beta_prime(t) == pytest.approx(ref.beta_prime(t), rel=1e-13)


def test_parse_problem_forcing_terms_sum():
    text = (
        "ne=1 T=1\nmotion=fixed\ndiffusion1=affine_inverse:2,-1\n"
        "initial1=spline:0,0;0.2,1;0.5,0.5;1,0\n"
        "forcing1=poly:0,0.1;tpow:-4\nforcing1=gaussx;const:2\n"
    )
    p = parse_problem(text)
    x = np.array([0.3, 0.7])
    expected = 0.1 * x / (1.0 + 1.0) ** 4 + 2.0 * np.exp(-(x**2))
    assert np.allclose(p.forcing[0](x, 1.0), expected, rtol=1e-14)
    assert p.diffusion_bounds[0] == (1.0, 2.0)
    assert p.diffusion[0](0.0) == pytest.approx(1.0)


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_parse_problem_rejects_non_finite_T(value):
    text = f"ne=1 T={value}\nmotion=fixed\ndiffusion1=const:1\ninitial1=poly:0,1,-1\n"
    with pytest.raises(ConfigError, match="T must be"):
        parse_problem(text)


def test_parse_problem_rejects_nonpositive_diffusion():
    text = "ne=1 T=1\nmotion=fixed\ndiffusion1=affine_inverse:1,-2\ninitial1=poly:0,1,-1\n"
    with pytest.raises(ConfigError, match="<= 0"):
        parse_problem(text)


@pytest.mark.parametrize(
    "spec", ["const:nan", "const:inf", "affine_inverse:nan,0.1", "affine_inverse:1,nan"]
)
def test_parse_problem_rejects_non_finite_diffusion(spec):
    # affine_inverse:1,nan used to be declared bounded in [1, 1]
    text = f"ne=1 T=1\nmotion=fixed\ndiffusion1={spec}\ninitial1=poly:0,1,-1\n"
    with pytest.raises(ConfigError, match="finite"):
        parse_problem(text)


POLE_MOTION = "motion=rational alpha_num=-0.000001 alpha_den=1,-4.01,4.020025 beta_num=1\n"


def test_parse_problem_rejects_a_pole_on_the_time_domain():
    # alpha_den has a double root at t = 4.01 / 8.04005 = 0.498753..., between
    # the 101 times the width is sampled at
    text = "ne=1 T=1 " + POLE_MOTION + "diffusion1=const:1\ninitial1=poly:0,1,-1\n"
    with pytest.raises(ConfigError, match=r"denominator of alpha \(alpha_den\) has a root at t = 0\.498753"):
        parse_problem(text)
    # the same denominator is harmless when T stops short of its root
    parse_problem(text.replace("T=1", "T=0.45"))


def test_solve_and_validate_reject_a_pole(tmp_path, capsys):
    write(tmp_path, "pole.prob", "ne=1 T=1 " + POLE_MOTION + "diffusion1=const:1\ninitial1=poly:0,1,-1\n")
    config = write(tmp_path, "run.cfg", "problem=pole.prob nt=4 k=1 delta=0.01\n")
    for args in (["solve", "--out", str(tmp_path / "o")], ["validate"]):
        assert main([*args, "--config", config]) == 2
        captured = capsys.readouterr()
        assert "has a root at t = 0.498753" in captured.err
        assert "PASS" not in captured.out


def test_parse_problem_rejects_non_finite_motion_coefficients():
    text = "ne=1 T=1 motion=rational alpha_num=0 alpha_den=1,nan beta_num=1\ndiffusion1=const:1\ninitial1=poly:0,1,-1\n"
    with pytest.raises(ConfigError, match="finite"):
        parse_problem(text)


@pytest.mark.parametrize("ends", ["a=-inf", "b=inf", "a=nan", "a=-inf b=inf"])
def test_parse_problem_rejects_non_finite_fixed_ends(ends):
    text = f"ne=1 T=1 motion=fixed {ends}\ndiffusion1=const:1\ninitial1=poly:0,1,-1\n"
    with pytest.raises(ConfigError, match="fixed interval ends must be finite"):
        parse_problem(text)


def test_parse_problem_rejects_unknown_family():
    text = "ne=1 T=1\nmotion=fixed\ndiffusion1=cubic:1\ninitial1=poly:0,1,-1\n"
    with pytest.raises(ConfigError, match="family"):
        parse_problem(text)


@pytest.mark.parametrize("spec", ["gaussx:7,junk", "gaussx:1"])
def test_parse_problem_rejects_gaussx_arguments(spec):
    text = f"ne=1 T=1\ndiffusion1=const:1\ninitial1=poly:0,1,-1\nforcing1={spec};const:1\n"
    with pytest.raises(ConfigError, match="'forcing1': gaussx takes no arguments"):
        parse_problem(text)


@pytest.mark.parametrize(
    "motion,foreign",
    [
        ("alpha_num=0,-0.5 beta_num=1,0.5", "alpha_num"),  # no motion=: the fixed family
        ("motion=fixed alpha_num=0,-0.5 beta_num=1,0.5", "alpha_num"),
        ("motion=fixed a=0 b=2 alpha_den=1", "alpha_den"),
    ],
)
def test_parse_problem_rejects_another_familys_keys(motion, foreign):
    # the key set follows motion=, so a rational key cannot leave the run
    # silently on the fixed interval (0, 1)
    text = f"ne=1 T=1 {motion}\ndiffusion1=const:1\ninitial1=poly:0,1,-1\n"
    with pytest.raises(ConfigError, match=f"unknown motion=fixed problem key '{foreign}'"):
        parse_problem(text)


def test_parse_problem_unknown_motion_family_is_named_before_its_keys():
    text = "ne=1 T=1 motion=spiral alpha_num=0 a=0\ndiffusion1=const:1\ninitial1=poly:0,1,-1\n"
    with pytest.raises(ConfigError, match="unknown motion family 'spiral'"):
        parse_problem(text)


# Each malformed per-equation value and the whole message it gives: the
# builder's reason, prefixed with its key in one place in parse_problem.
# The last five rows are errors of numpy and of natural_cubic_spline.
MALFORMED_VALUES = [
    ("diffusion1", "affine_inverse:1", "affine_inverse needs 2 coefficients, got 1"),
    ("diffusion1", "affine_inverse:1,nan", "affine_inverse coefficients must be finite, got (1.0, nan)"),
    ("diffusion1", "affine_inverse:nan,0.1", "affine_inverse coefficients must be finite, got (nan, 0.1)"),
    ("diffusion1", "affine_inverse:1,-2", "diffusion can reach -1.0 <= 0"),
    ("diffusion1", "affine_inverse:1,x", "cannot read numbers from '1,x'"),
    ("diffusion1", "expsq:x", "expsq needs an equation index"),
    ("diffusion1", "expsq:2", "expsq index 2 outside 1..1"),
    ("diffusion1", "const:0", "const needs one positive finite value"),
    ("diffusion1", "const:inf", "const needs one positive finite value"),
    ("diffusion1", "const:1,2", "const needs one positive finite value"),
    ("diffusion1", "cubic:1", "unknown diffusion family 'cubic'"),
    ("initial1", "poly:0,x", "cannot read numbers from '0,x'"),
    ("initial1", "spline:0,0;1", "knot '1' is not x,value"),
    ("initial1", "cubic:1", "unknown initial-data family 'cubic'"),
    ("forcing1", "poly:x;const:1", "cannot read numbers from 'x'"),
    ("forcing1", "gaussx", "term 'gaussx' needs the form xfactor;tfactor"),
    ("forcing1", "gaussx:1;const:1", "gaussx takes no arguments, got '1'"),
    ("forcing1", "sin;const:1", "unknown space factor 'sin'"),
    ("forcing1", "gaussx;tpow:1,2", "tpow needs one exponent"),
    ("forcing1", "gaussx;texp:", "texp needs one rate"),
    ("forcing1", "gaussx;texp:x", "cannot read numbers from 'x'"),
    ("forcing1", "gaussx;const:1,2", "const needs one value"),
    ("forcing1", "gaussx;cos:1", "unknown time factor 'cos'"),
    ("initial1", "poly:", "Coefficient array is empty"),
    ("forcing1", "poly:;const:1", "Coefficient array is empty"),
    ("initial1", "spline:0,0;1,0", "need at least three (position, value) knots"),
    ("initial1", "spline:0,0;0.5,1;0.5,0;1,0", "knot positions must be strictly increasing"),
    ("initial1", "spline:0,0;0.5,inf;1,0", "`y` must contain only finite values."),
]


@pytest.mark.parametrize(
    "key,value,reason", MALFORMED_VALUES, ids=[f"{key}={value}" for key, value, _ in MALFORMED_VALUES]
)
def test_parse_problem_names_the_key_of_a_malformed_value(key, value, reason):
    fields = {"ne": "1", "T": "1", "diffusion1": "const:1", "initial1": "poly:0,1,-1", key: value}
    with pytest.raises(ConfigError) as exc:
        parse_problem(" ".join(f"{k}={v}" for k, v in fields.items()))
    assert str(exc.value) == f"key {key!r}: {reason}"


def test_an_empty_polynomial_is_a_config_error_naming_its_key(tmp_path):
    write(tmp_path, "empty.prob", "ne=1 T=1 diffusion1=const:1 initial1=poly:\n")
    config = write(tmp_path, "run.cfg", "problem=empty.prob nt=4 k=1 delta=0.1\n")
    proc = cli_in_child(tmp_path, "solve", config)
    assert proc.returncode == 2
    assert proc.stderr == "config error: key 'initial1': Coefficient array is empty\n"


def test_parse_problem_rejects_reversed_fixed_ends():
    text = "ne=1 T=1 motion=fixed a=2\ndiffusion1=const:1\ninitial1=poly:0,1,-1\n"
    with pytest.raises(ConfigError) as exc:
        parse_problem(text)
    assert str(exc.value) == "fixed interval needs a < b, got [2.0, 1.0]"


def test_parse_problem_wrong_coefficient_count():
    text = "ne=2 T=1\nmotion=fixed\ndiffusion1=affine_inverse:1,1\ndiffusion2=const:1\n" \
           "initial1=poly:0,1,-1\ninitial2=poly:0,1,-1\n"
    with pytest.raises(ConfigError, match="coefficients"):
        parse_problem(text)


# --- catalog polynomials -------------------------------------------------------


def polynomial_quotient(num, den):
    """num/den and its derivative from numpy's Polynomial objects: the
    arithmetic the catalog's plain-float rational motion must reproduce."""
    n, d = Polynomial(num), Polynomial(den)
    dn, dd = n.deriv(), d.deriv()
    return (lambda t: n(t) / d(t)), (lambda t: (dn(t) * d(t) - n(t) * dd(t)) / (d(t) * d(t)))


coefficients = st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=5)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    num=coefficients,
    den=coefficients,
    T=st.floats(0.1, 10.0),
    s=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
    # a moving-domain point is never -0.0, which 0 + 1*x would turn into 0.0
    x=st.lists(st.floats(-10.0, 10.0).map(lambda v: v + 0.0), min_size=1, max_size=8),
)
def test_horner_is_the_numpy_polynomial_bit_for_bit(num, den, T, s, x):
    x = np.array(x)
    assert np.array_equal(bits(cli._polynomial(tuple(num))(x)), bits(Polynomial(num)(x)))
    f, fp = cli._rational_fn(num, den)
    ref_f, ref_fp = polynomial_quotient(num, den)
    for t in (T * v for v in s):
        assert bits(cli._horner(tuple(num), t)) == bits(Polynomial(num)(t))
        with np.errstate(all="ignore"):  # a zero of den: numpy's inf or nan is the reference
            want = ref_f(t), ref_fp(t)
        assert (bits(f(t)), bits(fp(t))) == (bits(want[0]), bits(want[1]))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    # signed zeros among the coefficients, and -0.0, infinities and NaN among
    # the points: polyval's recurrence maps all of them the same way
    c=st.lists(st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0]), min_size=1, max_size=5),
    x=st.lists(st.floats(-10.0, 10.0) | st.sampled_from([-0.0, np.inf, -np.inf, np.nan]), min_size=1, max_size=8),
)
def test_horner_in_place_on_arrays_is_polyval_bit_for_bit(c, x):
    polyval = np.polynomial.polynomial.polyval
    for points in (np.array(x), np.array(x[0]), np.array(x).reshape(len(x), 1)):
        before = points.copy()
        with np.errstate(invalid="ignore"):  # inf * 0
            got, want = cli._horner(tuple(c), points), polyval(points, c)
        assert np.shape(got) == points.shape
        assert np.array_equal(bits(got), bits(want))
        assert np.array_equal(bits(points), bits(before))
        finite = np.isfinite(points) & (bits(points) != bits(-0.0))
        assert np.array_equal(bits(np.asarray(got)[finite]), bits(Polynomial(c)(points[finite])))


def overflowing_power(t):
    """(1 + t)**1e308 in numpy, inf for every t > 0 where the float power overflows."""
    with np.errstate(over="ignore"):
        return float(np.float64(1.0 + t) ** 1e308)


# (catalog term, its space factor, its time factor) from numpy and math
FORCING_TERMS = (
    ("poly:1,-2,0.5;tpow:-2", lambda x: Polynomial([1.0, -2.0, 0.5])(x), lambda t: (1.0 + t) ** -2.0),
    ("gaussx;texp:-1", lambda x: np.exp(-x**2), lambda t: math.exp(-t)),
    ("poly:0;const:-1", lambda x: Polynomial([0.0])(x), lambda t: -1.0),  # every product -0.0
    ("poly:0.3,-0.1;const:-0", lambda x: Polynomial([0.3, -0.1])(x), lambda t: -0.0),
    ("poly:0.5,-1;tpow:1e308", lambda x: Polynomial([0.5, -1.0])(x), overflowing_power),  # inf * 0 at x = 0.5
    ("poly:0.25,-1,0.5,2;texp:0.7", lambda x: Polynomial([0.25, -1.0, 0.5, 2.0])(x), lambda t: math.exp(0.7 * t)),
    ("poly:-3;const:0.5", lambda x: Polynomial([-3.0])(x), lambda t: 0.5),
    ("gaussx;const:2", lambda x: np.exp(-x**2), lambda t: 2.0),
)


@pytest.mark.parametrize(
    "chosen",
    [
        # one equation, each term's own factors
        ((),), ((0,),), ((2,),), ((3, 2),), ((0, 1),), ((0, 1, 2, 3),),
        # 0, 1, 2 and 4 terms; gaussx and poly at one term position
        ((), (0,), (1, 5), (0, 1, 2, 3)),
        # one family sequence, poly factors of 1-4 coefficients padded alike
        ((6, 1), (5, 7), (0, 1), (4, 1)),
        # the signed-zero terms, and a time factor overflowing to inf in a group
        ((3, 2), (2, 3), (4, 5), (2,)),
        ((1, 7, 0), (7, 1, 6), (4,)),
    ],
)
def test_catalog_forcing_is_the_plain_sum_bit_for_bit(chosen):
    # the ne forcings are rows of one batched evaluation; each row must be its
    # equation's plain per-term sum with numpy's Polynomial factors, in
    # whatever order the rows are called and in either memory order of the points
    lines = [f"ne={len(chosen)} T=1"] + [f"diffusion{i}=const:1 initial{i}=poly:0,1,-1" for i in range(1, len(chosen) + 1)]
    lines += [f"forcing{i}={FORCING_TERMS[j][0]}" for i, equation in enumerate(chosen, 1) for j in equation]
    forcing = parse_problem("\n".join(lines) + "\n").forcing
    rng = np.random.default_rng(len(chosen))
    x = np.linspace(-1.5, 1.5, 13 * 4).reshape(13, 4)
    for points in (np.ascontiguousarray(x), np.asfortranarray(x)):
        for t in (0.0, 0.35, 1.0):
            for i in rng.permutation(len(chosen)).tolist():
                want = np.zeros_like(x)
                with np.errstate(invalid="ignore"):
                    for j in chosen[i]:
                        _, fx, ft = FORCING_TERMS[j]
                        want = want + fx(x) * ft(t)  # 0.0 + the first product, as a fresh sum
                    got = forcing[i](points, t)
                assert got.shape == x.shape
                assert np.array_equal(bits(got), bits(want))
                if chosen[i] == (2,):
                    assert not np.signbit(got).any()  # 0.0 + -0.0 is +0.0


SHARED = (
    "ne=3 T=1\n"
    + "".join(f"diffusion{i}=const:1 initial{i}=poly:0,1,-1\n" for i in (1, 2, 3))
    + "forcing1=poly:1,-2,0.5;tpow:-2 forcing1=gaussx;texp:-1\n"
    + "forcing2=poly:0.3,0.1;const:2 forcing2=gaussx;const:-1 forcing3=gaussx;texp:0.5\n"
)


# the two built-in families of shared forcings, each as (the module whose
# `_shared_rows` builds them, a problem, a problem of ten steps of 0.01);
# points in [0, 1] lie inside example1's interval at every t
SHARED_FORCINGS = {
    "catalog": (
        cli,
        lambda: parse_problem(SHARED),
        lambda: parse_problem(
            "ne=8 T=0.1 motion=rational alpha_num=0,-0.5 alpha_den=1,1 beta_num=1,1.5 beta_den=1,1\n"
            + "".join(
                f"diffusion{i}=const:{i} initial{i}=poly:0,1,-1 forcing{i}=poly:{i},-1;tpow:-2 forcing{i}=gaussx;texp:-{i}\n"
                for i in range(1, 9)
            )
        ),
    ),
    "manufactured": (problems, example1, lambda: replace(example1(), T=0.1)),
}


@pytest.mark.parametrize("family", SHARED_FORCINGS)
def test_a_kept_catalog_evaluation_follows_its_points_and_time(family):
    make = SHARED_FORCINGS[family][1]
    forcing = make().forcing
    x = np.asfortranarray(np.linspace(0.0, 1.0, 12).reshape(4, 3))
    t = 0.35
    first = [f(x, t).copy() for f in forcing]
    x *= 0.5  # the same t object at points mutated in place
    moved = [f(x, t) for f in forcing]
    fresh = [g(x, t) for g in make().forcing]
    for before, got, want in zip(first, moved, fresh):
        assert not np.array_equal(got, before)
        assert np.array_equal(bits(got), bits(want))
    other = float("0.35")  # an equal value in another float object
    assert other is not t
    assert all(np.array_equal(bits(f(x, other)), bits(m)) for f, m in zip(forcing, moved))


@pytest.mark.parametrize("family", SHARED_FORCINGS)
def test_catalog_forcing_rows_are_read_only(family):
    forcing = SHARED_FORCINGS[family][1]().forcing[1]
    row = forcing(np.linspace(0.0, 1.0, 5), 0.2)
    assert not row.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        row[0] = 1.0
    point = forcing(0.5, 0.2)  # a scalar point gives a read-only 0-d row
    assert point.shape == () and not point.flags.writeable


@pytest.mark.parametrize("family", SHARED_FORCINGS)
def test_a_run_evaluates_the_catalog_forcings_once_per_step(monkeypatch, family):
    module, _, make = SHARED_FORCINGS[family]
    evaluations, steps = [], []
    shared_rows, begin_step = module._shared_rows, stepper.StepKernel.begin_step

    def counted_rows(evaluate, ne):
        def counted(x, t):
            evaluations.append(t)
            return evaluate(x, t)

        return shared_rows(counted, ne)

    def counted_step(kernel, problem, state):
        begin_step(kernel, problem, state)
        steps.append(kernel.t_mid)

    monkeypatch.setattr(module, "_shared_rows", counted_rows)
    monkeypatch.setattr(stepper.StepKernel, "begin_step", counted_step)
    run(make(), build_space(4, 2), 0.01)
    assert len(steps) == 10
    assert evaluations == steps


CATALOG_RUN = (
    "ne=2 T=0.2 motion=rational alpha_num=0,-0.6 alpha_den=1,1 beta_num=1,1.9,0.3 beta_den=1,0.5\n"
    "diffusion1=const:1 diffusion2=affine_inverse:2,0.1,-0.2\n"
    "initial1=poly:0,1,-1 initial2=poly:0,0.5,0.5,-1\n"
    "forcing1=poly:1,-2,0.5;tpow:-2 forcing1=gaussx;texp:-1 forcing2=poly:0.3,0.1,-0.7;const:2\n"
)


def test_a_catalog_run_equals_the_one_built_from_numpy_polynomials(monkeypatch):
    def levels(problem):
        out = []
        run(problem, build_space(4, 3), 0.01, observers=[lambda step, time, vectors: out.append(vectors)])
        return out

    catalog = levels(parse_problem(CATALOG_RUN))
    # the patch reaches the initial data; the forcing's poly factors are
    # checked against Polynomial by test_catalog_forcing_is_the_plain_sum_bit_for_bit
    monkeypatch.setattr(cli, "_polynomial", Polynomial)
    monkeypatch.setattr(cli, "_rational_fn", polynomial_quotient)
    reference = levels(parse_problem(CATALOG_RUN))
    assert len(catalog) == len(reference) == 21
    for got, want in zip(catalog, reference):
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_a_catalog_solve_calls_no_numpy_polynomial(tmp_path, monkeypatch):
    def refuse(self, arg):
        raise AssertionError("np.polynomial.Polynomial evaluated")

    monkeypatch.setattr(Polynomial, "__call__", refuse)
    write(tmp_path, "p.prob", CATALOG_RUN)
    config = write(tmp_path, "run.cfg", "problem=p.prob nt=4 k=2 delta=0.01 snapshot_time=0.1\n")
    assert main(["solve", "--config", config, "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("command", ["validate", "solve"])
def test_an_all_zero_denominator_is_one_config_error_line(tmp_path, command):
    write(
        tmp_path,
        "zero.prob",
        "ne=1 T=1 motion=rational alpha_num=0,1 alpha_den=0,0,0 beta_num=1\n"
        "diffusion1=const:1 initial1=poly:0,1,-1\n",
    )
    config = write(tmp_path, "run.cfg", "problem=zero.prob nt=4 k=1 delta=0.1\n")
    proc = cli_in_child(tmp_path, command, config)
    assert proc.returncode == 2
    assert proc.stderr == (
        "config error: the denominator of alpha (alpha_den) is zero for every t, "
        "so the interval width gamma(t) = nan is not positive and finite\n"
    )


def root_coeffs(root, multiplicity):
    return ",".join(repr(c) for c in Polynomial.fromroots([root] * multiplicity).coef.tolist())


def pole_error(t):
    return re.escape("config error: the denominator of alpha (alpha_den) has a root at t = ") + t + re.escape(" in [0, 1.0]\n")


@pytest.mark.parametrize(
    "motion,code,stderr",
    [
        # den*den underflows to 0.0 in alpha', which is then 0/0
        ("alpha_num=0,1e-200 alpha_den=1e-200 beta_num=2", 1, re.escape("solve failed: non-finite solution at the predictor of step 1 (t=0.25), equation 0\n")),
        # rounding splits a multiple root into complex roots (none real for
        # the sixfold one), so it is found by the denominator's value there
        (f"alpha_num=-1 alpha_den={root_coeffs(0.375, 6)} beta_num=1", 2, pole_error(r"0\.37\d*")),
        (f"alpha_num=-1 alpha_den={root_coeffs(0.375, 4)} beta_num=1", 2, pole_error(r"0\.37\d*")),
        (f"alpha_num=-1 alpha_den={root_coeffs(1.0, 4)} beta_num=1", 2, pole_error(r"(0\.9999\d*|1)")),
    ],
    ids=["underflowing-square", "missed-root", "fourfold-root", "root-at-T"],
)
def test_a_zero_divisor_of_a_catalog_motion_is_no_traceback(tmp_path, motion, code, stderr):
    # Python floats raise ZeroDivisionError where numpy gives inf or nan;
    # the motion must give numpy's value, which the run then reports, and a
    # root of a denominator in [0, T] is rejected when the file is read
    write(tmp_path, "p.prob", f"ne=1 T=1 motion=rational {motion}\ndiffusion1=const:1 initial1=poly:0,1,-1\n")
    config = write(tmp_path, "run.cfg", "problem=p.prob nt=4 k=1 delta=0.25\n")
    solved = cli_in_child(tmp_path, "solve", config)
    assert solved.returncode == code and re.fullmatch(stderr, solved.stderr), solved.stderr
    validated = cli_in_child(tmp_path, "validate", config)
    if code == 2:
        assert (validated.returncode, validated.stderr) == (2, solved.stderr)
    else:
        assert (validated.returncode, validated.stderr) == (1, "")
        assert "overall: FAIL" in validated.stdout


@pytest.mark.parametrize(
    "spec,failure",
    [
        ("forcing1=poly:1e308,1e308;const:1e308", "forcing 0 returned a non-finite value at x=0.028175416344814574, t=0.05"),
        ("initial1=poly:1e308,1e308", "non-finite sample of the interpolated function at y=1.0"),
    ],
    ids=["forcing", "initial"],
)
def test_an_overflowing_poly_factor_fails_in_one_line(tmp_path, spec, failure):
    fields = {"ne": "1", "T": "1", "diffusion1": "const:1", "initial1": "poly:0,1,-1"}
    key, value = spec.split("=", 1)
    write(tmp_path, "p.prob", " ".join(f"{k}={v}" for k, v in {**fields, key: value}.items()) + "\n")
    config = write(tmp_path, "run.cfg", "problem=p.prob nt=4 k=1 delta=0.1\n")
    proc = cli_in_child(tmp_path, "solve", config)
    assert proc.returncode == 1
    assert proc.stderr == f"solve failed: {failure}\n"


# --- solve -------------------------------------------------------------------


def read_csv(path):
    with open(path, newline="") as fp:
        return list(csv.reader(fp))


def test_solve_example1_snapshots(tmp_path):
    config = write(
        tmp_path,
        "run.cfg",
        "problem=example1 nt=100 k=2 delta=0.01 T=1\nsnapshot_time=0 snapshot_time=0.5\n",
    )
    out = tmp_path / "out"
    assert main(["solve", "--config", config, "--out", str(out)]) == 0

    rows = read_csv(out / "snapshots.csv")
    assert rows[0] == ["time", "equation", "y", "x", "value"]
    body = rows[1:]
    times = sorted({float(r[0]) for r in body})
    assert times == pytest.approx([0.0, 0.5, 1.0])

    # t = 0, equation 0: nodal values equal the initial quartic exactly
    at0 = [r for r in body if float(r[0]) == 0.0 and r[1] == "0"]
    y = np.array([float(r[2]) for r in at0])
    vals = np.array([float(r[4]) for r in at0])
    expected = Polynomial(_Q1_COEFFS)(y)
    expected[0] = expected[-1] = 0.0
    assert np.allclose(vals, expected, atol=1e-12)

    # x column is the moving-frame position
    at05 = [r for r in body if float(r[0]) == 0.5 and r[1] == "0"]
    m = _ex1_motion()
    for r in at05[:7]:
        assert float(r[3]) == pytest.approx(m.to_moving(float(r[2]), 0.5), rel=1e-14, abs=1e-15)

    errors = read_csv(out / "errors.csv")
    assert errors[0] == ["time", "equation", "l2_error", "max_nodal_error"]
    assert len(errors) == 1 + 3 * 2


def test_solve_empty_snapshot_list_emits_final_only(tmp_path):
    config = write(tmp_path, "run.cfg", "problem=example1 nt=4 k=2 delta=0.05 T=0.5\n")
    out = tmp_path / "o"
    assert main(["solve", "--config", config, "--out", str(out)]) == 0
    body = read_csv(out / "snapshots.csv")[1:]
    assert {float(r[0]) for r in body} == {0.5}


def csv_times(path):
    return {r[0] for r in read_csv(path)[1:]}


@pytest.mark.parametrize(
    "snapshots,written",
    [
        ("", {"1"}),
        # the last two levels are 0.98 and 1
        ("snapshot_time=0.996", {"1"}),
        ("snapshot_time=0.985", {"0.97999999999999998", "1"}),
    ],
)
def test_solve_snaps_requests_to_the_nearest_level(tmp_path, snapshots, written):
    config = write(tmp_path, "run.cfg", f"problem=example1 nt=8 k=3 delta=0.02 T=1 {snapshots}\n")
    out = tmp_path / "o"
    assert main(["solve", "--config", config, "--out", str(out)]) == 0
    assert csv_times(out / "snapshots.csv") == written
    assert csv_times(out / "errors.csv") == written


@pytest.mark.parametrize("observer", [ErrorTracker, SnapshotRecorder])
@pytest.mark.parametrize("time", [-0.01, 1.01])
def test_observers_reject_a_request_outside_the_run(observer, time):
    problem = replace(example1(), T=1.0)
    with pytest.raises(ValueError, match="outside"):
        observer(problem, build_space(2, 1), [0.5, time], 0.1)


def test_solve_measures_errors_at_the_recorded_levels(tmp_path, monkeypatch):
    # one observer records the levels; errors.csv is measured from its record
    observer_counts = []

    def counted_run(problem, space, delta, observers=()):
        observer_counts.append(len(observers))
        return run(problem, space, delta, observers=observers)

    monkeypatch.setattr(cli, "run", counted_run)
    config = write(tmp_path, "run.cfg", "problem=example1 nt=4 k=2 delta=0.05 T=0.5 snapshot_time=0.1,0.2\n")
    out = tmp_path / "o"
    assert main(["solve", "--config", config, "--out", str(out)]) == 0
    assert observer_counts == [1]
    assert csv_times(out / "errors.csv") == csv_times(out / "snapshots.csv") == {"0.10000000000000001", "0.20000000000000001", "0.5"}


def test_solve_reports_a_failing_error_measurement(tmp_path, monkeypatch, capsys):
    def refuse(*args):
        raise ValueError("exact solution refused")

    monkeypatch.setattr(cli, "measure", refuse)
    config = write(tmp_path, "run.cfg", "problem=example1 nt=4 k=2 delta=0.05 T=0.5\n")
    assert main(["solve", "--config", config, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "solve failed: exact solution refused\n"
    assert not (tmp_path / "o" / "snapshots.csv").exists()


def test_solve_summary_names_the_final_level_time(tmp_path, capsys):
    # three steps of 0.1 land one ulp past T=0.3, where the CSV files put the final level
    config = write(tmp_path, "run.cfg", "problem=example1 nt=2 k=2 delta=0.1 T=0.3\n")
    out = tmp_path / "o"
    assert main(["solve", "--config", config, "--out", str(out)]) == 0
    summary = capsys.readouterr().out.splitlines()[0]
    last = read_csv(out / "snapshots.csv")[-1][0]
    assert last == read_csv(out / "errors.csv")[-1][0] == "0.30000000000000004"
    assert f"3 steps to T={last} (" in summary


def test_solve_is_deterministic(tmp_path):
    config = write(
        tmp_path, "run.cfg", "problem=example2 nt=4 k=3 delta=0.01\nsnapshot_time=0.5\n"
    )
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--config", config, "--out", str(a)]) == 0
    assert main(["solve", "--config", config, "--out", str(b)]) == 0
    assert (a / "snapshots.csv").read_bytes() == (b / "snapshots.csv").read_bytes()


# --- snapshot output -----------------------------------------------------------

SNAPSHOT_HEADER = ["time", "equation", "y", "x", "value"]


def reference_snapshots(path, rows):
    """The snapshot path the array blocks replaced: one tuple per value,
    written by write_rows."""
    write_rows(
        path,
        SNAPSHOT_HEADER,
        [
            (time, i, rows.y[j], x[j], v[j])
            for time, x, vectors in rows.blocks
            for i, v in enumerate(vectors)
            for j in range(len(rows.y))
        ],
    )


def assert_writers_agree(tmp_path, rows):
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    cli._write_snapshots(new, rows)
    reference_snapshots(ref, rows)
    assert new.read_bytes() == ref.read_bytes()
    assert len(rows) == len(new.read_bytes().splitlines()) - 1


def bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def test_snapshot_writer_matches_row_writer_on_edge_values(tmp_path):
    edge = np.array([-0.0, 5e-324, 1e16, 0.1, -1e300, 0.30000000000000004, 1.0 - 2.0**-53])
    y = np.linspace(0.0, 1.0, len(edge))
    rows = SnapshotRows(y)
    rows.append(0.0, y, (edge, -edge[::-1]))
    rows.append(0.30000000000000004, edge[::-1].copy(), (y, edge))
    rows.append(1e16, edge, (np.full_like(y, 5e-324), np.full_like(y, -0.0)))
    assert_writers_agree(tmp_path, rows)


def _coupled_problem(ne):
    lines = [f"ne={ne} T=0.2 motion=rational alpha_num=0,-0.5 alpha_den=1,1 beta_num=1,1.5 beta_den=1,1"]
    for i in range(1, ne + 1):
        lines += [f"diffusion{i}=const:{i}", f"initial{i}=poly:0,{i},-{i}", f"forcing{i}=gaussx;texp:-{i}"]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "problem_text, config",
    [
        (None, "problem=example1 nt=1 k=1 delta=0.25 T=1 snapshot_time=0.5"),
        (_coupled_problem(1), "problem=p.prob nt=8 k=2 delta=0.02 snapshot_time=0.1"),
        (_coupled_problem(8), "problem=p.prob nt=4 k=3 delta=0.02 snapshot_time=0.06,0.1"),
    ],
    ids=["2-dofs", "ne1", "ne8"],
)
def test_solve_snapshots_match_row_writer_and_parse_back(tmp_path, monkeypatch, problem_text, config):
    if problem_text is not None:
        write(tmp_path, "p.prob", problem_text)
    captured = []
    write_snapshots = cli._write_snapshots

    def capture(path, rows):
        captured.append(rows)
        write_snapshots(path, rows)

    monkeypatch.setattr(cli, "_write_snapshots", capture)
    out = tmp_path / "o"
    assert main(["solve", "--config", write(tmp_path, "run.cfg", config + "\n"), "--out", str(out)]) == 0
    (rows,) = captured
    assert_writers_agree(tmp_path, rows)

    # every float field reads back bit for bit as the recorded arrays
    body = read_csv(out / "snapshots.csv")[1:]
    assert len(body) == len(rows)
    n = len(rows.y)
    expected = [
        (time, i, rows.y, x, v) for time, x, vectors in rows.blocks for i, v in enumerate(vectors)
    ]
    for b, (time, i, y, x, v) in enumerate(expected):
        block = body[b * n : (b + 1) * n]
        assert all(r[1] == str(i) for r in block)
        for column, want in ((0, np.full(n, time)), (2, y), (3, x), (4, v)):
            assert np.array_equal(bits([float(r[column]) for r in block]), bits(want))


def _record(problem, space, delta, times):
    """Run with a SnapshotRecorder; returns it, its row-count growth per
    observer call, and deep copies of what it stored, taken inside the call
    that stored it."""
    recorder = SnapshotRecorder(problem, space, times, delta)
    growth, stored = [], []

    def observe(step, time, vectors):
        before = len(recorder.rows)
        recorder(step, time, vectors)
        growth.append(len(recorder.rows) - before)
        if growth[-1]:
            stored.append(copy.deepcopy(recorder.rows.blocks[-1]))

    run(problem, space, delta, observers=[observe])
    return recorder, growth, stored


def test_recorder_row_count_grows_by_one_level_per_hit():
    problem, space = example1(), build_space(4, 2)
    recorder, growth, _ = _record(problem, space, 0.05, [0.1, 0.5, problem.T])
    level = problem.ne * space.n_dofs
    assert sorted(set(growth)) == [0, level]
    assert growth.count(level) == 3
    assert len(recorder.rows) == 3 * level


def test_recorded_arrays_are_not_reused_by_the_stepper():
    problem, space = example1(), build_space(4, 2)
    y = space.dof_positions.copy()
    recorder, _, stored = _record(problem, space, 0.05, [0.05, problem.T])
    assert len(recorder.rows.blocks) == len(stored) == 2
    for (time, x, vectors), (time0, x0, vectors0) in zip(recorder.rows.blocks, stored):
        assert time == time0
        assert np.array_equal(bits(x), bits(x0))
        assert len(vectors) == len(vectors0) == problem.ne
        for v, v0 in zip(vectors, vectors0):
            assert np.array_equal(bits(v), bits(v0))
    assert np.array_equal(bits(space.dof_positions), bits(y))
    assert recorder.rows.y is space.dof_positions


def test_solve_user_problem_file(tmp_path):
    write(
        tmp_path,
        "heat.prob",
        "ne=1 T=0.2\nmotion=fixed a=0 b=1\ndiffusion1=const:1\ninitial1=poly:0,1,-1\n",
    )
    config = write(tmp_path, "run.cfg", "problem=heat.prob nt=8 k=2 delta=0.01\n")
    out = tmp_path / "o"
    assert main(["solve", "--config", config, "--out", str(out)]) == 0
    body = read_csv(out / "snapshots.csv")[1:]
    vals = np.array([float(r[4]) for r in body])
    assert np.all(np.abs(vals) < 0.25)  # decayed from max 1/4
    assert not (out / "errors.csv").exists()  # no exact solutions


def test_solve_rejects_infinite_delta(tmp_path, capsys):
    # must not run "0 steps" and write the t=0 data as the T snapshot
    config = write(tmp_path, "run.cfg", "problem=example2 nt=4 k=2 delta=inf\n")
    assert main(["solve", "--config", config, "--out", str(tmp_path / "o")]) == 2
    assert "delta" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("factor", ["texp:800", "tpow:1e5"])
def test_solve_reports_forcing_overflow(tmp_path, capsys, factor):
    write(
        tmp_path,
        "hot.prob",
        f"ne=1 T=1\nmotion=fixed\ndiffusion1=const:1\ninitial1=poly:0,1,-1\nforcing1=gaussx;{factor}\n",
    )
    config = write(tmp_path, "run.cfg", "problem=hot.prob nt=4 k=1 delta=0.01\n")
    assert main(["solve", "--config", config, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("solve failed: forcing 0 returned a non-finite value")
    assert "t=" in err


def test_solve_reports_band_overflow_as_one_line(tmp_path):
    # a child process, so that numpy warnings would reach its stderr as
    # they do for a user instead of going to pytest's warning filter
    write(
        tmp_path,
        "huge.prob",
        "ne=1 T=1\nmotion=fixed\ndiffusion1=const:1e308\ninitial1=poly:0,1,-1\n",
    )
    config = write(tmp_path, "run.cfg", "problem=huge.prob nt=4 k=2 delta=0.01\n")
    proc = cli_in_child(tmp_path, "solve", config)
    assert proc.returncode == 1
    assert proc.stderr == "solve failed: non-finite solution at the predictor of step 1 (t=0.01), equation 0\n"


@pytest.mark.parametrize("command,config", [("solve", "nt=4"), ("study", "nt=4,8,16")])
def test_an_out_that_cannot_be_a_directory_fails_before_any_run(tmp_path, monkeypatch, capsys, command, config):
    runs = []
    monkeypatch.setattr(cli, "run", lambda *args, **kwargs: runs.append(args))
    monkeypatch.setattr(analysis, "run", lambda *args, **kwargs: runs.append(args))
    config = write(tmp_path, "r.cfg", f"problem=example1 {config} k=1 delta=0.1 T=0.5\n")
    out = write(tmp_path, "afile", "")
    assert main([command, "--config", config, "--out", out]) == 2
    assert capsys.readouterr().err == f"config error: cannot create output directory {out!r}: File exists\n"
    assert runs == []


def test_solve_reports_config_error(tmp_path, capsys):
    config = write(tmp_path, "run.cfg", "problem=example1 nt=4 nt=8 k=2 delta=0.01\n")
    assert main(["solve", "--config", config]) == 2
    assert "exactly one nt" in capsys.readouterr().err


# --- study -------------------------------------------------------------------


def test_study_spatial(tmp_path, capsys):
    config = write(
        tmp_path,
        "study.cfg",
        "problem=example1 k=2 delta=0.01 T=0.5\nnt=4,8,16\n",
    )
    out = tmp_path / "o"
    assert main(["study", "--config", config, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "slope=" in printed

    study = read_csv(out / "study.csv")
    assert study[0] == ["axis", "k", "h", "delta", "equation", "l2_error", "max_nodal_error"]
    assert len(study) == 1 + 3 * 2
    rates = read_csv(out / "rates.csv")
    assert rates[0] == ["axis", "k", "equation", "slope", "intercept", "r_squared", "reliable"]
    slopes = [float(r[3]) for r in rates[1:]]
    assert all(2.5 < s < 3.5 for s in slopes)


def test_study_temporal(tmp_path):
    config = write(
        tmp_path,
        "study.cfg",
        "problem=example1 k=3 nt=32\ndelta=0.05,0.025,0.0125\n",
    )
    out = tmp_path / "o"
    assert main(["study", "--config", config, "--out", str(out)]) == 0
    rates = read_csv(out / "rates.csv")
    assert all(r[0] == "delta" for r in rates[1:])
    slopes = [float(r[3]) for r in rates[1:]]
    assert all(1.5 < s < 2.5 for s in slopes)


def test_study_single_level_is_a_precondition_error(tmp_path, capsys):
    config = write(tmp_path, "study.cfg", "problem=example1 k=2 delta=0.01 T=0.5 nt=8\n")
    assert main(["study", "--config", config, "--out", str(tmp_path / "o")]) == 2
    assert "three points" in capsys.readouterr().err


@pytest.mark.parametrize("levels", ["nt=4,4,4 delta=0.01", "nt=8 delta=0.01,0.01,0.01", "k=2,1 nt=4,8,16 delta=0.01"])
def test_study_repeated_levels_are_a_precondition_error(tmp_path, monkeypatch, capsys, levels):
    # one level three times is no refinement, and a degree twice (k=1 here
    # and in k=2,1) would fit it twice: no run starts and no rates.csv
    # claims a reliable fit
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(analysis, "run", no_run)
    config = write(tmp_path, "study.cfg", f"problem=example1 k=1 T=0.1 {levels}\n")
    assert main(["study", "--config", config, "--out", str(tmp_path / "o")]) == 2
    assert "distinct" in capsys.readouterr().err
    assert not (tmp_path / "o" / "rates.csv").exists()


# --- validate ----------------------------------------------------------------


def test_validate_example1(tmp_path, capsys):
    config = write(tmp_path, "v.cfg", "problem=example1 nt=4 k=2 delta=0.01\n")
    assert main(["validate", "--config", config]) == 0
    out = capsys.readouterr().out
    assert "H1 positive width: PASS" in out
    assert "overall: PASS" in out


def test_validate_rejects_a_nan_width(tmp_path, capsys):
    # alpha = 0/0: every sampled width is NaN, which must not pass H1
    write(
        tmp_path,
        "nan.prob",
        "ne=1 T=1 motion=rational\nalpha_num=0 alpha_den=0 beta_num=1\n"
        "diffusion1=const:1\ninitial1=poly:0,1,-1\n",
    )
    config = write(tmp_path, "v.cfg", "problem=nan.prob nt=4 k=1 delta=0.01\n")
    with np.errstate(invalid="ignore"):
        assert main(["validate", "--config", config]) == 2
    captured = capsys.readouterr()
    assert "= nan is not positive" in captured.err
    assert "PASS" not in captured.out


def test_zero_denominator_fails_without_numpy_warnings(tmp_path, capsys):
    # the test configuration turns a RuntimeWarning into an error, so this
    # also checks that nothing numpy would print reaches stderr
    write(
        tmp_path,
        "zero.prob",
        "ne=1 T=1 motion=rational\nalpha_num=1 alpha_den=0 beta_num=1\n"
        "diffusion1=const:1\ninitial1=poly:0,1,-1\n",
    )
    config = write(tmp_path, "v.cfg", "problem=zero.prob nt=4 k=1 delta=0.01\n")
    assert main(["validate", "--config", config]) == 2
    err = capsys.readouterr().err
    assert "is not positive" in err
    assert "Warning" not in err


def test_validate_rejects_an_infinite_fixed_end_without_warnings(tmp_path):
    # a child process, so that numpy warnings would reach its stderr
    write(
        tmp_path,
        "inf.prob",
        "ne=1 T=1 motion=fixed a=-inf\ndiffusion1=const:1\ninitial1=poly:0,1,-1\n",
    )
    config = write(tmp_path, "v.cfg", "problem=inf.prob nt=4 k=1 delta=0.01\n")
    proc = cli_in_child(tmp_path, "validate", config)
    assert proc.returncode == 2
    assert proc.stderr == "config error: fixed interval ends must be finite, got [-inf, 1.0]\n"
    assert "PASS" not in proc.stdout


@pytest.mark.parametrize("command", ["validate", "solve"])
def test_an_overflowing_width_fails_without_warnings(tmp_path, command):
    # beta - alpha = 1 + 2e308 t overflows to inf from t = 0.9: an infinite
    # width is no interval, so both commands stop before any output
    write(
        tmp_path,
        "wide.prob",
        "ne=1 T=1 motion=rational\nalpha_num=0,-1e308 beta_num=1,1e308\n"
        "diffusion1=const:1\ninitial1=poly:0,1,-1\n",
    )
    config = write(tmp_path, "v.cfg", "problem=wide.prob nt=4 k=2 delta=0.1\n")
    proc = cli_in_child(tmp_path, command, config)
    assert proc.returncode == 2
    assert proc.stderr == "error: interval width gamma(0.9) = inf is not positive and finite\n"
    assert proc.stdout == ""


def test_validate_fixed_domain_fails_strict_then_warns_relaxed(tmp_path, capsys):
    write(
        tmp_path,
        "heat.prob",
        "ne=1 T=0.2\nmotion=fixed\ndiffusion1=const:1\ninitial1=poly:0,1,-1\n",
    )
    strict = write(tmp_path, "s.cfg", "problem=heat.prob nt=4 k=1 delta=0.01\n")
    assert main(["validate", "--config", strict]) == 1
    capsys.readouterr()
    relaxed = write(
        tmp_path, "r.cfg", "problem=heat.prob nt=4 k=1 delta=0.01 require_expanding=false\n"
    )
    assert main(["validate", "--config", relaxed]) == 0
    assert "overall: WARN" in capsys.readouterr().out


# --- console entry -----------------------------------------------------------


@pytest.mark.parametrize(
    "command,flag",
    [("solve", "--seed"), ("study", "--seed"), ("validate", "--out")],
    ids=["solve", "study", "validate"],
)
def test_seed_is_rejected_where_it_is_not_read(tmp_path, command, flag):
    # each subcommand takes only the flags it reads: validate writes no file
    config = write(tmp_path, "run.cfg", "problem=example1 nt=4 k=2 delta=0.01\n")
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", config, flag, "2"])
    assert exc.value.code == 2


def test_validate_takes_a_seed(tmp_path, capsys):
    config = write(tmp_path, "run.cfg", "problem=example1 nt=4 k=2 delta=0.01\n")
    assert main(["validate", "--config", config, "--seed", "3"]) == 0
    assert "overall: PASS" in capsys.readouterr().out


def test_module_entry_point(tmp_path):
    config = write(tmp_path, "run.cfg", "problem=example2 nt=4 k=2 delta=0.05\n")
    proc = cli_in_child(tmp_path, "solve", config)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "o" / "snapshots.csv").exists()
