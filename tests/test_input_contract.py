"""Property test of the input contract: malformed configs and problem files
fail only with ConfigError or ValueError, never with any other exception.

Inputs are key=value token soups.  Keys come from the real key sets plus a
few unknown ones; values mix edge-case numbers (0, -1, inf, nan, 1e400),
catalog specs with random arguments, and short random strings.  Most soups
are laid over a valid skeleton, so parsing gets past the first checks and
reaches the motion, diffusion, forcing and initial-data builders.  Problem
soups draw their forcing terms from the catalog grammar, and each forcing
of a parsed problem must be the plain sum of its terms, bit for bit; a
short run of it must end with finite values or fail with ValueError or
RuntimeError.  Runs are derandomized and bounded, so the test is
repeatable.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.polynomial import Polynomial

from mbfem import build_space, run
from mbfem.cli import ConfigError, parse_config, parse_problem

NUMBERS = (
    "0", "1", "-1", "2", "3", "0.5", "-0.5", "1e5", "-1e308", "1e400", "inf", "-inf", "nan",
    "1,2", "0,-0.5", "1,0.5,0.1", "0,0", "1,,2", ",", "x", "1e", "--1",
)
FAMILIES = (
    "affine_inverse", "expsq", "const", "poly", "gaussx", "spline", "tpow", "texp",
    "fixed", "rational", "cubic",
)
number = st.sampled_from(NUMBERS)
spec = st.builds(lambda f, n: f"{f}:{n}", st.sampled_from(FAMILIES), number)
knots = st.lists(st.builds(lambda a, b: f"{a},{b}", number, number), min_size=1, max_size=5)
spline = knots.map(lambda ks: "spline:" + ";".join(ks))
forcing = st.builds(lambda x, t: f"{x};{t}", st.one_of(spec, st.just("gaussx")), spec)
# a well-formed forcing term: a poly factor of 1-4 finite coefficients or
# gaussx, times a tpow, texp or const factor of one finite number
finite = st.floats(allow_nan=False, allow_infinity=False)
catalog_term = st.builds(
    lambda x, family, c: f"{x};{family}:{c!r}",
    st.just("gaussx") | st.lists(finite, min_size=1, max_size=4).map(lambda c: "poly:" + ",".join(map(repr, c))),
    st.sampled_from(("tpow", "texp", "const")),
    finite,
)
junk = st.text(alphabet="0123456789.,;:-+eainfx", min_size=1, max_size=12)
value = st.one_of(number, st.sampled_from(FAMILIES), spec, spline, forcing, junk)

PER_EQUATION = tuple(f"{name}{i}" for name in ("diffusion", "forcing", "initial") for i in (1, 2, 3))
PROBLEM_KEYS = (
    "ne", "T", "name", "motion", "a", "b", "alpha_num", "alpha_den", "beta_num", "beta_den",
) + PER_EQUATION
RUN_KEYS = (
    "problem", "nt", "k", "delta", "T", "q", "snapshot_time", "out", "emit_moving",
    "require_expanding",
)
UNKNOWN_KEYS = ("diffusion0", "forcing17", "jobs", "seed")
PROBLEM_SKELETON = {"ne": "1", "T": "1", "diffusion1": "const:1", "initial1": "poly:0,1,-1"}
# three equations, so a parsed problem evaluates a batch: equations 1 and 2
# are one poly group, padded from 1 to 3 coefficients, and 3 has no terms
# until the fuzz draws some
THREE_EQUATION_SKELETON = {
    "ne": "3",
    "T": "1",
    **{f"{name}{i}": v for i in (1, 2, 3) for name, v in (("diffusion", "const:1"), ("initial", "poly:0,1,-1"))},
    "forcing1": "poly:1,0.5,0.1;tpow:-2",
    "forcing2": "poly:2;texp:-1",
}
# the problem soups' forcing tokens are drawn catalog terms only; the
# malformed forcing values of tests/test_cli.py cover the rejections
NON_FORCING_KEYS = tuple(k for k in PROBLEM_KEYS if not k.startswith("forcing"))
RUN_SKELETON = {"problem": "example1", "nt": "4", "k": "2", "delta": "0.01"}

FUZZ = settings(
    derandomize=True,
    max_examples=250,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def soups(keys, skeleton, values, extra=st.just([])):
    """Text of key=value tokens: random pairs, over the skeleton three times
    in four, then the `extra` tokens, and a stray token (junk or an unknown
    key) one time in four."""
    pairs = st.dictionaries(st.sampled_from(keys), values, max_size=8)
    stray = st.one_of(junk, st.builds(lambda k, v: f"{k}={v}", st.sampled_from(UNKNOWN_KEYS), values))
    one_in_four = st.integers(0, 3).map(lambda n: n == 3)  # hypothesis favours small draws

    def render(drawn, bare, extra, stray, add_stray, newlines):
        table = drawn if bare else {**skeleton, **drawn}
        tokens = [f"{k}={v}" for k, v in table.items()] + extra + ([stray] if add_stray else [])
        return ("\n" if newlines else " ").join(tokens)

    return st.builds(render, pairs, one_in_four, extra, stray, one_in_four, st.booleans())


def parse_quietly(parse, text, **kwargs):
    """parse(text), or None; the contract's two exception types are the only
    allowed failures."""
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        try:
            return parse(text, **kwargs)
        except (ConfigError, ValueError):
            return None


def plain_sum(terms, x, t):
    """The sum, in term order from 0.0, of catalog terms' space factor times
    time factor, from numpy's Polynomial, np.exp and math; a time factor
    that overflows is inf, as in the catalog."""
    total = np.zeros_like(x)
    for term in terms:
        space, time = term.split(";")
        family, c = time.split(":")
        c = float(c)
        try:
            ft = (1.0 + t) ** c if family == "tpow" else math.exp(c * t) if family == "texp" else c
        except OverflowError:
            ft = math.inf
        fx = np.exp(-x**2) if space == "gaussx" else Polynomial([float(v) for v in space[5:].split(",")])(x)
        total = total + fx * ft
    return total


def check_parsed_forcings(text):
    """Parse a problem soup, every forcing token of which is a well-formed
    term; if it parses, every forcing of it is the plain sum of its terms,
    bit for bit, at t = 0 and T, and a short run of it ends in finite
    values or fails with ValueError or RuntimeError."""
    problem = parse_quietly(parse_problem, text)
    if problem is None:
        return
    tokens = [token.split("=", 1) for token in text.split()]
    points = np.linspace(0.0, 1.0, 12).reshape(3, 4)  # (q, nt), C-ordered as the step kernel keeps them
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        for t in (0.0, problem.T):
            for i, forcing in enumerate(problem.forcing, 1):  # rows after the first come from the kept evaluation
                values = forcing(points, t)
                want = plain_sum([v for k, v in tokens if k == f"forcing{i}"], points, t)
                assert np.array_equal(values.view(np.uint64), want.view(np.uint64))
    short_run(problem)


def short_run(problem):
    """Eight steps of T/8 on four quadratic elements: a finite last level,
    or a ValueError or RuntimeError."""
    try:
        final = run(problem, build_space(4, 2), problem.T / 8).final
    except (ValueError, RuntimeError):
        return
    assert final.t_index == 8 and np.isfinite(final.current).all()


def forcing_terms(ne, max_size):
    """Lists of `forcingN=term` tokens, N in 1..ne, of drawn catalog terms."""
    return st.lists(st.builds(lambda i, term: f"forcing{i}={term}", st.integers(1, ne), catalog_term), max_size=max_size)


@FUZZ
@given(text=soups(NON_FORCING_KEYS, PROBLEM_SKELETON, value, forcing_terms(1, 3)))
def test_parse_problem_raises_only_config_or_value_errors(text):
    check_parsed_forcings(text)


@FUZZ
@given(text=soups(NON_FORCING_KEYS, THREE_EQUATION_SKELETON, value, forcing_terms(3, 6)))
def test_a_three_equation_problem_raises_only_config_or_value_errors(text):
    check_parsed_forcings(text)


@pytest.fixture(scope="module")
def problem_dir(tmp_path_factory):
    """A directory with a valid problem file, a malformed one, one that is
    not UTF-8 and a directory in a problem file's place."""
    d = tmp_path_factory.mktemp("problems")
    (d / "good.prob").write_text("ne=1 T=1\ndiffusion1=const:1\ninitial1=poly:0,1,-1\n")
    (d / "bad.prob").write_text("ne=1 T=1 diffusion1\n")
    (d / "latin1.prob").write_bytes(b"ne=1 T=1\xff\n")
    (d / "folder.prob").mkdir()
    return str(d)


run_value = st.one_of(
    value,
    st.sampled_from(("example1", "example2", "good.prob", "bad.prob", "latin1.prob", "folder.prob", "none.prob")),
)


@FUZZ
@given(text=soups(RUN_KEYS, RUN_SKELETON, run_value))
def test_parse_config_raises_only_config_or_value_errors(problem_dir, text):
    parse_quietly(parse_config, text, base_dir=problem_dir)
