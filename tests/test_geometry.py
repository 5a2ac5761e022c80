import math

import numpy as np
import pytest

from mbfem import BoundaryMotion, fixed_interval
from mbfem.problems import _ex1_motion


def central_derivative(f, t, h=1e-6):
    return (f(t - 2 * h) - 8 * f(t - h) + 8 * f(t + h) - f(t + 2 * h)) / (12 * h)


@pytest.fixture
def motion():
    return _ex1_motion()


def test_gamma_values(motion):
    assert motion.gamma(0.0) == pytest.approx(1.0, rel=1e-15)
    assert motion.gamma(1.0) == pytest.approx(2.5, rel=1e-15)


def test_gamma_constant_for_fixed_interval():
    m = fixed_interval(0.0, 1.0, T=2.0)
    for t in np.linspace(0.0, 2.0, 7):
        assert m.gamma(float(t)) == 1.0
        assert m.gamma_prime(float(t)) == 0.0


def test_declared_derivatives_match_finite_differences(motion):
    for t in (0.3, 1.0, 2.7):
        fd_a = central_derivative(motion.alpha, t)
        fd_b = central_derivative(motion.beta, t)
        # rel 1e-7 sits above the ~1e-16/h roundoff floor of the stencil
        assert motion.alpha_prime(t) == pytest.approx(fd_a, rel=1e-7)
        assert motion.beta_prime(t) == pytest.approx(fd_b, rel=1e-7)


def test_b2_values(motion):
    assert motion.coeff_b2(0.0) == pytest.approx(1.0, rel=1e-15)
    assert motion.coeff_b2(1.0) == pytest.approx(4.0 / 25.0, rel=1e-14)
    m = fixed_interval(0.0, 1.0, T=1.0)
    assert m.coeff_b2(0.7) == 1.0


def test_to_moving_endpoints_and_midpoint(motion):
    for t in (0.0, 1.0, 2.5):
        assert motion.to_moving(0.0, t) == pytest.approx(motion.alpha(t), rel=1e-15)
        assert motion.to_moving(1.0, t) == pytest.approx(motion.beta(t), rel=1e-15)
    assert motion.to_moving(0.5, 1.0) == pytest.approx(0.75, rel=1e-14)


def test_step_frame_has_the_bits_of_gamma_coeff_b2_and_to_moving(motion):
    # one gamma evaluation, then gamma y + alpha into the buffer: the bits of
    # the three methods, for signed-zero points and a zero alpha too
    y = np.asfortranarray(np.random.default_rng(5).uniform(0.0, 1.0, (4, 3)))
    y[0, 0], y[1, 0] = 0.0, -0.0
    for m in (motion, fixed_interval(0.0, 1.0, T=3.0)):
        for t in (0.0, 0.3, 1.7, 3.0):
            out = np.full_like(y, np.nan)
            g, b2 = m.step_frame(y, t, out)
            assert (g, b2) == (m.gamma(t), m.coeff_b2(t))
            assert np.array_equal(out.view(np.uint64), m.to_moving(y, t).view(np.uint64))
    with pytest.raises(ValueError, match="outside the domain"):
        motion.step_frame(y, 3.5, np.empty_like(y))


def test_to_fixed_to_moving_roundtrip(motion):
    rng = np.random.default_rng(3)
    for t in (0.2, 1.7):
        y = rng.uniform(0.0, 1.0, 20)
        x = motion.to_moving(y, t)
        fixed = (x - motion.alpha(t)) / motion.gamma(t)
        assert np.allclose(fixed, y, rtol=1e-13, atol=1e-14)


def test_time_domain_enforced(motion):
    with pytest.raises(ValueError):
        motion.gamma(motion.T + 1.0)
    with pytest.raises(ValueError):
        motion.coeff_b2(-0.5)


def test_degenerate_width_rejected():
    m = BoundaryMotion(
        alpha=lambda t: t,
        beta=lambda t: 1.0 - t,
        alpha_prime=lambda t: 1.0,
        beta_prime=lambda t: -1.0,
        T=1.0,
    )
    assert m.gamma(0.2) == pytest.approx(0.6)
    with pytest.raises(ValueError):
        m.gamma(0.5)


def test_nan_width_rejected():
    # NaN compares false with everything, so "g <= 0" alone would let it pass
    m = BoundaryMotion(
        alpha=lambda t: math.nan,
        beta=lambda t: 1.0,
        alpha_prime=lambda t: 0.0,
        beta_prime=lambda t: 0.0,
        T=1.0,
    )
    with pytest.raises(ValueError, match="nan is not positive"):
        m.gamma(0.5)
    with pytest.raises(ValueError):
        m.coeff_b2(0.5)


def test_fixed_interval_rejects_empty():
    with pytest.raises(ValueError):
        fixed_interval(1.0, 1.0)


@pytest.mark.parametrize("a,b", [(-math.inf, 1.0), (0.0, math.inf), (math.nan, 1.0), (0.0, math.nan)])
def test_fixed_interval_rejects_non_finite_ends(a, b):
    with pytest.raises(ValueError, match="must be finite"):
        fixed_interval(a, b)
