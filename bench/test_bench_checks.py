"""The benchmark's correctness checks accept good output and reject perturbed
output; every generated solve_coupled problem passes `mbfem validate`; the
traced run's unaccounted-time check notices a layer that is not traced."""

import os

import numpy as np
import pytest

import checks
import run
import tracing
from run import ROOT, load_mbfem
from workloads import SolveCoupled, _Solve, coupled_problem

FIXTURE = os.path.join(ROOT, "tests", "fixtures", "example2_snapshots.csv")
GOOD_FITS = [(2, 0, 2.985, 0.99999), (2, 1, 2.986, 0.99999), (3, 0, 3.999, 1.0), (3, 1, 3.999, 1.0)]


def test_study_fits_accept_the_theoretical_orders():
    assert checks.check_study_fits(GOOD_FITS, (2, 3), ne=2) == []


@pytest.mark.parametrize("slope", [2.74, 3.26, float("nan")])
def test_study_fits_reject_a_slope_outside_its_window(slope):
    fits = [(2, 0, slope, 0.99999)] + GOOD_FITS[1:]
    assert checks.check_study_fits(fits, (2, 3), ne=2)


def test_study_fits_reject_a_poor_fit_and_a_missing_fit():
    assert checks.check_study_fits([(2, 0, 2.985, 0.98)] + GOOD_FITS[1:], (2, 3), ne=2)
    assert checks.check_study_fits(GOOD_FITS[:3], (2, 3), ne=2)


def test_fixture_check_accepts_the_fixture_and_rejects_a_perturbed_node():
    fixture = checks.read_snapshots(FIXTURE)
    assert fixture.shape == (170, 5)
    assert checks.check_fixture(fixture, fixture) == []
    perturbed = fixture.copy()
    perturbed[37, 4] += 1e-2
    assert len(checks.check_fixture(perturbed, fixture)) == 1
    assert checks.check_fixture(fixture[1:], fixture)  # a node missing


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_finite_check_rejects_a_non_finite_value(bad):
    snap = checks.read_snapshots(FIXTURE)
    assert checks.check_finite(snap) == []
    snap[100, 4] = bad
    assert checks.check_finite(snap)


def test_decay_check_rejects_a_growing_max_norm():
    snap = checks.read_snapshots(FIXTURE)
    assert checks.check_decay(snap) == []
    last = snap[:, 0] == snap[:, 0].max()
    snap[last, 4] *= 100.0
    assert checks.check_decay(snap)


def test_row_count_check():
    snap = checks.read_snapshots(FIXTURE)
    assert checks.check_row_count(snap, 170) == []
    assert checks.check_row_count(snap, 171)


def test_coupled_problem_is_a_function_of_the_seed():
    assert coupled_problem(7) == coupled_problem(7)
    assert coupled_problem(7) != coupled_problem(8)


@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_generated_coupled_problems_validate(seed, tmp_path):
    assert SolveCoupled(load_mbfem(), seed, str(tmp_path), ROOT).validate_problems == []


class TinySolve(_Solve):
    """A short `mbfem solve`, enough to trace every layer once."""

    name = "tiny"
    config_text = "problem=example2 nt=1024 k=2 delta=0.01 snapshot_time=0.5\n"

    def check(self, output):
        return []


def traced_share(tmp_path):
    workload = TinySolve(load_mbfem(), 0, str(tmp_path), ROOT)
    _, traced, tracer = run.trace(workload, 0.0, load_mbfem())
    return run.unaccounted_share(tracer, traced)


def test_unaccounted_share_is_small_when_every_layer_is_traced(tmp_path):
    assert 0.0 <= traced_share(tmp_path) <= run.UNACCOUNTED_LIMIT


def test_unaccounted_share_check_fails_when_a_layer_is_not_traced(tmp_path, monkeypatch):
    monkeypatch.setattr(tracing, "LAYERS", tuple(layer for layer in tracing.LAYERS if layer != "stepper"))
    assert traced_share(tmp_path) > run.UNACCOUNTED_LIMIT
