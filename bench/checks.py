"""Correctness checks on the outputs of the benchmark's operations.

Every check returns a list of human-readable problems; an empty list means
the output passed.  The checks see only outputs (fit tuples and parsed
snapshot CSVs), never the solver, so they can be tested on perturbed data.
"""

from __future__ import annotations

import math

import numpy as np

# Window around the theoretical spatial order k + 1 for an L2 slope fitted on
# the study_h meshes; the seed measures 2.985 (k = 2) and 3.999 (k = 3).
SLOPE_MARGIN = 0.25
MIN_R_SQUARED = 0.99

# Absolute tolerance against the frozen example2 fixture.  The fixture was
# made at nt=4 k=4 delta=0.001, the benchmark runs nt=4096 k=3 delta=0.005;
# the seed's largest difference is 1.1e-4 against values up to 0.16.
FIXTURE_TOL = 1e-3

SNAPSHOT_COLUMNS = ("time", "equation", "y", "x", "value")


def check_study_fits(fits, degrees, ne: int) -> list[str]:
    """fits: iterable of (degree, equation, slope, r_squared).

    Expects one fit per (degree, equation) with slope in
    [k + 1 - SLOPE_MARGIN, k + 1 + SLOPE_MARGIN] and r^2 >= MIN_R_SQUARED.
    """
    problems = []
    seen = set()
    for k, i, slope, r2 in fits:
        seen.add((k, i))
        lo, hi = k + 1 - SLOPE_MARGIN, k + 1 + SLOPE_MARGIN
        if not (math.isfinite(slope) and lo <= slope <= hi):
            problems.append(f"k={k} equation={i}: slope {slope!r} outside [{lo}, {hi}]")
        if not (math.isfinite(r2) and r2 >= MIN_R_SQUARED):
            problems.append(f"k={k} equation={i}: r^2 {r2!r} below {MIN_R_SQUARED}")
    missing = {(k, i) for k in degrees for i in range(ne)} - seen
    if missing:
        problems.append(f"no fit for (degree, equation) {sorted(missing)}")
    return problems


def read_snapshots(path) -> np.ndarray:
    """Parse a snapshots.csv into a float array of shape (rows, 5)."""
    with open(path) as fp:
        header = fp.readline().strip().split(",")
    if tuple(header) != SNAPSHOT_COLUMNS:
        raise ValueError(f"{path}: unexpected header {header}")
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def check_finite(snap: np.ndarray) -> list[str]:
    bad = ~np.isfinite(snap)
    if bad.any():
        row, col = np.argwhere(bad)[0]
        return [f"{int(bad.sum())} non-finite entries, first in row {row} column {SNAPSHOT_COLUMNS[col]}"]
    return []


def check_row_count(snap: np.ndarray, expected: int) -> list[str]:
    if snap.shape[0] != expected:
        return [f"{snap.shape[0]} snapshot rows, expected {expected}"]
    return []


def _node_key(time, equation, y):
    # times are t_index * delta, so the same time can differ in its last
    # bits between step sizes; y positions are dyadic and exact on both meshes
    return (round(float(time), 9), int(equation), float(y))


def check_fixture(snap: np.ndarray, fixture: np.ndarray, tol: float = FIXTURE_TOL) -> list[str]:
    """Every fixture node must appear in snap with a value within tol."""
    shared = snap[np.isin(snap[:, 2], fixture[:, 2])]
    values = {_node_key(t, i, y): v for t, i, y, _, v in shared}
    problems = []
    for t, i, y, _, v in fixture:
        got = values.get(_node_key(t, i, y))
        if got is None:
            problems.append(f"fixture node t={t} equation={int(i)} y={y} missing from the output")
            continue
        if not abs(got - v) <= tol:
            problems.append(f"t={t} equation={int(i)} y={y}: {float(got)!r} vs fixture {float(v)!r}")
    return problems


def check_decay(snap: np.ndarray) -> list[str]:
    """Per equation, the max-norm over the nodes strictly decreases in time."""
    problems = []
    for i in np.unique(snap[:, 1]):
        rows = snap[snap[:, 1] == i]
        times = np.unique(rows[:, 0])
        peaks = [np.max(np.abs(rows[rows[:, 0] == t, 4])) for t in times]
        if not all(a > b for a, b in zip(peaks, peaks[1:])):
            problems.append(f"equation {int(i)}: max-norms {[float(p) for p in peaks]} do not decay")
    return problems
