import csv
import os
import subprocess
import sys

import numpy as np
import pytest

import mbfem
from mbfem.cli import ConfigError, main, parse_config, parse_problem
from mbfem.problems import _Q1_COEFFS, _ex1_motion, _quartic


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# --- config parsing ----------------------------------------------------------


def test_parse_minimal_config():
    config = parse_config("problem=example1 nt=100 k=2 delta=0.01")
    assert config.problem_name == "example1"
    assert config.nt == (100,)
    assert config.k == (2,)
    assert config.delta == (0.01,)
    assert config.q is None  # k+2 default applied by the space builder
    assert config.problem.T == 3.0
    assert config.emit_moving


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


@pytest.mark.parametrize("value", ["-1", "0"])
def test_parse_config_rejects_q_below_one(value):
    # -1 must not be mistaken for an unset q
    with pytest.raises(ConfigError, match="q must be"):
        parse_config(f"problem=example1 nt=4 k=2 delta=0.01 q={value}")


def test_parse_config_explicit_q():
    assert parse_config("problem=example1 nt=4 k=2 delta=0.01 q=5").q == 5


def test_parse_config_unknown_key_has_line_number():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("problem=example1 nt=4\nwavelength=3 k=2 delta=0.01")


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
    for command in ("solve", "validate"):
        assert main([command, "--config", config, "--out", str(tmp_path / "o")]) == 2
        captured = capsys.readouterr()
        assert "has a root at t = 0.498753" in captured.err
        assert "PASS" not in captured.out


def test_parse_problem_rejects_non_finite_motion_coefficients():
    text = "ne=1 T=1 motion=rational alpha_num=0 alpha_den=1,nan beta_num=1\ndiffusion1=const:1\ninitial1=poly:0,1,-1\n"
    with pytest.raises(ConfigError, match="finite"):
        parse_problem(text)


def test_parse_problem_rejects_unknown_family():
    text = "ne=1 T=1\nmotion=fixed\ndiffusion1=cubic:1\ninitial1=poly:0,1,-1\n"
    with pytest.raises(ConfigError, match="family"):
        parse_problem(text)


def test_parse_problem_wrong_coefficient_count():
    text = "ne=2 T=1\nmotion=fixed\ndiffusion1=affine_inverse:1,1\ndiffusion2=const:1\n" \
           "initial1=poly:0,1,-1\ninitial2=poly:0,1,-1\n"
    with pytest.raises(ConfigError, match="coefficients"):
        parse_problem(text)


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
    expected = _quartic(_Q1_COEFFS, y)
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


def test_solve_emit_moving_false(tmp_path):
    config = write(
        tmp_path, "run.cfg", "problem=example1 nt=4 k=1 delta=0.1 T=0.5 emit_moving=false\n"
    )
    out = tmp_path / "o"
    assert main(["solve", "--config", config, "--out", str(out)]) == 0
    for r in read_csv(out / "snapshots.csv")[1:]:
        assert r[2] == r[3]


def test_solve_is_deterministic(tmp_path):
    config = write(
        tmp_path, "run.cfg", "problem=example2 nt=4 k=3 delta=0.01\nsnapshot_time=0.5\n"
    )
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--config", config, "--out", str(a)]) == 0
    assert main(["solve", "--config", config, "--out", str(b)]) == 0
    assert (a / "snapshots.csv").read_bytes() == (b / "snapshots.csv").read_bytes()


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


@pytest.mark.parametrize("command", ["solve", "study"])
def test_seed_is_rejected_where_it_is_not_read(tmp_path, command):
    config = write(tmp_path, "run.cfg", "problem=example1 nt=4 k=2 delta=0.01\n")
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", config, "--seed", "2"])
    assert exc.value.code == 2


def test_validate_takes_a_seed(tmp_path, capsys):
    config = write(tmp_path, "run.cfg", "problem=example1 nt=4 k=2 delta=0.01\n")
    assert main(["validate", "--config", config, "--seed", "3"]) == 0
    assert "overall: PASS" in capsys.readouterr().out


def test_module_entry_point(tmp_path):
    config = write(tmp_path, "run.cfg", "problem=example2 nt=4 k=2 delta=0.05\n")
    # the child imports the same mbfem as this process, installed or not
    src = os.path.dirname(os.path.dirname(mbfem.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "mbfem.cli", "solve", "--config", config, "--out", str(tmp_path / "o")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "o" / "snapshots.csv").exists()
