import json
from pathlib import Path

import pytest

from symcurv import cli
from symcurv.errors import ConfigError


MINIMAL = """
[run]
command = check-condition-c
[operator]
n = 3
k = 2
alphas = 0, 1, 1
"""


def test_parse_minimal_config():
    cfg = cli.parse_config(MINIMAL)
    assert cfg.command == "check-condition-c"
    assert cfg.operator["n"] == 3
    assert cfg.seed == 0 and cfg.trials == 1000  # defaults filled


def test_parse_errors_name_lines():
    with pytest.raises(ConfigError, match="line 3"):
        cli.parse_config("[run]\ncommand = check-condition-c\nbogus = 1\n")
    with pytest.raises(ConfigError, match="line 1"):
        cli.parse_config("[nonsense]\n")
    with pytest.raises(ConfigError, match="line 4"):
        cli.parse_config("[run]\ncommand = solve\n[operator]\nn = three\n")
    with pytest.raises(ConfigError, match="duplicate"):
        cli.parse_config("[run]\ncommand = check-condition-c\ncommand = solve\n")
    with pytest.raises(ConfigError, match="alphas"):
        cli.parse_config("[run]\ncommand=check-condition-c\n[operator]\nn=3\nk=2\nalphas=1,1\n")
    with pytest.raises(ConfigError):
        cli.parse_config("[run]\ncommand = fly-to-the-moon\n[operator]\nn=3\nk=2\nalphas=0,1,1")
    with pytest.raises(ConfigError):
        cli.parse_config("key = 1\n")  # key outside any section
    with pytest.raises(ConfigError, match="'r2'"):
        cli.parse_config("[run]\ncommand = homotopy\n[operator]\nn=2\nk=2\nalphas=0,1,1\n"
                         "[psi]\nfamily = constant\n[grid]\nn_lon=8\nn_lat=4\n"
                         "[verify]\nr1 = 0.5\n")


def test_fraction_values_parse_exactly():
    cfg = cli.parse_config(
        "[run]\ncommand = check-condition-c\n[operator]\nn = 5\nk = 2\nalphas = 0, 1/3, 1\n"
    )
    from fractions import Fraction

    assert cfg.operator["alphas"][1] == Fraction(1, 3)


def _run(tmp_path, text, *args):
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(text)
    return cli.main([str(cfg_path), "--output", str(tmp_path / "out"), *args])


def test_condition_c_pass_exit_zero(tmp_path, capsys):
    code = _run(tmp_path, MINIMAL)
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "witness" in out
    report = (tmp_path / "out" / "report.csv").read_text()
    assert "condition-c" in report and "true" in report


def test_condition_c_fail_exit_one_with_witness(tmp_path, capsys):
    text = "[run]\ncommand = check-condition-c\n[operator]\nn = 3\nk = 2\nalphas = 1, 0, 1\n"
    code = _run(tmp_path, text)
    assert code == 1
    witness = json.loads((tmp_path / "out" / "witness.json").read_text())
    assert witness["command"] == "check-condition-c"
    assert len(witness["complex_roots"]) == 2


def test_malformed_config_exit_two(tmp_path, capsys):
    code = _run(tmp_path, "[run]\ncommand = check-condition-c\nbroken\n")
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_missing_file_exit_two(capsys):
    assert cli.main(["/nonexistent/config.ini"]) == 2


def test_check_cone_and_overrides(tmp_path, capsys):
    text = (
        "[run]\ncommand = check-cone\ntrials = 2000\n"
        "[operator]\nn = 3\nk = 2\nalphas = 0, 2, 1\n"
        "[verify]\ncone = tilde\n"
    )
    code = _run(tmp_path, text, "--trials", "150", "--seed", "9")
    assert code == 0
    out = capsys.readouterr().out
    assert "cone-convexity" in out and "ellipticity" in out
    assert "trials=150" in out


def test_verify_concavity_negative_control(tmp_path, capsys):
    text = (
        "[run]\ncommand = verify-concavity\ntrials = 200\n"
        "[operator]\nn = 2\nk = 2\nalphas = 0, 0, 1\n"
        "[verify]\nfield = root-q\n"
    )
    # sigma_2^(1/2) on Gamma_2 with n=2 is concave; use quotient on sigma_2
    code = _run(tmp_path, text)
    assert code == 0


def test_verify_guan(tmp_path, capsys):
    text = (
        "[run]\ncommand = verify-guan\ntrials = 200\n"
        "[operator]\nn = 3\nk = 2\nalphas = 0, 1, 1\n"
    )
    assert _run(tmp_path, text) == 0


def test_verify_guan_refuted_by_condition_c_writes_witness(tmp_path, capsys):
    text = "[run]\ncommand = verify-guan\n[operator]\nn = 3\nk = 2\nalphas = 1, 0, 1\n"
    assert _run(tmp_path, text) == 1
    assert "condition-c,1,-1.0,false" in (tmp_path / "out" / "report.csv").read_text()
    witness = json.loads((tmp_path / "out" / "witness.json").read_text())
    assert witness["command"] == "verify-guan"
    assert len(witness["complex_roots"]) == 2


def test_barrier_check_command(tmp_path, capsys):
    text = (
        "[run]\ncommand = barrier-check\n"
        "[operator]\nn = 2\nk = 2\nalphas = 0, 1, 1\n"
        "[psi]\nfamily = anisotropic-radial\nc = 3\np = 3\neps = 0.1\naxis = 0,0,1\n"
        "[verify]\nr1 = 0.5\nr2 = 2\n"
    )
    assert _run(tmp_path, text) == 0
    bad = (
        "[run]\ncommand = barrier-check\n"
        "[operator]\nn = 2\nk = 2\nalphas = 0, 1, 1\n"
        "[psi]\nfamily = radial-power\nc = 1\np = -1\n"
        "[verify]\nr1 = 0.5\nr2 = 2\n"
    )
    assert _run(tmp_path, bad) == 1
    assert (tmp_path / "out" / "witness.json").exists()


SOLVE = """
[run]
command = solve
seed = 4
[operator]
n = 2
k = 2
alphas = 0, 1, 1
[psi]
family = constant
c = 1.25
[grid]
n_lon = 16
n_lat = 8
[verify]
init_rho = 2.0
init_noise = 0.02
"""


def test_solve_command_writes_solution(tmp_path, capsys):
    code = _run(tmp_path, SOLVE)
    assert code == 0
    sol = (tmp_path / "out" / "solution.csv").read_text().splitlines()
    assert sol[0].startswith("lon_index,lat_index")
    assert len(sol) == 1 + 16 * 8
    assert "converged" in capsys.readouterr().out


def test_solve_determinism_byte_identical(tmp_path):
    cfg_path = tmp_path / "run.ini"
    cfg_path.write_text(SOLVE)
    assert cli.main([str(cfg_path), "--output", str(tmp_path / "a")]) == 0
    assert cli.main([str(cfg_path), "--output", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "solution.csv").read_bytes()
    b = (tmp_path / "b" / "solution.csv").read_bytes()
    assert a == b


def test_homotopy_command(tmp_path, capsys):
    text = (
        "[run]\ncommand = homotopy\n"
        "[operator]\nn = 2\nk = 2\nalphas = 0, 1, 1\n"
        "[psi]\nfamily = anisotropic-radial\nc = 3\np = 3\neps = 0.1\naxis = 0,0,1\n"
        "[grid]\nn_lon = 16\nn_lat = 8\n"
        "[verify]\nr1 = 0.5\nr2 = 2\nsteps = 5\n"
    )
    assert _run(tmp_path, text) == 0
    out_dir = tmp_path / "out"
    path_csv = (out_dir / "path.csv").read_text().splitlines()
    assert path_csv[0] == "t,max_kappa1,min_support,residual_norm"
    assert len(path_csv) >= 7  # header + at least 6 accepted steps
    assert (out_dir / "surface_0000.csv").exists()
    assert (out_dir / "report.csv").exists()


DEMO_CONFIGS = sorted((Path(__file__).resolve().parents[1] / "demos" / "configs").glob("*.ini"))


@pytest.mark.parametrize("config", DEMO_CONFIGS, ids=lambda p: p.stem)
def test_demo_config_reruns_are_byte_identical(tmp_path, capsys, config):
    assert len(DEMO_CONFIGS) == 6
    want = 1 if config.name == "condition_c_fail.ini" else 0
    runs = []
    for name in ("a", "b"):
        assert cli.main([str(config), "--output", str(tmp_path / name)]) == want
        runs.append({p.name: p.read_bytes() for p in (tmp_path / name).iterdir()})
    assert runs[0] == runs[1]
    assert "report.csv" in runs[0]
    assert ("witness.json" in runs[0]) == (want == 1)
