import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from symcurv import cli, geomsolve
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
    for f in dataclasses.fields(cli.RunConfig):  # all of them RunConfig's own
        if f.name not in ("command", "operator"):
            default = f.default_factory() if f.default is dataclasses.MISSING else f.default
            assert getattr(cfg, f.name) == default, f.name
    cfg = cli.parse_config(MINIMAL.replace("[run]", "[run]\ntol = 1e-9\noutput_dir = elsewhere"))
    assert (cfg.tol, cfg.output_dir, cfg.seed) == (1e-9, "elsewhere", 0)


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


def test_inconclusive_scan_exits_three_without_witness(tmp_path, capsys):
    config = Path(__file__).resolve().parents[1] / "demos" / "configs" / "check_cone.ini"
    out_dir = tmp_path / "out"
    assert cli.main([str(config), "--trials", "0", "--output", str(out_dir)]) == 3
    out = capsys.readouterr().out
    assert "cone-convexity               FAIL (inconclusive)  trials=0" in out
    assert "ellipticity                  FAIL (inconclusive)  trials=0" in out
    assert not (out_dir / "witness.json").exists()
    assert "cone-convexity,0,inf,false" in (out_dir / "report.csv").read_text()
    text = "[run]\ncommand = check-condition-q\n[operator]\nn = 4\nk = 3\nalphas = 0, 0, 2, 1\n"
    assert _run(tmp_path, text, "--trials", "0") == 3
    assert "condition-q                  FAIL (inconclusive)" in capsys.readouterr().out
    assert not (out_dir / "witness.json").exists()


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


def test_solve_writes_newtons_fields_without_new_geometry(tmp_path, monkeypatch, capsys):
    # solution.csv and the printed monitor come from Newton's last accepted
    # residual and geometry: no _geometry run after Newton returns, and the
    # file is byte for byte what write_solution_csv writes for that surface
    [config] = [c for c in DEMO_CONFIGS if c.stem == "solve_sphere"]
    runs, solved = [], []
    geometry, newton = geomsolve._geometry, geomsolve.newton_solve

    def counting(*args):
        runs.append(1)
        return geometry(*args)

    def recording(*args):
        out = newton(*args)
        solved.append((len(runs), out[0]))
        return out

    monkeypatch.setattr(geomsolve, "_geometry", counting)
    monkeypatch.setattr(geomsolve, "newton_solve", recording)
    assert cli.main([str(config), "--output", str(tmp_path / "run")]) == 0
    [(at_return, surface)] = solved
    assert len(runs) == at_return == 6
    monkeypatch.undo()
    cfg = cli.parse_config(config.read_text())
    op = cli._operator(cfg)
    geomsolve.write_solution_csv(tmp_path / "again.csv", surface, op, cli._psi(cfg, op))
    assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "run" / "solution.csv").read_bytes()
    record = geomsolve.curvature_monitor(surface)
    assert (f"max kappa1 = {record['max_kappa1']:.6f}  min support = "
            f"{record['min_support']:.6f}  convex = {record['is_convex']}") in capsys.readouterr().out


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



def test_homotopy_csvs_equal_their_recomputation(tmp_path, capsys):
    # write_path_csv writes the fields Newton accepted; each surface CSV is
    # byte for byte what write_solution_csv writes for the rho and t it holds
    [config] = [c for c in DEMO_CONFIGS if c.stem == "homotopy"]
    assert cli.main([str(config), "--output", str(tmp_path / "run")]) == 0
    cfg = cli.parse_config(config.read_text())
    op = cli._operator(cfg)
    psi, grid, _ = cli._solver_inputs(cfg, op)
    rows = (tmp_path / "run" / "path.csv").read_text().splitlines()[1:]
    assert len(rows) > 2
    for idx, row in enumerate(rows):
        t = float(row.split(",")[0])
        written = (tmp_path / "run" / f"surface_{idx:04d}.csv").read_bytes()
        rho = [float(line.split(b",")[4]) for line in written.splitlines()[1:]]
        surface = geomsolve.RadialSurfaceField(np.reshape(rho, grid.shape), grid)
        datum = geomsolve._BlendedPsi(psi, op, t, cfg.verify["homotopy_eps"])
        res = geomsolve.write_solution_csv(tmp_path / "again.csv", surface, op, datum)
        assert (tmp_path / "again.csv").read_bytes() == written
        rec = geomsolve.curvature_monitor(surface)
        cells = [t, rec["max_kappa1"], rec["min_support"], float(np.max(np.abs(res)))]
        assert row == ",".join(map(repr, cells))


_IMPORT_PROBE = """
import sys
import symcurv, symcurv.cli
banned, out, runs = sys.argv[1], sys.argv[2], sys.argv[3:]
for i, run in enumerate(runs):
    config, want = run.rsplit("=", 1)
    if symcurv.cli.main([config, "--output", f"{out}/{i}"]) != int(want):
        sys.exit(f"{config} failed")
loaded = [m for m in sys.modules if m == banned or m.startswith(banned + ".")]
sys.exit(f"loaded {loaded}" if loaded else 0)
"""


def _src_env():
    """The environment with this checkout's src first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))


def _probe_imports(tmp_path, banned, configs):
    # a fresh interpreter: this test process may have imported scipy already
    runs = [f"{c}={int(c.stem == 'condition_c_fail')}" for c in configs]
    run = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, banned, str(tmp_path), *runs],
                         env=_src_env(), capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


@pytest.mark.parametrize("configs, banned", [
    (("condition_c", "check_cone"), "scipy"),
    (("homotopy",), "scipy.optimize"),
])
def test_runs_load_scipy_only_for_the_geometry_solve(tmp_path, configs, banned):
    _probe_imports(tmp_path, banned, [DEMO_CONFIGS[0].parent / f"{c}.ini" for c in configs])


def test_no_config_loads_scipy(tmp_path):
    # all six demo configs in one interpreter: symcurv runs on numpy alone
    assert len(DEMO_CONFIGS) == 6
    _probe_imports(tmp_path, "scipy", DEMO_CONFIGS)


def test_module_entry_point_runs_without_runtime_warning(tmp_path):
    # the package loads cli on first access, so runpy finds no symcurv.cli
    # already imported when it runs the module as __main__
    config = DEMO_CONFIGS[0].parent / "condition_c.ini"
    run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "symcurv.cli",
                          str(config), "--output", str(tmp_path / "out")],
                         env=_src_env(), capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""
