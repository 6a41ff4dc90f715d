"""Batch front end: run checks and solves from an INI-style config file.

Usage: symcurv <config> [--seed S] [--trials T] [--output DIR]

Exit codes: 0 = property verified / solve converged, 1 = property refuted /
solve failed (a witness file is written), 2 = usage or runtime error, 3 =
inconclusive (a scan evaluated no trial; no witness file).
Sections: [run] [operator] [psi] [grid] [verify]; 'key = value' lines,
comma-separated numeric lists, '#' comments; unknown keys are rejected.
"""

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ConfigError, DomainError, SymcurvError
from .combop import OperatorSpec, lower_operator
from .cones import ConeSpec, segment_convexity_check, ellipticity_scan
from . import concave, geomsolve, hypcheck

# section -> key -> parser
_SCHEMA = {
    "run": {
        "command": "str",
        "output_dir": "str",
        "seed": "int",
        "trials": "int",
        "tol": "float",
    },
    "operator": {"n": "int", "k": "int", "alphas": "fraclist"},
    "psi": {
        "family": "str",
        "c": "float",
        "p": "float",
        "eps": "float",
        "axis": "floatlist",
        "axes": "floatlist",
    },
    "grid": {"n_lon": "int", "n_lat": "int"},
    "verify": {
        "field": "str",
        "l": "int",
        "delta": "float",
        "cone": "str",
        "hessian_trials": "int",
        "r1": "float",
        "r2": "float",
        "steps": "int",
        "homotopy_eps": "float",
        "init_rho": "float",
        "init_noise": "float",
    },
}

@dataclass
class RunConfig:
    command: str
    seed: int = 0
    trials: int = 1000
    tol: float = None
    output_dir: str = "out"
    operator: dict = None
    psi: dict = None
    grid: dict = None
    verify: dict = field(default_factory=dict)


def _parse_value(kind, raw, lineno):
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(Fraction(raw)) if "/" in raw else float(raw)
        if kind == "str":
            return raw
        if kind == "floatlist":
            return tuple(float(Fraction(p)) if "/" in p else float(p)
                         for p in raw.split(","))
        if kind == "fraclist":
            parts = [p.strip() for p in raw.split(",")]
            return tuple(Fraction(p) if ("/" in p or "." not in p) else float(p) for p in parts)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"non-numeric value {raw!r}", line=lineno) from None
    raise ConfigError(f"unhandled value kind {kind}", line=lineno)


def parse_config(text):
    """Parse and validate config text into a RunConfig with defaults filled."""
    sections = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(f"unknown section [{section}]", line=lineno)
            sections.setdefault(section, {})
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {line!r}", line=lineno)
        if section is None:
            raise ConfigError("key outside of any section", line=lineno)
        key, raw_val = (part.strip() for part in line.split("=", 1))
        if key not in _SCHEMA[section]:
            raise ConfigError(f"unknown key {key!r} in [{section}]", line=lineno)
        if key in sections[section]:
            raise ConfigError(f"duplicate key {key!r} in [{section}]", line=lineno)
        sections[section][key] = _parse_value(_SCHEMA[section][key], raw_val, lineno)

    run = sections.get("run", {})
    if "command" not in run:
        raise ConfigError("missing required key 'command' in [run]")
    command = run["command"]
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}; choose from {COMMANDS}")
    cfg = RunConfig(
        **run,   # the [run] keys present; RunConfig holds the defaults
        operator=sections.get("operator"),
        psi=sections.get("psi"),
        grid=sections.get("grid"),
        verify=sections.get("verify", {}),
    )
    _validate_for_command(cfg)
    return cfg


def _validate_for_command(cfg):
    if cfg.operator is None:
        raise ConfigError(f"command {cfg.command!r} needs an [operator] section")
    op = cfg.operator
    for key in ("n", "k", "alphas"):
        if key not in op:
            raise ConfigError(f"missing key {key!r} in [operator]")
    if len(op["alphas"]) != op["k"] + 1:
        raise ConfigError(
            f"alphas must list k+1 = {op['k'] + 1} coefficients, got {len(op['alphas'])}"
        )
    if cfg.command in ("solve", "homotopy") and cfg.grid is None:
        raise ConfigError(f"command {cfg.command!r} needs a [grid] section")
    if cfg.command in ("solve", "homotopy", "barrier-check") and cfg.psi is None:
        raise ConfigError(f"command {cfg.command!r} needs a [psi] section")
    needed = {"verify-concavity": ("field",), "homotopy": ("r1", "r2"), "barrier-check": ("r1",)}
    for key in needed.get(cfg.command, ()):
        if key not in cfg.verify:
            raise ConfigError(f"{cfg.command} needs {key!r} in [verify]")


def _operator(cfg):
    op = cfg.operator
    return OperatorSpec(op["n"], op["k"], tuple(op["alphas"]))


def _psi(cfg, op):
    p = dict(cfg.psi or {})
    family = p.pop("family", None)
    if family is None:
        raise ConfigError("missing 'family' in [psi]")
    if family == "manufactured-ellipsoid":
        return geomsolve.PsiSpec(family=family, axes=p.get("axes", (1.0, 1.0, 1.2)), op=op)
    return geomsolve.PsiSpec(family=family, **p)


def _echo(cfg):
    print(f"command      : {cfg.command}")
    print(f"seed         : {cfg.seed}")
    print(f"trials       : {cfg.trials}")
    print(f"output_dir   : {cfg.output_dir}")
    if cfg.operator:
        print(f"operator     : n={cfg.operator['n']} k={cfg.operator['k']} "
              f"alphas={','.join(str(a) for a in cfg.operator['alphas'])}")
    for name, sec in (("psi", cfg.psi), ("grid", cfg.grid), ("verify", cfg.verify)):
        if sec:
            print(f"{name:<13}: " + " ".join(f"{k}={v}" for k, v in sorted(sec.items())))


def _write_report_csv(out_dir, rows):
    os.makedirs(out_dir, exist_ok=True)
    props, trials, worst, passed = zip(*rows)
    geomsolve._write_csv(os.path.join(out_dir, "report.csv"),
                         ["property", "trials", "worst_value", "passed"],
                         [np.array(props), np.array(trials), np.array(worst, dtype=float),
                          np.array([str(bool(p)).lower() for p in passed])])


def _write_witness(out_dir, payload):
    os.makedirs(out_dir, exist_ok=True)

    def default(obj):
        if isinstance(obj, Fraction):
            return str(obj)
        if isinstance(obj, complex):
            return {"re": obj.real, "im": obj.imag}
        if isinstance(obj, (np.floating, np.integer)):
            return obj.item()
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        return str(obj)

    with open(os.path.join(out_dir, "witness.json"), "w") as fh:
        json.dump(payload, fh, indent=2, default=default, sort_keys=True)


def _field_from_config(cfg, op):
    kind = cfg.verify["field"]
    alpha = op.sum_type_alpha
    n, k = op.n, op.k
    if kind in ("quotient", "sigma-over-q", "sum-ratio", "sum-root") and alpha is None:
        raise ConfigError(f"field {kind!r} needs a sum-type operator")
    if kind == "quotient":
        return concave.quotient_qk_field(n, k - 1, float(alpha)) if k >= 2 else \
            concave.quotient_qk_field(n, k, float(alpha))
    if kind == "sigma-over-q":
        return concave.sigma_over_q_field(n, k, float(alpha))
    if kind == "sum-ratio":
        return concave.sum_ratio_field(n, k, cfg.verify.get("l", 1), float(alpha))
    if kind == "sum-root":
        return concave.sum_root_field(n, k, float(alpha))
    if kind == "root-q":
        return concave.root_q_field(op)
    if kind == "lower-quotient":
        rep = hypcheck.check_condition_c(op)
        if not rep.all_real:
            raise DomainError("operator fails the exact real-rootedness check")
        l = cfg.verify.get("l", 1)
        return concave.lower_quotient_field(op, lower_operator(op, rep.witness, l, rep.N))
    raise ConfigError(f"unknown field {kind!r}")


def _operator_json(op):
    return {"n": op.n, "k": op.k, "alphas": [str(a) for a in op.alphas]}


def _replay(cfg, op, exc):
    """Witness of a failed solve: the error and the inputs that replay it."""
    return {"error": str(exc), "operator": _operator_json(op), "psi": cfg.psi,
            "grid": cfg.grid, "seed": cfg.seed, "verify": cfg.verify}


def _scan_row(name, rep, prop=None):
    """Print a scan's report line; returns its report.csv row."""
    print(f"{name:<28} {rep.tag}  trials={rep.trials:<8d} worst={rep.worst_value: .6e}")
    return (prop or name, rep.trials, rep.worst_value, rep.passed)


_INCONCLUSIVE = "inconclusive"  # a handler's witness when a scan had no evidence


def _outcome(rows, reps, payload):
    """(rows, witness): payload(rep) for the first report refuted with
    evidence, else _INCONCLUSIVE if one failed without any, else None."""
    failed = [rep for rep in reps if not rep.passed]
    refuted = [rep for rep in failed if not rep.details.get("inconclusive")]
    return rows, payload(refuted[0]) if refuted else _INCONCLUSIVE if failed else None


def _condition_c(op):
    """The exact condition-C report, and the (rows, witness) that refute the
    operator when it fails (None when it passes)."""
    rep = hypcheck.check_condition_c(op)
    if rep.all_real:
        return rep, None
    return rep, ([("condition-c", 1, -1.0, False)],
                 {"operator": _operator_json(op), "complex_roots": list(rep.failure_witness)})


def _solver_inputs(cfg, op):
    psi = _psi(cfg, op)
    grid = geomsolve.SphereGrid(cfg.grid["n_lon"], cfg.grid["n_lat"])
    return psi, grid, geomsolve.SolveOptions(tol=cfg.tol)


# Each handler runs one command and returns (rows, witness): the report.csv
# rows, and the witness.json payload when the property is refuted or the
# solve fails, _INCONCLUSIVE when a scan had no evidence, None otherwise.

def _check_condition_c(cfg, op):
    rep, refuted = _condition_c(op)
    print(f"alpha' = ({', '.join(str(a) for a in rep.alphas_prime)})")
    print(str(rep))
    return refuted or ([("condition-c", 1, 0.0, True)], None)


def _check_condition_q(cfg, op):
    c_rep, refuted = _condition_c(op)
    if refuted:
        print(str(c_rep))
        return refuted
    rep = hypcheck.check_condition_q(op, cfg.trials, cfg.seed,
                                     hessian_trials=cfg.verify.get("hessian_trials"))
    return _outcome([_scan_row("condition-q", rep)], [rep],
                    lambda r: {"witness": r.witness, "operator": _operator_json(op)})


def _check_cone(cfg, op):
    spec = ConeSpec(cfg.verify.get("cone", "tilde"), op.n, op.k, float(op.sum_type_alpha or 0.0))
    conv = segment_convexity_check(spec, cfg.trials, cfg.seed)
    elli = ellipticity_scan(op, spec, cfg.trials, cfg.seed)
    rows = [_scan_row("cone-convexity", conv), _scan_row("ellipticity", elli)]
    return _outcome(rows, [conv, elli], lambda r: {"witness": r.witness, "extra": r.witness_extra})


def _verify_concavity(cfg, op):
    fld = _field_from_config(cfg, op)
    rep = concave.concavity_scan(fld, cfg.trials, cfg.seed,
                                 hessian_trials=cfg.verify.get("hessian_trials"))
    rows = [_scan_row(fld.name, rep, f"concavity:{fld.name}")]
    return _outcome(rows, [rep], lambda r: {
        "field": fld.name, "witness": r.witness, "extra": r.witness_extra,
        "hessian_witness": r.details.get("hessian_witness")})


def _verify_guan(cfg, op):
    c_rep, refuted = _condition_c(op)
    if refuted:
        print(str(c_rep))
        return refuted
    l = cfg.verify.get("l", op.k - 1)
    s_l = lower_operator(op, c_rep.witness, l, c_rep.N)
    rep = concave.guan_scan(op, s_l, cfg.trials, cfg.seed, delta=cfg.verify.get("delta", 1.0))
    rows = [_scan_row(f"guan-inequality l={l}", rep, f"guan-inequality:l={l}")]
    return _outcome(rows, [rep], lambda r: {"witness": r.witness, "extra": r.witness_extra})


def _barrier_check(cfg, op):
    rep = geomsolve.barrier_check(_psi(cfg, op), op, cfg.verify["r1"], cfg.verify.get("r2"))
    rows = [_scan_row("barrier", rep)]
    return rows, None if rep.passed else {"witness": rep.witness, "details": rep.details}


def _solve(cfg, op):
    psi, grid, opts = _solver_inputs(cfg, op)
    rho0 = cfg.verify.get("init_rho", 1.0)
    noise = cfg.verify.get("init_noise", 0.0)
    if noise:
        initial = geomsolve.perturbed_sphere(grid, rho0, noise, cfg.seed)
    else:
        initial = geomsolve.RadialSurfaceField.sphere(grid, rho0)
    handoff = geomsolve._Handoff()   # Newton leaves its last residual and geometry here
    try:
        surface, diag = geomsolve.newton_solve(initial, op, psi, opts, handoff)
    except SymcurvError as exc:
        print(f"solve failed: {exc}")
        return [("solve", 0, -1.0, False)], _replay(cfg, op, exc)
    res_norm = diag.iterations[-1][0]
    print(f"converged in {diag.n_iter - 1} iterations, residual {res_norm:.3e}")
    os.makedirs(cfg.output_dir, exist_ok=True)
    kappa, support = geomsolve._principal(handoff.geometry[2]), handoff.geometry[3]
    geomsolve._write_solution(os.path.join(cfg.output_dir, "solution.csv"), surface,
                              handoff.residual, kappa, support)
    record = geomsolve._monitor_record(kappa, support)
    print(f"max kappa1 = {record['max_kappa1']:.6f}  min support = "
          f"{record['min_support']:.6f}  convex = {record['is_convex']}")
    return [("solve", diag.n_iter, res_norm, True)], None


def _homotopy(cfg, op):
    psi, grid, opts = _solver_inputs(cfg, op)
    r1, r2 = cfg.verify["r1"], cfg.verify["r2"]
    barrier = geomsolve.barrier_check(psi, op, r1, r2)
    rows = [_scan_row("barrier", barrier)]
    if not barrier.passed:
        return rows, {"witness": barrier.witness, "details": barrier.details}
    h_eps = cfg.verify.get("homotopy_eps", 1e-2)
    try:
        path = geomsolve.homotopy_solve(op, psi, grid, r1, r2, steps=cfg.verify.get("steps", 20),
                                        eps=h_eps, opts=opts, check_barrier=False)
    except SymcurvError as exc:
        print(f"continuation failed: {exc}")
        return rows + [("homotopy", 0, -1.0, False)], _replay(cfg, op, exc)
    _, summary = geomsolve.monitor_path(path)
    final_res = path.final_diagnostics.iterations[-1][0]
    print(f"continuation reached t=1 in {len(path.ts)} accepted steps; "
          f"final residual {final_res:.3e}")
    print(f"max-over-path kappa1 = {summary['max_kappa1']:.6f}  "
          f"min support = {summary['min_support']:.6f}")
    geomsolve.write_path_csv(cfg.output_dir, path)
    return rows + [("homotopy", len(path.ts), final_res, True)], None


_HANDLERS = {
    "check-condition-c": _check_condition_c,
    "check-condition-q": _check_condition_q,
    "check-cone": _check_cone,
    "verify-concavity": _verify_concavity,
    "verify-guan": _verify_guan,
    "solve": _solve,
    "homotopy": _homotopy,
    "barrier-check": _barrier_check,
}
COMMANDS = tuple(_HANDLERS)


def execute(cfg):
    """Run the configured command; returns the process exit code: 0 when
    the property holds or the solve converges, 1 when a witness is written,
    3 when a scan is inconclusive."""
    _echo(cfg)
    rows, witness = _HANDLERS[cfg.command](cfg, _operator(cfg))
    _write_report_csv(cfg.output_dir, rows)
    if witness is None or witness is _INCONCLUSIVE:
        return 0 if witness is None else 3
    _write_witness(cfg.output_dir, {"command": cfg.command, **witness})
    return 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="symcurv", description="run symcurv checks and solves from a config file"
    )
    parser.add_argument("config", help="path to an INI-style run configuration")
    parser.add_argument("--seed", type=int, help="override [run] seed")
    parser.add_argument("--trials", type=int, help="override [run] trials")
    parser.add_argument("--output", help="override [run] output_dir")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        with open(args.config) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(text)
        if args.seed is not None:
            cfg.seed = args.seed
        if args.trials is not None:
            cfg.trials = args.trials
        if args.output is not None:
            cfg.output_dir = args.output
        return execute(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SymcurvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
