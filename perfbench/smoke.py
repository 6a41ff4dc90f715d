"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs one round of every workload and requires its checks to pass, then
feeds each check corrupted outputs and requires it to reject every one, so
that no check passes vacuously.  It also runs run.py once end to end, and
once in a directory that holds only the benchmark (which must fail without
printing a result).  Takes about a minute.
"""

import copy
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import run
from workloads import WORKLOADS

SEED = 11


def one_round(name):
    wl = WORKLOADS[name]
    ctx = run.Context(run.ROOT, f"smoke-{name}-{os.getpid()}")
    state = wl.setup(run.fresh_import(), SEED, ctx)
    outputs = wl.collect(state, wl.run_round(state, ctx), ctx)
    shutil.rmtree(ctx.run_dir, ignore_errors=True)
    return wl, state, outputs


def find(outputs, **match):
    return next(i for i, rec in enumerate(outputs)
                if isinstance(rec, dict) and all(rec.get(k) == v for k, v in match.items()))


def corrupted(outputs, index, **changes):
    out = copy.deepcopy(outputs)
    out[index] = dict(out[index], **changes)
    return out


def scan_corruptions(outs):
    neg = find(outs, op="negative-control")
    x = outs[neg]["witness"]
    field = find(outs, op="concavity")
    conv = find(outs, op="convexity")
    elli = find(outs, op="ellipticity")
    sample = find(outs, op="sample")
    pts = outs[sample]["points"]
    return {
        "negative-control direction without a defect":
            corrupted(outs, neg, direction=(1.0, 0.0)),
        "negative-control witness outside Gamma_2":
            corrupted(outs, neg, witness=(-x[0], -x[1])),
        "concave field reported failing": corrupted(outs, field, passed=False),
        "no validated Hessian probe": corrupted(outs, field, validated=0),
        "convexity worst moved by 1e-9":
            corrupted(outs, conv, worst=outs[conv]["worst"] + 1e-9),
        "ellipticity witness outside the cone":
            corrupted(outs, elli, witness=tuple(-v for v in outs[elli]["witness"])),
        "sample point outside the cone":
            corrupted(outs, sample, points=(tuple(-v for v in pts[0]),) + pts[1:]),
    }


def newton_corruptions(outs):
    import numpy as np

    def shifted(index, by):
        rho = np.frombuffer(outs[index]["rho"]) + by
        return corrupted(outs, index, rho=rho.tobytes())

    return {
        "sphere rho shifted by 1e-6": shifted(2, 1e-6),
        "fine ellipsoid error as large as the coarse one": shifted(1, 1e-3),
        "solve not converged": corrupted(outs, 0, converged=False),
    }


def exact_corruptions(outs):
    def witness_index(kind):
        return next(i for i, r in enumerate(outs) if r.get("op") == "decide" and r["all_real"]
                    and r["witness"] and isinstance(r["witness"][0], kind))

    fr, fl = witness_index(Fraction), witness_index(float)
    b_fr, b_fl = outs[fr]["witness"], outs[fl]["witness"]
    fail = next(i for i, r in enumerate(outs) if r.get("op") == "decide" and not r["all_real"])
    numeric = find(outs, op="numeric")
    return {
        "exact witness b perturbed":
            corrupted(outs, fr, witness=(b_fr[0] + Fraction(1, 10**6),) + b_fr[1:]),
        "float witness b perturbed":
            corrupted(outs, fl, witness=(b_fl[0] * (1 + 1e-6),) + b_fl[1:]),
        "failing operator reported real-rooted": corrupted(outs, fail, all_real=True),
        "numeric decision flipped":
            corrupted(outs, numeric, all_real=not outs[numeric]["all_real"]),
    }


def _edit_field(data, row, column, byte):
    """data (CSV bytes) with the first byte of one field replaced."""
    rows = data.split(b"\n")
    fields = rows[row].split(b",")
    fields[column] = byte + fields[column][1:]
    rows[row] = b",".join(fields)
    return b"\n".join(rows)


def cli_corruptions(outs):
    fail = find(outs, config="condition_c_fail.ini")
    ok = find(outs, config="condition_c.ini")
    solve = find(outs, config="solve_sphere.ini")
    homotopy = find(outs, config="homotopy.ini")

    def edited(index, name, row, column, byte):
        files = dict(outs[index]["files"])
        files[name] = _edit_field(files[name], row, column, byte)
        return corrupted(outs, index, files=files)

    last = outs[homotopy]["files"]["path.csv"].rstrip(b"\n").count(b"\n")
    return {
        "flipped exit code (refuted operator)": corrupted(outs, fail, code=0),
        "flipped exit code (verified operator)": corrupted(outs, ok, code=1),
        "solution.csv rho edited in one byte": edited(solve, "solution.csv", 1, 4, b"3"),
        "path.csv final t edited in one byte": edited(homotopy, "path.csv", last, 0, b"0"),
    }


CORRUPTIONS = {
    "scan-battery": scan_corruptions,
    "newton-grid": newton_corruptions,
    "exact-decision": exact_corruptions,
    "cli-configs": cli_corruptions,
}


def main():
    sys.path.insert(0, os.path.join(run.ROOT, "src"))
    failures = []
    for name in WORKLOADS:
        wl, state, outs = one_round(name)
        problems = wl.check(state, outs)
        if problems or any(not isinstance(o, dict) for o in outs):
            failures.append(f"{name}: clean round rejected: {problems[:3]}")
        for what, bad in CORRUPTIONS[name](outs).items():
            caught = wl.check(state, bad)
            print(f"{name}: {what}: {'rejected' if caught else 'NOT REJECTED'}")
            if not caught:
                failures.append(f"{name}: {what} passed the check")
        if name == "cli-configs":
            # a second round that differs in one CSV byte
            surf = find(outs, config="homotopy.ini")
            files = dict(outs[surf]["files"])
            files["surface_0003.csv"] = _edit_field(files["surface_0003.csv"], 1, 2, b"7")
            second = corrupted(outs, surf, files=files)
            caught = run.compare_rounds(outs, second, 2)
            print(f"{name}: one CSV byte differing between rounds: "
                  f"{'rejected' if caught else 'NOT REJECTED'}")
            if not caught:
                failures.append(f"{name}: rounds differing in one CSV byte passed")

    script = os.path.join(run.HERE, "run.py")
    proc = subprocess.run([sys.executable, script, "--workload", "exact-decision", "--seed",
                           str(SEED), "--seconds", "1", "--trace", "0"],
                          cwd=run.ROOT, capture_output=True, text=True, timeout=180)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode or not result["correct"] or result["failed"] or \
            set(result["metrics"]) != {"setup_s", "wall_s", "peak_rss_mb"}:
        failures.append(f"run.py exact-decision: {proc.returncode} {result}")

    bare = os.path.join(run.OUT, f"bare-{os.getpid()}")
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "exact-decision",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append(f"run.py without sources: exit {proc.returncode}, "
                        f"stdout {proc.stdout!r}")

    for f in failures:
        print(f"FAIL {f}")
    print("smoke: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
