"""The benchmark's traced run wraps symcurv functions by name
(perfbench/layers.py).  A refactor that deletes or renames a wrapped name
breaks every traced run, so install and uninstall the hooks here; one that
routes a layer's work around its wrapper blinds its counter, so run a tiny
scan of each kind and read the counters fed by the scans' reports."""

import importlib.util
import sys
from pathlib import Path

import symcurv.cli  # loaded on first access; install() traces it, so load it up front
from symcurv.cones import ConeSpec

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_hooks_resolve_and_restore():
    layers = _load_layers()
    holders = [m for name, m in sys.modules.items()
               if m is not None and (name == "symcurv" or name.startswith("symcurv."))]
    holders += [symcurv.concave.ScalarField, symcurv.geomsolve.PsiSpec]
    before = [dict(vars(h)) for h in holders]
    tracer = layers.install(symcurv)  # a hooked name that is gone raises here
    try:
        hooks = list(tracer._restore)
        hooked = {key for _, key, _ in hooks}
        for name in ("fd_hessian", "concavity_scan", "guan_scan", "values", "inside",
                     "q_eval_batch", "sigma_all_batch", "newton_solve", "execute"):
            assert name in hooked, name
        for holder, key, original in hooks:
            assert getattr(holder, key).__wrapped__ is original, (holder, key)
    finally:
        tracer.uninstall()
    for holder, key, original in hooks:
        assert getattr(holder, key) is original, (holder, key)
    assert [dict(vars(h)) for h in holders] == before


def test_scan_counters_read_nonzero():
    layers = _load_layers()
    tracer = layers.install(symcurv)
    concave, combop = symcurv.concave, symcurv.combop
    try:
        concave.concavity_scan(concave.sum_root_field(3, 2, 2.0), 20, 1, hessian_trials=4)
        symcurv.cones.segment_convexity_check(ConeSpec("tilde", 3, 2, 2.0), 20, 1)
        op = combop.OperatorSpec.sum_type(3, 2, 2)
        c = symcurv.hypcheck.check_condition_c(op)
        concave.guan_scan(op, combop.lower_operator(op, c.witness, 1, c.N), 20, 1)
        values = dict(tracer.values)
    finally:
        tracer.uninstall()
    for name in ("concave.scan.trials", "concave.hessian.validated", "cones.scan.trials",
                 "concave.guan.trials"):
        assert values.get(name, 0) > 0, name
