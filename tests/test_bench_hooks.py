"""The benchmark's traced run wraps symcurv functions by name
(perfbench/layers.py).  A refactor that deletes or renames a wrapped name
breaks every traced run, so install and uninstall the hooks here."""

import importlib.util
import sys
from pathlib import Path

import symcurv

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
