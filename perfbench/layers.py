"""Spans and per-layer counters recorded around calls into symcurv.

The traced run replaces public functions of symcurv (and the linear-solve
entry points of numpy and scipy) with wrappers that record one span per
call: layer name, start, end and the enclosing span.  Spans stay in memory
and are written out once, when the run ends.  Each layer also accumulates
per-round values: `<layer>.calls`, `<layer>.s` (time inside the layer's
outermost calls, so re-entry is not counted twice) and work counts taken
from argument shapes and from returned reports and diagnostics.

Wrappers are installed on the defining module and on every symcurv module
that bound the same object with `from ... import`, so internal calls are
seen as well.
"""

import functools
import gzip
import os
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

# Every per-layer metric the traced run reports, with its unit.
METRICS = {
    "symfun.sigma_batch.calls": "count",
    "symfun.sigma_batch.points": "count",
    "symfun.sigma_batch.s": "s",
    "symfun.sigma_scalar.calls": "count",
    "symfun.sigma_scalar.s": "s",
    "combop.q_scalar.calls": "count",
    "combop.q_scalar.s": "s",
    "combop.q_batch.points": "count",
    "combop.q_batch.s": "s",
    "cones.margins_batch.calls": "count",
    "cones.margins_batch.points": "count",
    "cones.margins_batch.s": "s",
    "cones.margin.calls": "count",
    "cones.margin.s": "s",
    "cones.sample.points": "count",
    "cones.sample.s": "s",
    "cones.scan.trials": "count",
    "cones.scan.s": "s",
    "concave.scan.trials": "count",
    "concave.scan.s": "s",
    "concave.probe.calls": "count",
    "concave.probe.points": "count",
    "concave.probe.s": "s",
    "concave.hessian.calls": "count",
    "concave.hessian.s": "s",
    "concave.hessian.validated": "count",
    "concave.hessian.validated_ratio": "ratio",
    "concave.guan.trials": "count",
    "concave.guan.s": "s",
    "hypcheck.decide.calls": "count",
    "hypcheck.decide.s": "s",
    "hypcheck.exact.calls": "count",
    "hypcheck.exact.s": "s",
    "hypcheck.numeric.calls": "count",
    "hypcheck.numeric.s": "s",
    "hypcheck.witness.s": "s",
    "geomsolve.newton.calls": "count",
    "geomsolve.newton.s": "s",
    "geomsolve.newton.iterations": "count",
    "geomsolve.newton.halvings": "count",
    "geomsolve.residual.surfaces": "count",
    "geomsolve.psi.s": "s",
    "geomsolve.linsolve.calls": "count",
    "geomsolve.linsolve.s": "s",
    "geomsolve.homotopy.steps": "count",
    "geomsolve.homotopy.s": "s",
    "geomsolve.monitor.s": "s",
    "geomsolve.csv.bytes": "count",
    "geomsolve.csv.s": "s",
    "cli.parse.s": "s",
    "cli.execute.s": "s",
    "cli.output.bytes": "count",
}


def _leading(a, trailing):
    """Number of items in all but the last `trailing` axes of array-like a."""
    shape = np.shape(a)
    return int(np.prod(shape[:-trailing])) if len(shape) > trailing else 1


class _Layer:
    """One layer's name, span-name id, nesting depth and value keys."""

    __slots__ = ("name", "id", "depth", "calls_key", "s_key")

    def __init__(self, name, index):
        self.name, self.id, self.depth = name, index, 0
        self.calls_key, self.s_key = name + ".calls", name + ".s"


class Tracer:
    """In-memory spans plus per-round layer values."""

    def __init__(self):
        self.names = []
        self._layers = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._grid_nodes = []
        self.values = defaultdict(float)
        self.rounds = []
        self.t0 = perf_counter()
        self._restore = []

    # -- spans -------------------------------------------------------------
    def layer(self, name):
        lay = self._layers.get(name)
        if lay is None:
            lay = self._layers[name] = _Layer(name, len(self.names))
            self.names.append(name)
        return lay

    def open(self, lay):
        sid = len(self.span_start)
        self.span_name.append(lay.id)
        self.span_parent.append(self._stack[-1])
        self._stack.append(sid)
        lay.depth += 1
        start = perf_counter()
        self.span_start.append(start - self.t0)
        self.span_end.append(0.0)
        return sid, start

    def close(self, lay, sid, start):
        end = perf_counter()
        self.span_end[sid] = end - self.t0
        self._stack.pop()
        lay.depth -= 1
        values = self.values
        if not lay.depth:
            values[lay.s_key] += end - start
        values[lay.calls_key] += 1

    def active(self, name):
        return self.layer(name).depth > 0

    def begin_round(self):
        """Reset the per-round values and open the round's root span."""
        self.values = defaultdict(float)
        return self.open(self.layer("round"))

    def close_round(self, token):
        self.close(self.layer("round"), *token)

    def finish_round(self):
        """Record the round's values of every metric (after its span closed)."""
        v = self.values
        requested = v.pop("concave.hessian.requested", 0.0)
        v["concave.hessian.validated_ratio"] = (
            v["concave.hessian.validated"] / requested if requested else 0.0
        )
        self.rounds.append({name: v.get(name, 0.0) for name in METRICS})

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", compresslevel=3) as fh:
            fh.write("span\tname\tparent\tstart_s\tend_s\n")
            names = self.names
            for i, (n, p, s, e) in enumerate(zip(self.span_name, self.span_parent,
                                                 self.span_start, self.span_end)):
                fh.write(f"{i}\t{names[n]}\t{p}\t{s:.9f}\t{e:.9f}\n")

    # -- wrapping ----------------------------------------------------------
    def wrap(self, fn, layer, count=None, when=None, before=None):
        """Wrapper of fn recording a span per call under `layer` (a name, or a
        function of (args, kwargs) giving one).  count(tracer, args, kwargs,
        result_or_exception) adds work counts; when(tracer) False skips
        recording for that call; before(tracer, args, kwargs) runs first."""
        tracer = self
        fixed = None if callable(layer) else self.layer(layer)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if when is not None and not when(tracer):
                return fn(*args, **kwargs)
            if before is not None:
                before(tracer, args, kwargs)
            lay = fixed or tracer.layer(layer(args, kwargs))
            sid, start = tracer.open(lay)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                tracer.close(lay, sid, start)
                if count is not None:
                    count(tracer, args, kwargs, exc)
                raise
            tracer.close(lay, sid, start)
            if count is not None:
                count(tracer, args, kwargs, out)
            return out

        return traced

    def patch_function(self, module, attr, layer, count=None, when=None, before=None):
        """Replace module.attr, and every symcurv-module binding of the same
        object, with a traced wrapper."""
        original = getattr(module, attr)
        traced = self.wrap(original, layer, count, when, before)
        holders = [module] + [m for name, m in list(sys.modules.items())
                              if m is not None and (name == "symcurv" or name.startswith("symcurv."))]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, traced)
                    self._restore.append((holder, key, original))

    def patch_method(self, cls, attr, layer, count=None, when=None):
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(original, layer, count, when))
        self._restore.append((cls, attr, original))

    def uninstall(self):
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()


# ---------------------------------------------------------------------------
# counters (tracer, args, kwargs, result-or-exception)

def _add(key, fn):
    def count(tr, args, kwargs, out):
        if not isinstance(out, Exception):
            tr.values[key] += fn(args, kwargs, out)
    return count


def _q_batch_count(tr, args, kwargs, out):
    if isinstance(out, Exception):
        return
    points = _leading(args[1] if len(args) > 1 else kwargs["values"], 1)
    tr.values["combop.q_batch.points"] += points
    # residual evaluations: Q(kappa) over whole surfaces under newton_solve,
    # not the Q that a manufactured psi evaluates for its own data
    if tr._grid_nodes and not tr.active("geomsolve.psi"):
        tr.values["geomsolve.residual.surfaces"] += points / tr._grid_nodes[-1]


def _newton_begin(tr, args, kwargs):
    initial = args[0] if args else kwargs["initial"]
    tr._grid_nodes.append(initial.rho.size)


def _newton_count(tr, args, kwargs, out):
    tr._grid_nodes.pop()
    diag = getattr(out, "diagnostics", None) if isinstance(out, Exception) else out[1]
    if diag is None:
        return
    tr.values["geomsolve.newton.iterations"] += max(diag.n_iter - 1, 0)
    tr.values["geomsolve.newton.halvings"] += sum(rec[2] for rec in diag.iterations)


def _scan_count(tr, args, kwargs, out):
    if isinstance(out, Exception):
        return
    tr.values["concave.scan.trials"] += out.trials
    tr.values["concave.hessian.validated"] += out.details["hessian_validated"]
    tr.values["concave.hessian.requested"] += out.details["hessian_trials"]


def _csv_bytes(path_of):
    def count(tr, args, kwargs, out):
        path = path_of(args, kwargs)
        if not isinstance(out, Exception) and os.path.exists(path):
            tr.values["geomsolve.csv.bytes"] += os.path.getsize(path)
    return count


def _real_rooted_layer(args, kwargs):
    mode = args[1] if len(args) > 1 else kwargs.get("mode", "exact")
    return "hypcheck.numeric" if mode == "numeric" else "hypcheck.exact"


def install(sc):
    """Trace the symcurv modules in namespace sc; returns the Tracer."""
    tr = Tracer()
    symfun, combop, cones = sc.symfun, sc.combop, sc.cones
    concave, hypcheck, geomsolve, cli = sc.concave, sc.hypcheck, sc.geomsolve, sc.cli
    newton, hessian = tr.layer("geomsolve.newton"), tr.layer("concave.hessian")
    under_newton = lambda t: newton.depth > 0  # noqa: E731
    outside_hessian = lambda t: hessian.depth == 0  # noqa: E731

    f = tr.patch_function
    f(symfun, "sigma_all_batch", "symfun.sigma_batch",
      _add("symfun.sigma_batch.points", lambda a, k, o: _leading(a[0], 1)))
    f(symfun, "sigma_all", "symfun.sigma_scalar")
    for name in ("q_eval", "q_grad", "q_hess"):
        f(combop, name, "combop.q_scalar")
    f(combop, "q_eval_batch", "combop.q_batch", _q_batch_count)
    f(cones, "cone_margins_batch", "cones.margins_batch",
      _add("cones.margins_batch.points", lambda a, k, o: _leading(a[1], 1)))
    f(cones, "cone_margin", "cones.margin")
    f(cones, "cone_contains", "cones.margin")
    f(cones, "sample_cone", "cones.sample",
      _add("cones.sample.points", lambda a, k, o: len(o)))
    for name in ("segment_convexity_check", "ellipticity_scan"):
        f(cones, name, "cones.scan", _add("cones.scan.trials", lambda a, k, o: o.trials))
    f(concave, "concavity_scan", "concave.scan", _scan_count)
    f(concave, "fd_hessian", "concave.hessian")
    f(concave, "guan_scan", "concave.guan",
      _add("concave.guan.trials", lambda a, k, o: o.trials))
    for name in ("values", "inside"):
        tr.patch_method(concave.ScalarField, name, "concave.probe",
                        _add("concave.probe.points", lambda a, k, o: _leading(a[1], 1)),
                        when=outside_hessian)
    f(hypcheck, "check_condition_c", "hypcheck.decide")
    f(hypcheck, "real_rooted", _real_rooted_layer)
    f(hypcheck, "witness_b", "hypcheck.witness")
    f(geomsolve, "newton_solve", "geomsolve.newton", _newton_count, before=_newton_begin)
    tr.patch_method(geomsolve.PsiSpec, "evaluate", "geomsolve.psi")
    f(geomsolve, "homotopy_solve", "geomsolve.homotopy",
      _add("geomsolve.homotopy.steps", lambda a, k, o: len(o.ts) - 1))
    for name in ("curvature_monitor", "monitor_path", "barrier_check"):
        f(geomsolve, name, "geomsolve.monitor")
    f(geomsolve, "write_solution_csv", "geomsolve.csv",
      _csv_bytes(lambda a, k: a[0] if a else k["path"]))
    f(geomsolve, "write_path_csv", "geomsolve.csv",
      _csv_bytes(lambda a, k: os.path.join(a[0] if a else k["out_dir"], "path.csv")))
    f(cli, "parse_config", "cli.parse")
    f(cli, "execute", "cli.execute")
    for module_name, attr in _SOLVE_ENTRY_POINTS:
        module = sys.modules.get(module_name)
        if module is not None and hasattr(module, attr):
            f(module, attr, "geomsolve.linsolve", when=under_newton)
    return tr


# Dense and sparse solve / factorization entry points a Newton step may use.
_SOLVE_ENTRY_POINTS = (
    ("numpy.linalg", "solve"),
    ("scipy.linalg", "solve"),
    ("scipy.linalg", "lu_factor"),
    ("scipy.linalg", "lu_solve"),
    ("scipy.linalg", "cho_factor"),
    ("scipy.linalg", "cho_solve"),
    ("scipy.sparse.linalg", "spsolve"),
    ("scipy.sparse.linalg", "splu"),
    ("scipy.sparse.linalg", "factorized"),
)
