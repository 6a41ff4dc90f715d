"""symcurv: elementary-symmetric-polynomial operators, their cones and
concavity properties, and a prescribed-curvature solver on starshaped
surfaces.

Modules
-------
symfun     calculus of elementary symmetric polynomials
combop     linear-combination operators, profiles, derived lower operators
cones      Garding / admissible cone membership, sampling, convexity checks
hypcheck   exact hyperbolicity decision and witness recovery
concave    midpoint / exact-Hessian concavity verification
geomsolve  radial-graph geometry, Newton and homotopy solvers
cli        batch front end (config file in, reports + CSV out), loaded lazily
"""

from . import symfun, combop, cones, hypcheck, concave, geomsolve  # noqa: F401
from .combop import OperatorSpec
from .cones import ConeSpec, VerificationReport

__version__ = "0.1.0"

__all__ = [
    "symfun",
    "combop",
    "cones",
    "hypcheck",
    "concave",
    "geomsolve",
    "cli",
    "OperatorSpec",
    "ConeSpec",
    "VerificationReport",
]


def __getattr__(name):   # PEP 562: `python -m symcurv.cli` must not find cli imported
    if name != "cli":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    return import_module(f"{__name__}.cli")
