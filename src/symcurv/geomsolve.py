"""Prescribed-curvature solving on starshaped surfaces over S^2.

A surface is a radial graph rho over a latitude-longitude grid with
half-offset colatitudes (no node sits on a pole; the missing neighbors
across each pole are the antipodal-in-longitude nodes of the same row).
Geometry comes from the standard radial-graph formulas: with W^2 = rho^2 +
|grad rho|^2 (gradients on the round sphere),

    metric      g = rho^2 e + d rho (x) d rho
    normal      nu = (rho r_hat - grad rho) / W
    2nd form    h = (rho^2 e + 2 d rho (x) d rho - rho Hess rho) / W
    shape op.   S = L^-1 h L^-T in the orthonormal frame of g = L L^T

The equation Q(kappa) = psi(X, nu) is solved by damped Newton, and by
homotopy continuation from a round start for data satisfying the barrier
conditions.  The continuation starts each Newton solve from the secant
prediction through the last two accepted surfaces; a prediction that is
not positive or not admissible, or from which Newton fails, is a failed
step and halves the parameter step.  The residual is
Q = sum_j alpha_j sigma_j with sigma = (1, tr S, det S); the curvature
pair kappa (the eigenvalues of S) is split off only for admissibility and
output.  A node is admissible iff its cones.cone_margins_batch margin in
the operator's cone (Gamma~_k for sum-type operators, Gamma_k otherwise)
is positive.  The residual at a node is a pointwise function f of six
local quantities q, rho and its derivatives, each a linear stencil
operator D_q on rho; so Newton's Jacobian is exactly
J = sum_q diag(df/dq) D_q, with the six partials from one complex-step
evaluation of f (Squire and Trapp 1998).  A psi free of X adds a
translation gauge (newton_solve).  The stencil reads only the latitude
rows j-1, j and j+1, so J is block tridiagonal over latitude rows; a
block LU (_BlockLU, numpy only) factors it and closes the gauge's border
by a 3x3 Schur complement.  Newton reuses a factor for chord steps while
the residual contracts, and the continuation hands it from one step to
the next, together with the accepted surface's residual and geometry,
which the path keeps for monitor_path and write_path_csv.
write_solution_csv returns the residual it wrote.  The CSV writers make
each file in one pass, with the bytes csv.writer would write.
"""

import functools
import os
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from .errors import (
    ConeExitError,
    ContinuationError,
    ConvergenceError,
    DomainError,
)
from .combop import OperatorSpec, q_eval
from .cones import ConeSpec, VerificationReport, _Worst, _normal_chunk, cone_margins_batch

__all__ = [
    "SphereGrid",
    "RadialSurfaceField",
    "SurfaceGeometry",
    "PsiSpec",
    "SolveOptions",
    "NewtonDiagnostics",
    "HomotopyPath",
    "surface_geometry",
    "residual",
    "newton_solve",
    "homotopy_solve",
    "barrier_check",
    "curvature_monitor",
    "monitor_path",
    "ellipsoid_radial_graph",
    "write_solution_csv",
    "write_path_csv",
]

@dataclass(frozen=True)
class SphereGrid:
    """Half-offset latitude-longitude grid: colatitude theta_j = (j+1/2)pi/n_lat,
    longitude phi_i = 2pi i/n_lon.  n_lon must be even (cross-pole closure
    pairs each node with the one shifted by pi in longitude)."""

    n_lon: int
    n_lat: int

    def __post_init__(self):
        if self.n_lon < 4 or self.n_lon % 2:
            raise DomainError("n_lon must be even and >= 4")
        if self.n_lat < 2:
            raise DomainError("n_lat must be >= 2")

    @property
    def shape(self):
        return (self.n_lat, self.n_lon)

    @property
    def theta(self):
        return (np.arange(self.n_lat) + 0.5) * np.pi / self.n_lat

    @property
    def phi(self):
        return 2.0 * np.pi * np.arange(self.n_lon) / self.n_lon

    @property
    def d_theta(self):
        return np.pi / self.n_lat

    @property
    def d_phi(self):
        return 2.0 * np.pi / self.n_lon

    @functools.lru_cache(maxsize=None)
    def unit_vectors(self):
        """r_hat, theta_hat, phi_hat with shape (n_lat, n_lon, 3), built once
        per grid (read-only)."""
        st, ct, _ = _trig(self)
        ph = self.phi[None, :]
        sp, cp = np.sin(ph), np.cos(ph)
        r_hat = np.stack(np.broadcast_arrays(st * cp, st * sp, ct * np.ones_like(ph)), axis=-1)
        t_hat = np.stack(np.broadcast_arrays(ct * cp, ct * sp, -st * np.ones_like(ph)), axis=-1)
        p_hat = np.stack(np.broadcast_arrays(-sp * np.ones_like(st), cp * np.ones_like(st),
                                             np.zeros((self.n_lat, self.n_lon))), axis=-1)
        return _read_only(r_hat, t_hat, p_hat)


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=None)
def _trig(grid):
    """sin, cos and cot of the colatitudes, shape (n_lat, 1), once per grid
    (read-only)."""
    th = grid.theta[:, None]
    st, ct = np.sin(th), np.cos(th)
    return _read_only(st, ct, ct / st)


@dataclass
class RadialSurfaceField:
    """Positive radial distances rho on a sphere grid (shape (n_lat, n_lon))."""

    rho: np.ndarray
    grid: SphereGrid

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=float)
        if self.rho.shape != self.grid.shape:
            raise DomainError(f"rho must have shape {self.grid.shape}")
        if not np.all(np.isfinite(self.rho)) or np.any(self.rho <= 0):
            raise DomainError("rho must be positive and finite everywhere")

    @classmethod
    def sphere(cls, grid, radius):
        return cls(np.full(grid.shape, float(radius)), grid)


def perturbed_sphere(grid, radius, amplitude, seed):
    """Sphere with a random smooth relative perturbation of the given
    amplitude: rho = radius * (1 + amplitude * f) where f is a random
    quadratic in the direction vector, scaled to max |f| = 1.  Smoothness
    keeps small perturbations inside the admissible cone at any resolution
    (nodewise white noise would not be: its discrete second differences
    grow like 1/h^2)."""
    r_hat, _, _ = grid.unit_vectors()
    x, y, z = r_hat[..., 0], r_hat[..., 1], r_hat[..., 2]
    basis = [x, y, z, x * y, y * z, x * z, x * x - y * y, 3 * z * z - 1.0]
    coeff = _normal_chunk(seed, 0, 1, len(basis))[0]
    f = sum(c * b for c, b in zip(coeff, basis))
    f /= np.max(np.abs(f))
    return RadialSurfaceField(radius * (1.0 + amplitude * f), grid)


def _pole_pad(f, n_lon):
    """Add ghost rows across both poles: row -1 is row 0 shifted by pi in
    longitude, row n_lat is row n_lat-1 shifted by pi (axis -2 = latitude)."""
    north = np.roll(f[..., :1, :], n_lon // 2, axis=-1)
    south = np.roll(f[..., -1:, :], n_lon // 2, axis=-1)
    return np.concatenate([north, f, south], axis=-2)


def _derivatives(f, grid):
    """The six local quantities of a scalar grid field: f itself, its
    second-order centered d/dtheta and d/dphi, and the three second
    derivatives (tt, pp, tp); broadcasts over leading axes."""
    dt, dp = grid.d_theta, grid.d_phi
    pad = _pole_pad(f, grid.n_lon)
    f_t = (pad[..., 2:, :] - pad[..., :-2, :]) / (2.0 * dt)
    f_tt = (pad[..., 2:, :] - 2.0 * f + pad[..., :-2, :]) / dt**2
    f_p = (np.roll(f, -1, axis=-1) - np.roll(f, 1, axis=-1)) / (2.0 * dp)
    f_pp = (np.roll(f, -1, axis=-1) - 2.0 * f + np.roll(f, 1, axis=-1)) / dp**2
    pad_p = _pole_pad(f_p, grid.n_lon)
    f_pt = (pad_p[..., 2:, :] - pad_p[..., :-2, :]) / (2.0 * dt)
    return f, f_t, f_p, f_tt, f_pp, f_pt


@dataclass
class SurfaceGeometry:
    """Per-node geometry arrays (leading axes broadcast over surfaces)."""

    X: np.ndarray         # (..., n_lat, n_lon, 3) positions
    nu: np.ndarray        # (..., n_lat, n_lon, 3) unit outward normals
    kappa: np.ndarray     # (..., n_lat, n_lon, 2) principal curvatures, descending
    support: np.ndarray   # (..., n_lat, n_lon) <X, nu>
    rho: np.ndarray
    grid: SphereGrid


def _geometry(rho, grid):
    """Pointwise geometry of the surface rho from its six local quantities
    q = (rho, rho_theta, rho_phi, rho_thetatheta, rho_phiphi, rho_thetaphi):
    X, nu, the shape operator (s11, s12, s22) in the orthonormal tangent
    frame that the Cholesky factor of g gives (e_1 along d/dtheta), its
    eigenvalues kappa (last axis, descending) and the support <X, nu>.  The
    discriminant sqrt((s11 - s22)^2 + 4 s12^2) of kappa does not cancel
    near umbilic points, as sqrt(tr^2 - 4 det) would."""
    q = _derivatives(rho, grid)
    (s11, s12, s22), w = _shape_operator(q, grid)
    tr, disc = s11 + s22, np.sqrt((s11 - s22) ** 2 + 4.0 * s12**2)
    kappa = np.stack([(tr + disc) / 2.0, (tr - disc) / 2.0], axis=-1)
    return (*_frame(q, w, grid), (s11, s12, s22), kappa, q[0]**2 / w)


def _shape_operator(q, grid):
    """The shape operator (s11, s12, s22) of _geometry, and W, from the six
    local quantities q (each of shape (..., n_lat, n_lon), real or complex)."""
    rho, r_t, r_p, r_tt, r_pp, r_pt = q
    st, ct, cot = _trig(grid)

    grad2 = r_t**2 + (r_p / st) ** 2
    w2 = rho**2 + grad2
    w = np.sqrt(w2)

    g_tt = rho**2 + r_t**2
    g_tp = r_t * r_p
    g_pp = (rho * st) ** 2 + r_p**2

    hess_tt = r_tt
    hess_tp = r_pt - cot * r_p
    hess_pp = r_pp + st * ct * r_t

    h_tt = (rho**2 + 2.0 * r_t**2 - rho * hess_tt) / w
    h_tp = (2.0 * r_t * r_p - rho * hess_tp) / w
    h_pp = ((rho * st) ** 2 + 2.0 * r_p**2 - rho * hess_pp) / w

    # S = L^-1 h L^-T with g = L L^T, L = [[sqrt(g_tt), 0], [c sqrt(g_tt), sqrt(det_g / g_tt)]]
    det_g = g_tt * g_pp - g_tp**2
    c = g_tp / g_tt
    s11 = h_tt / g_tt
    s12 = (h_tp - c * h_tt) / np.sqrt(det_g)
    s22 = (h_pp - 2.0 * c * h_tp + c**2 * h_tt) * g_tt / det_g
    return (s11, s12, s22), w


def _frame(q, w, grid):
    """X and nu of _geometry from rho, rho_theta, rho_phi (q[:3]) and W."""
    rho, r_t, r_p = q[:3]
    r_hat, t_hat, p_hat = grid.unit_vectors()
    grad_vec = r_t[..., None] * t_hat + (r_p / _trig(grid)[0])[..., None] * p_hat
    X = rho[..., None] * r_hat
    return X, (X - grad_vec) / w[..., None]


def surface_geometry(surface):
    """Full geometry of one surface; curvatures sorted descending per node."""
    X, nu, _, kappa, support = _geometry(surface.rho, surface.grid)
    return SurfaceGeometry(X=X, nu=nu, kappa=kappa, support=support,
                           rho=surface.rho, grid=surface.grid)


# ---------------------------------------------------------------------------
# admissibility and residual

def _inadmissible_nodes(op, kappa):
    """Nodes whose curvature pair is not strictly inside the operator's cone
    (Gamma~_k for sum-type operators, Gamma_k otherwise): margin not > 0."""
    alpha = op.sum_type_alpha
    cone = ConeSpec("garding" if alpha is None else "tilde", 2, op.k, float(alpha or 0), tol=0.0)
    return [tuple(i) for i in np.argwhere(~(cone_margins_batch(cone, kappa) > 0.0))]


def _q_invariants(op, tr, det):
    """Q = sum_j alpha_j sigma_j of a 2x2 shape operator from its invariants
    sigma = (1, tr, det) (sigma_j = 0 for j > 2)."""
    a0, a1, a2 = ([float(a) for a in op.alphas] + [0.0])[:3]
    return a0 + a1 * tr + a2 * det


def _residual_raw(rho, grid, op, psi):
    """Q - psi per node of the surface rho, Q from tr and det of the shape
    operator, and the geometry (X, nu, kappa, support) it was computed from
    (no admissibility test, no raising)."""
    X, nu, (s11, s12, s22), kappa, support = _geometry(rho, grid)
    return (_q_invariants(op, s11 + s22, s11 * s22 - s12**2) - psi.evaluate(X, nu),
            (X, nu, kappa, support))


def residual(surface, op, psi):
    """Per-node Q(kappa(X)) - psi(X, nu); raises ConeExitError (listing the
    offending nodes) if any node's curvatures leave the admissible cone."""
    if op.n != 2:
        raise DomainError("surface solving is fixed to n=2 (two principal curvatures)")
    res, (_, _, kappa, _) = _residual_raw(surface.rho, surface.grid, op, psi)
    bad = _inadmissible_nodes(op, kappa)
    if bad:
        raise ConeExitError(
            f"curvatures leave the admissible cone at {len(bad)} node(s)", nodes=bad
        )
    return res


# ---------------------------------------------------------------------------
# right-hand sides

@dataclass(frozen=True)
class PsiSpec:
    """Closed catalog of right-hand sides psi(X, nu) > 0.

    families: 'constant' (c), 'radial-power' (c / |X|^p),
    'anisotropic-radial' (c/|X|^p * (1 + eps <nu, e>), |eps| < 1),
    'manufactured-ellipsoid' (Q of the ellipsoid with the given axes at the
    radial projection of X onto it, from the closed-form tr and det of its
    shape operator).
    """

    family: str
    c: float = 1.0
    p: float = 0.0
    eps: float = 0.0
    axis: tuple = (0.0, 0.0, 1.0)
    axes: tuple = (1.0, 1.0, 1.0)
    op: OperatorSpec = None

    def __post_init__(self):
        if self.family not in (
            "constant", "radial-power", "anisotropic-radial", "manufactured-ellipsoid"
        ):
            raise DomainError(f"unknown psi family {self.family!r}")
        if self.family != "manufactured-ellipsoid" and self.c <= 0:
            raise DomainError("c must be positive")
        if self.family == "anisotropic-radial":
            if not abs(self.eps) < 1:
                raise DomainError("need |eps| < 1 so psi stays positive")
            norm = float(np.linalg.norm(self.axis))
            if norm == 0:
                raise DomainError("axis must be nonzero")
            object.__setattr__(self, "axis", tuple(np.asarray(self.axis, float) / norm))
        if self.family == "manufactured-ellipsoid":
            if self.op is None:
                raise DomainError("manufactured family needs the operator")
            if any(a <= 0 for a in self.axes):
                raise DomainError("axes must be positive")

    def evaluate(self, X, nu):
        """Vectorized over leading axes of X, nu (last axis = 3); real or
        complex (the Jacobian's complex step)."""
        if self.family == "manufactured-ellipsoid":
            return _q_invariants(self.op, *_ellipsoid_invariants(X, self.axes))
        if self.family == "constant":
            return np.full(X.shape[:-1], self.c)
        r = np.sqrt((X * X).sum(-1))
        if self.family == "radial-power":
            return self.c / r**self.p
        return self.c / r**self.p * (1.0 + self.eps * (nu @ np.asarray(self.axis)))


def ellipsoid_radial_graph(directions, axes):
    """Radial distance of the ellipsoid sum (x_i/a_i)^2 = 1 along unit directions."""
    d = np.asarray(directions, float)
    a = np.asarray(axes, float)
    return 1.0 / np.sqrt(((d / a) ** 2).sum(axis=-1))


def _ellipsoid_invariants(X, axes):
    """tr and det of the ellipsoid's shape operator W at the ellipsoid point
    on the ray through each X (last axis = 3), in closed form (Goldman 2005).

    For F = sum (x_i/a_i)^2 - 1, H = Hess F = diag(h), h_i = 2/a_i^2, and
    m = grad F / |grad F|: tr W = (tr H - m'Hm) / |grad F| and
    det W = m' adj(H) m / |grad F|^2.  With q = X*X and the moments
    A = q.h, B = q.h^2, C = q.h^3, on the ray's ellipsoid point these are
    tr W = (tr H - C/B) sqrt(A / 2B) and det W = det H A^2 / 2B^2."""
    h = 2.0 / np.asarray(axes, float) ** 2
    A, B, C = np.moveaxis(X * X @ h[:, None] ** [1, 2, 3], -1, 0)
    return (h.sum() - C / B) * np.sqrt(A / (2.0 * B)), h.prod() * A**2 / (2.0 * B**2)


# ---------------------------------------------------------------------------
# Newton solver

@dataclass
class SolveOptions:
    tol: float = None          # absolute; default 1e-10 * psi scale
    max_iter: int = 40
    max_halvings: int = 30


@dataclass
class NewtonDiagnostics:
    iterations: list = field(default_factory=list)  # (residual_inf, step, halvings)
    converged: bool = False
    tol: float = None
    mu: tuple = ()   # translation-gauge multipliers of the last iterate (empty: no gauge)
    # one entry per Newton step (attempted steps included):
    residual_evals: list = field(default_factory=list)  # candidates + 6 complex-step surfaces
    jacobian_s: list = field(default_factory=list)      # Jacobian assembly
    linsolve_s: list = field(default_factory=list)      # block LU factor and solves
    line_search_s: list = field(default_factory=list)   # candidate evaluations
    factored: list = field(default_factory=list)        # built and factored a Jacobian

    @property
    def n_iter(self):
        return len(self.iterations)


_CS_STEP = 1e-30   # complex step: f'(x) = Im f(x + ih) / h, exact to rounding
_CHORD_THETA = 0.1  # a chord step must cut the residual below this fraction


class _Handoff:
    """What a Newton solve leaves to its caller: the LU factor in hand (lu),
    which a continuation's next solve tries first, and the residual and
    geometry of the accepted surface."""

    lu = None
    residual = None
    geometry = None


@functools.lru_cache(maxsize=None)
def _stencil_weights(grid):
    """(6, 3, 3): the weight of offset (dj, di) in {-1, 0, 1}^2 in the
    linear stencil operator D_q of each local quantity q, read off
    _derivatives at the centre of a 3x3 patch, one unit impulse per offset."""
    impulses = np.eye(9).reshape(9, 3, 3)
    return np.stack(_derivatives(impulses, grid))[:, :, 1, 1].reshape(6, 3, 3)


def _jacobian(rho, grid, op, psi):
    """The exact Jacobian J = sum_q diag(df/dq) D_q of the discrete residual
    as stencil coefficients c[dj+1, di+1, j, i] = sum_q df/dq w_q(dj, di),
    the weight of node (j+dj, i+di) in row (j, i).  The partials df/dq come
    from one complex-step evaluation of f, surface b stepping q_b; psi
    reads only X and nu, which rho, rho_theta and rho_phi fix, so it is
    evaluated on surfaces 0-2 alone (on 3-5 its imaginary part is zero)."""
    q = np.stack(_derivatives(rho, grid))[:, None]
    batch = q + 1j * _CS_STEP * np.eye(6)[:, :, None, None]   # q_b steps on surface b
    (s11, s12, s22), w = _shape_operator(batch, grid)
    partial = _q_invariants(op, s11 + s22, s11 * s22 - s12**2).imag
    partial[:3] -= psi.evaluate(*_frame(batch[:3, :3], w[:3], grid)).imag
    return np.einsum("qji,qab->abji", partial / _CS_STEP, _stencil_weights(grid))


@functools.lru_cache(maxsize=None)
def _gauge(grid, on):
    """The translation gauge's border (U, C), each (n, 3), or (n, 0) when
    off: U the components of r_hat, C the same weighted by
    sin theta / sum sin theta (read-only)."""
    n = grid.n_lat * grid.n_lon
    U = grid.unit_vectors()[0].reshape(n, 3)[:, :3 if on else 0]
    st = np.repeat(np.sin(grid.theta), grid.n_lon)[:, None]
    return _read_only(U, U * st / st.sum())


class _BlockLU:
    """LU factor of the Newton matrix [[J, U], [C', 0]] (U, C of width 0
    without the gauge), J from its stencil coefficients (_jacobian).

    Node (j, i) reads latitude rows j-1, j and j+1 only, and across a pole
    the ghost row is the edge row itself shifted by n_lon/2.  So J is block
    tridiagonal over latitude rows, with n_lon x n_lon blocks L_j, D_j, U_j
    in block columns j-1, j, j+1 (the off-diagonal ones hold 3 wrapping
    entries per row).  Block Thomas elimination keeps L_j, D'_j^-1 and
    G_j = D'_j^-1 U_j, with D'_j = D_j - L_j G_{j-1}.  With the gauge, the
    3x3 Schur complement S = C'Z of Z = J^-1 U closes the border.  Raises
    numpy.linalg.LinAlgError when a block or S is singular or not finite."""

    def __init__(self, coef, U, C):
        n_lat, m = coef.shape[2:]
        # L_j, D_j, U_j go into the storage of L, D'^-1 and G; elimination overwrites
        L, inv, G = (np.zeros((k, m, m)) for k in (n_lat - 1, n_lat, n_lat - 1))
        rows = np.arange(m)
        for d in range(3):   # one add per longitude offset: offsets meeting at a node sum
            cols = (rows + d - 1) % m
            for block, c in ((L, coef[0, d, 1:]), (inv, coef[1, d]), (G, coef[2, d, :-1])):
                block[:, rows, cols] += c
            # the ghost rows across the poles are the edge rows themselves
            inv[0, rows, (cols + m // 2) % m] += coef[0, d, 0]
            inv[-1, rows, (cols + m // 2) % m] += coef[2, d, -1]
        for j in range(n_lat):
            inv[j] = np.linalg.inv(inv[j] - L[j - 1] @ G[j - 1] if j else inv[0])
            if j < n_lat - 1:
                G[j] = inv[j] @ G[j]
        self.L, self.inv, self.G, self.C = L, inv, G, C
        self.Z = self._solve_j(U) if U.size else U
        self.S_inv = np.linalg.inv(C.T @ self.Z)
        if not (np.all(np.isfinite(inv)) and np.all(np.isfinite(self.S_inv))):
            raise np.linalg.LinAlgError("non-finite block")

    def _solve_j(self, b):
        """J^-1 b for b of shape (n,) or (n, k): y_j = D'_j^-1 (b_j - L_j y_{j-1})
        down the rows, then x_j = y_j - G_j x_{j+1} back up.  (Folding
        D'_j^-1 L_j into one matrix saves a product per row but raised the
        backward error 4- to 7-fold at 128x64.)"""
        n_lat, m, _ = self.inv.shape
        b_rows = b.reshape((n_lat, m) + b.shape[1:])
        y = [self.inv[0] @ b_rows[0]]
        for inv, L, b_j in zip(self.inv[1:], self.L, b_rows[1:]):
            y.append(inv @ (b_j - L @ y[-1]))
        x = y[-1:]
        for G, y_j in zip(self.G[::-1], y[-2::-1]):
            x.append(y_j - G @ x[-1])
        return np.stack(x[::-1]).reshape(b.shape)

    def solve(self, rhs):
        """[x; mu] with J x + U mu = r_1 and C'x = r_2 for rhs = [r_1; r_2]."""
        n = self.C.shape[0]
        x = self._solve_j(rhs[:n])
        mu = self.S_inv @ (self.C.T @ x - rhs[n:])
        return np.concatenate([x - self.Z @ mu, mu])


def _position_free(psi):
    """psi does not depend on X: 'constant', or 'radial-power' or
    'anisotropic-radial' with p = 0."""
    return isinstance(psi, PsiSpec) and (psi.family == "constant" or (
        psi.family != "manufactured-ellipsoid" and psi.p == 0))


def newton_solve(initial, op, psi, opts=None, _handoff=None):
    """Damped Newton for Q(kappa) = psi on the grid of the initial surface.

    When psi does not depend on X, the three translations are a near-kernel
    of the Jacobian.  Newton then solves the bordered system
    F(rho) + U mu = 0, C'rho = 0 (U: the components of r_hat; C: the same
    weighted by sin theta, normalized; a phase condition, Allgower & Georg,
    Numerical Continuation Methods, 1990), and converges only with
    |mu| <= tol.  Every step is one line search: it halves the step, at
    most max_halvings times, until the sup-norm of the (bordered) residual
    falls below a bound and the iterate stays admissible (positive rho,
    psi defined on it, curvatures in the cone).

    A fresh Jacobian's step has the bound |F|.  After a step that cuts the
    residual below theta = _CHORD_THETA = 0.1 times its value, the next
    step is first a chord step with the LU factor in hand (Deuflhard,
    Newton Methods for Nonlinear Problems, 2004): the same line search with
    bound theta |F| and no halving, so one solve and at most one residual
    evaluation.  When it finds no iterate, Newton factors a fresh Jacobian
    at the same iterate.  homotopy_solve hands the factor in hand at
    convergence to its next Newton solve, which tries it first.

    Raises ConvergenceError when no acceptable step exists or the iteration
    budget is exhausted; the exception carries the last iterate and
    diagnostics.

    Returns (surface, NewtonDiagnostics).
    """
    if op.n != 2:
        raise DomainError("surface solving is fixed to n=2 (two principal curvatures)")
    opts = opts or SolveOptions()
    grid = initial.grid
    U, C = _gauge(grid, _position_free(psi))
    rho = initial.rho.copy()
    mu = np.zeros(U.shape[1])
    res, geo = _residual_raw(rho, grid, op, psi)
    X, nu, kappa, _ = geo
    bad = _inadmissible_nodes(op, kappa)
    if bad:
        raise ConeExitError("initial surface is not admissible", nodes=bad)
    psi_scale = float(np.max(np.abs(psi.evaluate(X, nu))))
    tol = opts.tol if opts.tol is not None else 1e-10 * psi_scale
    diag = NewtonDiagnostics(tol=tol, mu=tuple(mu))

    def bordered(rho, res, mu):   # Newton's bordered residual and its sup norm
        full = np.concatenate([res.ravel() + U @ mu, rho.ravel() @ C])
        return full, float(np.max(np.abs(full)))

    def line_search(step, bound, halvings):
        """(rho, mu, bordered residual, its norm, residual, geometry, scale,
        halving) of the first iterate rho + scale * step, scale = 2^-halving
        for halving = 0..halvings, that is positive, has psi defined on it,
        is admissible and has a finite norm below bound; None if none has."""
        for halving in range(halvings + 1):
            scale = 0.5**halving
            cand = rho + scale * step[:rho.size].reshape(grid.shape)
            if not np.all(cand > 0):
                continue
            diag.residual_evals[-1] += 1
            try:
                cand_res, cand_geo = _residual_raw(cand, grid, op, psi)
            except DomainError:   # psi.evaluate refuses the candidate surface
                continue
            cand_mu = mu + scale * step[rho.size:]
            cand_full, cand_norm = bordered(cand, cand_res, cand_mu)
            if (np.isfinite(cand_norm) and cand_norm < bound
                    and not _inadmissible_nodes(op, cand_geo[2])):
                return cand, cand_mu, cand_full, cand_norm, cand_res, cand_geo, scale, halving
        return None

    def timed(log, f, *args):
        """f(*args), its time added to log[-1] (also when it raises)."""
        t0 = perf_counter()
        try:
            return f(*args)
        finally:
            log[-1] += perf_counter() - t0

    def failure(message):
        return ConvergenceError(message, last_surface=RadialSurfaceField(rho, grid),
                                diagnostics=diag)

    full, norm = bordered(rho, res, mu)
    lu = _handoff.lu if _handoff is not None else None
    contracted = lu is not None
    for _ in range(opts.max_iter):
        diag.iterations.append((norm, 0.0, 0))
        if norm <= tol and np.all(np.abs(mu) <= tol):
            diag.converged = True
            if _handoff is not None:
                _handoff.lu, _handoff.residual, _handoff.geometry = lu, res, geo
            return RadialSurfaceField(rho, grid), diag
        if norm <= tol:   # F = -U mu: psi is obstructed, no solution up to translation
            raise failure(f"gauge multiplier |mu| = {np.max(np.abs(mu)):.3e} > tol")
        diag.residual_evals.append(0)   # this step's record: times add into [-1]
        diag.jacobian_s.append(0.0)
        diag.linsolve_s.append(0.0)
        diag.line_search_s.append(0.0)
        diag.factored.append(False)
        # the chord step, with the factor in hand, is the line search with
        # bound theta * norm and no halving; a fresh factor's step follows it
        for chord in (True, False)[not contracted:]:
            if not chord:
                lu = None   # one factor alive at a time (a handoff keeps its own)
                diag.factored[-1] = True
                diag.residual_evals[-1] += 6
                coef = timed(diag.jacobian_s, _jacobian, rho, grid, op, psi)
                try:
                    lu = timed(diag.linsolve_s, _BlockLU, coef, U, C)
                except np.linalg.LinAlgError as exc:
                    raise failure(f"singular Jacobian: {exc}") from None
            step = timed(diag.linsolve_s, lu.solve, -full)
            bound, halvings = (_CHORD_THETA * norm, 0) if chord else (norm, opts.max_halvings)
            accepted = timed(diag.line_search_s, line_search, step, bound, halvings)
            if accepted is not None:
                break
        else:
            raise failure(f"line search failed after {opts.max_halvings} halvings "
                          f"(residual {norm:.3e})")
        contracted = accepted[3] < _CHORD_THETA * norm
        rho, mu, full, norm, res, geo, scale, halving = accepted
        diag.iterations[-1] = (norm, scale, halving)
        diag.mu = tuple(mu.tolist())
    raise failure(f"no convergence in {opts.max_iter} iterations (residual {norm:.3e}, "
                  f"tol {tol:.3e})")


# ---------------------------------------------------------------------------
# barriers, homotopy, monitoring

def _direction_grid():
    g = SphereGrid(16, 8)
    r_hat, _, _ = g.unit_vectors()
    return r_hat.reshape(-1, 3)


def barrier_check(psi, op, r1, r2=None, tol=1e-12):
    """Barrier margins for psi against the operator's round comparison data.

    Annulus mode (r2 given, r1 < r2): checks psi(X, X/|X|) >= Q(1,..,1)/r1^k
    on |X| = r1, <= Q(1,..,1)/r2^k on |X| = r2, and the radial monotonicity
    d/drho (rho^k psi) <= 0 along [r1, r2] at fixed direction and fixed nu.
    Single-radius mode (r2 None): only the upper bound at |X| = r1.

    worst_value is the minimum normalized margin over all samples.
    """
    if not r1 > 0:
        raise DomainError(f"need r1 > 0, got {r1}")
    if r2 is not None and not r1 < r2:
        raise DomainError("need r1 < r2 in annulus mode")
    q_round = float(q_eval(op, tuple([1.0] * op.n)))
    dirs = _direction_grid()
    details = {}
    worst = _Worst()   # the spheres' margins, then monotonicity's

    def sphere_margin(radius, sense):
        X = radius * dirs
        vals = psi.evaluate(X, dirs)
        bound = q_round / radius**op.k
        margins = (vals - bound) / bound if sense == "lower" else (bound - vals) / bound
        worst.offer(margins, lambda i: (tuple(X[i]), None))
        return float(np.min(margins))

    if r2 is None:
        details["upper_margin"] = sphere_margin(r1, "upper")
    else:
        details["inner_margin"] = sphere_margin(r1, "lower")
        details["outer_margin"] = sphere_margin(r2, "upper")
        # radial monotonicity: centered differences of rho^k psi at fixed nu,
        # one psi call per 4 normals (memory grows with the chunk); rho^k by
        # scalar pow (numpy's array pow differs in the last bit for k = 3)
        rhos = np.linspace(r1, r2, 33)
        X = rhos[:, None, None] * dirs
        rho_k = np.array([r**op.k for r in rhos])[:, None]
        nus = np.concatenate([dirs, np.eye(3), -np.eye(3)], axis=0)
        mono = _Worst()
        for chunk in np.split(nus, range(4, len(nus), 4)):
            g = np.broadcast_to(rho_k * psi.evaluate(X, chunk[:, None, None, :]),
                                chunk.shape[:1] + X.shape[:-1])
            dg = (g[:, 2:] - g[:, :-2]) / (2.0 * (rhos[1] - rhos[0]))
            # fmax skips NaN, so a NaN of psi fails at its own point, not the whole normal's
            scales = 1.0 + np.fmax.reduce(np.abs(g), axis=(1, 2)) / (r2 - r1)
            for nu, d, scale in zip(chunk, dg, scales):
                mono.offer(-d / scale, lambda i, j: ((tuple(X[i + 1, j]), tuple(nu)), None))
        details["monotonicity_margin"] = mono.value
        worst.offer(np.array([mono.value]), lambda i: (mono.witness, None))
    return VerificationReport(passed=bool(worst.value >= -tol), trials=dirs.shape[0],
                              worst_value=worst.value, seed=0, witness=worst.witness,
                              details=details)


class _BlendedPsi:
    """Interpolant between the round comparison datum and the target psi
    through inverse k-th-power blending."""

    def __init__(self, psi, op, t, eps):
        self.psi = psi
        self.op = op
        self.t = float(t)
        self.eps = float(eps)
        self.q_round = float(q_eval(op, tuple([1.0] * op.n)))

    def datum(self, r):
        k = self.op.k
        return self.q_round * ((1.0 + self.eps) / r**k - self.eps)

    def evaluate(self, X, nu):
        d = self.datum(np.sqrt((X * X).sum(-1)))
        if np.any(d.real <= 0):
            raise DomainError("comparison datum not positive on this surface")
        k = self.op.k
        if self.t == 0.0:
            return d
        f = self.psi.evaluate(X, nu)
        return (self.t * f ** (-1.0 / k) + (1.0 - self.t) * d ** (-1.0 / k)) ** (-k)


@dataclass
class HomotopyPath:
    ts: list
    surfaces: list
    fields: list           # (residual, kappa, support) per accepted step, from Newton
    final_diagnostics: NewtonDiagnostics


def homotopy_solve(op, psi, grid, r1, r2, steps=20, eps=1e-2, opts=None,
                   check_barrier=True):
    """Continuation from the round solution of the eps-modified radial
    problem to psi, with Newton at each parameter value.

    The comparison datum is Q(1,..,1) * [(1+eps)/rho^k - eps]; its round
    solution (radius from a bracketed scalar solve) seeds t = 0, and the
    parameter advances with adaptive bisection of the step (halving on a
    failed step, down to 1e-4; re-expanding after successes).  Newton
    starts from the secant prediction through the last two accepted
    surfaces, rho_t + (t_next - t)/(t - t_prev) (rho_t - rho_prev) (from
    the last accepted surface while only one is known; Allgower & Georg,
    Numerical Continuation Methods, 1990, ch. 2).  A step fails when the
    prediction is not positive everywhere, when it is not admissible
    (ConeExitError) or when Newton does not converge (ConvergenceError).
    As dt shrinks the prediction tends to the last accepted surface, which
    is admissible.

    psi must satisfy the annulus barrier unless check_barrier is False;
    steps < 1 raises DomainError.
    """
    if steps < 1:
        raise DomainError(f"need steps >= 1, got {steps}")
    if check_barrier:
        rep = barrier_check(psi, op, r1, r2)
        if not rep.passed:
            raise DomainError(
                f"psi fails the barrier check (worst margin {rep.worst_value:.3e}); "
                "refusing to start the continuation"
            )
    probe = _BlendedPsi(psi, op, 0.0, eps)

    def round_residual(r):
        kappa = tuple([1.0 / r] * op.n)
        return float(q_eval(op, kappa)) - probe.datum(r)

    r0 = _bracketed_root(round_residual, 1e-3, 1e3)
    handoff = _Handoff()
    ts, surfaces, fields = [], [], []

    def accept(t, surface):
        _, _, kappa, support = handoff.geometry
        ts.append(t)
        surfaces.append(surface)
        fields.append((handoff.residual, kappa, support))

    surface, diag = newton_solve(RadialSurfaceField.sphere(grid, r0), op, probe, opts, handoff)
    accept(0.0, surface)
    t = 0.0
    base_dt = 1.0 / steps
    dt = base_dt
    while t < 1.0:
        t_next = min(1.0, t + dt)
        rho = surface.rho
        if len(ts) > 1:
            rho = rho + (t_next - t) / (t - ts[-2]) * (rho - surfaces[-2].rho)
        step = _continuation_step(rho, grid, op, _BlendedPsi(psi, op, t_next, eps), opts,
                                  handoff)
        if step is None:
            dt *= 0.5
            if dt < 1e-4:
                raise ContinuationError(
                    f"continuation step underflow below 0.0001 at t={t:.6f}",
                    last_t=t,
                    path=HomotopyPath(ts, surfaces, fields, diag),
                )
            continue
        surface, diag = step
        t = t_next
        accept(t, surface)
        dt = min(base_dt, dt * 2.0)
    return HomotopyPath(ts=ts, surfaces=surfaces, fields=fields, final_diagnostics=diag)


def _continuation_step(rho, grid, op, psi, opts, handoff):
    """Newton's (surface, diagnostics) from the start rho, or None when the
    step fails: rho not positive everywhere, not admissible, or Newton not
    converging.  Newton first tries handoff's factor, and on success leaves
    its own factor and the accepted residual and geometry there."""
    if not np.all(rho > 0):
        return None
    try:
        return newton_solve(RadialSurfaceField(rho, grid), op, psi, opts, handoff)
    except (ConeExitError, ConvergenceError):
        return None


def _bracketed_root(f, lo, hi):
    """A root of the scalar f in [lo, hi]: the first of 121 geometric grid
    points where f is 0, else the first sign change between neighbours,
    bisected down to adjacent floats a < b; returns a, at which f keeps the
    sign it has on the left of the change."""
    grid = np.geomspace(lo, hi, 121)
    vals = [f(r) for r in grid]
    for a, b, fa, fb in zip(grid, grid[1:], vals, vals[1:]):
        if fa == 0.0:
            return float(a)
        if fa * fb < 0:
            while a < (m := 0.5 * (a + b)) < b:
                fm = f(m)
                if fm == 0.0:
                    return float(m)
                if (fm < 0) == (fa < 0):
                    a = m
                else:
                    b = m
            return float(a)
    raise DomainError("no round solution of the comparison problem in the bracket")


def curvature_monitor(surface, z=0.0):
    """Diagnostics of one surface: max kappa_1, min support, power sums
    P_m = sum_j kappa_j^m (max over nodes) and max of log P_m - m*z*log u."""
    geo = surface_geometry(surface)
    return _monitor_record(geo.kappa, geo.support, z)


def _monitor_record(kappa, support, z=0.0):
    """curvature_monitor's record from the surface's principal curvatures
    and support."""
    record = {
        "max_kappa1": float(np.max(kappa[..., 0])),
        "min_support": float(np.min(support)),
        "is_convex": bool(np.all(kappa[..., 1] > 0)),
        "p_moments": {},
        "test_function": {},
        "z": float(z),
    }
    log_u = np.log(support)
    for m in (2, 6, 10):
        p_m = (kappa**m).sum(axis=-1)
        record["p_moments"][m] = float(np.max(p_m))
        record["test_function"][m] = float(np.max(np.log(p_m) - m * z * log_u))
    return record


def monitor_path(path):
    """curvature_monitor's record of each step, from the curvatures and support
    in path.fields, plus their maxima over the whole continuation path."""
    records = [_monitor_record(kappa, support) for _, kappa, support in path.fields]
    summary = {
        "max_kappa1": max(r["max_kappa1"] for r in records),
        "min_support": min(r["min_support"] for r in records),
        "p_moments": {
            m: max(r["p_moments"][m] for r in records) for m in records[0]["p_moments"]
        },
    }
    return records, summary


# ---------------------------------------------------------------------------
# CSV export (repr() of Python floats round-trips IEEE doubles exactly)

def _formatted(columns):
    """Each column's cells as csv.writer formats them: repr of a float, str of
    anything else, each ndarray converted once; a tuple holds cells already
    formatted."""
    return [col if isinstance(col, tuple) else
            map(repr if col.dtype.kind == "f" else str, col.tolist()) for col in columns]


def _write_csv(path, header, columns):
    """Write a CSV in one pass, byte for byte as csv.writer writes cells that
    need no quoting: the _formatted columns joined by "," and rows ended by
    "\r\n"."""
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join([",".join(header), *map(",".join, zip(*_formatted(columns)))])
                 + "\r\n")


@functools.lru_cache(maxsize=None)
def _grid_cells(grid):
    """Each node's lon_index,lat_index,phi,theta cells, joined, once per grid."""
    lat, lon = np.indices(grid.shape)
    return tuple(map(",".join, zip(*_formatted(
        [lon.ravel(), lat.ravel(), grid.phi[lon].ravel(), grid.theta[lat].ravel()]))))


def write_solution_csv(path, surface, op, psi):
    """One row per node: lon_index,lat_index,phi,theta,rho,kappa1,kappa2,support,residual.
    Returns the residual column, Q(kappa) - psi per node (shape (n_lat, n_lon))."""
    res, (_, _, kappa, support) = _residual_raw(surface.rho, surface.grid, op, psi)
    _write_solution(path, surface, res, kappa, support)
    return res


def _write_solution(path, surface, res, kappa, support):
    """write_solution_csv's file from the surface's fields."""
    _write_csv(path, ["lon_index", "lat_index", "phi", "theta", "rho",
                      "kappa1", "kappa2", "support", "residual"],
               [_grid_cells(surface.grid), surface.rho.ravel(), kappa[..., 0].ravel(),
                kappa[..., 1].ravel(), support.ravel(), res.ravel()])


def write_path_csv(out_dir, path):
    """Per-step solution CSVs plus path.csv of t,max_kappa1,min_support,residual_norm,
    from the residual, curvatures and support that Newton left on the path
    (the bytes write_solution_csv writes for each surface and its datum)."""
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    for idx, (t, surface, (res, kappa, support)) in enumerate(
            zip(path.ts, path.surfaces, path.fields)):
        _write_solution(os.path.join(out_dir, f"surface_{idx:04d}.csv"),
                        surface, res, kappa, support)
        rows.append((t, np.max(kappa[..., 0]), np.min(support), np.max(np.abs(res))))
    _write_csv(os.path.join(out_dir, "path.csv"),
               ["t", "max_kappa1", "min_support", "residual_norm"], np.array(rows, dtype=float).T)
