"""Full-perspective fit: rotation, translation, shape coefficients, depths.

Minimizes the weighted cost with the ray residual W~ Z - R S - T 1^T, where
W~ holds normalized homogeneous keypoint coordinates and Z per-point depths.
Eliminating each depth leaves the object-space projector I - v v^T / |v|^2 of
its ray (Lu, Hager & Mjolsness, TPAMI 2000). Each iteration runs two exact
blocks on that form, each followed by the depths as ray projections:

- Block A fixes R: T and c solve one (3+k)x(3+k) ridge system.
- Block B fixes c: with T eliminated too, safeguarded Newton steps on SO(3)
  minimize the 9x9 form vec(R)^T Omega(c) vec(R) (Hesch & Roumeliotis, "DLS",
  ICCV 2011). A step is one stacked contraction of Omega with R and the float
  Newton update on SO(3) that the weak-perspective rows solver also takes.

A block that would raise the cost (in block B, by more than 8 ulps), or pin a
confident depth at the floor in block B, solves for the current depths
instead: (T, c) in block A, weighted Procrustes in block B. The fit starts
from the weak-perspective solution.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BehindCameraError, DegenerateGeometryError
from .geometry import (
    hat, near_coplanar, normalize_keypoints, project_to_so3, so3_newton_rows,
    weighted_procrustes,
)
from .observations import KeypointObservations
from .shape_basis import compose_shape
from .wp_solver import SolverOptions, _checked_inputs, _cleaned_w, _tied, solve_wp

DEPTH_FLOOR_FACTOR = 1e-6

logger = logging.getLogger(__name__)


@dataclass
class FPEstimate:
    """Full-perspective solution with per-keypoint depths and fit diagnostics."""

    rotation: np.ndarray
    translation: np.ndarray
    c: np.ndarray
    depths: np.ndarray
    final_cost: float
    iterations: int
    converged: bool
    diagnostic: str = ""
    block_costs: list = field(default=None, repr=False)

    def __post_init__(self):
        self.rotation = np.asarray(self.rotation, dtype=float)
        self.translation = np.asarray(self.translation, dtype=float).reshape(3)
        self.c = np.asarray(self.c, dtype=float).reshape(-1)
        self.depths = np.asarray(self.depths, dtype=float).reshape(-1)


def _ray_cost(wt, d, rotation, translation, shape, c, depths, lam):
    """cost_fp on cleaned, normalized keypoints and an already composed shape."""
    resid = wt * depths - rotation @ shape - translation[:, None]
    return float(
        0.5 * np.sum(d * np.sum(resid**2, axis=0)) + 0.5 * lam * np.sum(c**2)
    )


def cost_fp(obs, intrinsics, basis, rotation, translation, c, depths, lam):
    """Weighted ray-residual cost with Tikhonov penalty on c."""
    c = np.asarray(c, dtype=float).reshape(-1)
    return _ray_cost(
        normalize_keypoints(_cleaned_w(obs), intrinsics),
        obs.d,
        np.asarray(rotation, dtype=float),
        np.asarray(translation, dtype=float).reshape(3),
        compose_shape(basis, c),
        c,
        np.asarray(depths, dtype=float).reshape(-1),
        lam,
    )


def fp_cost_gradient(obs, intrinsics, basis, rotation, translation, c, depths, lam):
    """Analytic gradient of cost_fp.

    Returns (g_t, g_c, g_z, g_omega); g_omega is with respect to a right
    tangent perturbation rotation @ exp(hat(omega)).
    """
    c = np.asarray(c, dtype=float).reshape(-1)
    rotation = np.asarray(rotation, dtype=float)
    translation = np.asarray(translation, dtype=float).reshape(3)
    depths = np.asarray(depths, dtype=float).reshape(-1)
    shape = compose_shape(basis, c)
    wt = normalize_keypoints(_cleaned_w(obs), intrinsics)
    d = obs.d
    resid = wt * depths - rotation @ shape - translation[:, None]
    wr = resid * d

    g_t = -np.sum(wr, axis=1)
    g_z = d * np.sum(resid * wt, axis=0)
    g_c = -np.einsum("ap,jap->j", wr, rotation @ basis.modes) + lam * c
    # d/d omega_j of rotation exp(hat(omega)) S_i is rotation (e_j x S_i)
    g_omega = -np.sum(np.cross(shape, rotation.T @ wr, axis=0), axis=1)
    return g_t, g_c, g_z, g_omega


def _object_space_form(wt, d, basis):
    """The stack d_i P_i and a table whose rows (j, l) hold K_jl - L_j^T A^-1 L_l
    and, for j = 0, A^-1 L_l, for A = sum_i d_i P_i, L_j = sum_i d_i (P_i kron
    B_ji^T) and K_jl = sum_i d_i (P_i kron B_ji B_li^T), B_0 = b0, B_j = mode j."""
    k, p = basis.num_modes, basis.num_keypoints
    # d_i (I - v_i v_i^T / |v_i|^2): the weighted object-space projector of ray i
    outer = np.einsum("ap,bp->pab", wt, wt) / np.sum(wt**2, axis=0)[:, None, None]
    dproj = d[:, None, None] * (np.eye(3) - outer)
    amat = dproj.sum(axis=0)
    spread = np.linalg.eigvalsh(amat)
    if spread[0] <= 1e-12 * spread[-1]:
        raise DegenerateGeometryError("all confident keypoints lie on one ray")
    flat = np.concatenate([basis.b0[None], basis.modes]).reshape(-1, p)
    ltens = (flat @ dproj.reshape(p, 9)).reshape(k + 1, 3, 3, 3).transpose(2, 0, 3, 1)
    ainv_l = np.linalg.solve(amat, ltens.reshape(3, -1)).reshape(3, k + 1, 9)
    ktens = (flat[:, None] * flat[None]).reshape(-1, p) @ dproj.reshape(p, 9)
    ktens = ktens.reshape(k + 1, 3, k + 1, 3, 3, 3).transpose(0, 2, 4, 1, 5, 3)
    schur = np.einsum("ajm,aln->jlmn", ltens.reshape(3, k + 1, 9), ainv_l)
    table = np.zeros((k + 1, k + 1, 108))
    table[..., :81] = (ktens.reshape(schur.shape) - schur).reshape(k + 1, k + 1, 81)
    table[0, :, 81:] = ainv_l.transpose(1, 0, 2).reshape(k + 1, 27)
    return dproj, table.reshape(-1, 108)


def _rotation_form(table, c):
    """Omega = K(gamma) - L(gamma)^T A^-1 L(gamma) and A^-1 L(gamma), gamma = (1, c),
    in one contraction. With x = vec(R) (row-major), T = -A^-1 L(gamma) x and every
    depth its ray projection, the cost is 1/2 x^T Omega x + lam/2 |c|^2."""
    gamma = np.concatenate([[1.0], c])
    form = np.outer(gamma, gamma).ravel() @ table
    return form[:81].reshape(9, 9), form[81:].reshape(3, 9)


# R times I, hat(e_a) and sym(e_a e_b^T) - delta_ab I for b <= a
_STACK = np.array([np.eye(3), *map(hat, np.eye(3))] + [
    (np.outer(e, f) + np.outer(f, e)) / 2 - (e @ f) * np.eye(3)
    for a, e in enumerate(np.eye(3)) for f in np.eye(3)[: a + 1]
])


def _form_derivatives(omega, rotation):
    """Omega x, the gradient J omega x and the Hessian J^T omega J + sym(G) -
    tr(G) I (J = [vec(R hat(e_a))], G = R^T mat(omega x)) of w -> 1/2 x^T omega x
    at x = vec(R exp(hat(w))), w = 0. With V = vec(R _STACK), row 0 of V[:4]
    omega V^T holds the gradient and <G, _STACK[4:]>, rows 1-3 J omega J^T."""
    stack = (rotation @ _STACK).reshape(-1, 9)
    left = stack[:4] @ omega
    top, *jwj = (left @ stack.T).tolist()
    lower = jwj[0][1:2] + jwj[1][1:3] + jwj[2][1:4]
    return left[0], top[1:4], [h + s for h, s in zip(lower, top[4:])]


def _minimize_form(omega, rotation, max_steps=50):
    """Rotation minimizing 1/2 vec(R)^T omega vec(R), from ``rotation``. A Newton
    step R exp(hat(w)) is kept only when the Hessian has a Cholesky factor and
    the form does not rise; otherwise one majorization step
    proj_SO(3)(l_max R - mat(omega vec R)) is taken, which cannot raise it.
    Steps are compared by the change 1/2 (y - x)^T (omega y + omega x), whose
    omega y comes with the derivatives at y that the next step reuses."""

    def change(new):
        terms = _form_derivatives(omega, new)
        return 0.5 * float((new.ravel() - rotation.ravel()) @ (terms[0] + mx)), terms

    (mx, grad, hess), top = _form_derivatives(omega, rotation), None
    for _ in range(max_steps):
        tiny = 1e-14 * math.sqrt(mx @ mx)
        new = so3_newton_rows(rotation.tolist(), grad, hess)
        if new is not None:
            step, terms = change(new := np.array(new))
            if 0.0 < step <= tiny:
                break  # a Newton step rejected only by rounding: the block is solved
        if new is None or step > 0.0:
            top = np.linalg.eigvalsh(omega)[-1] if top is None else top
            step, terms = change(new := project_to_so3(top * rotation - mx.reshape(3, 3)))
            if step > 0.0:
                break  # rounding: a majorization step cannot raise the form
        rotation, (mx, grad, hess) = new, terms
        if -step <= tiny:
            break
    return rotation


def wp_to_fp_init(wp, intrinsics=None):
    """Rotation/translation seed from a weak-perspective estimate.

    The weak-perspective scale acts as an inverse depth. Pass ``intrinsics``
    when the weak-perspective fit was done in pixel units; leave it None when
    it was done in normalized coordinates.
    """
    rotation = wp.rotation()
    if intrinsics is None:
        s_n = wp.s
        tx, ty = wp.tbar
    else:
        s_n = wp.s / np.sqrt(intrinsics.fx * intrinsics.fy)
        tx, ty, _ = normalize_keypoints(wp.tbar[:, None], intrinsics)[:, 0]
    translation = np.array([tx / s_n, ty / s_n, 1.0 / s_n])
    return rotation, translation


def solve_fp(obs, intrinsics, basis, opts=None, init=None):
    """Fit the full-perspective model to confidence-weighted pixel keypoints.

    ``init`` may be a (rotation, translation) pair; otherwise the solver runs
    the weak-perspective solver on normalized coordinates to initialize.
    ``converged`` is True when the relative cost decrease fell below the
    tolerance, False when the fit stopped at ``max_iterations``; an
    ill-posed problem is reported in ``diagnostic``.
    """
    opts = opts or SolverOptions()
    d, lam = _checked_inputs(obs, basis, opts)
    diagnostic = ""
    if near_coplanar(basis.b0):
        diagnostic = "mean shape keypoints are (near-)coplanar; pose is ill-posed"

    w = _cleaned_w(obs)
    wt = normalize_keypoints(w, intrinsics)
    wt_sq = np.sum(wt**2, axis=0)
    k, p = basis.num_modes, basis.num_keypoints
    dproj, table = _object_space_form(wt, d, basis)
    dident = d[:, None, None] * np.eye(3)
    ridge = np.diag(np.concatenate([np.zeros(3), np.full(k, lam)]))
    # per-point design A_i = [I, R m_1i ... R m_ki] acting on (T, c)
    design = np.zeros((p, 3, 3 + k))
    design[:, :, :3] = np.eye(3)

    def block_a(rotation, weights, depths):
        """(T, c) minimizing sum_i |P_i (v_i z_i - R s_i - T)|^2 d_i + lam |c|^2
        for the stack d_i P_i (the depths drop out for ray projectors), then
        ray_depths."""
        design[:, :, 3:] = np.einsum("ab,jbp->paj", rotation, basis.modes)
        wa = weights @ design
        gram = np.einsum("pai,paj->ij", design, wa) + ridge
        rhs = np.einsum("pai,ap->i", wa, wt * depths - rotation @ basis.b0)
        x = np.linalg.solve(gram, rhs)
        shape = compose_shape(basis, x[3:])
        return (x[:3], x[3:], shape, *ray_depths(rotation, x[:3], shape, x[3:]))

    def ray_depths(rotation, t, shape, cc):
        """Depths as clamped ray projections, which the floor pinned, the cost."""
        floor = DEPTH_FLOOR_FACTOR * max(np.linalg.norm(t), 1e-12)
        z = np.sum(wt * (rotation @ shape + t[:, None]), axis=0) / wt_sq
        pinned = z <= floor
        z = np.maximum(z, floor)
        return z, pinned, _ray_cost(wt, d, rotation, t, shape, cc, z, lam)

    if init is not None:
        rotation = np.asarray(init[0], dtype=float)
        translation = np.asarray(init[1], dtype=float).reshape(3)
        c = np.zeros(k)
    else:
        obs_n = KeypointObservations(wt[:2], d, obs.keypoint_names)
        wp = solve_wp(obs_n, basis, opts)
        rotation, translation = wp_to_fp_init(wp)
        c = wp.c.copy()

    shape = compose_shape(basis, c)
    depths = np.sum(wt * (rotation @ shape + translation[:, None]), axis=0) / wt_sq
    current = _ray_cost(wt, d, rotation, translation, shape, c, depths, lam)
    block_costs = [current] if opts.record_block_costs else None
    iterations, converged = 0, False

    for iterations in range(1, opts.max_iterations + 1):
        prev = current

        # block A: (T, c) with the depths eliminated, then the depths; if the
        # floor clamp raises the cost, (T, c) for the current depths instead
        step = block_a(rotation, dproj, depths)
        if step[-1] > current:
            step = block_a(rotation, dident, depths)
        translation, c, shape, depths, pinned, current = step
        if block_costs is not None:
            block_costs.append(current)

        # block B: (R, T) with the depths eliminated, then the depths; on a pinned
        # confident depth or a rise beyond 8 ulps, Procrustes for the current depths
        omega, ainv_lg = _rotation_form(table, c)
        new = _minimize_form(omega, rotation)
        t = -ainv_lg @ new.ravel()
        z, pins, cost = ray_depths(new, t, shape, c)
        if (cost > current and not _tied(cost, current)) or np.any(pins & (d > 0.0)):
            target, sbar = wt * depths, shape @ d / d.sum()
            xbar = target @ d / d.sum()
            new = weighted_procrustes(target - xbar[:, None], shape - sbar[:, None], d)
            t, z, pins = xbar - new @ sbar, depths, pinned
            cost = _ray_cost(wt, d, new, t, shape, c, z, lam)
        rotation, translation, depths, pinned, current = new, t, z, pins, cost
        if block_costs is not None:
            block_costs.append(current)

        if prev - current < opts.relative_tolerance * max(prev, 1e-300):
            converged = True
            break

    if not converged:
        logger.warning(
            "solve_fp stopped at max_iterations=%d before the relative cost "
            "decrease fell below %g",
            opts.max_iterations,
            opts.relative_tolerance,
        )

    # the depths and the pins are those of the last block that set the depths
    clamped = (d > 0.0) & pinned
    if np.any(clamped):
        raise BehindCameraError(
            f"{int(np.count_nonzero(clamped))} keypoint depth(s) pinned at the "
            "positivity floor at convergence"
        )

    return FPEstimate(
        rotation=rotation,
        translation=translation,
        c=c,
        depths=depths,
        final_cost=current,
        iterations=iterations,
        converged=converged,
        diagnostic=diagnostic,
        block_costs=block_costs,
    )
