"""Full-perspective fit: rotation, translation, shape coefficients, depths.

Minimizes the weighted cost with the ray residual W~ Z - R S - T 1^T, where
W~ holds normalized homogeneous keypoint coordinates and Z per-point depths.
Each iteration runs two closed-form blocks, so the cost never increases:

- Block A fixes R. The residual is then linear in (Z, T, c) jointly, and
  eliminating each depth leaves the object-space projector
  I - v v^T / |v|^2 of its ray (Lu, Hager & Mjolsness, TPAMI 2000). T and c
  solve one (3+k)x(3+k) ridge system; each depth becomes the ray projection of
  its model point, clamped to a positive floor.
- Block B fixes Z and c and solves R and T by weighted Procrustes about the
  weighted centroids.

The solve is initialized from the weak-perspective solution.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import BehindCameraError, InsufficientConstraintsError
from .geometry import normalize_keypoints, weighted_procrustes
from .observations import KeypointObservations
from .shape_basis import compose_shape
from .wp_solver import SolverOptions, default_lambda, solve_wp, _cleaned_w

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
        ty = (wp.tbar[1] - intrinsics.cy) / intrinsics.fy
        tx = (wp.tbar[0] - intrinsics.cx - intrinsics.skew * ty) / intrinsics.fx
    translation = np.array([tx / s_n, ty / s_n, 1.0 / s_n])
    return rotation, translation


def _coplanarity_diagnostic(b0):
    centered = b0 - b0.mean(axis=1, keepdims=True)
    sv = np.linalg.svd(centered, compute_uv=False)
    if sv[2] <= 1e-6 * max(sv[0], 1e-300):
        return "mean shape keypoints are (near-)coplanar; pose is ill-posed"
    return ""


def solve_fp(obs, intrinsics, basis, opts=None, init=None):
    """Fit the full-perspective model to confidence-weighted pixel keypoints.

    ``init`` may be a (rotation, translation) pair; otherwise the solver runs
    the weak-perspective solver on normalized coordinates to initialize.
    ``converged`` is True when the relative cost decrease fell below the
    tolerance, False when the fit stopped at ``max_iterations``; an
    ill-posed problem is reported in ``diagnostic``.
    """
    opts = opts or SolverOptions()
    d = np.asarray(obs.d, dtype=float)
    if obs.num_keypoints != basis.num_keypoints:
        raise ValueError("observation and basis keypoint counts differ")
    if np.count_nonzero(d > 0.0) < 4:
        raise InsufficientConstraintsError(
            "need at least 4 keypoints with positive confidence"
        )
    lam = opts.lam if opts.lam is not None else default_lambda(basis)
    diagnostic = _coplanarity_diagnostic(basis.b0)

    w = _cleaned_w(obs)
    wt = normalize_keypoints(w, intrinsics)
    wt_sq = np.sum(wt**2, axis=0)
    dsum = d.sum()
    k, p = basis.num_modes, basis.num_keypoints
    # d_i (I - v_i v_i^T / |v_i|^2): the weighted object-space projector of ray i
    dproj = d[:, None, None] * (
        np.eye(3) - np.einsum("ap,bp->pab", wt, wt) / wt_sq[:, None, None]
    )
    dident = d[:, None, None] * np.eye(3)
    ridge = np.diag(np.concatenate([np.zeros(3), np.full(k, lam)]))
    # per-point design A_i = [I, R m_1i ... R m_ki] acting on (T, c)
    design = np.zeros((p, 3, 3 + k))
    design[:, :, :3] = np.eye(3)

    def block_a(rotation, weights, depths):
        """(T, c) minimizing sum_i |P_i (v_i z_i - R s_i - T)|^2 d_i + lam |c|^2
        for the given stack d_i P_i, then each depth as its clamped ray
        projection, and which depths the floor pinned. With P_i the ray
        projector the depths drop out."""
        design[:, :, 3:] = np.einsum("ab,jbp->paj", rotation, basis.modes)
        wa = weights @ design
        gram = np.einsum("pai,paj->ij", design, wa) + ridge
        rhs = np.einsum("pai,ap->i", wa, wt * depths - rotation @ basis.b0)
        x = np.linalg.solve(gram, rhs)
        t, cc = x[:3], x[3:]
        shape = compose_shape(basis, cc)
        floor = DEPTH_FLOOR_FACTOR * max(np.linalg.norm(t), 1e-12)
        z = np.sum(wt * (rotation @ shape + t[:, None]), axis=0) / wt_sq
        pinned = z <= floor
        z = np.maximum(z, floor)
        cost = _ray_cost(wt, d, rotation, t, shape, cc, z, lam)
        return t, cc, shape, z, pinned, cost

    if init is not None:
        rotation, translation = init
        rotation = np.asarray(rotation, dtype=float)
        translation = np.asarray(translation, dtype=float).reshape(3)
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
    iterations = 0
    converged = False

    for iterations in range(1, opts.max_iterations + 1):
        prev = current

        # block A: (T, c) with the depths eliminated, then the depths. The
        # elimination assumes unconstrained depths; if clamping one at the
        # floor makes the step raise the cost, solve (T, c) for the current
        # depths instead, which is an exact block minimizer
        step = block_a(rotation, dproj, depths)
        if step[-1] > current:
            step = block_a(rotation, dident, depths)
        translation, c, shape, depths, pinned, current = step
        if block_costs is not None:
            block_costs.append(current)

        # block B: weighted Procrustes about the weighted centroids, then the
        # exact translation
        target = wt * depths
        xbar = target @ d / dsum
        sbar = shape @ d / dsum
        rotation = weighted_procrustes(target - xbar[:, None], shape - sbar[:, None], d)
        translation = xbar - rotation @ sbar
        current = _ray_cost(wt, d, rotation, translation, shape, c, depths, lam)
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

    # block B leaves the depths as the last block A set them
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
