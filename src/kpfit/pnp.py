"""Rigid-model PnP baseline: DLT initialization plus damped Gauss-Newton.

Mirrors the greedy comparison protocol: heatmap-peak keypoints, a fixed 3D
model, and no confidence weighting. Planar configurations are rejected
(a documented limitation relative to EPnP).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BehindCameraError,
    DegenerateGeometryError,
    InsufficientConstraintsError,
)
from .geometry import near_coplanar, normalize_keypoints, project_to_so3, so3_exp

# Gauss-Newton steps of the refinement, at most
_MAX_ITERATIONS = 100


@dataclass
class PnPEstimate:
    rotation: np.ndarray
    translation: np.ndarray
    reprojection_rmse: float


def _dlt_pose(points3d, points2d_norm):
    """Pose from the direct linear transform on normalized coordinates."""
    p = points3d.shape[1]
    xh = np.vstack([points3d, np.ones(p)]).T  # p x 4 homogeneous points
    a = np.zeros((p, 2, 12))  # rows 2i and 2i+1 of the DLT system
    a[:, 0, 0:4] = xh
    a[:, 0, 8:12] = -points2d_norm[0, :, None] * xh
    a[:, 1, 4:8] = xh
    a[:, 1, 8:12] = -points2d_norm[1, :, None] * xh
    a = a.reshape(2 * p, 12)
    _, _, vt = np.linalg.svd(a)
    proj = vt[-1].reshape(3, 4)
    # sign: most points should end up in front of the camera
    depths = proj[2, :3] @ points3d + proj[2, 3]
    if np.median(depths) < 0.0:
        proj = -proj
    m = proj[:, :3]
    sv = np.linalg.svd(m, compute_uv=False)
    scale = 1.0 / np.mean(sv)
    rotation = project_to_so3(m)
    translation = scale * proj[:, 3]
    return rotation, translation


def _reprojection_residuals(points3d, points2d, intrinsics, rotation, translation):
    cam = rotation @ points3d + translation[:, None]
    if np.any(cam[2] <= 0.0):
        return None, None
    resid = intrinsics.denormalize(cam) - points2d
    return resid.T.ravel(), cam


def _reprojection_jacobian(points3d, cam, rotation, intrinsics):
    """Jacobian (2p x 6) of the stacked pixel residuals with respect to
    (omega, T), for the rotation perturbed as R <- R exp(hat(omega))."""
    p = points3d.shape[1]
    u0, u1, u2 = cam
    dpi = np.zeros((p, 2, 3))  # pixel projection Jacobian at each camera point
    dpi[:, 0, 0] = intrinsics.fx / u2
    dpi[:, 0, 1] = intrinsics.skew / u2
    dpi[:, 0, 2] = -(intrinsics.fx * u0 + intrinsics.skew * u1) / u2**2
    dpi[:, 1, 1] = intrinsics.fy / u2
    dpi[:, 1, 2] = -intrinsics.fy * u1 / u2**2
    hats = np.zeros((p, 3, 3))  # hat(x_i): x_i at (2,1), (0,2), (1,0), -x_i mirrored
    hats[:, [2, 0, 1], [1, 2, 0]] = points3d.T
    hats[:, [1, 2, 0], [2, 0, 1]] = -points3d.T
    du_domega = -rotation @ hats
    return np.concatenate([dpi @ du_domega, dpi], axis=2).reshape(2 * p, 6)


def _rmse(residuals, p):
    return float(np.sqrt(np.sum(residuals**2) / p))


def solve_pnp(points3d, points2d, intrinsics):
    """Estimate pose of a rigid 3xp model from 2xp pixel keypoints.

    DLT on normalized coordinates, projected to SO(3), then refined by
    Levenberg-damped Gauss-Newton on unweighted pixel reprojection error.
    """
    points3d = np.asarray(points3d, dtype=float)
    points2d = np.asarray(points2d, dtype=float)
    if points3d.ndim != 2 or points3d.shape[0] != 3:
        raise ValueError("points3d must be 3xp")
    if points2d.shape != (2, points3d.shape[1]):
        raise ValueError("points2d must be 2xp matching points3d")
    p = points3d.shape[1]
    if p < 6:
        raise InsufficientConstraintsError("PnP baseline needs at least 6 points")
    if near_coplanar(points3d):
        raise DegenerateGeometryError(
            "coplanar 3D points: the DLT baseline does not handle planar scenes"
        )

    norm2d = normalize_keypoints(points2d, intrinsics)[:2]
    rotation, translation = _dlt_pose(points3d, norm2d)

    residuals, cam = _reprojection_residuals(
        points3d, points2d, intrinsics, rotation, translation
    )
    if residuals is None:
        raise BehindCameraError("DLT initialization places points behind the camera")
    rmse = _rmse(residuals, p)

    damping = 1e-3
    for _ in range(_MAX_ITERATIONS):
        jac = _reprojection_jacobian(points3d, cam, rotation, intrinsics)
        gradient = jac.T @ residuals
        if np.linalg.norm(gradient) < 1e-12:
            break
        hess = jac.T @ jac
        step = np.linalg.solve(hess + damping * np.eye(6), -gradient)
        cand_rot = rotation @ so3_exp(step[:3])
        cand_t = translation + step[3:]
        cand_res, cand_cam = _reprojection_residuals(
            points3d, points2d, intrinsics, cand_rot, cand_t
        )
        cand_rmse = np.inf if cand_res is None else _rmse(cand_res, p)
        if cand_rmse < rmse:
            improvement = rmse - cand_rmse
            rotation, translation = cand_rot, cand_t
            residuals, cam, rmse = cand_res, cand_cam, cand_rmse
            damping = max(damping / 10.0, 1e-12)
            if improvement < 1e-14 * max(rmse, 1.0):
                break
        else:
            damping *= 10.0
            if damping > 1e12:
                break

    if np.any(cam[2] <= 0.0):
        raise BehindCameraError("refined pose places points behind the camera")
    return PnPEstimate(rotation=rotation, translation=translation, reprojection_rmse=rmse)
