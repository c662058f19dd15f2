"""Rotation utilities, weighted Procrustes alignment, and camera projections.

All rotations are plain 3x3 numpy arrays. Angles are radians everywhere;
degrees appear only in benchmark reports. Every SVD projection onto SO(3),
Procrustes included, is project_to_so3, so one uniqueness rule decides when
such a rotation is not determined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError, InvalidRotationError

ROTATION_TOL = 1e-9


def _orthonormal_rows(r, rows):
    """``r`` as a float array after the checks both validators share: shape
    (rows, 3), finite entries and orthonormal rows to ROTATION_TOL."""
    r = np.asarray(r, dtype=float)
    if r.shape != (rows, 3):
        raise InvalidRotationError(f"expected {rows}x3 matrix, got shape {r.shape}")
    if not np.all(np.isfinite(r)):
        raise InvalidRotationError("matrix has non-finite entries")
    if np.max(np.abs(r @ r.T - np.eye(rows))) > ROTATION_TOL:
        raise InvalidRotationError("rows are not orthonormal")
    return r


def check_rotation(r):
    """Validate that ``r`` is a proper rotation matrix; returns it as float array."""
    r = _orthonormal_rows(r, 3)
    if abs(np.linalg.det(r) - 1.0) > ROTATION_TOL:
        raise InvalidRotationError("matrix determinant is not +1")
    return r


def check_stiefel_rows(rbar):
    """Validate a 2x3 matrix with orthonormal rows (top two rows of a rotation)."""
    return _orthonormal_rows(rbar, 2)


def lift_stiefel(rbar):
    """Complete a 2x3 row-orthonormal matrix to a rotation (third row = r1 x r2)."""
    rbar = check_stiefel_rows(rbar)
    return np.vstack([rbar, np.cross(rbar[0], rbar[1])])


def hat(v):
    """Skew-symmetric matrix of a 3-vector."""
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def so3_exp(omega):
    """Rodrigues formula: rotation matrix for an axis-angle 3-vector."""
    omega = np.asarray(omega, dtype=float)
    theta = np.linalg.norm(omega)
    k = hat(omega)
    if theta < 1e-8:
        # second-order series, accurate to ~1e-16 at this scale
        return np.eye(3) + k + 0.5 * (k @ k)
    return (
        np.eye(3)
        + (np.sin(theta) / theta) * k
        + ((1.0 - np.cos(theta)) / theta**2) * (k @ k)
    )


def spd_solve3(a, *rhs):
    """Solutions x of A x = b for each b in ``rhs``, for the symmetric 3x3 A
    given by its lower triangle (a00, a10, a11, a20, a21, a22), by its
    Cholesky factor in float arithmetic; None when a pivot is not positive."""
    a00, a10, a11, a20, a21, a22 = a
    if not a00 > 0.0:
        return None
    l00 = math.sqrt(a00)
    l10, l20 = a10 / l00, a20 / l00
    pivot = a11 - l10 * l10
    if not pivot > 0.0:
        return None
    l11 = math.sqrt(pivot)
    l21 = (a21 - l20 * l10) / l11
    pivot = a22 - l20 * l20 - l21 * l21
    if not pivot > 0.0:
        return None
    l22 = math.sqrt(pivot)
    out = []
    for b0, b1, b2 in rhs:
        f0 = b0 / l00
        f1 = (b1 - l10 * f0) / l11
        x2 = (b2 - l20 * f0 - l21 * f1) / l22 / l22
        x1 = (f1 - l21 * x2) / l11
        out.append(((f0 - l10 * x1 - l20 * x2) / l00, x1, x2))
    return out


def so3_newton_rows(rows, grad, hess):
    """Rows of R exp(hat(w)) at R = ``rows`` (nested lists) for the Newton step
    w = -H^-1 g, in float arithmetic; None when a Cholesky pivot of H, given by
    its lower triangle (h00, h10, h11, h20, h21, h22), is not positive."""
    solved = spd_solve3(hess, grad)
    if solved is None:
        return None
    w0, w1, w2 = (-x for x in solved[0])
    # Rodrigues: r exp(hat(w)) = r + a r x w + b ((r.w) w - theta^2 r)
    theta2 = w0 * w0 + w1 * w1 + w2 * w2
    theta = math.sqrt(theta2)
    if theta < 1e-8:
        a, b = 1.0, 0.5  # second-order series, accurate to ~1e-16 at this scale
    else:
        a, b = math.sin(theta) / theta, (1.0 - math.cos(theta)) / theta2
    c = 1.0 - b * theta2
    new = []
    for r0, r1, r2 in rows:
        rw = b * (r0 * w0 + r1 * w1 + r2 * w2)
        x0 = c * r0 + a * (r1 * w2 - r2 * w1) + rw * w0
        x1 = c * r1 + a * (r2 * w0 - r0 * w2) + rw * w1
        x2 = c * r2 + a * (r0 * w1 - r1 * w0) + rw * w2
        new.append([x0, x1, x2])
    return new


def so3_log(r):
    """Axis-angle 3-vector of a rotation; stable near theta = 0 and theta = pi."""
    r = check_rotation(r)
    cos_theta = np.clip((np.trace(r) - 1.0) / 2.0, -1.0, 1.0)
    theta = np.arccos(cos_theta)
    skew = 0.5 * np.array([r[2, 1] - r[1, 2], r[0, 2] - r[2, 0], r[1, 0] - r[0, 1]])
    if theta < 1e-7:
        # log(R) ~ skew part; theta/sin(theta) ~ 1 + theta^2/6
        return skew * (1.0 + theta**2 / 6.0)
    if theta < np.pi - 1e-4:
        return skew * (theta / np.sin(theta))
    # Near pi the skew part vanishes; recover the axis from the symmetric part
    # using the largest diagonal pivot of (R + I)/2 = axis axis^T near theta = pi.
    # The sine of the angle is better conditioned than arccos here.
    sin_theta = min(np.linalg.norm(skew), 1.0)
    theta = np.pi - np.arcsin(sin_theta)
    b = 0.25 * (r + r.T) + 0.5 * np.eye(3)  # symmetrized: drops the skew term
    k = int(np.argmax(np.diag(b)))
    axis = np.empty(3)
    axis[k] = np.sqrt(max(b[k, k], 0.0))
    for j in range(3):
        if j != k:
            axis[j] = b[k, j] / axis[k]
    axis /= np.linalg.norm(axis)
    # Pick the sign consistent with the (possibly tiny) skew part.
    if np.dot(axis, skew) < 0.0:
        axis = -axis
    return theta * axis


def geodesic_distance(r1, r2):
    """Geodesic rotation distance ||log(R1^T R2)||_F / sqrt(2), in [0, pi] radians."""
    r1 = check_rotation(r1)
    r2 = check_rotation(r2)
    rel = r1.T @ r2
    # ||log||_F / sqrt(2) equals the rotation angle of the relative rotation.
    cos_theta = np.clip((np.trace(rel) - 1.0) / 2.0, -1.0, 1.0)
    theta = np.arccos(cos_theta)
    if theta > np.pi - 1e-4:
        # arccos loses precision near pi; the log-based angle is stable there
        theta = np.linalg.norm(so3_log(project_to_so3(rel)))
    return float(theta)


def project_to_so3(m):
    """The rotation R maximizing tr(R^T M) for a finite 3x3 ``m``: the closest
    rotation to M in the Frobenius sense, and the Procrustes rotation of a
    cross-covariance M = sum_i w_i a_i b_i^T. With M = U diag(s) V^T it is
    U diag(1, 1, d) V^T for d = det(U V^T), which is unique iff s2 + d s3 > 0
    (Umeyama, TPAMI 1991). DegenerateGeometryError when s2 + min(d, 0) s3 <=
    1e-9 s1: a (near-)collinear configuration for d = +1, a (near-)tied sign
    flip for d = -1.
    """
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3) or not np.all(np.isfinite(m)):
        raise ValueError("expected a finite 3x3 matrix")
    u, s, vt = np.linalg.svd(m)
    d = np.linalg.det(u) * np.linalg.det(vt)
    if s[1] + min(d, 0.0) * s[2] <= 1e-9 * s[0]:
        raise DegenerateGeometryError(
            "the rotation is not determined: the weighted configuration is "
            "(near-)collinear, or a reflection ties two rotations"
        )
    return u @ np.diag([1.0, 1.0, d]) @ vt


def weighted_procrustes(a, b, w):
    """Rotation minimizing sum_i w_i ||a_i - R b_i||^2 (no translation): the
    projection to SO(3) of the cross-covariance sum_i w_i a_i b_i^T.

    ``a`` and ``b`` are 3xp point sets, ``w`` nonnegative per-point weights.
    DegenerateGeometryError when fewer than 3 points carry weight or the
    rotation is not unique (see project_to_so3).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    w = np.asarray(w, dtype=float)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != 3:
        raise ValueError("point sets must both be 3xp")
    if w.shape != (a.shape[1],):
        raise ValueError("weight vector length must match the point count")
    if np.any(w < 0.0):
        raise ValueError("weights must be nonnegative")
    if np.count_nonzero(w > 0.0) < 3:
        raise DegenerateGeometryError("need at least 3 positively weighted points")
    return project_to_so3((a * w) @ b.T)


def near_coplanar(points):
    """Whether 3xp points are (near-)coplanar: the smallest singular value of
    the centred points is at most 1e-6 of the largest."""
    centered = points - points.mean(axis=1, keepdims=True)
    sv = np.linalg.svd(centered, compute_uv=False)
    return bool(sv[2] <= 1e-6 * max(sv[0], 1e-300))


def project_weak(s, rbar, tbar, shape):
    """Weak-perspective projection s * Rbar * S + Tbar 1^T of a 3xp shape."""
    if s <= 0.0:
        raise ValueError("weak-perspective scale must be positive")
    rbar = np.asarray(rbar, dtype=float)
    tbar = np.asarray(tbar, dtype=float).reshape(2)
    shape = np.asarray(shape, dtype=float)
    return s * rbar @ shape + tbar[:, None]


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics: focal lengths and principal point in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    skew: float = 0.0

    def __post_init__(self):
        if not (self.fx > 0.0 and self.fy > 0.0):
            raise ValueError("focal lengths must be positive")
        if not np.isfinite([self.fx, self.fy, self.cx, self.cy, self.skew]).all():
            raise ValueError("intrinsics must be finite")

    def project(self, points):
        """Pinhole projection of 3xp camera-frame points to 2xp pixels."""
        points = np.asarray(points, dtype=float)
        if np.any(points[2] <= 0.0):
            raise DegenerateGeometryError("points behind the camera cannot be projected")
        return self.denormalize(points)

    def denormalize(self, normalized):
        """Map 3xp normalized homogeneous coordinates back to 2xp pixels."""
        normalized = np.asarray(normalized, dtype=float)
        xn = normalized[0] / normalized[2]
        yn = normalized[1] / normalized[2]
        return np.vstack(
            [self.fx * xn + self.skew * yn + self.cx, self.fy * yn + self.cy]
        )


def normalize_keypoints(w, intrinsics):
    """Normalized homogeneous coordinates (3xp) of 2xp pixel keypoints."""
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[0] != 2:
        raise ValueError("keypoints must be a 2xp matrix")
    yn = (w[1] - intrinsics.cy) / intrinsics.fy
    xn = (w[0] - intrinsics.cx - intrinsics.skew * yn) / intrinsics.fx
    return np.vstack([xn, yn, np.ones(w.shape[1])])
