import numpy as np
import pytest

from kpfit import (
    CameraIntrinsics,
    DegenerateGeometryError,
    InsufficientConstraintsError,
    geodesic_distance,
    solve_pnp,
)
from kpfit.pnp import (
    _dlt_pose,
    _reprojection_jacobian,
    _reprojection_residuals,
    _rmse,
)
from kpfit.geometry import hat, normalize_keypoints, project_to_so3
from conftest import random_rotation


def make_rigid_scene(seed, p=12, depth=10.0, intrinsics=None):
    rng = np.random.default_rng(seed)
    intrinsics = intrinsics or CameraIntrinsics(800.0, 800.0, 320.0, 240.0)
    points3d = rng.uniform(-1.0, 1.0, (3, p))
    rotation = random_rotation(rng)
    translation = np.array([0.2, -0.1, depth])
    pixels = intrinsics.project(rotation @ points3d + translation[:, None])
    return points3d, rotation, translation, pixels, intrinsics


class TestExactRecovery:
    def test_noiseless_scenes(self):
        for seed in range(20):
            pts, rotation, translation, pixels, k = make_rigid_scene(seed)
            est = solve_pnp(pts, pixels, k)
            assert np.degrees(geodesic_distance(est.rotation, rotation)) < 1e-4
            assert np.max(np.abs(est.translation - translation)) < 1e-4
            assert est.reprojection_rmse < 1e-6

    def test_dlt_alone_is_exact_noiseless(self):
        pts, rotation, translation, pixels, k = make_rigid_scene(50)
        norm2d = normalize_keypoints(pixels, k)[:2]
        r0, t0 = _dlt_pose(pts, norm2d)
        assert np.degrees(geodesic_distance(r0, rotation)) < 1e-4
        assert np.max(np.abs(t0 - translation)) < 1e-6


class TestNoise:
    def test_error_grows_smoothly_with_noise(self):
        rng = np.random.default_rng(1)
        med_errors = []
        for sigma in (0.5, 2.0, 8.0):
            errs = []
            for seed in range(20):
                pts, rotation, translation, pixels, k = make_rigid_scene(100 + seed)
                noisy = pixels + rng.normal(0.0, sigma, pixels.shape)
                est = solve_pnp(pts, noisy, k)
                errs.append(np.degrees(geodesic_distance(est.rotation, rotation)))
            med_errors.append(np.median(errs))
        assert med_errors[0] < med_errors[2]
        assert med_errors[0] < 1.0

    def test_refinement_never_worse_than_dlt(self):
        rng = np.random.default_rng(2)
        for seed in range(20):
            pts, rotation, translation, pixels, k = make_rigid_scene(200 + seed)
            noisy = pixels + rng.normal(0.0, 3.0, pixels.shape)
            norm2d = normalize_keypoints(noisy, k)[:2]
            r0, t0 = _dlt_pose(pts, norm2d)
            res0, _ = _reprojection_residuals(pts, noisy, k, r0, t0)
            est = solve_pnp(pts, noisy, k)
            assert est.reprojection_rmse <= _rmse(res0, pts.shape[1]) + 1e-12


class TestEquivariance:
    def test_model_frame_rotation(self):
        # rotating the model by Q maps the estimate R to R Q^T, same T
        pts, rotation, translation, pixels, k = make_rigid_scene(3)
        q = random_rotation(np.random.default_rng(4))
        est1 = solve_pnp(pts, pixels, k)
        est2 = solve_pnp(q @ pts, pixels, k)
        assert geodesic_distance(est2.rotation @ q, est1.rotation) < 1e-6
        assert np.max(np.abs(est1.translation - est2.translation)) < 1e-6


class TestDegenerateInputs:
    def test_too_few_points(self):
        pts, rotation, translation, pixels, k = make_rigid_scene(5, p=5)
        with pytest.raises(InsufficientConstraintsError):
            solve_pnp(pts, pixels, k)

    def test_coplanar_points_rejected(self):
        rng = np.random.default_rng(6)
        pts = np.vstack([rng.uniform(-1.0, 1.0, (2, 10)), np.zeros(10)])
        k = CameraIntrinsics(800.0, 800.0, 320.0, 240.0)
        rotation = random_rotation(rng)
        translation = np.array([0.0, 0.0, 10.0])
        pixels = k.project(rotation @ pts + translation[:, None])
        with pytest.raises(DegenerateGeometryError):
            solve_pnp(pts, pixels, k)

    def test_shape_mismatch(self):
        pts, rotation, translation, pixels, k = make_rigid_scene(7)
        with pytest.raises(ValueError):
            solve_pnp(pts, pixels[:, :-1], k)


def loop_dlt_pose(points3d, points2d_norm):
    """Per-point reference for _dlt_pose."""
    p = points3d.shape[1]
    a = np.zeros((2 * p, 12))
    for i in range(p):
        xh = np.append(points3d[:, i], 1.0)
        x, y = points2d_norm[:, i]
        a[2 * i, 0:4] = xh
        a[2 * i, 8:12] = -x * xh
        a[2 * i + 1, 4:8] = xh
        a[2 * i + 1, 8:12] = -y * xh
    proj = np.linalg.svd(a)[2][-1].reshape(3, 4)
    if np.median(proj[2, :3] @ points3d + proj[2, 3]) < 0.0:
        proj = -proj
    scale = 1.0 / np.mean(np.linalg.svd(proj[:, :3], compute_uv=False))
    return project_to_so3(proj[:, :3]), scale * proj[:, 3]


def loop_jacobian(points3d, cam, rotation, k):
    """Per-point reference for _reprojection_jacobian."""
    p = points3d.shape[1]
    jac = np.zeros((2 * p, 6))
    for i in range(p):
        x, y, z = cam[:, i]
        dpi = np.array(
            [
                [k.fx / z, k.skew / z, -(k.fx * x + k.skew * y) / z**2],
                [0.0, k.fy / z, -k.fy * y / z**2],
            ]
        )
        jac[2 * i : 2 * i + 2, :3] = dpi @ (-rotation @ hat(points3d[:, i]))
        jac[2 * i : 2 * i + 2, 3:] = dpi
    return jac


class TestVectorizedMatchesLoops:
    def test_dlt_pose(self):
        for seed in range(10):
            pts, _, _, pixels, k = make_rigid_scene(seed, p=6 + seed)
            noisy = pixels + np.random.default_rng(seed).normal(0.0, 2.0, pixels.shape)
            norm2d = normalize_keypoints(noisy, k)[:2]
            for got, want in zip(_dlt_pose(pts, norm2d), loop_dlt_pose(pts, norm2d)):
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_jacobian(self):
        k = CameraIntrinsics(800.0, 790.0, 320.0, 240.0, skew=1.5)
        for seed in range(10):
            pts, rotation, translation, _, _ = make_rigid_scene(seed, intrinsics=k)
            cam = rotation @ pts + translation[:, None]
            got = _reprojection_jacobian(pts, cam, rotation, k)
            want = loop_jacobian(pts, cam, rotation, k)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
