import numpy as np
import pytest

from kpfit import (
    CameraIntrinsics,
    DegenerateGeometryError,
    InvalidRotationError,
    geodesic_distance,
    normalize_keypoints,
    project_to_so3,
    project_weak,
    so3_exp,
    so3_log,
    weighted_procrustes,
)
from kpfit.geometry import near_coplanar
from conftest import random_rotation


def rot_z(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def sample_rotations(n, seed):
    rng = np.random.default_rng(seed)
    return np.array([random_rotation(rng) for _ in range(n)])


class TestGeodesicDistance:
    def test_identity_pair(self):
        r = random_rotation(np.random.default_rng(1))
        assert geodesic_distance(r, r) == 0.0

    def test_quarter_turn(self):
        assert geodesic_distance(np.eye(3), rot_z(np.pi / 2)) == pytest.approx(
            np.pi / 2, abs=1e-12
        )

    def test_axis_angle_oracle(self):
        # independent oracle: angle from the trace formula on R1^T R2
        rng = np.random.default_rng(2)
        for _ in range(1000):
            r1, r2 = random_rotation(rng), random_rotation(rng)
            rel = r1.T @ r2
            expected = np.arccos(np.clip((np.trace(rel) - 1.0) / 2.0, -1.0, 1.0))
            assert geodesic_distance(r1, r2) == pytest.approx(expected, abs=1e-9)

    def test_symmetry_and_bi_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            r1, r2, q = (random_rotation(rng) for _ in range(3))
            d = geodesic_distance(r1, r2)
            assert geodesic_distance(r2, r1) == pytest.approx(d, abs=1e-9)
            assert geodesic_distance(q @ r1, q @ r2) == pytest.approx(d, abs=1e-9)

    def test_rejects_non_rotation(self):
        with pytest.raises(InvalidRotationError):
            geodesic_distance(np.eye(3) * 1.01, np.eye(3))


class TestSo3Log:
    def test_identity(self):
        assert np.allclose(so3_log(np.eye(3)), 0.0)

    def test_axis_aligned(self):
        r = so3_exp([0.3, 0.0, 0.0])
        assert np.allclose(so3_log(r), [0.3, 0.0, 0.0], atol=1e-12)

    def test_exp_log_round_trip(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            r = random_rotation(rng)
            assert np.max(np.abs(so3_exp(so3_log(r)) - r)) < 1e-9

    @pytest.mark.parametrize("angle", [1e-10, 1e-8, np.pi - 1e-6, np.pi - 1e-12])
    def test_extreme_angles(self, angle):
        rng = np.random.default_rng(5)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        r = so3_exp(angle * axis)
        assert np.max(np.abs(so3_exp(so3_log(r)) - r)) < 1e-9


class TestProjectToSo3:
    def test_idempotent_on_rotations(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            r = random_rotation(rng)
            assert np.max(np.abs(project_to_so3(r) - r)) < 1e-12

    def test_positive_scaling_invariance(self):
        r = random_rotation(np.random.default_rng(7))
        assert np.allclose(project_to_so3(1.7 * r), r, atol=1e-12)

    def test_sampled_brute_force_oracle(self):
        samples = sample_rotations(100_000, 8)
        rng = np.random.default_rng(9)
        for _ in range(3):
            m = rng.normal(size=(3, 3))
            best = project_to_so3(m)
            cost = np.sum((best - m) ** 2)
            sampled = np.sum((samples - m) ** 2, axis=(1, 2))
            assert cost <= sampled.min() + 1e-6

    def test_ambiguous_projection_raises(self):
        # reflection with two equal singular values: no unique closest rotation
        with pytest.raises(DegenerateGeometryError):
            project_to_so3(np.diag([1.0, 1.0, -1.0]))

    @pytest.mark.parametrize("scale", [1.0, 1e-6])
    def test_uniqueness_rule_is_relative(self, scale):
        # s2 - s3 = 1e-10 s1 under a sign flip ties at every scale; a gap of
        # s1 / 3 projects at every scale
        with pytest.raises(DegenerateGeometryError):
            project_to_so3(scale * np.diag([1.0, 1.0 - 1e-10, -1.0]))
        assert np.allclose(project_to_so3(scale * np.diag([3.0, 2.0, -1.0])),
                           np.diag([1.0, 1.0, 1.0]), atol=1e-12)


class TestWeightedProcrustes:
    def test_identity_alignment(self):
        rng = np.random.default_rng(10)
        pts = rng.normal(size=(3, 8))
        r = weighted_procrustes(pts, pts, np.ones(8))
        assert np.max(np.abs(r - np.eye(3))) < 1e-9

    def test_exact_alignment(self):
        rng = np.random.default_rng(11)
        b = rng.normal(size=(3, 10))
        w = rng.uniform(0.1, 1.0, 10)
        r0 = random_rotation(rng)
        r = weighted_procrustes(r0 @ b, b, w)
        assert np.max(np.abs(r - r0)) < 1e-9

    def test_sampled_brute_force_oracle(self):
        samples = sample_rotations(100_000, 12)
        rng = np.random.default_rng(13)
        for _ in range(3):
            a = rng.normal(size=(3, 7))
            b = rng.normal(size=(3, 7))
            w = rng.uniform(0.0, 1.0, 7)
            r = weighted_procrustes(a, b, w)
            cost = np.sum(w * np.sum((a - r @ b) ** 2, axis=0))
            sampled = np.einsum("p,nap->n", w, (a[None] - samples @ b) ** 2)
            assert cost <= sampled.min() + 1e-6

    def test_zero_weight_points_ignored(self):
        rng = np.random.default_rng(14)
        a = rng.normal(size=(3, 9))
        b = rng.normal(size=(3, 9))
        w = rng.uniform(0.1, 1.0, 9)
        w[4] = 0.0
        r1 = weighted_procrustes(a, b, w)
        a2, b2 = a.copy(), b.copy()
        a2[:, 4] = 1e6
        b2[:, 4] = -1e6
        r2 = weighted_procrustes(a2, b2, w)
        assert np.max(np.abs(r1 - r2)) < 1e-12

    def test_collinear_raises(self):
        line = np.outer(np.array([1.0, 2.0, -1.0]), np.linspace(0, 1, 6))
        with pytest.raises(DegenerateGeometryError):
            weighted_procrustes(line, line, np.ones(6))

    def test_mirrored_tetrahedron_raises(self):
        # a regular tetrahedron and its mirror image: I, diag(1, -1, -1) and
        # diag(-1, 1, -1) all reach cost 16, so no rotation is determined
        b = np.array([[1.0, 1.0, -1.0, -1.0], [1.0, -1.0, 1.0, -1.0],
                      [1.0, -1.0, -1.0, 1.0]])
        a = np.diag([1.0, 1.0, -1.0]) @ b
        for r in (np.eye(3), np.diag([1.0, -1.0, -1.0]), np.diag([-1.0, 1.0, -1.0])):
            assert np.sum((a - r @ b) ** 2) == 16.0
        with pytest.raises(DegenerateGeometryError):
            weighted_procrustes(a, b, np.ones(4))

    def test_too_few_weighted_points(self):
        rng = np.random.default_rng(15)
        pts = rng.normal(size=(3, 6))
        w = np.zeros(6)
        w[:2] = 1.0
        with pytest.raises(DegenerateGeometryError):
            weighted_procrustes(pts, pts, w)


class TestNearCoplanar:
    @pytest.mark.parametrize("ratio, flat", [(2e-6, False), (5e-7, True), (0.0, True)])
    def test_threshold_is_relative_to_the_spread(self, ratio, flat):
        # centred points with singular values (3, 1, 3 * ratio), then shifted
        rng = np.random.default_rng(18)
        a = rng.normal(size=(3, 10))
        u, _, vt = np.linalg.svd(a - a.mean(axis=1, keepdims=True), full_matrices=False)
        points = u @ np.diag([3.0, 1.0, 3.0 * ratio]) @ vt
        points += np.array([[5.0], [-2.0], [40.0]])
        assert near_coplanar(points) is flat
        assert near_coplanar(1e-200 * points) is flat


class TestProjections:
    def test_project_weak_identity_rows(self):
        rng = np.random.default_rng(16)
        shape = rng.normal(size=(3, 5))
        out = project_weak(1.0, np.eye(3)[:2], np.zeros(2), shape)
        assert np.allclose(out, shape[:2])

    def test_project_weak_scale_linearity(self):
        rng = np.random.default_rng(17)
        shape = rng.normal(size=(3, 5))
        rbar = random_rotation(rng)[:2]
        tbar = rng.normal(size=2)
        p1 = project_weak(1.3, rbar, tbar, shape) - tbar[:, None]
        p2 = project_weak(2.6, rbar, tbar, shape) - tbar[:, None]
        assert np.allclose(p2, 2.0 * p1)

    def test_normalize_principal_point(self):
        k = CameraIntrinsics(500.0, 400.0, 320.0, 240.0)
        out = normalize_keypoints(np.array([[320.0], [240.0]]), k)
        assert np.allclose(out[:, 0], [0.0, 0.0, 1.0])

    def test_normalize_one_focal_length(self):
        k = CameraIntrinsics(500.0, 400.0, 320.0, 240.0)
        out = normalize_keypoints(np.array([[820.0], [240.0]]), k)
        assert np.allclose(out[:, 0], [1.0, 0.0, 1.0])

    def test_normalize_denormalize_round_trip(self):
        rng = np.random.default_rng(18)
        k = CameraIntrinsics(500.0, 400.0, 320.0, 240.0, skew=2.5)
        w = rng.uniform(0.0, 640.0, (2, 20))
        back = k.denormalize(normalize_keypoints(w, k))
        assert np.max(np.abs(back - w)) < 1e-12
