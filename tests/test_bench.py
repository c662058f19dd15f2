import json

import numpy as np
import pytest

from kpfit import (
    NoiseModel,
    SceneConfig,
    SolverOptions,
    format_records,
    format_table,
    run_benchmark,
    sample_scene,
)
from kpfit.bench import _uniform_rotation
from conftest import make_basis


@pytest.fixture
def cfg(basis, intrinsics):
    return SceneConfig(basis=basis, intrinsics=intrinsics, trials=5, seed=7)


class TestUniformRotation:
    def test_samples_are_rotations(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            r = _uniform_rotation(rng)
            assert np.max(np.abs(r.T @ r - np.eye(3))) < 1e-12
            assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)

    def test_column_distribution_is_isotropic(self):
        # mean of R e3 over many samples vanishes under the uniform measure
        rng = np.random.default_rng(1)
        z = np.mean([_uniform_rotation(rng)[:, 2] for _ in range(20000)], axis=0)
        assert np.linalg.norm(z) < 0.02

    def test_angle_distribution(self):
        # relative frequency of angles below pi/2 under Haar: (pi - 2)/(2 pi)... use
        # the known CDF F(t) = (t - sin t)/pi instead, checked at t = pi/2
        rng = np.random.default_rng(2)
        angles = []
        for _ in range(20000):
            r = _uniform_rotation(rng)
            angles.append(np.arccos(np.clip((np.trace(r) - 1.0) / 2.0, -1.0, 1.0)))
        expect = (np.pi / 2 - np.sin(np.pi / 2)) / np.pi
        assert np.mean(np.array(angles) < np.pi / 2) == pytest.approx(expect, abs=0.02)


class TestSampleScene:
    def test_deterministic_in_seed_and_trial(self, cfg):
        s1 = sample_scene(cfg, 3)
        s2 = sample_scene(cfg, 3)
        assert np.array_equal(s1.observations.w, s2.observations.w)
        assert np.array_equal(s1.rotation, s2.rotation)
        assert np.array_equal(s1.translation, s2.translation)

    def test_trials_differ(self, cfg):
        s1 = sample_scene(cfg, 0)
        s2 = sample_scene(cfg, 1)
        assert not np.array_equal(s1.rotation, s2.rotation)

    def test_noise_free_confidences_are_one(self, cfg):
        s = sample_scene(cfg, 0)
        assert np.all(s.observations.d == 1.0)

    def test_noise_free_pixels_are_exact_projections(self, cfg):
        s = sample_scene(cfg, 2)
        cam = s.rotation @ s.shape + s.translation[:, None]
        assert np.max(np.abs(s.observations.w - cfg.intrinsics.project(cam))) < 1e-9

    def test_depth_range_respected(self, basis, intrinsics):
        cfg = SceneConfig(
            basis=basis, intrinsics=intrinsics, depth_range=(4.0, 6.0), trials=1, seed=1
        )
        diam = basis.diameter()
        for trial in range(50):
            s = sample_scene(cfg, trial)
            assert 4.0 * diam <= s.translation[2] <= 6.0 * diam

    def test_zero_magnitude_outliers_match_clean_scene(self, basis, intrinsics):
        # corruption with zero displacement must not consume different draws
        clean = SceneConfig(basis=basis, intrinsics=intrinsics, trials=1, seed=5)
        marked = SceneConfig(
            basis=basis,
            intrinsics=intrinsics,
            trials=1,
            seed=5,
            noise=NoiseModel(outlier_prob=1.0, outlier_magnitude=0.0),
        )
        s1 = sample_scene(clean, 0)
        s2 = sample_scene(marked, 0)
        assert np.array_equal(s1.observations.w, s2.observations.w)
        assert np.array_equal(s1.observations.d, s2.observations.d)

    def test_exact_outlier_count(self, basis, intrinsics):
        cfg = SceneConfig(
            basis=basis,
            intrinsics=intrinsics,
            trials=1,
            seed=9,
            noise=NoiseModel(outlier_count=2, outlier_magnitude=30.0),
        )
        for trial in range(20):
            s = sample_scene(cfg, trial)
            low = np.count_nonzero(s.observations.d < 0.5)
            assert low == 2

    def test_outlier_confidences_are_low(self, basis, intrinsics):
        cfg = SceneConfig(
            basis=basis,
            intrinsics=intrinsics,
            trials=1,
            seed=10,
            noise=NoiseModel(outlier_count=3, outlier_magnitude=25.0),
        )
        s = sample_scene(cfg, 0)
        d = np.sort(s.observations.d)
        assert np.all(d[:3] <= 0.2)
        assert np.all(d[3:] == 1.0)

    def test_noisy_confidence_ranges(self, basis, intrinsics):
        # with pixel noise every confidence is drawn: clean keypoints from
        # [0.8, 1.0], corrupted ones from [0.05, 0.2]; a corrupted keypoint is
        # 60 px from its projection, a clean one a few sigma = 1 px
        cfg = SceneConfig(
            basis=basis,
            intrinsics=intrinsics,
            trials=1,
            seed=14,
            noise=NoiseModel(pixel_sigma=1.0, outlier_count=3, outlier_magnitude=60.0),
        )
        for trial in range(20):
            s = sample_scene(cfg, trial)
            cam = s.rotation @ s.shape + s.translation[:, None]
            offset = np.linalg.norm(s.observations.w - intrinsics.project(cam), axis=0)
            corrupted = offset > 30.0
            d = s.observations.d
            assert np.count_nonzero(corrupted) == 3
            assert np.all((0.05 <= d[corrupted]) & (d[corrupted] <= 0.2))
            assert np.all((0.8 <= d[~corrupted]) & (d[~corrupted] <= 1.0))
            assert np.any(d[~corrupted] < 1.0)


class TestRunBenchmark:
    def test_noiseless_fp_errors_are_tiny(self, basis, intrinsics):
        cfg = SceneConfig(basis=basis, intrinsics=intrinsics, trials=5, seed=3)
        report = run_benchmark(cfg, methods=("fp",), opts=SolverOptions(lam=1e-10))
        assert report.stats["fp"].median_rot_deg < 0.5
        assert report.stats["fp"].failures == 0

    def test_noiseless_rigid_pnp_is_exact(self, intrinsics):
        # with no deformation modes the rigid baseline sees its exact model
        rigid = make_basis(seed=4, k=0, eigenvalues=())
        cfg = SceneConfig(basis=rigid, intrinsics=intrinsics, trials=5, seed=3)
        report = run_benchmark(cfg, methods=("pnp",))
        assert report.stats["pnp"].median_rot_deg < 1e-3
        assert report.stats["pnp"].failures == 0

    def test_method_order_is_canonical(self, cfg):
        report = run_benchmark(cfg, methods=("pnp", "wp"))
        assert report.methods == ("wp", "pnp")

    def test_unknown_method(self, cfg):
        with pytest.raises(ValueError):
            run_benchmark(cfg, methods=("warp",))

    def test_wp_reports_no_translation(self, cfg):
        report = run_benchmark(cfg, methods=("wp",))
        assert report.stats["wp"].mean_trans is None
        assert "N/A" in format_table(report)

    def test_records_serialization_deterministic(self, basis, intrinsics):
        cfg = SceneConfig(
            basis=basis,
            intrinsics=intrinsics,
            trials=4,
            seed=11,
            noise=NoiseModel(pixel_sigma=1.0),
        )
        out1 = format_records(run_benchmark(cfg, methods=("wp", "fp", "pnp")))
        out2 = format_records(run_benchmark(cfg, methods=("wp", "fp", "pnp")))
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["format"] == "kpfit-bench-records"
        assert len(doc["records"]) == 12

    def test_failures_counted_not_fatal(self, intrinsics):
        # a coplanar mean shape makes the PnP baseline fail on every trial
        from kpfit import ShapeBasis

        rng = np.random.default_rng(12)
        b0 = np.vstack([rng.normal(size=(2, 8)), np.zeros(8)])
        flat = ShapeBasis("flat", b0, (), np.zeros(0))
        cfg = SceneConfig(basis=flat, intrinsics=intrinsics, trials=3, seed=13)
        report = run_benchmark(cfg, methods=("pnp",))
        assert report.stats["pnp"].failures == 3
        assert all("error" in rec for rec in report.records)
