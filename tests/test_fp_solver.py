import logging

import numpy as np
import pytest

from kpfit import (
    BehindCameraError,
    CameraIntrinsics,
    DegenerateGeometryError,
    InsufficientConstraintsError,
    KeypointObservations,
    SolverOptions,
    compose_shape,
    cost_fp,
    fp_cost_gradient,
    geodesic_distance,
    normalize_keypoints,
    project_to_so3,
    so3_exp,
    solve_fp,
    solve_wp,
    weighted_procrustes,
    wp_to_fp_init,
)
from kpfit import fp_solver
from kpfit.geometry import hat, so3_newton_rows
from kpfit.wp_solver import _cleaned_w
from conftest import make_basis, make_fp_scene, random_rotation

NOISELESS = SolverOptions(lam=1e-10)


def naive_cost(obs, intrinsics, basis, rotation, translation, c, depths, lam):
    """Per-keypoint loop over the ray residual, as an independent oracle."""
    shape = compose_shape(basis, c)
    wt = normalize_keypoints(_cleaned_w(obs), intrinsics)
    total = 0.0
    for i in range(obs.num_keypoints):
        r = wt[:, i] * depths[i] - rotation @ shape[:, i] - translation
        total += 0.5 * obs.d[i] * np.dot(r, r)
    return total + 0.5 * lam * np.sum(np.asarray(c) ** 2)


class TestCostFp:
    def test_zero_at_generating_parameters(self, basis, intrinsics):
        c, shape, rotation, translation, pixels = make_fp_scene(basis, intrinsics, 0)
        obs = KeypointObservations(pixels, np.ones(basis.num_keypoints))
        depths = (rotation @ shape + translation[:, None])[2]
        assert (
            cost_fp(obs, intrinsics, basis, rotation, translation, c, depths, 0.0)
            < 1e-18
        )

    def test_matches_naive_sum(self, basis, intrinsics):
        rng = np.random.default_rng(1)
        for seed in range(10):
            obs = KeypointObservations(
                rng.uniform(0.0, 640.0, (2, 12)), rng.uniform(0.0, 1.0, 12)
            )
            rotation = random_rotation(rng)
            translation = rng.normal(0.0, 1.0, 3)
            c = rng.normal(size=2)
            depths = rng.uniform(0.5, 5.0, 12)
            lam = rng.uniform(0.0, 1.0)
            assert cost_fp(
                obs, intrinsics, basis, rotation, translation, c, depths, lam
            ) == pytest.approx(
                naive_cost(obs, intrinsics, basis, rotation, translation, c, depths, lam),
                rel=1e-12,
                abs=1e-12,
            )


class TestGradient:
    def test_matches_per_mode_and_per_axis_loops(self, basis, intrinsics):
        rng = np.random.default_rng(3)
        obs = KeypointObservations(
            rng.uniform(0.0, 640.0, (2, 12)), rng.uniform(0.1, 1.0, 12)
        )
        for _ in range(10):
            rotation = random_rotation(rng)
            translation = rng.normal(0.0, 1.0, 3)
            c = rng.normal(size=2)
            depths = rng.uniform(0.5, 5.0, 12)
            _, g_c, _, g_omega = fp_cost_gradient(
                obs, intrinsics, basis, rotation, translation, c, depths, 0.2
            )
            shape = compose_shape(basis, c)
            wt = normalize_keypoints(obs.w, intrinsics)
            wr = (wt * depths - rotation @ shape - translation[:, None]) * obs.d
            loop_c = [-np.sum(wr * (rotation @ m)) for m in basis.modes] + 0.2 * c
            loop_omega = [-np.sum(wr * (rotation @ hat(e) @ shape)) for e in np.eye(3)]
            assert np.allclose(g_c, loop_c, rtol=1e-12, atol=1e-12)
            assert np.allclose(g_omega, loop_omega, rtol=1e-12, atol=1e-12)

    def test_matches_central_differences(self, basis, intrinsics):
        rng = np.random.default_rng(2)
        obs = KeypointObservations(
            rng.uniform(0.0, 640.0, (2, 12)), rng.uniform(0.1, 1.0, 12)
        )
        lam = 0.2
        eps = 1e-6
        from kpfit import so3_exp

        for seed in range(20):
            rotation = random_rotation(rng)
            translation = rng.normal(0.0, 1.0, 3)
            c = rng.normal(size=2)
            depths = rng.uniform(0.5, 5.0, 12)
            g_t, g_c, g_z, g_omega = fp_cost_gradient(
                obs, intrinsics, basis, rotation, translation, c, depths, lam
            )

            def cost_at(dt=None, dc=None, dz=None, omega=None):
                rot = rotation if omega is None else rotation @ so3_exp(omega)
                return cost_fp(
                    obs,
                    intrinsics,
                    basis,
                    rot,
                    translation if dt is None else translation + dt,
                    c if dc is None else c + dc,
                    depths if dz is None else depths + dz,
                    lam,
                )

            for j in range(3):
                step = np.zeros(3)
                step[j] = eps
                num = (cost_at(dt=step) - cost_at(dt=-step)) / (2 * eps)
                assert g_t[j] == pytest.approx(num, rel=1e-5, abs=1e-8)
                num = (cost_at(omega=step) - cost_at(omega=-step)) / (2 * eps)
                assert g_omega[j] == pytest.approx(num, rel=1e-5, abs=1e-8)
            for j in range(2):
                step = np.zeros(2)
                step[j] = eps
                num = (cost_at(dc=step) - cost_at(dc=-step)) / (2 * eps)
                assert g_c[j] == pytest.approx(num, rel=1e-5, abs=1e-8)
            for j in range(12):
                step = np.zeros(12)
                step[j] = eps
                num = (cost_at(dz=step) - cost_at(dz=-step)) / (2 * eps)
                assert g_z[j] == pytest.approx(num, rel=1e-5, abs=1e-8)


class TestWpToFpInit:
    def test_normalized_identity_pose(self, basis):
        # a weak-perspective fit with s = 1/z reproduces translation (0, 0, z)
        from kpfit.wp_solver import WPEstimate

        wp = WPEstimate(
            s=0.125,
            c=np.zeros(2),
            rbar=np.eye(3)[:2],
            tbar=np.zeros(2),
            final_cost=0.0,
            iterations=1,
            converged=True,
        )
        rotation, translation = wp_to_fp_init(wp)
        assert np.allclose(rotation, np.eye(3))
        assert np.allclose(translation, [0.0, 0.0, 8.0])

    def test_pixel_units_match_normalized(self, basis, intrinsics):
        # fitting in pixels then converting equals fitting normalized coords
        c, shape, rotation, translation, pixels = make_fp_scene(
            basis, intrinsics, 3, depth_mult=15.0
        )
        obs = KeypointObservations(pixels, np.ones(basis.num_keypoints))
        wp_pix = solve_wp(obs, basis, NOISELESS)
        wt = normalize_keypoints(pixels, intrinsics)
        wp_norm = solve_wp(
            KeypointObservations(wt[:2], obs.d), basis, NOISELESS
        )
        r1, t1 = wp_to_fp_init(wp_pix, intrinsics)
        r2, t2 = wp_to_fp_init(wp_norm)
        assert geodesic_distance(r1, r2) < 1e-4
        assert np.max(np.abs(t1 - t2)) < 1e-3 * np.linalg.norm(t2)

    def test_far_field_accuracy_many_seeds(self, intrinsics):
        # at large depth the weak-perspective seed lands close to the truth
        basis = make_basis(seed=30)
        good = 0
        for seed in range(100):
            c, shape, rotation, translation, pixels = make_fp_scene(
                basis, intrinsics, 1000 + seed, depth_mult=20.0, coeff_scale=0.3
            )
            obs = KeypointObservations(pixels, np.ones(basis.num_keypoints))
            wp = solve_wp(obs, basis, NOISELESS)
            r0, t0 = wp_to_fp_init(wp, intrinsics)
            rot_ok = np.degrees(geodesic_distance(r0, rotation)) < 15.0
            depth_ok = abs(t0[2] - translation[2]) < 0.2 * translation[2]
            if rot_ok and depth_ok:
                good += 1
        assert good >= 90


class TestSolveFp:
    def test_noiseless_recovery_many_seeds(self, basis, intrinsics):
        successes = 0
        for seed in range(30):
            c, shape, rotation, translation, pixels = make_fp_scene(
                basis, intrinsics, 100 + seed, depth_mult=6.0, coeff_scale=0.5
            )
            obs = KeypointObservations(pixels, np.ones(basis.num_keypoints))
            est = solve_fp(obs, intrinsics, basis, NOISELESS)
            rot_err = np.degrees(geodesic_distance(est.rotation, rotation))
            trans_err = np.linalg.norm(est.translation - translation)
            if rot_err < 0.5 and trans_err < 0.01 * np.linalg.norm(translation):
                successes += 1
        assert successes >= 28

    def test_depths_match_rays(self, basis, intrinsics):
        c, shape, rotation, translation, pixels = make_fp_scene(basis, intrinsics, 7)
        obs = KeypointObservations(pixels, np.ones(basis.num_keypoints))
        est = solve_fp(
            obs,
            intrinsics,
            basis,
            SolverOptions(lam=1e-10, relative_tolerance=1e-15, max_iterations=20000),
        )
        wt = normalize_keypoints(pixels, intrinsics)
        pts = est.rotation @ compose_shape(basis, est.c) + est.translation[:, None]
        # each recovered depth is the ray projection of the model point; the
        # depths lag the final pose update by one block, hence the tolerance
        expected = np.sum(wt * pts, axis=0) / np.sum(wt**2, axis=0)
        assert np.max(np.abs(est.depths - expected)) < 1e-6

    def test_depth_block_optimality(self, basis, intrinsics):
        # perturbing any single depth must not lower the cost
        rng = np.random.default_rng(8)
        c, shape, rotation, translation, pixels = make_fp_scene(basis, intrinsics, 9)
        noisy = pixels + rng.normal(0.0, 1.0, pixels.shape)
        obs = KeypointObservations(noisy, rng.uniform(0.3, 1.0, 12))
        est = solve_fp(obs, intrinsics, basis)
        from kpfit.wp_solver import default_lambda

        lam = default_lambda(basis)
        base = cost_fp(
            obs, intrinsics, basis, est.rotation, est.translation, est.c, est.depths, lam
        )
        for i in range(12):
            for delta in (-1e-3, 1e-3):
                z = est.depths.copy()
                z[i] += delta
                alt = cost_fp(
                    obs, intrinsics, basis, est.rotation, est.translation, est.c, z, lam
                )
                assert alt >= base - 1e-12

    def test_pose_block_optimality(self, basis, intrinsics):
        # the joint rotation/translation update beats random perturbations
        rng = np.random.default_rng(10)
        c, shape, rotation, translation, pixels = make_fp_scene(basis, intrinsics, 11)
        noisy = pixels + rng.normal(0.0, 2.0, pixels.shape)
        obs = KeypointObservations(noisy, rng.uniform(0.3, 1.0, 12))
        est = solve_fp(obs, intrinsics, basis)
        from kpfit import so3_exp
        from kpfit.wp_solver import default_lambda

        lam = default_lambda(basis)
        base = cost_fp(
            obs, intrinsics, basis, est.rotation, est.translation, est.c, est.depths, lam
        )
        for _ in range(1000):
            omega = rng.normal(0.0, 1e-3, 3)
            dt = rng.normal(0.0, 1e-3, 3)
            alt = cost_fp(
                obs,
                intrinsics,
                basis,
                est.rotation @ so3_exp(omega),
                est.translation + dt,
                est.c,
                est.depths,
                lam,
            )
            assert alt >= base - 1e-12

    def test_block_updates_monotone(self, basis, intrinsics):
        rng = np.random.default_rng(12)
        for seed in range(5):
            c, shape, rotation, translation, pixels = make_fp_scene(
                basis, intrinsics, 40 + seed, coeff_scale=0.5
            )
            noisy = pixels + rng.normal(0.0, 2.0, pixels.shape)
            obs = KeypointObservations(noisy, rng.uniform(0.2, 1.0, 12))
            est = solve_fp(
                obs, intrinsics, basis, SolverOptions(record_block_costs=True)
            )
            costs = np.array(est.block_costs)
            assert np.all(np.diff(costs) <= 1e-10)

    def test_clamped_depths_keep_descent_monotone(self, basis, intrinsics):
        # a start rotated 3 rad away from the truth at close range puts model
        # points behind their rays, so block A clamps depths at the floor
        # early in the descent; the fit must still descend monotonically to
        # the true pose with no depth left at the floor
        c, shape, rotation, translation, pixels = make_fp_scene(
            basis, intrinsics, 5, depth_mult=2.0
        )
        start = rotation @ so3_exp(np.array([3.0, 0.0, 0.0]))
        est = solve_fp(
            KeypointObservations(pixels, np.ones(12)),
            intrinsics,
            basis,
            SolverOptions(record_block_costs=True),
            init=(start, translation),
        )
        assert est.converged
        assert np.all(est.depths > 0.0)
        assert np.all(np.diff(est.block_costs) <= 1e-10)
        assert np.degrees(geodesic_distance(est.rotation, rotation)) < 2.0

    def test_floor_condition_alone_keeps_the_fit_in_front(self, basis, intrinsics):
        # from this start, 177 degrees off, block B's exact step at the first
        # iteration leaves a confident depth at the floor without raising the
        # cost: only the floor condition sends it to the Procrustes fallback,
        # and without it the fit ends behind the camera
        rng = np.random.default_rng(2836)
        depth = rng.uniform(0.6, 3.0)
        _, _, rotation, translation, pixels = make_fp_scene(
            basis, intrinsics, 2836, depth_mult=depth
        )
        d = rng.uniform(0.2, 1.0, 12)
        pixels += rng.normal(0.0, 1.0, pixels.shape)
        init = (
            rotation @ so3_exp(rng.normal(size=3) * rng.uniform(0.5, 3.0)),
            translation * rng.uniform(0.3, 2.0) + rng.normal(0.0, 0.3, 3),
        )
        est = solve_fp(
            KeypointObservations(pixels, d),
            intrinsics,
            basis,
            SolverOptions(record_block_costs=True),
            init=init,
        )
        assert est.converged
        assert np.degrees(geodesic_distance(est.rotation, rotation)) < 1.0
        assert np.all(est.depths > 0.0)
        assert np.all(np.diff(est.block_costs) <= 1e-10)

    def test_a_rise_of_a_few_ulps_keeps_the_exact_rotation_block(
        self, intrinsics, monkeypatch
    ):
        # at convergence block B's cost equals block A's to rounding, and
        # whether it reads a few ulps above is decided by summation order;
        # without the 8-ulp tie some of these fits end on the Procrustes
        # fallback, which ones depending on how Omega is summed
        basis = make_basis(p=124)
        calls = []
        exact = fp_solver.weighted_procrustes

        def counting(*args):
            calls.append(1)
            return exact(*args)

        monkeypatch.setattr(fp_solver, "weighted_procrustes", counting)
        for seed in (1, 2, 50, 64, 136):
            rng = np.random.default_rng(seed)
            _, _, rotation, _, pixels = make_fp_scene(
                basis, intrinsics, seed, depth_mult=6.0, coeff_scale=0.5
            )
            obs = KeypointObservations(
                pixels + rng.normal(0.0, 1.0, pixels.shape), rng.uniform(0.8, 1.0, 124)
            )
            est = solve_fp(
                obs, intrinsics, basis, SolverOptions(record_block_costs=True)
            )
            costs = np.array(est.block_costs)
            ulps = np.spacing(np.maximum(costs[:-1], costs[1:]))
            assert est.converged
            assert np.all(np.diff(costs) <= 8.0 * ulps)
            assert np.degrees(geodesic_distance(est.rotation, rotation)) < 1.0
        assert not calls

    def test_explicit_init_is_used(self, basis, intrinsics):
        c, shape, rotation, translation, pixels = make_fp_scene(basis, intrinsics, 13)
        obs = KeypointObservations(pixels, np.ones(basis.num_keypoints))
        est = solve_fp(
            obs, intrinsics, basis, NOISELESS, init=(rotation, translation)
        )
        assert np.degrees(geodesic_distance(est.rotation, rotation)) < 1e-3
        assert est.final_cost < 1e-6

    def test_zero_weight_outlier_is_ignored(self, basis, intrinsics):
        c, shape, rotation, translation, pixels = make_fp_scene(basis, intrinsics, 14)
        d = np.ones(12)
        d[5] = 0.0
        wild = pixels.copy()
        wild[:, 5] = [1e5, -1e5]
        est1 = solve_fp(KeypointObservations(pixels, d), intrinsics, basis, NOISELESS)
        est2 = solve_fp(KeypointObservations(wild, d), intrinsics, basis, NOISELESS)
        assert np.max(np.abs(est1.rotation - est2.rotation)) < 1e-9
        assert np.max(np.abs(est1.translation - est2.translation)) < 1e-9

    def test_coplanar_mean_shape_flagged(self, intrinsics):
        rng = np.random.default_rng(15)
        b0 = np.vstack([rng.normal(size=(2, 10)), np.zeros(10)])
        from kpfit import ShapeBasis

        flat = ShapeBasis("flat", b0, (), np.zeros(0))
        rotation = random_rotation(rng)
        translation = np.array([0.0, 0.0, 10.0])
        pixels = intrinsics.project(rotation @ b0 + translation[:, None])
        obs = KeypointObservations(pixels, np.ones(10))
        est = solve_fp(obs, intrinsics, flat, NOISELESS)
        assert "coplanar" in est.diagnostic

    def test_too_few_points(self, basis, intrinsics):
        c, shape, rotation, translation, pixels = make_fp_scene(basis, intrinsics, 16)
        d = np.zeros(12)
        d[:3] = 1.0
        with pytest.raises(InsufficientConstraintsError):
            solve_fp(KeypointObservations(pixels, d), intrinsics, basis)

    def test_input_checks_match_solve_wp(self, basis, intrinsics):
        c, shape, rotation, translation, pixels = make_fp_scene(basis, intrinsics, 16)
        few = np.zeros(12)
        few[:3] = 1.0
        cases = [
            (KeypointObservations(pixels[:, :11], np.ones(11)), ValueError),
            (KeypointObservations(pixels, few), InsufficientConstraintsError),
        ]
        for obs, error in cases:
            with pytest.raises(error) as wp_error:
                solve_wp(obs, basis)
            with pytest.raises(error) as fp_error:
                solve_fp(obs, intrinsics, basis)
            assert str(fp_error.value) == str(wp_error.value)

    def test_behind_camera_raises(self, basis, intrinsics):
        # a confident keypoint whose ray points away from its model point
        # (v . q < 0) pulls the fit onto the camera centre, where depths pin
        # at the positivity floor
        shape = compose_shape(basis, np.zeros(2))
        points = shape + np.array([0.0, 0.0, 8.0 * basis.diameter()])[:, None]
        pixels = intrinsics.project(points)
        pixels[:, 0] = [intrinsics.cx - 100.0 * intrinsics.fx, intrinsics.cy]
        ray = normalize_keypoints(pixels, intrinsics)[:, 0]
        assert ray @ points[:, 0] < 0.0
        d = np.ones(12)
        d[0] = 5.0
        with pytest.raises(BehindCameraError):
            solve_fp(KeypointObservations(pixels, d), intrinsics, basis)

    def test_depth_pinned_in_last_block_raises(self, basis, intrinsics):
        # the final check must use the depths block A clamped, not a floor
        # recomputed from the final translation: here block B shrinks |T|,
        # which leaves the pinned depths just above the recomputed floor
        points = basis.b0 + np.array([0.0, 0.0, 8.0 * basis.diameter()])[:, None]
        pixels = intrinsics.project(points)
        pixels[:, 5] = [intrinsics.cx - 6.0 * intrinsics.fx, intrinsics.cy]
        d = np.ones(12)
        d[5] = 0.5
        with pytest.raises(BehindCameraError):
            solve_fp(KeypointObservations(pixels, d), intrinsics, basis)

    def test_final_cost_consistent(self, basis, intrinsics):
        rng = np.random.default_rng(17)
        c, shape, rotation, translation, pixels = make_fp_scene(basis, intrinsics, 18)
        noisy = pixels + rng.normal(0.0, 1.0, pixels.shape)
        obs = KeypointObservations(noisy, rng.uniform(0.3, 1.0, 12))
        opts = SolverOptions(lam=0.05)
        est = solve_fp(obs, intrinsics, basis, opts)
        recomputed = cost_fp(
            obs, intrinsics, basis, est.rotation, est.translation, est.c, est.depths, 0.05
        )
        assert est.final_cost == pytest.approx(recomputed, rel=1e-10)


class TestLogging:
    @pytest.mark.parametrize("solver", ["wp", "fp"])
    def test_capped_fit_warns_once(self, basis, intrinsics, caplog, solver):
        c, shape, rotation, translation, pixels = make_fp_scene(basis, intrinsics, 19)
        obs = KeypointObservations(pixels, np.ones(basis.num_keypoints))
        capped = SolverOptions(max_iterations=1)
        with caplog.at_level(logging.WARNING, logger="kpfit"):
            if solver == "wp":
                est = solve_wp(obs, basis, capped)
            else:
                est = solve_fp(obs, intrinsics, basis, capped, init=(rotation, translation))
        assert not est.converged
        assert len(caplog.records) == 1
        assert "max_iterations=1" in caplog.records[0].getMessage()

    def test_converged_fit_is_silent(self, basis, intrinsics, caplog):
        c, shape, rotation, translation, pixels = make_fp_scene(basis, intrinsics, 19)
        obs = KeypointObservations(pixels, np.ones(basis.num_keypoints))
        with caplog.at_level(logging.WARNING, logger="kpfit"):
            est = solve_fp(obs, intrinsics, basis)
        assert est.converged
        assert caplog.records == []


def form_scene(basis, intrinsics, seed):
    """Noisy weighted keypoints of a scene, its truth, and the per-fit tensors."""
    rng = np.random.default_rng(seed)
    c, shape, rotation, translation, pixels = make_fp_scene(
        basis, intrinsics, seed, depth_mult=6.0, coeff_scale=0.5
    )
    obs = KeypointObservations(
        pixels + rng.normal(0.0, 1.0, pixels.shape), rng.uniform(0.2, 1.0, 12)
    )
    wt = normalize_keypoints(_cleaned_w(obs), intrinsics)
    return obs, c, rotation, fp_solver._object_space_form(wt, obs.d, basis)


def form_value(omega, rotation):
    return 0.5 * rotation.ravel() @ omega @ rotation.ravel()


def kernel_terms(omega, rotation):
    """Gradient and full Hessian of fp_solver._form_derivatives as arrays."""
    _, grad, (h00, h10, h11, h20, h21, h22) = fp_solver._form_derivatives(
        omega, rotation
    )
    hess = [[h00, h10, h20], [h10, h11, h21], [h20, h21, h22]]
    return np.array(grad), np.array(hess)


def numpy_form_derivatives(omega, rotation):
    """Reference: mat(omega x), J omega x and J^T omega J + sym(G) - tr(G) I
    with J = [vec(R hat(e_j))] and G = R^T mat(omega x), by numpy products."""
    mx = omega @ rotation.ravel()
    g = rotation.T @ mx.reshape(3, 3)
    jac = np.cross(rotation, np.eye(3)[:, None]).reshape(3, 9)  # R hat(e_j)
    hess = jac @ omega @ jac.T + 0.5 * (g + g.T) - np.trace(g) * np.eye(3)
    return mx.reshape(3, 3), jac @ mx, hess


def numpy_newton_step(omega, rotation):
    """Reference: R exp(hat(-H^-1 g)), or None when H has no Cholesky factor."""
    _, grad, hess = numpy_form_derivatives(omega, rotation)
    try:
        np.linalg.cholesky(hess)
    except np.linalg.LinAlgError:
        return None
    return rotation @ so3_exp(-np.linalg.solve(hess, grad))


def majorized(omega, rotation, steps):
    """Reference: ``steps`` plain majorization steps on SO(3)."""
    top = np.linalg.eigvalsh(omega)[-1]
    for _ in range(steps):
        grad_mat = (omega @ rotation.ravel()).reshape(3, 3)
        rotation = project_to_so3(top * rotation - grad_mat)
    return rotation


def numpy_minimize_form(omega, rotation, max_steps=50):
    """Reference: the rotation solve with numpy_form_derivatives and
    numpy_newton_step, comparing steps by 1/2 (y - x)^T omega (y + x)."""

    def change(new):
        return 0.5 * (new.ravel() - x) @ omega @ (new.ravel() + x)

    x, top = rotation.ravel(), np.linalg.eigvalsh(omega)[-1]
    for _ in range(max_steps):
        grad_mat = numpy_form_derivatives(omega, rotation)[0]
        tiny = 1e-14 * np.linalg.norm(grad_mat)
        new = numpy_newton_step(omega, rotation)
        if new is not None:
            step = change(new)
            if 0.0 < step <= tiny:
                break
        if new is None or step > 0.0:
            new = project_to_so3(top * rotation - grad_mat)
            step = change(new)
            if step > 0.0:
                break
        rotation, x = new, new.ravel()
        if -step <= tiny:
            break
    return rotation


class TestNewtonKernel:
    """The stacked contraction and the float Newton step of _minimize_form
    against their numpy reference."""

    @pytest.mark.parametrize("seed", range(4))
    def test_derivatives_match_the_numpy_reference(self, basis, intrinsics, seed):
        _, c, _, (_, table) = form_scene(basis, intrinsics, 130 + seed)
        omega, _ = fp_solver._rotation_form(table, c)
        rng = np.random.default_rng(140 + seed)
        for _ in range(10):
            rotation = random_rotation(rng)
            grad_mat, grad, hess = numpy_form_derivatives(omega, rotation)
            got_grad, got_hess = kernel_terms(omega, rotation)
            got_mx = fp_solver._form_derivatives(omega, rotation)[0]
            assert np.max(np.abs(got_mx - grad_mat.ravel())) <= 1e-12 * np.max(
                np.abs(grad_mat)
            )
            assert np.max(np.abs(got_grad - grad)) <= 1e-12 * np.max(np.abs(grad))
            assert np.max(np.abs(got_hess - hess)) <= 1e-12 * np.max(np.abs(hess))

    @pytest.mark.parametrize("seed", range(4))
    def test_a_kept_step_is_the_numpy_newton_step(self, basis, intrinsics, seed):
        _, c, truth, (_, table) = form_scene(basis, intrinsics, 150 + seed)
        omega, _ = fp_solver._rotation_form(table, c)
        rng = np.random.default_rng(160 + seed)
        for _ in range(10):
            start = truth @ so3_exp(rng.normal(0.0, 0.2, 3))
            want = numpy_newton_step(omega, start)
            assert form_value(omega, want) < form_value(omega, start)
            _, grad, hess = fp_solver._form_derivatives(omega, start)
            got = np.array(so3_newton_rows(start.tolist(), grad, hess))
            assert np.max(np.abs(got - want)) <= 1e-14
            one = fp_solver._minimize_form(omega, start, max_steps=1)
            assert np.max(np.abs(one - want)) <= 1e-14

    def test_an_indefinite_hessian_falls_through_to_majorization(
        self, basis, intrinsics, monkeypatch
    ):
        _, c, truth, (_, table) = form_scene(basis, intrinsics, 110)
        omega, _ = fp_solver._rotation_form(table, c)
        best = fp_solver._minimize_form(omega, truth)
        start = best @ so3_exp(np.radians(176.0) * np.array([1.0, 0.0, 0.0]))
        assert numpy_newton_step(omega, start) is None
        _, grad, hess = fp_solver._form_derivatives(omega, start)
        assert so3_newton_rows(start.tolist(), grad, hess) is None

        calls = []

        def spy(m):
            calls.append(m)
            return project_to_so3(m)

        monkeypatch.setattr(fp_solver, "project_to_so3", spy)
        got = fp_solver._minimize_form(omega, start, max_steps=1)
        top = np.linalg.eigvalsh(omega)[-1]
        want = project_to_so3(top * start - (omega @ start.ravel()).reshape(3, 3))
        assert len(calls) == 1
        assert np.max(np.abs(got - want)) <= 1e-14
        assert form_value(omega, got) < form_value(omega, start)

    @pytest.mark.parametrize("seed", range(4))
    def test_solve_matches_the_numpy_reference(self, basis, intrinsics, seed):
        _, c, _, (_, table) = form_scene(basis, intrinsics, 170 + seed)
        omega, _ = fp_solver._rotation_form(table, c)
        rng = np.random.default_rng(180 + seed)
        for _ in range(10):
            start = random_rotation(rng)
            got = fp_solver._minimize_form(omega, start)
            want = numpy_minimize_form(omega, start)
            assert form_value(omega, got) == pytest.approx(
                form_value(omega, want), rel=1e-12
            )
            # a last Newton step below the form's rounding may be kept by one
            # version and not the other
            assert np.max(np.abs(got - want)) <= 1e-8


class TestExactRotationBlock:
    @pytest.mark.parametrize("seed", range(5))
    def test_form_equals_cost_with_t_and_depths_eliminated(
        self, basis, intrinsics, seed
    ):
        obs, _, _, (_, table) = form_scene(basis, intrinsics, 60 + seed)
        rng = np.random.default_rng(70 + seed)
        wt = normalize_keypoints(_cleaned_w(obs), intrinsics)
        lam = 0.3
        for _ in range(4):
            rotation, c = random_rotation(rng), rng.normal(0.0, 0.5, 2)
            omega, ainv_lg = fp_solver._rotation_form(table, c)
            translation = -ainv_lg @ rotation.ravel()
            points = rotation @ compose_shape(basis, c) + translation[:, None]
            depths = np.sum(wt * points, axis=0) / np.sum(wt**2, axis=0)
            direct = cost_fp(
                obs, intrinsics, basis, rotation, translation, c, depths, lam
            )
            reduced = form_value(omega, rotation) + 0.5 * lam * c @ c
            assert reduced == pytest.approx(direct, rel=1e-10)

    @pytest.mark.parametrize("seed", range(4))
    def test_solve_matches_majorization_reference(self, basis, intrinsics, seed):
        obs, c, truth, (_, table) = form_scene(basis, intrinsics, 80 + seed)
        omega, _ = fp_solver._rotation_form(table, c)
        start = truth @ so3_exp(np.random.default_rng(seed).normal(0.0, 0.3, 3))
        got = fp_solver._minimize_form(omega, start)
        want = majorized(omega, start, 2000)
        assert form_value(omega, got) == pytest.approx(
            form_value(omega, want), rel=1e-10
        )
        assert np.max(np.abs(got - want)) < 1e-6

    @pytest.mark.parametrize("seed", range(4))
    def test_newton_terms_match_central_differences(self, basis, intrinsics, seed):
        obs, c, _, (_, table) = form_scene(basis, intrinsics, 90 + seed)
        omega, _ = fp_solver._rotation_form(table, c)
        rng = np.random.default_rng(100 + seed)
        for _ in range(3):
            rotation = random_rotation(rng)
            grad, hess = kernel_terms(omega, rotation)

            def f(w):
                return form_value(omega, rotation @ so3_exp(w))

            eye, h = np.eye(3), 1e-4
            num_grad = [(f(1e-6 * e) - f(-1e-6 * e)) / 2e-6 for e in eye]
            num_hess = [
                [
                    (f(h * (a + b)) - f(h * (a - b)) - f(h * (b - a)) + f(-h * (a + b)))
                    / (4 * h * h)
                    for b in eye
                ]
                for a in eye
            ]
            assert np.max(np.abs(grad - num_grad)) <= 1e-6 * np.max(np.abs(grad))
            assert np.max(np.abs(hess - num_hess)) <= 1e-6 * np.max(np.abs(hess))

    def test_far_start_takes_majorization_steps_down_to_the_minimizer(
        self, basis, intrinsics, monkeypatch
    ):
        obs, c, truth, (_, table) = form_scene(basis, intrinsics, 110)
        omega, _ = fp_solver._rotation_form(table, c)
        best = fp_solver._minimize_form(omega, truth)
        # the form has a second local minimum near the 180-degree rotation of
        # this one; 176-degree starts about some other axes descend to it
        start = best @ so3_exp(np.radians(176.0) * np.array([1.0, 0.0, 0.0]))
        assert np.degrees(geodesic_distance(start, best)) == pytest.approx(176.0)
        hess = kernel_terms(omega, start)[1]
        assert np.linalg.eigvalsh(hess)[0] < 0.0

        calls = []

        def spy(m):
            calls.append(m)
            return project_to_so3(m)

        monkeypatch.setattr(fp_solver, "project_to_so3", spy)
        values = [
            form_value(omega, fp_solver._minimize_form(omega, start, max_steps=n))
            for n in range(51)
        ]
        assert calls
        assert np.all(np.diff(values) <= 1e-12 * values[0])
        got = fp_solver._minimize_form(omega, start)
        want = form_value(omega, best)
        assert form_value(omega, got) == pytest.approx(want, rel=1e-10)
        assert np.max(np.abs(got - best)) < 1e-6

    def test_all_confident_keypoints_on_one_ray_raise(self, basis, intrinsics):
        # on the optical axis A = sum_i d_i P_i = 5 diag(1, 1, 0) is exactly
        # singular, so inverting it would raise LinAlgError
        c, shape, rotation, translation, pixels = make_fp_scene(basis, intrinsics, 120)
        d = np.zeros(12)
        d[:5] = 1.0
        pixels[:, :5] = np.array([intrinsics.cx, intrinsics.cy])[:, None]
        with pytest.raises(DegenerateGeometryError):
            solve_fp(
                KeypointObservations(pixels, d),
                intrinsics,
                basis,
                init=(rotation, translation),
            )
