import math

import numpy as np
import pytest

from kpfit import (
    DegenerateGeometryError,
    InsufficientConstraintsError,
    KeypointObservations,
    ShapeBasis,
    SolverOptions,
    compose_shape,
    convex_init,
    cost_wp,
    geodesic_distance,
    lift_stiefel,
    project_weak,
    so3_exp,
    solve_wp,
    weighted_procrustes,
    wp_cost_gradient,
)
from kpfit import wp_solver
from kpfit.geometry import hat, project_to_so3
from conftest import array_mu, make_basis, random_rotation


def make_wp_obs(basis, seed, s=0.01, coeff_scale=1.0, d=None):
    """Noiseless weak-perspective observations from a random pose."""
    rng = np.random.default_rng(seed)
    c = coeff_scale * rng.normal(0.0, 1.0, basis.num_modes) * np.sqrt(basis.eigenvalues)
    rotation = random_rotation(rng)
    tbar = rng.normal(0.0, 0.1, 2)
    shape = compose_shape(basis, c)
    w = project_weak(s, rotation[:2], tbar, shape)
    if d is None:
        d = np.ones(basis.num_keypoints)
    return KeypointObservations(w, d), (s, c, rotation, tbar)


def wp_moments(obs, b0):
    """5x5 weighted moments of the centred [W; B0], formed from arrays."""
    d = obs.d
    rows = np.concatenate([wp_solver._cleaned_w(obs), b0])
    rows = rows - (rows @ d / d.sum())[:, None]
    return rows @ (rows * d).T


def random_theta(basis, seed):
    rng = np.random.default_rng(seed)
    return (
        rng.uniform(0.5, 2.0),
        rng.normal(size=basis.num_modes),
        random_rotation(rng)[:2],
        rng.normal(size=2),
    )


def naive_cost(obs, basis, s, c, rbar, tbar, lam):
    """Independent per-keypoint sum, deliberately loop-based."""
    shape = basis.b0 + sum(ci * bi for ci, bi in zip(c, basis.modes))
    total = 0.0
    for i in range(obs.num_keypoints):
        if obs.d[i] == 0.0:
            continue
        pred = s * (rbar @ shape[:, i]) + tbar
        total += 0.5 * obs.d[i] * np.sum((obs.w[:, i] - pred) ** 2)
    return total + 0.5 * lam * np.sum(np.asarray(c) ** 2)


class TestCostWp:
    def test_zero_at_generating_parameters(self, basis):
        obs, (s, c, rotation, tbar) = make_wp_obs(basis, 0)
        assert cost_wp(obs, basis, s, c, rotation[:2], tbar, 0.0) < 1e-20

    def test_zero_weights_leave_only_penalty(self, basis):
        rng = np.random.default_rng(1)
        obs = KeypointObservations(rng.normal(size=(3 - 1, 12)), np.zeros(12))
        s, c, rbar, tbar = random_theta(basis, 2)
        lam = 0.7
        assert cost_wp(obs, basis, s, c, rbar, tbar, lam) == pytest.approx(
            0.5 * lam * np.sum(c**2)
        )

    def test_matches_naive_sum(self, basis):
        rng = np.random.default_rng(3)
        for seed in range(10):
            obs = KeypointObservations(
                rng.normal(size=(2, 12)) * 10.0, rng.uniform(0.0, 1.0, 12)
            )
            s, c, rbar, tbar = random_theta(basis, 100 + seed)
            lam = rng.uniform(0.0, 1.0)
            assert cost_wp(obs, basis, s, c, rbar, tbar, lam) == pytest.approx(
                naive_cost(obs, basis, s, c, rbar, tbar, lam), abs=1e-12, rel=1e-12
            )


class TestConvexInit:
    def test_noiseless_recovery(self, basis):
        obs, (s, c, rotation, tbar) = make_wp_obs(basis, 4, coeff_scale=0.0)
        (s0, rbar0), _ = convex_init(wp_moments(obs, basis.b0), mu=1e-8)
        assert s0 == pytest.approx(s, rel=1e-6)
        assert geodesic_distance(lift_stiefel(rbar0), rotation) < 1e-4

    def test_large_mu_kills_pose(self, basis):
        obs, _ = make_wp_obs(basis, 5)
        s0, _ = convex_init(wp_moments(obs, basis.b0), mu=1e9)[0]
        assert s0 < 1e-8

    def test_relaxed_objective_is_convex(self, basis):
        # midpoint objective never exceeds the endpoint mean
        rng = np.random.default_rng(6)
        obs, _ = make_wp_obs(basis, 7, d=rng.uniform(0.1, 1.0, 12))
        mu = 0.3

        def objective(m, tbar):
            r = obs.w - m @ basis.b0 - tbar[:, None]
            return 0.5 * np.sum(obs.d * np.sum(r**2, axis=0)) + mu * np.linalg.svd(
                m, compute_uv=False
            )[0]

        for _ in range(50):
            m1, m2 = rng.normal(size=(2, 2, 3))
            t1, t2 = rng.normal(size=(2, 2))
            mid = objective(0.5 * (m1 + m2), 0.5 * (t1 + t2))
            assert mid <= 0.5 * (objective(m1, t1) + objective(m2, t2)) + 1e-10


class TestSolveWp:
    def test_noiseless_recovery_many_seeds(self, basis):
        successes = 0
        # near-zero ridge: at this scene scale a visible ridge would bias c
        opts = SolverOptions(lam=1e-10)
        for seed in range(100):
            obs, (s, c, rotation, tbar) = make_wp_obs(basis, seed, coeff_scale=0.3)
            est = solve_wp(obs, basis, opts)
            rot_err = geodesic_distance(est.rotation(), rotation)
            if np.degrees(rot_err) < 0.5 and abs(est.s - s) / s < 0.01:
                successes += 1
        assert successes >= 95

    def test_zero_weight_outlier_is_ignored(self, basis):
        obs, _ = make_wp_obs(basis, 8)
        d = obs.d.copy()
        d[3] = 0.0
        w_wild = obs.w.copy()
        w_wild[:, 3] = [1e4, -1e4]
        est_wild = solve_wp(KeypointObservations(w_wild, d), basis)
        est_clean = solve_wp(KeypointObservations(obs.w, d), basis)
        assert est_wild.s == pytest.approx(est_clean.s, abs=1e-9)
        assert np.max(np.abs(est_wild.rbar - est_clean.rbar)) < 1e-9
        assert np.max(np.abs(est_wild.tbar - est_clean.tbar)) < 1e-9
        assert np.max(np.abs(est_wild.c - est_clean.c)) < 1e-9

    def test_block_updates_monotone(self, basis):
        for seed in range(5):
            obs, _ = make_wp_obs(basis, 20 + seed, coeff_scale=0.5)
            # perturb to make the fit non-trivial
            rng = np.random.default_rng(seed)
            obs = KeypointObservations(
                obs.w + rng.normal(0.0, 0.002, obs.w.shape),
                rng.uniform(0.2, 1.0, obs.num_keypoints),
            )
            est = solve_wp(obs, basis, SolverOptions(record_block_costs=True))
            costs = np.array(est.block_costs)
            assert np.all(np.diff(costs) <= 1e-10)

    def test_offset_is_at_its_closed_form(self, basis):
        # the offset is eliminated at the weighted means, so its gradient
        # vanishes to rounding whatever block the descent stopped after
        lam = wp_solver.default_lambda(basis)
        for seed in range(20):
            obs, _ = make_wp_obs(basis, 20 + seed, coeff_scale=0.5)
            rng = np.random.default_rng(seed)
            obs = KeypointObservations(
                obs.w + rng.normal(0.0, 0.002, obs.w.shape),
                rng.uniform(0.2, 1.0, obs.num_keypoints),
            )
            est = solve_wp(obs, basis, SolverOptions(record_block_costs=True))
            _, _, g_tbar, _ = wp_cost_gradient(
                obs, basis, est.s, est.c, est.rbar, est.tbar, lam
            )
            spread = obs.w - (obs.w @ obs.d / obs.d.sum())[:, None]
            scale = float(np.sum(obs.d * np.linalg.norm(spread, axis=0)))
            assert np.linalg.norm(g_tbar) <= 1e-12 * scale
            assert len(est.block_costs) == 1 + 3 * est.iterations

    def test_stationarity_of_closed_form_blocks(self, basis):
        obs, _ = make_wp_obs(basis, 30, coeff_scale=0.5)
        rng = np.random.default_rng(31)
        obs = KeypointObservations(
            obs.w + rng.normal(0.0, 0.001, obs.w.shape), obs.d
        )
        opts = SolverOptions(relative_tolerance=1e-14, max_iterations=2000)
        est = solve_wp(obs, basis, opts)
        lam = 0.0 if opts.lam is None else opts.lam
        from kpfit.wp_solver import default_lambda

        lam = default_lambda(basis)

        def cost_of(s, c, tbar):
            return cost_wp(obs, basis, s, c, est.rbar, tbar, lam)

        eps = 1e-6
        grads = []
        grads.append(
            (cost_of(est.s + eps, est.c, est.tbar) - cost_of(est.s - eps, est.c, est.tbar))
            / (2 * eps)
        )
        for j in range(2):
            dc = np.zeros(2)
            dc[j] = eps
            grads.append(
                (cost_of(est.s, est.c + dc, est.tbar) - cost_of(est.s, est.c - dc, est.tbar))
                / (2 * eps)
            )
        for j in range(2):
            dt = np.zeros(2)
            dt[j] = eps
            grads.append(
                (cost_of(est.s, est.c, est.tbar + dt) - cost_of(est.s, est.c, est.tbar - dt))
                / (2 * eps)
            )
        assert np.linalg.norm(grads) < 1e-6

    def test_weight_scale_equivariance(self, basis):
        obs, _ = make_wp_obs(basis, 40, coeff_scale=0.5)
        rng = np.random.default_rng(41)
        w = obs.w + rng.normal(0.0, 0.002, obs.w.shape)
        d = rng.uniform(0.3, 1.0, obs.num_keypoints)
        lam = 0.05
        alpha = 3.7
        tight = dict(relative_tolerance=1e-14, max_iterations=5000)
        est1 = solve_wp(KeypointObservations(w, d), basis, SolverOptions(lam=lam, **tight))
        est2 = solve_wp(
            KeypointObservations(w, alpha * d),
            basis,
            SolverOptions(lam=alpha * lam, **tight),
        )
        assert est1.s == pytest.approx(est2.s, rel=1e-7)
        assert np.max(np.abs(est1.rbar - est2.rbar)) < 1e-6
        assert np.max(np.abs(est1.tbar - est2.tbar)) < 1e-6
        assert np.max(np.abs(est1.c - est2.c)) < 1e-6

    def test_translation_equivariance(self, basis):
        obs, _ = make_wp_obs(basis, 50, coeff_scale=0.5)
        shift = np.array([1.25, -0.75])
        est1 = solve_wp(obs, basis)
        est2 = solve_wp(KeypointObservations(obs.w + shift[:, None], obs.d), basis)
        assert np.max(np.abs(est2.tbar - (est1.tbar + shift))) < 1e-9
        assert est1.s == pytest.approx(est2.s, abs=1e-9)
        assert np.max(np.abs(est1.rbar - est2.rbar)) < 1e-9
        assert np.max(np.abs(est1.c - est2.c)) < 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_pixel_shift_moves_only_the_offset(self, basis, seed):
        obs, _ = make_wp_obs(basis, 900 + seed, coeff_scale=0.5)
        rng = np.random.default_rng(910 + seed)
        w = obs.w + rng.normal(0.0, 0.002, obs.w.shape)
        d = rng.uniform(0.2, 1.0, obs.num_keypoints)
        shift = rng.normal(0.0, 3.0, 2)
        est1 = solve_wp(KeypointObservations(w, d), basis)
        est2 = solve_wp(KeypointObservations(w + shift[:, None], d), basis)
        assert np.max(np.abs(est2.tbar - est1.tbar - shift)) < 1e-8
        assert est2.s == pytest.approx(est1.s, abs=1e-8)
        assert np.max(np.abs(est2.c - est1.c)) < 1e-8
        assert np.max(np.abs(est2.rbar - est1.rbar)) < 1e-8

    @pytest.mark.parametrize("seed", range(5))
    def test_confidence_scale_leaves_the_argmin(self, basis, seed):
        # the cost scales by alpha when the confidences, the ridge weight and
        # the spectral-norm weight of the initialization all do
        obs, _ = make_wp_obs(basis, 920 + seed, coeff_scale=0.5)
        rng = np.random.default_rng(930 + seed)
        w = obs.w + rng.normal(0.0, 0.002, obs.w.shape)
        d = rng.uniform(0.2, 1.0, obs.num_keypoints)
        alpha = rng.uniform(0.01, 100.0)
        lam, mu = 0.05, array_mu(w, d)
        est1 = solve_wp(
            KeypointObservations(w, d), basis, SolverOptions(lam=lam, mu=mu)
        )
        est2 = solve_wp(
            KeypointObservations(w, alpha * d),
            basis,
            SolverOptions(lam=alpha * lam, mu=alpha * mu),
        )
        assert est2.final_cost == pytest.approx(alpha * est1.final_cost, rel=1e-10)
        assert est2.s == pytest.approx(est1.s, abs=1e-8)
        assert np.max(np.abs(est2.c - est1.c)) < 1e-8
        assert np.max(np.abs(est2.rbar - est1.rbar)) < 1e-8
        assert np.max(np.abs(est2.tbar - est1.tbar)) < 1e-8

    def test_too_few_points(self, basis):
        obs, _ = make_wp_obs(basis, 60)
        d = np.zeros(obs.num_keypoints)
        d[:3] = 1.0
        with pytest.raises(InsufficientConstraintsError):
            solve_wp(KeypointObservations(obs.w, d), basis)

    def test_collinear_observations_rejected(self, basis):
        t = np.linspace(0.0, 1.0, basis.num_keypoints)
        w = np.vstack([t, 2.0 * t])
        obs = KeypointObservations(w, np.ones(basis.num_keypoints))
        with pytest.raises(DegenerateGeometryError):
            solve_wp(obs, basis)

    @pytest.mark.parametrize("off_line_confidence", [None, 0.0])
    def test_collinear_confident_mean_shape_rejected(self, off_line_confidence):
        # b0 on a line, except point 0 when it carries no confidence: the
        # weighted moments of the centred mean shape then have rank 1, while
        # the observations are not collinear
        basis = make_basis(seed=3, p=8)
        rng = np.random.default_rng(960)
        line = np.outer([0.3, -0.5, 0.8], np.linspace(-1.0, 1.0, 8))
        b0 = line + np.array([[0.1], [0.2], [-0.4]])
        d = np.ones(8)
        if off_line_confidence is not None:
            b0[:, 0] = [0.7, 0.9, 0.2]
            d[0] = off_line_confidence
        basis = ShapeBasis(basis.class_name, b0, basis.modes, basis.eigenvalues)
        obs = KeypointObservations(rng.normal(size=(2, 8)), d)
        with pytest.raises(DegenerateGeometryError, match="mean shape"):
            solve_wp(obs, basis)
        if off_line_confidence is not None:  # a confident point 0 is enough
            assert solve_wp(KeypointObservations(obs.w, np.ones(8)), basis).s > 0.0

    @pytest.mark.parametrize("seed", range(4))
    def test_convex_init_reads_the_fit_gram_once(self, basis, seed, monkeypatch):
        calls = []
        original = wp_solver.convex_init

        def recording(moments, mu, *args, **kwargs):
            calls.append((np.array(moments), mu))
            return original(moments, mu, *args, **kwargs)

        monkeypatch.setattr(wp_solver, "convex_init", recording)
        obs, _ = make_wp_obs(basis, 970 + seed, s=50.0, coeff_scale=0.5)
        rng = np.random.default_rng(980 + seed)
        w = obs.w + rng.normal(0.0, 0.5, obs.w.shape) + rng.normal(0.0, 300.0, (2, 1))
        d = rng.uniform(0.2, 1.0, basis.num_keypoints)
        d[seed] = 0.0
        w[:, seed] = np.nan  # a zero-confidence column may hold anything
        obs = KeypointObservations(w, d)
        solve_wp(obs, basis, SolverOptions())
        assert len(calls) == 1
        moments, mu = calls[0]
        ref = wp_moments(obs, basis.b0)
        assert mu == pytest.approx(array_mu(wp_solver._cleaned_w(obs), d), rel=1e-12)
        assert moments.shape == (5, 5)
        assert np.max(np.abs(moments - ref)) <= 1e-12 * np.abs(ref).max()
        # an explicit mu is passed through unchanged
        calls.clear()
        solve_wp(obs, basis, SolverOptions(mu=0.25))
        assert len(calls) == 1 and calls[0][1] == 0.25

    def test_final_cost_consistent(self, basis):
        obs, _ = make_wp_obs(basis, 70, coeff_scale=0.5)
        opts = SolverOptions(lam=0.01)
        est = solve_wp(obs, basis, opts)
        recomputed = cost_wp(obs, basis, est.s, est.c, est.rbar, est.tbar, 0.01)
        assert est.final_cost == pytest.approx(recomputed, rel=1e-10)


class TestGradient:
    def test_matches_per_mode_and_per_axis_loops(self, basis):
        rng = np.random.default_rng(81)
        obs = KeypointObservations(
            rng.normal(0.0, 5.0, (2, 12)), rng.uniform(0.1, 1.0, 12)
        )
        for seed in range(10):
            s, c, rbar, tbar = random_theta(basis, 300 + seed)
            _, g_c, _, g_omega = wp_cost_gradient(obs, basis, s, c, rbar, tbar, 0.3)
            shape = compose_shape(basis, c)
            wr = (obs.w - s * (rbar @ shape) - tbar[:, None]) * obs.d
            loop_c = [-s * np.sum(wr * (rbar @ m)) for m in basis.modes] + 0.3 * c
            loop_omega = [-s * np.sum(wr * (rbar @ hat(e) @ shape)) for e in np.eye(3)]
            assert np.allclose(g_c, loop_c, rtol=1e-12, atol=1e-12)
            assert np.allclose(g_omega, loop_omega, rtol=1e-12, atol=1e-12)

    def test_matches_central_differences(self, basis):
        rng = np.random.default_rng(80)
        obs = KeypointObservations(
            rng.normal(0.0, 5.0, (2, 12)), rng.uniform(0.1, 1.0, 12)
        )
        lam = 0.3
        eps = 1e-6
        for seed in range(20):
            s, c, rbar, tbar = random_theta(basis, 200 + seed)
            g_s, g_c, g_tbar, g_omega = wp_cost_gradient(
                obs, basis, s, c, rbar, tbar, lam
            )

            def cost_at(ds=0.0, dc=None, dt=None, omega=None):
                rb = rbar
                if omega is not None:
                    from kpfit import so3_exp

                    rb = rbar @ so3_exp(omega)
                return cost_wp(
                    obs,
                    basis,
                    s + ds,
                    c if dc is None else c + dc,
                    rb,
                    tbar if dt is None else tbar + dt,
                    lam,
                )

            num_s = (cost_at(ds=eps) - cost_at(ds=-eps)) / (2 * eps)
            assert g_s == pytest.approx(num_s, rel=1e-5, abs=1e-8)
            for j in range(2):
                step = np.zeros(2)
                step[j] = eps
                num = (cost_at(dc=step) - cost_at(dc=-step)) / (2 * eps)
                assert g_c[j] == pytest.approx(num, rel=1e-5, abs=1e-8)
                num = (cost_at(dt=step) - cost_at(dt=-step)) / (2 * eps)
                assert g_tbar[j] == pytest.approx(num, rel=1e-5, abs=1e-8)
            for j in range(3):
                step = np.zeros(3)
                step[j] = eps
                num = (cost_at(omega=step) - cost_at(omega=-step)) / (2 * eps)
                assert g_omega[j] == pytest.approx(num, rel=1e-5, abs=1e-8)


def rotation_block_scene(basis, seed):
    """Noisy weak-perspective scene with s, c and tbar fixed, plus a random
    start for the rows: (w, d, s, c, shape, tbar, rbar_start)."""
    rng = np.random.default_rng(seed)
    c = rng.normal(0.0, 0.2, basis.num_modes)
    shape = compose_shape(basis, c)
    s = rng.uniform(0.5, 2.0)
    tbar = rng.normal(size=2)
    w = project_weak(s, random_rotation(rng)[:2], tbar, shape)
    w = w + rng.normal(0.0, 0.05, w.shape)
    d = rng.uniform(0.2, 1.0, basis.num_keypoints)
    return w, d, s, c, shape, tbar, random_rotation(rng)[:2]


def rows_moments(w, d, s, shape, tbar):
    """sum_i d_i |a_i|^2, N = sum_i d_i a_i b_i^T (2x3) and M = sum_i d_i b_i b_i^T
    (3x3) for a_i = w_i - tbar and b_i = s S_i, as a float and nested lists."""
    ab = np.concatenate([w - tbar[:, None], s * shape])
    g = (ab @ (ab * d).T).tolist()
    return g[0][0] + g[1][1], [row[2:] for row in g[:2]], [row[2:] for row in g[2:]]


def update_rbar(w, d, s, shape, tbar, rbar, max_steps=50):
    """The WP rotation-rows block on one scene with s, c and tbar fixed:
    wp_solver._solve_rows on the moments of a_i = w_i - tbar and b_i = s S_i,
    from ``rbar``."""
    rows = wp_solver._rotation_rows(rbar)
    moments = rows_moments(w, d, s, shape, tbar)
    return np.array(wp_solver._solve_rows(*moments, rows, max_steps)[0][:2])


def rows_cost(w, d, s, shape, tbar, rbar):
    return float(np.sum(d * np.sum((w - tbar[:, None] - s * (rbar @ shape)) ** 2, axis=0)))


def numpy_update_rbar(w, d, s, shape, tbar, rbar, max_steps=50):
    """Reference rotation block: the same safeguarded Newton steps and
    completion passes as update_rbar, written with numpy 3x3
    arrays and with every cost summed over the keypoints."""
    a = w - tbar[:, None]
    b = s * shape
    db = b * d
    n = np.zeros((3, 3))
    n[:2] = a @ db.T
    m = b @ db.T
    rot = lift_stiefel(rbar)

    def cost(r):
        return float(np.sum(d * np.sum((a - r[:2] @ b) ** 2, axis=0)))

    current = cost(rot)
    for _ in range(max_steps):
        prev = current
        u = rot[2]
        mu = m @ u
        hu = hat(u)
        x = rot.T @ n
        grad = 2.0 * (hu @ mu) - 2.0 * np.array(
            [x[2, 1] - x[1, 2], x[0, 2] - x[2, 0], x[1, 0] - x[0, 1]]
        )
        mu_u = np.outer(mu, u)
        hess = (
            2.0 * (np.trace(x) + u @ mu) * np.eye(3)
            - (x + x.T)
            - 2.0 * (hu.T @ m @ hu)
            - (mu_u + mu_u.T)
        )
        step = None
        try:
            np.linalg.cholesky(hess)
        except np.linalg.LinAlgError:
            pass
        else:
            step = rot @ so3_exp(-np.linalg.solve(hess, grad))
            step_cost = cost(step)
        if step is not None and step_cost <= current:
            rot, current = step, step_cost
        elif step is not None and step_cost - current <= 1e-14 * max(current, 1.0):
            break
        else:
            n[2] = mu
            rot = project_to_so3(n)
            n[2] = 0.0
            current = cost(rot)
        if prev - current <= 1e-14 * max(prev, 1.0):
            break
    return rot[:2]


def rotation_block_starts(basis, seed):
    """A scene from rotation_block_scene with its random start and three
    starts about 176 degrees from the block's minimizer."""
    w, d, s, c, shape, tbar, start = rotation_block_scene(basis, seed)
    best = numpy_update_rbar(w, d, s, shape, tbar, start)
    far = [(lift_stiefel(best) @ so3_exp(0.98 * np.pi * e))[:2] for e in np.eye(3)]
    return (w, d, s, shape, tbar), [start] + far


class TestRotationBlock:
    def test_reaches_stationary_point(self, basis):
        for seed in range(20):
            w, d, s, c, shape, tbar, start = rotation_block_scene(basis, 300 + seed)
            rbar = update_rbar(w, d, s, shape, tbar, start)
            g_omega = wp_cost_gradient(
                KeypointObservations(w, d), basis, s, c, rbar, tbar, 0.0
            )[3]
            scale = np.sum(d * np.sum((s * shape) ** 2, axis=0))
            assert np.linalg.norm(g_omega) <= 1e-8 * scale

    def test_never_above_one_completion_pass(self, basis):
        for seed in range(20):
            w, d, s, c, shape, tbar, start = rotation_block_scene(basis, 400 + seed)
            b = s * shape
            completed = np.vstack([w - tbar[:, None], lift_stiefel(start)[2] @ b])
            one_pass = weighted_procrustes(completed, b, d)[:2]
            rbar = update_rbar(w, d, s, shape, tbar, start)
            assert rows_cost(w, d, s, shape, tbar, rbar) <= rows_cost(
                w, d, s, shape, tbar, one_pass
            ) * (1.0 + 1e-12)

    def test_start_opposite_the_optimum_falls_back_and_descends(
        self, basis, monkeypatch
    ):
        calls = []

        def counting(cross_cov):
            calls.append(1)
            return project_to_so3(cross_cov)

        monkeypatch.setattr(wp_solver, "project_to_so3", counting)
        for seed in range(5):
            w, d, s, c, shape, tbar, start = rotation_block_scene(basis, 500 + seed)
            best = update_rbar(w, d, s, shape, tbar, start)
            best_cost = rows_cost(w, d, s, shape, tbar, best)
            for axis in np.eye(3):
                # about 176 degrees from the optimum, far outside the region
                # where plain Newton steps descend
                far = (lift_stiefel(best) @ so3_exp(0.98 * np.pi * axis))[:2]
                calls.clear()
                rbar = update_rbar(w, d, s, shape, tbar, far)
                assert calls
                assert rows_cost(w, d, s, shape, tbar, rbar) < rows_cost(
                    w, d, s, shape, tbar, far
                )
                assert rows_cost(w, d, s, shape, tbar, rbar) == pytest.approx(
                    best_cost, rel=1e-9
                )


def test_rotation_block_at_its_solution_needs_no_completion_pass(basis, monkeypatch):
    # at the block's minimizer a Newton step can raise the cost only by
    # rounding; that ends the call instead of paying for a fallback SVD
    calls = []

    def counting(cross_cov):
        calls.append(1)
        return project_to_so3(cross_cov)

    monkeypatch.setattr(wp_solver, "project_to_so3", counting)
    for seed in range(20):
        w, d, s, c, shape, tbar, start = rotation_block_scene(basis, 600 + seed)
        solved = update_rbar(w, d, s, shape, tbar, start)
        calls.clear()
        again = update_rbar(w, d, s, shape, tbar, solved)
        assert not calls
        assert rows_cost(w, d, s, shape, tbar, again) <= rows_cost(
            w, d, s, shape, tbar, solved
        ) * (1.0 + 1e-14)


@pytest.mark.parametrize("seed", [300, 400, 500, 600])
def test_rotation_block_matches_numpy_reference(basis, seed):
    for offset in range(5):
        scene, starts = rotation_block_starts(basis, seed + offset)
        for start in starts:
            # one step (Newton or completion pass) is the same arithmetic
            one = update_rbar(*scene, start, max_steps=1)
            assert np.max(np.abs(one - numpy_update_rbar(*scene, start, 1))) <= 1e-12
            ref = numpy_update_rbar(*scene, start)
            rbar = update_rbar(*scene, start)
            assert rows_cost(*scene, rbar) == pytest.approx(
                rows_cost(*scene, ref), rel=1e-12
            )
            # Near the minimizer a last Newton step of up to ~1e-8 in the rows
            # changes the cost by less than its rounding, so whether that step
            # is kept is decided by rounding, differently in the two versions.
            assert np.max(np.abs(rbar - ref)) <= 1e-8


def frozen_newton_rotation(n, m, rows, mu):
    """A frozen copy of the WP rows Newton step as it was before its Cholesky
    solve and Rodrigues update moved to geometry.so3_newton_rows.

    R exp(hat(omega)) for the Newton step omega of the cost at R = ``rows``,
    or None when the Hessian is not positive definite (a Cholesky pivot <= 0).

    For omega -> cost(R exp(hat(omega))) at 0 the gradient is
    2 (r1 x n1 + r2 x n2 + u x mu) and, as |u| = 1, the Hessian is
    2 (tr Y - u.mu) I + 2 M - Y - Y^T with Y = R^T [n1; n2; 3 mu - tr(M) u].
    """
    (a0, a1, a2), (b0, b1, b2), (u0, u1, u2) = rows
    (p0, p1, p2), (q0, q1, q2) = n
    (m00, m01, m02), (_, m11, m12), (_, _, m22) = m
    v0, v1, v2 = mu
    g0 = 2.0 * (a1 * p2 - a2 * p1 + b1 * q2 - b2 * q1 + u1 * v2 - u2 * v1)
    g1 = 2.0 * (a2 * p0 - a0 * p2 + b2 * q0 - b0 * q2 + u2 * v0 - u0 * v2)
    g2 = 2.0 * (a0 * p1 - a1 * p0 + b0 * q1 - b1 * q0 + u0 * v1 - u1 * v0)
    trm = m00 + m11 + m22
    z0, z1, z2 = 3.0 * v0 - trm * u0, 3.0 * v1 - trm * u1, 3.0 * v2 - trm * u2
    y00 = a0 * p0 + b0 * q0 + u0 * z0
    y11 = a1 * p1 + b1 * q1 + u1 * z1
    y22 = a2 * p2 + b2 * q2 + u2 * z2
    diag = 2.0 * (y00 + y11 + y22 - u0 * v0 - u1 * v1 - u2 * v2)
    h00 = diag + 2.0 * (m00 - y00)
    h11 = diag + 2.0 * (m11 - y11)
    h22 = diag + 2.0 * (m22 - y22)
    h10 = 2.0 * m01 - a1 * p0 - a0 * p1 - b1 * q0 - b0 * q1 - u1 * z0 - u0 * z1
    h20 = 2.0 * m02 - a2 * p0 - a0 * p2 - b2 * q0 - b0 * q2 - u2 * z0 - u0 * z2
    h21 = 2.0 * m12 - a2 * p1 - a1 * p2 - b2 * q1 - b1 * q2 - u2 * z1 - u1 * z2
    # Cholesky factor L of H, then omega = -L^-T L^-1 g
    if not h00 > 0.0:
        return None
    l00 = math.sqrt(h00)
    l10, l20 = h10 / l00, h20 / l00
    pivot = h11 - l10 * l10
    if not pivot > 0.0:
        return None
    l11 = math.sqrt(pivot)
    l21 = (h21 - l20 * l10) / l11
    pivot = h22 - l20 * l20 - l21 * l21
    if not pivot > 0.0:
        return None
    l22 = math.sqrt(pivot)
    f0 = g0 / l00
    f1 = (g1 - l10 * f0) / l11
    w2 = -(g2 - l20 * f0 - l21 * f1) / l22 / l22
    w1 = -(f1 + l21 * w2) / l11
    w0 = -(f0 + l10 * w1 + l20 * w2) / l00
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
        new.append(
            [
                c * r0 + a * (r1 * w2 - r2 * w1) + rw * w0,
                c * r1 + a * (r2 * w0 - r0 * w2) + rw * w1,
                c * r2 + a * (r0 * w1 - r1 * w0) + rw * w2,
            ]
        )
    return new


def test_newton_rotation_is_bit_identical_to_its_frozen_copy():
    rng = np.random.default_rng(2024)
    kept = 0
    for trial in range(1000):
        rows = random_rotation(rng).tolist()
        n = (rng.normal(size=(2, 3)) * 10.0 ** rng.uniform(-3, 3)).tolist()
        b = rng.normal(size=(3, 3))
        # moments of a point cloud, or an indefinite M for Hessians without
        # a Cholesky factor
        m = b @ b.T if trial % 2 else 0.5 * (b + b.T)
        m = (m * 10.0 ** rng.uniform(-3, 3)).tolist()
        if trial % 2:
            # at a minimizer (steps below the series threshold) or near one
            rows = wp_solver._solve_rows(1.0, n, m, rows)[0]
            if trial % 4 == 3:
                rows = (np.array(rows) @ so3_exp(rng.normal(0.0, 0.1, 3))).tolist()
        u0, u1, u2 = rows[2]
        mu = [mr[0] * u0 + mr[1] * u1 + mr[2] * u2 for mr in m]
        got = wp_solver._newton_rotation(n, m, rows, mu)
        assert got == frozen_newton_rotation(n, m, rows, mu), trial
        kept += got is not None
    assert 0 < kept < 1000


def test_moment_cost_matches_keypoint_sum(basis):
    for seed in range(300, 320):
        scene, starts = rotation_block_starts(basis, seed)
        moments = rows_moments(*scene)
        for start in starts:
            rows = lift_stiefel(start).tolist()
            assert wp_solver._moment_cost(*moments, rows) == pytest.approx(
                rows_cost(*scene, start), rel=1e-10
            )


def numpy_prox_spectral(m, t):
    """Reference prox of t * (spectral norm) at a 2x3 array, by SVD."""
    u, sv, vt = np.linalg.svd(m, full_matrices=False)
    s1, s2 = sv
    if s1 - t >= s2:
        new = np.array([s1 - t, s2])
    else:
        tied = max(0.0, (s1 + s2 - t) / 2.0)
        new = np.array([tied, tied])
    return (u * new) @ vt


def long_proximal_run(g, c, mu, steps=20000):
    """The relaxation min 0.5 <M G, M> - <C, M> + mu ||M||_2 by proximal
    gradient from M = 0, with an SVD per prox, run until the iterate stops
    changing: the reference minimizer."""
    step = 1.0 / np.linalg.eigvalsh(g)[-1]
    m = np.zeros((2, 3))
    for _ in range(steps):
        new = numpy_prox_spectral(m - step * (m @ g - c), step * mu)
        if np.array_equal(new, m):
            break
        m = new
    return m


def centred_rows(obs, b0):
    """The weighted-mean-centred keypoints and mean shape of a fit."""
    d = obs.d
    w = wp_solver._cleaned_w(obs)
    return w - (w @ d / d.sum())[:, None], b0 - (b0 @ d / d.sum())[:, None]


def numpy_relaxed_m(obs, b0, mu):
    """Reference relaxation: long_proximal_run on moments formed from arrays."""
    wc, bc = centred_rows(obs, b0)
    return long_proximal_run((bc * obs.d) @ bc.T, (wc * obs.d) @ bc.T, mu)


def numpy_convex_init(obs, b0, m):
    """Reference candidates: the (s, rbar) factors of a relaxed M ranked by
    their cost at c = 0, with the residuals formed from arrays."""
    d = obs.d
    wc, bc = centred_rows(obs, b0)
    u, sv, vt = np.linalg.svd(m, full_matrices=False)
    s_est = float((sv[0] + sv[1]) / 2.0)
    candidates = []
    for rbar in (u @ vt, u @ vt @ np.diag([1.0, 1.0, -1.0])):
        resid = wc - s_est * (rbar @ bc)
        cost = 0.5 * np.sum(d * np.sum(resid**2, axis=0))
        candidates.append((cost, s_est, rbar))
    candidates.sort(key=lambda t: t[0])
    return [(s, rbar) for _, s, rbar in candidates]


def moments_objective(moments, mu, m):
    """The relaxed objective 0.5 sww - <C, M> + 0.5 <M G, M> + mu ||M||_2."""
    g, c = moments[2:, 2:], moments[:2, 2:]
    return (0.5 * (moments[0, 0] + moments[1, 1]) - np.sum(c * m)
            + 0.5 * np.sum((m @ g) * m) + mu * np.linalg.norm(m, 2))


def reaches_long_run_objective(moments, mu, m, rel):
    """The relaxed objective at ``m`` is no higher than at long_proximal_run's
    minimizer, up to ``rel`` relative."""
    f_long = moments_objective(
        moments, mu, long_proximal_run(moments[2:, 2:], moments[:2, 2:], mu)
    )
    return moments_objective(moments, mu, m) <= f_long + rel * abs(f_long)


def moments_of(c, g, slack=1.0):
    """5x5 moments with cross moments C and mean-shape Gram G, and image
    moments C G^+ C^T + slack I, so that they are a Gram matrix."""
    out = np.zeros((5, 5))
    out[:2, :2] = c @ np.linalg.pinv(g) @ c.T + slack * np.eye(2)
    out[:2, 2:], out[2:, :2], out[2:, 2:] = c, c.T, g
    return out


def spectral_norm_derivatives(frame):
    """The gradient u1 v1^T and the closed-form Hessian of ||M||_2 over the
    row-major entries of M, from the singular frame of wp_solver._norm_frame."""
    s1, s2, gap, (u1, u2), (v1, v2, v3) = frame
    ea, eb, ec = (np.outer(u, v).ravel() for u, v in ((u1, v2), (u2, v1), (u1, v3)))
    hess = (s1 * (np.outer(ea, ea) + np.outer(eb, eb))
            + s2 * (np.outer(ea, eb) + np.outer(eb, ea))) / (s1**2 - s2**2)
    return np.outer(u1, v1).ravel(), hess + np.outer(ec, ec) / s1


def assert_prox_matches_reference(y, t):
    new, top = wp_solver._prox_spectral(y.tolist(), t)
    ref = numpy_prox_spectral(y, t)
    scale = max(np.linalg.norm(y), 1e-300)
    assert np.max(np.abs(np.array(new) - ref)) <= 1e-12 * scale
    top_ref = np.linalg.svd(ref, compute_uv=False)[0]
    assert top == pytest.approx(top_ref, abs=1e-12 * scale)
    return np.array(new), top


class TestFloatRelaxation:
    @pytest.mark.parametrize("seed", range(10))
    def test_prox_matches_svd_reference(self, seed):
        rng = np.random.default_rng(700 + seed)
        y = rng.normal(size=(2, 3)) * 10.0 ** rng.uniform(-3, 3)
        sv = np.linalg.svd(y, compute_uv=False)
        # shrink s1 alone, the tied branch, and the zero branch
        for t in (0.5 * (sv[0] - sv[1]), sv[0] - 0.5 * sv[1], 1.5 * sv[1] + sv[0]):
            assert_prox_matches_reference(y, t)

    def test_prox_at_zero_threshold_returns_the_input(self):
        y = np.random.default_rng(710).normal(size=(2, 3))
        new, top = assert_prox_matches_reference(y, 0.0)
        assert np.array_equal(new, y)
        assert top == pytest.approx(np.linalg.svd(y, compute_uv=False)[0], rel=1e-14)

    def test_prox_of_rank_one_input(self):
        row = np.array([0.3, -1.2, 2.0])
        y = np.vstack([row, -2.5 * row])
        s1 = np.linalg.norm(y)
        for t in (0.0, 0.25 * s1, s1, 2.0 * s1):
            new, top = assert_prox_matches_reference(y, t)
            assert top == pytest.approx(max(s1 - t, 0.0), abs=1e-12 * s1)
        assert not np.any(wp_solver._prox_spectral(y.tolist(), 2.0 * s1)[0])

    def test_prox_above_the_nuclear_norm_is_zero(self):
        y = np.random.default_rng(711).normal(size=(2, 3))
        t = np.sum(np.linalg.svd(y, compute_uv=False))
        for scale in (1.0, 1.0 + 1e-12, 3.0):
            new, top = wp_solver._prox_spectral(y.tolist(), scale * t)
            assert top == 0.0 and not np.any(new)

    def test_prox_tied_branch(self):
        rng = np.random.default_rng(712)
        for _ in range(20):
            y = rng.normal(size=(2, 3))
            s1, s2 = np.linalg.svd(y, compute_uv=False)
            t = rng.uniform(s1 - s2, s1 + s2)
            new, top = assert_prox_matches_reference(y, t)
            assert np.linalg.svd(new, compute_uv=False) == pytest.approx(
                [0.5 * (s1 + s2 - t)] * 2, rel=1e-10
            )

    @pytest.mark.parametrize("t", [0.0, 1e-300, 1e-17, 1e-9, 0.5])
    @pytest.mark.parametrize("seed", [None, 713, 716])
    def test_prox_of_isotropic_input(self, t, seed):
        # y y^T = sigma^2 I: both singular values tie, so every t > 0 takes the
        # tied branch in exact arithmetic. In floats s1 - s2 is 0 for the axis
        # rows and seed 716, 2 ulps for seed 713, so a t below that shrinks s1
        # alone by a step whose denominator holds s1 - s2.
        q = np.eye(3)
        if seed is not None:
            q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))
        sigma = 2.5
        y = sigma * q[:2]
        new, top = wp_solver._prox_spectral(y.tolist(), t)
        assert np.all(np.isfinite(new))
        expect = max(sigma - 0.5 * t, 0.0) if t > 0.0 else sigma
        assert np.max(np.abs(np.array(new) - y * (expect / sigma))) <= 1e-14
        assert top == pytest.approx(expect, abs=1e-14)

    @pytest.mark.parametrize("seed", range(10))
    def test_relaxation_matches_numpy_reference(self, basis, seed):
        # A proximal loop stopped on its objective change ends 4e-7 to 5e-6
        # from the minimizer on these seeds, so the oracle is the minimizer
        # itself: its KKT equation where s1 > s2, where the optimum is tied the
        # objective of a long proximal run, and that run's factors.
        rng = np.random.default_rng(720 + seed)
        obs, _ = make_wp_obs(basis, 730 + seed, s=rng.uniform(0.01, 100.0))
        w = obs.w + rng.normal(0.0, 0.05, obs.w.shape) * np.abs(obs.w).max()
        d = rng.uniform(0.1, 1.0, basis.num_keypoints)
        d[rng.integers(basis.num_keypoints)] = 0.0
        obs = KeypointObservations(w + rng.normal(0.0, 100.0, (2, 1)), d)
        mu = array_mu(wp_solver._cleaned_w(obs), d) * rng.uniform(0.1, 10)
        moments = wp_moments(obs, basis.b0)
        m = wp_solver._relaxed_m(moments, mu)
        u, sv, vt = np.linalg.svd(m)
        tied = seed in (1, 5, 6, 7)
        assert (sv[0] - sv[1] <= 1e-8 * sv[0]) == tied
        ref_m = numpy_relaxed_m(obs, basis.b0, mu)
        if tied:
            f_long = moments_objective(moments, mu, ref_m)
            assert moments_objective(moments, mu, m) <= f_long * (1.0 + 1e-12)
        else:
            g, c = moments[2:, 2:], moments[:2, 2:]
            kkt = m @ g - c + mu * np.outer(u[:, 0], vt[0])
            assert np.linalg.norm(kkt) <= 1e-9 * np.linalg.norm(c)
        got = convex_init(moments, mu)
        ref = numpy_convex_init(obs, basis.b0, ref_m)
        assert len(got) == len(ref) == 2
        # zip in order: the candidates must also be ranked alike
        for (s, rbar), (s_ref, rbar_ref) in zip(got, ref):
            assert s == pytest.approx(s_ref, rel=1e-9)
            assert np.max(np.abs(rbar - rbar_ref)) <= 1e-9

    @pytest.mark.parametrize("rank", [2, 1])
    @pytest.mark.parametrize("seed", range(5))
    def test_spectral_norm_derivatives_match_finite_differences(self, seed, rank):
        # rank 1 (s2 = 0 up to rounding) is smooth too, but m1 x m2 is rounding there
        rng = np.random.default_rng(750 + seed)
        m = rng.normal(size=(2, 3)) * 10.0 ** rng.uniform(-2, 2)
        if rank == 1:
            m = np.outer(rng.normal(size=2), m[0])
        grad, hess = spectral_norm_derivatives(wp_solver._norm_frame(m.tolist()))
        scale = np.linalg.norm(m)
        h = 1e-5 * scale
        basis6 = np.eye(6).reshape(6, 2, 3)

        def top_gradient(x):
            u, _, vt = np.linalg.svd(x)
            return np.outer(u[:, 0], vt[0]).ravel()

        fd_grad = [(np.linalg.norm(m + h * e, 2) - np.linalg.norm(m - h * e, 2)) / (2 * h)
                   for e in basis6]
        fd_hess = np.array([(top_gradient(m + h * e) - top_gradient(m - h * e)) / (2 * h)
                            for e in basis6])
        assert np.max(np.abs(grad - fd_grad)) <= 1e-8
        assert np.max(np.abs(hess - fd_hess)) <= 1e-6 / scale

    @pytest.mark.parametrize("seed", range(5))
    def test_newton_direction_solves_the_closed_form_system(self, seed):
        # the frame-wise block solve against the 6x6 system it factors
        rng = np.random.default_rng(760 + seed)
        m = rng.normal(size=(2, 3))
        lam = np.sort(rng.uniform(0.5, 5.0, 3))
        mu = rng.uniform(0.01, 3.0)
        grad = rng.normal(size=(2, 3))
        frame = wp_solver._norm_frame(m.tolist())
        got = wp_solver._newton_direction(frame, grad.tolist(), lam.tolist(), mu)
        hess = np.kron(np.eye(2), np.diag(lam)) + mu * spectral_norm_derivatives(frame)[1]
        want = -np.linalg.solve(hess, grad.ravel())
        assert np.max(np.abs(np.ravel(got) - want)) <= 1e-12 * np.max(np.abs(want))

    def test_norm_frame_declines_the_kink(self):
        # s1 - s2 <= 1e-8 s1: no Hessian is formed there
        rng = np.random.default_rng(765)
        for _ in range(20):
            u, _ = np.linalg.qr(rng.normal(size=(2, 2)))
            v, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            s1 = rng.uniform(0.1, 10.0)
            for s2, smooth in ((s1, False), (s1 * (1 - 1e-9), False),
                               (s1 * (1 - 1e-7), True), (0.5 * s1, True)):
                frame = wp_solver._norm_frame((u @ np.diag([s1, s2]) @ v[:2]).tolist())
                assert (frame is not None) == smooth
                if smooth:
                    assert frame[:2] == pytest.approx((s1, s2), rel=1e-12)

    def test_newton_step_never_raises_the_objective(self):
        # near the kink the full Newton step often rises; the search must not keep it
        rng = np.random.default_rng(800)
        rises = 0
        for _ in range(200):
            lam = np.sort(rng.uniform(0.1, 5.0, 3))
            u, _ = np.linalg.qr(rng.normal(size=(2, 2)))
            v, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            s1 = rng.uniform(0.5, 2.0)
            m = u @ np.diag([s1, s1 * (1 - 10 ** rng.uniform(-7, -0.5))]) @ v[:2]
            c = rng.normal(size=(2, 3)) * rng.uniform(0.1, 3.0)
            mu = 10 ** rng.uniform(-2, 1)

            def objective(x):
                return 0.5 * np.sum(x * x * lam) - np.sum(c * x) + mu * np.linalg.norm(x, 2)

            uu, _, vt = np.linalg.svd(m)
            grad = m * lam - c + mu * np.outer(uu[:, 0], vt[0])
            frame = wp_solver._norm_frame(m.tolist())
            full = wp_solver._newton_direction(frame, grad.tolist(), lam.tolist(), mu)
            rises += objective(m + np.array(full)) > objective(m)
            new = wp_solver._newton_relaxed(m.tolist(), c.tolist(), lam.tolist(), mu, 0.0)
            assert new is None or objective(np.array(new)) < objective(m)
        assert rises > 10

    def test_norm_change_is_exact_for_steps_near_rounding(self):
        rng = np.random.default_rng(770)
        m, d = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
        grad = spectral_norm_derivatives(wp_solver._norm_frame(m.tolist()))[0]
        for t in (1.0, 1e-3, 1e-9):
            want = np.linalg.norm(m + t * d, 2) - np.linalg.norm(m, 2)
            got = wp_solver._norm_change(m.tolist(), d.tolist(), t)
            assert got == pytest.approx(want, rel=1e-6, abs=0.0)
        # below rounding of ||M||_2 the difference of norms reads 0; the change does not
        got = wp_solver._norm_change(m.tolist(), d.tolist(), 1e-14)
        assert got == pytest.approx(1e-14 * grad @ d.ravel(), rel=1e-6, abs=0.0)

    @pytest.mark.parametrize("case", ["isotropic", "kink", "zero"])
    def test_tied_optimum_reaches_the_proximal_minimum(self, basis, case):
        # s1 = s2 at the optimum, where ||M||_2 has no Hessian: the Newton steps
        # give way to proximal steps, which end at the long run's objective
        rng = np.random.default_rng(780)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        mu = 0.5
        if case == "isotropic":  # C G^-1 = y / g has tied singular values
            g = 2.0 * np.eye(3)
            moments, want = moments_of(2.5 * q[:2], g), (2.5 - 0.5 * mu) / 2.0 * q[:2]
        elif case == "kink":  # M* = tau R with C = M* G + mu R / 2
            g = q @ np.diag([1.0, 2.0, 4.0]) @ q.T
            want = 0.8 * np.eye(3)[:2] @ np.linalg.qr(rng.normal(size=(3, 3)))[0]
            moments = moments_of(want @ g + 0.5 * mu * want / 0.8, g)
        else:  # mu above ||C G^-1||-scale shrinks M to 0
            obs, _ = make_wp_obs(basis, 781)
            moments, mu, want = wp_moments(obs, basis.b0), 1e9, np.zeros((2, 3))
        m = wp_solver._relaxed_m(moments, mu)
        assert np.max(np.abs(m - want)) <= 1e-9 * max(np.abs(want).max(), 1.0)
        assert reaches_long_run_objective(moments, mu, m, 1e-12)

    def test_coplanar_mean_shape_relaxation(self):
        # a planar mean shape makes G rank 2: the relaxation is solved in the
        # plane, to the same distance bound as any other shape
        for seed in range(790, 795):
            rng = np.random.default_rng(seed)
            b0 = np.vstack([rng.uniform(-1.0, 1.0, (2, 10)), np.zeros(10)])
            w = rng.normal(size=(2, 3)) @ b0 + rng.normal(0.0, 0.05, (2, 10))
            obs = KeypointObservations(w, rng.uniform(0.2, 1.0, 10))
            moments = wp_moments(obs, b0)
            assert np.linalg.matrix_rank(moments[2:, 2:]) == 2
            mu = array_mu(obs.w, obs.d)
            m = wp_solver._relaxed_m(moments, mu)
            assert reaches_long_run_objective(moments, mu, m, 1e-12), seed
            assert len(convex_init(moments, mu)) == 2

    def test_relaxation_makes_one_svd(self, basis, monkeypatch):
        calls = []
        svd = np.linalg.svd

        def counting(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        for seed in range(5):
            obs, _ = make_wp_obs(basis, 740 + seed)
            moments = wp_moments(obs, basis.b0)
            calls.clear()
            convex_init(moments, mu=1e-3)
            assert len(calls) == 1


def make_estimate(cost, plus_z):
    rbar = np.eye(3)[:2] if plus_z else np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    return wp_solver.WPEstimate(1.0, np.zeros(2), rbar, np.zeros(2), cost, 3, True)


class TestCandidateChoice:
    @pytest.mark.parametrize("cost", [1.467386118642310e-4, 1.0, 3.7e5])
    def test_costs_an_ulp_apart_tie_whatever_the_order(self, cost):
        # the candidate that looks at +z wins, whichever cost rounding made lower
        for up in (True, False):
            low = make_estimate(cost, up)
            high = make_estimate(np.nextafter(cost, 2.0 * cost), not up)
            for order in ([low, high], [high, low]):
                assert wp_solver._choose_candidate(order) is (low if up else high)

    def test_tie_with_the_same_view_goes_to_the_first(self):
        a, b = make_estimate(1.0, True), make_estimate(np.nextafter(1.0, 2.0), True)
        assert wp_solver._choose_candidate([a, b]) is a
        assert wp_solver._choose_candidate([b, a]) is b

    @pytest.mark.parametrize("cost", [1.467386118642310e-4, 1.0, 3.7e5])
    def test_a_relative_gap_of_1e_12_goes_to_the_lower_cost(self, cost):
        for plus_z in (True, False):
            low = make_estimate(cost, not plus_z)
            high = make_estimate(cost * (1.0 + 1e-12), plus_z)
            for order in ([low, high], [high, low]):
                assert wp_solver._choose_candidate(order) is low
