"""Invariances of the WP and FP fits that the maths guarantees.

Both fits see the keypoints through weighted sums over them, whose value
depends on the summation order only by rounding, so reordering the keypoints
(with the basis) must leave the estimates unchanged to far below the
solvers' tolerance. Shifting every pixel by one offset only moves the WP
offset by it, and leaves the FP fit unchanged when the principal point moves
with it. Zero-confidence keypoints carry no information, whatever their
coordinates hold. The FP fit reaches the same minimizer from nearby
starts, and scaling every confidence with both penalty weights scales
its cost without moving the argmin.
"""

import numpy as np
import pytest

from kpfit import (
    CameraIntrinsics,
    KeypointObservations,
    ShapeBasis,
    SolverOptions,
    geodesic_distance,
    normalize_keypoints,
    so3_exp,
    solve_fp,
    solve_wp,
)
from kpfit.wp_solver import default_lambda
from conftest import array_mu, make_basis, make_fp_scene


def noisy_scene(basis, intrinsics, seed):
    """Pixel keypoints of a perspective scene with noise and mixed confidences."""
    rng = np.random.default_rng(seed)
    pixels = make_fp_scene(basis, intrinsics, seed, depth_mult=6.0, coeff_scale=0.5)[4]
    pixels = pixels + rng.normal(0.0, 0.5, pixels.shape)
    return pixels, rng.uniform(0.2, 1.0, basis.num_keypoints)


def permuted_basis(basis, perm):
    return ShapeBasis(
        basis.class_name,
        basis.b0[:, perm],
        basis.modes[:, :, perm],
        basis.eigenvalues,
        tuple(np.array(basis.keypoint_names)[perm]),
    )


def assert_same_wp(a, b, tol=1e-9):
    assert abs(a.s - b.s) <= tol * b.s
    assert np.max(np.abs(a.c - b.c)) <= tol
    assert np.max(np.abs(a.rbar - b.rbar)) <= tol
    assert np.max(np.abs(a.tbar - b.tbar)) <= tol * max(1.0, np.abs(b.tbar).max())


def assert_same_fp(a, b, tol=1e-9):
    assert np.max(np.abs(a.rotation - b.rotation)) <= tol
    assert np.max(np.abs(a.translation - b.translation)) <= tol * max(
        1.0, np.abs(b.translation).max()
    )
    assert np.max(np.abs(a.c - b.c)) <= tol


@pytest.mark.parametrize("seed", range(8))
def test_permuting_keypoints_with_the_basis_leaves_the_fits(intrinsics, seed):
    basis = make_basis(seed=seed, p=12 + 4 * seed)
    pixels, d = noisy_scene(basis, intrinsics, 800 + seed)
    perm = np.random.default_rng(810 + seed).permutation(basis.num_keypoints)
    obs = KeypointObservations(pixels, d)
    obs_p = KeypointObservations(pixels[:, perm], d[perm])
    basis_p = permuted_basis(basis, perm)

    assert_same_wp(solve_wp(obs_p, basis_p), solve_wp(obs, basis))
    fp, fp_p = solve_fp(obs, intrinsics, basis), solve_fp(obs_p, intrinsics, basis_p)
    assert_same_fp(fp_p, fp)
    assert np.max(np.abs(fp_p.depths - fp.depths[perm])) <= 1e-9 * fp.depths.max()


@pytest.mark.parametrize("seed", range(8))
def test_shifting_the_pixels_moves_only_the_offset(basis, intrinsics, seed):
    pixels, d = noisy_scene(basis, intrinsics, 870 + seed)
    delta = np.random.default_rng(880 + seed).uniform(-500.0, 500.0, 2)
    obs = KeypointObservations(pixels, d)
    shifted = KeypointObservations(pixels + delta[:, None], d)

    wp, wp_s = solve_wp(obs, basis), solve_wp(shifted, basis)
    assert abs(wp_s.s - wp.s) <= 1e-9 * wp.s
    assert np.max(np.abs(wp_s.c - wp.c)) <= 1e-9
    assert np.max(np.abs(wp_s.rbar - wp.rbar)) <= 1e-9
    assert np.max(np.abs(wp_s.tbar - (wp.tbar + delta))) <= 1e-8

    moved = CameraIntrinsics(
        intrinsics.fx, intrinsics.fy, intrinsics.cx + delta[0], intrinsics.cy + delta[1]
    )
    fp, fp_s = solve_fp(obs, intrinsics, basis), solve_fp(shifted, moved, basis)
    assert_same_fp(fp_s, fp)
    assert fp_s.iterations == fp.iterations


@pytest.mark.parametrize("seed", range(8))
def test_nan_in_a_zero_confidence_column_is_ignored(basis, intrinsics, seed):
    pixels, d = noisy_scene(basis, intrinsics, 820 + seed)
    rng = np.random.default_rng(830 + seed)
    missing = rng.choice(basis.num_keypoints, size=1 + seed % 3, replace=False)
    d[missing] = 0.0
    zeros, nans = pixels.copy(), pixels.copy()
    zeros[:, missing] = 0.0
    nans[:, missing] = np.nan
    with_zeros = KeypointObservations(zeros, d)
    with_nans = KeypointObservations(nans, d)

    assert_same_wp(solve_wp(with_nans, basis), solve_wp(with_zeros, basis), tol=0.0)
    fp_nan = solve_fp(with_nans, intrinsics, basis)
    fp_zero = solve_fp(with_zeros, intrinsics, basis)
    assert_same_fp(fp_nan, fp_zero, tol=0.0)
    assert np.array_equal(fp_nan.depths, fp_zero.depths)


@pytest.mark.parametrize("seed", range(20))
def test_fp_from_a_perturbed_init_reaches_the_same_minimizer(
    basis, intrinsics, seed
):
    pixels, d = noisy_scene(basis, intrinsics, 840 + seed)
    obs = KeypointObservations(pixels, d)
    ref = solve_fp(obs, intrinsics, basis)
    rng = np.random.default_rng(850 + seed)
    axis = rng.normal(size=3)
    rotation = ref.rotation @ so3_exp(np.radians(3.0) * axis / np.linalg.norm(axis))
    shift = rng.normal(size=3)
    translation = ref.translation + 0.02 * np.linalg.norm(ref.translation) * (
        shift / np.linalg.norm(shift)
    )
    est = solve_fp(obs, intrinsics, basis, init=(rotation, translation))
    assert np.degrees(geodesic_distance(est.rotation, ref.rotation)) <= 1e-3
    assert np.max(np.abs(est.c - ref.c)) <= 1e-4
    assert est.final_cost == pytest.approx(ref.final_cost, rel=1e-9)


@pytest.mark.parametrize("alpha", [1e-3, 1e3])
@pytest.mark.parametrize("seed", range(4))
def test_fp_confidence_scale_leaves_the_argmin(basis, intrinsics, seed, alpha):
    # with lam and mu scaled too, every cost (WP init and FP) scales by alpha
    pixels, d = noisy_scene(basis, intrinsics, 860 + seed)
    lam = default_lambda(basis)
    mu = array_mu(normalize_keypoints(pixels, intrinsics)[:2], d)
    opts = SolverOptions(lam=lam, mu=mu)
    est = solve_fp(KeypointObservations(pixels, d), intrinsics, basis, opts)
    scaled = solve_fp(
        KeypointObservations(pixels, alpha * d),
        intrinsics,
        basis,
        SolverOptions(lam=alpha * lam, mu=alpha * mu),
    )
    # entries of R, not geodesic_distance, whose arccos floor is about 4e-6 deg
    assert np.max(np.abs(scaled.rotation - est.rotation)) <= 1e-8
    assert np.max(np.abs(scaled.c - est.c)) <= 1e-8
    shift = np.max(np.abs(scaled.translation - est.translation))
    assert shift <= 1e-8 * np.linalg.norm(est.translation)
