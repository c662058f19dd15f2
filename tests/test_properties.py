"""Invariances of the WP and FP fits that the maths guarantees.

Both fits see the keypoints through weighted sums over them, whose value
depends on the summation order only by rounding, so reordering the keypoints
(with the basis) must leave the estimates unchanged to far below the
solvers' tolerance. Zero-confidence keypoints carry no information, whatever
their coordinates hold.
"""

import numpy as np
import pytest

from kpfit import KeypointObservations, ShapeBasis, solve_fp, solve_wp
from conftest import make_basis, make_fp_scene


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
