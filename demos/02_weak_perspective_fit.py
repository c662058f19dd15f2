"""Fit scale, rotation, 2D translation, and shape coefficients to keypoints.

A distant camera makes the weak-perspective model a good fit: we render a
deformed shape at 25 object diameters, perturb the keypoints, and recover the
pose with the block coordinate descent solver seeded by its convex relaxation.
"""

import os
import tempfile

import numpy as np

from kpfit import (
    KeypointObservations,
    SolverOptions,
    compose_shape,
    geodesic_distance,
    load_basis,
    project_weak,
    solve_wp,
)
from kpfit.bench import _uniform_rotation

BASIS_PATH = os.path.join(tempfile.gettempdir(), "demo_basis.txt")


def main():
    basis = load_basis(BASIS_PATH)
    rng = np.random.default_rng(1)

    c_true = rng.normal(0.0, 1.0, basis.num_modes) * np.sqrt(basis.eigenvalues)
    shape = compose_shape(basis, c_true)
    rotation = _uniform_rotation(rng)
    s_true = 1.0 / (25.0 * basis.diameter())
    tbar = np.array([0.02, -0.03])

    w = project_weak(s_true, rotation[:2], tbar, shape)
    w_noisy = w + rng.normal(0.0, 0.02 * s_true * basis.diameter(), w.shape)
    d = rng.uniform(0.6, 1.0, basis.num_keypoints)
    obs = KeypointObservations(w_noisy, d, basis.keypoint_names)

    # the default ridge targets pixel-scale costs; these normalized
    # coordinates are tiny, so pick a correspondingly small penalty
    est = solve_wp(obs, basis, SolverOptions(lam=1e-9, record_block_costs=True))

    rot_err = np.degrees(geodesic_distance(est.rotation(), rotation))
    print(f"converged: {est.converged} after {est.iterations} iterations")
    print(f"scale: true {s_true:.6f}  estimated {est.s:.6f}")
    print(f"rotation error: {rot_err:.4f} degrees")
    print(f"coefficients: true {np.round(c_true, 4)}  estimated {np.round(est.c, 4)}")

    costs = np.asarray(est.block_costs)
    print(f"cost fell from {costs[0]:.3e} to {costs[-1]:.3e}")
    print(f"largest per-block increase: {np.max(np.diff(costs)):.2e} (never positive)")


if __name__ == "__main__":
    main()
