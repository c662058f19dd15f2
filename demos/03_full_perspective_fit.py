"""Full-perspective fit at close range, compared with a rigid PnP baseline.

Close to the camera the weak-perspective approximation breaks down and the
rigid mean shape ignores deformation. The full model estimates per-keypoint
depths along the observation rays and re-fits shape coefficients, recovering
the metric translation as well.
"""

import os
import tempfile

import numpy as np

from kpfit import (
    CameraIntrinsics,
    KeypointObservations,
    compose_shape,
    geodesic_distance,
    load_basis,
    solve_fp,
    solve_pnp,
    solve_wp,
)
from kpfit.bench import _uniform_rotation

BASIS_PATH = os.path.join(tempfile.gettempdir(), "demo_basis.txt")


def main():
    basis = load_basis(BASIS_PATH)
    intrinsics = CameraIntrinsics(800.0, 800.0, 320.0, 240.0)
    rng = np.random.default_rng(2)

    c_true = rng.normal(0.0, 1.0, basis.num_modes) * np.sqrt(basis.eigenvalues)
    shape = compose_shape(basis, c_true)
    rotation = _uniform_rotation(rng)
    translation = np.array([0.1, -0.15, 3.5 * basis.diameter()])
    pixels = intrinsics.project(rotation @ shape + translation[:, None])
    obs = KeypointObservations(
        pixels + rng.normal(0.0, 1.0, pixels.shape),
        rng.uniform(0.6, 1.0, basis.num_keypoints),
        basis.keypoint_names,
    )

    wp = solve_wp(obs, basis)
    fp = solve_fp(obs, intrinsics, basis)
    pnp = solve_pnp(basis.b0, obs.w, intrinsics)

    def deg(r):
        return np.degrees(geodesic_distance(r, rotation))

    print(f"scene depth: {translation[2]:.2f} units "
          f"({translation[2] / basis.diameter():.1f} diameters)")
    print(f"weak perspective rotation error:  {deg(wp.rotation()):7.3f} degrees")
    print(f"rigid PnP baseline rotation error: {deg(pnp.rotation):7.3f} degrees")
    print(f"full perspective rotation error:   {deg(fp.rotation):7.3f} degrees")
    print(f"translation error: {np.linalg.norm(fp.translation - translation):.4f} "
          f"units (PnP {np.linalg.norm(pnp.translation - translation):.4f})")
    print(f"recovered depth range: {fp.depths.min():.2f} to {fp.depths.max():.2f}")
    print(f"coefficients: true {np.round(c_true, 4)} estimated {np.round(fp.c, 4)}")


if __name__ == "__main__":
    main()
