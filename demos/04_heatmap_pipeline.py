"""From keypoint heatmaps to a confidence-weighted pose fit.

Detector output usually arrives as one response map per keypoint. We render
Gaussian maps (two of them corrupted), extract peaks with subpixel
refinement, and feed the peak values in as per-keypoint confidences. The
corrupted maps get weak peaks, so the solver discounts them automatically.
"""

import os
import tempfile

import numpy as np

from kpfit import (
    CameraIntrinsics,
    compose_shape,
    extract_peaks,
    geodesic_distance,
    load_basis,
    read_heatmaps,
    solve_fp,
    synthesize_heatmap,
    write_heatmaps,
)
from kpfit.bench import _uniform_rotation

BASIS_PATH = os.path.join(tempfile.gettempdir(), "demo_basis.txt")
MAPS_PATH = os.path.join(tempfile.gettempdir(), "demo_maps.kphm")


def main():
    basis = load_basis(BASIS_PATH)
    intrinsics = CameraIntrinsics(800.0, 800.0, 320.0, 240.0)
    rng = np.random.default_rng(3)

    c = rng.normal(0.0, 1.0, basis.num_modes) * np.sqrt(basis.eigenvalues)
    rotation = _uniform_rotation(rng)
    translation = np.array([0.0, 0.0, 6.0 * basis.diameter()])
    pixels = intrinsics.project(
        rotation @ compose_shape(basis, c) + translation[:, None]
    )

    maps = []
    for i, name in enumerate(basis.keypoint_names):
        hm = synthesize_heatmap(
            640, 480, pixels[:, i], sigma=2.0, keypoint_name=name
        )
        if i in (4, 9):  # simulate two bad detections
            hm.values *= 0.1
            hm.values[rng.integers(0, 480), rng.integers(0, 640)] = 0.12
        maps.append(hm)

    write_heatmaps(maps, MAPS_PATH)
    maps = read_heatmaps(MAPS_PATH)
    print(f"wrote and reloaded {len(maps)} heatmaps of "
          f"{maps[0].width}x{maps[0].height}")

    obs = extract_peaks(maps, subpixel=True)
    print(f"peak confidences: {np.round(obs.d, 3)}")

    weighted = solve_fp(obs, intrinsics, basis)
    uniform = solve_fp(obs.with_uniform_confidence(), intrinsics, basis)

    err_w = np.degrees(geodesic_distance(weighted.rotation, rotation))
    err_u = np.degrees(geodesic_distance(uniform.rotation, rotation))
    print(f"rotation error, peak-weighted fit: {err_w:.3f} degrees")
    print(f"rotation error, uniform weights:   {err_u:.3f} degrees")


if __name__ == "__main__":
    main()
