"""Run the synthetic benchmark across methods and noise settings.

Two sweeps on the demo basis: a close-range pixel-noise sweep where the full
perspective model should lead, and an outlier sweep where confidence
weighting should beat the uniform ablation. Fixed seeds make every run
byte-identical.
"""

import os
import tempfile

from kpfit import (
    CameraIntrinsics,
    NoiseModel,
    SceneConfig,
    format_table,
    load_basis,
    run_benchmark,
)

BASIS_PATH = os.path.join(tempfile.gettempdir(), "demo_basis.txt")


def main():
    basis = load_basis(BASIS_PATH)
    intrinsics = CameraIntrinsics(800.0, 800.0, 320.0, 240.0)

    print("close range (3-5 diameters), pixel noise sigma = 2")
    cfg = SceneConfig(
        basis=basis,
        intrinsics=intrinsics,
        depth_range=(3.0, 5.0),
        noise=NoiseModel(pixel_sigma=2.0),
        trials=50,
        seed=0,
    )
    print(format_table(run_benchmark(cfg, methods=("wp", "fp", "pnp"))))

    print("2 corrupted keypoints (30 px), informative confidences")
    cfg = SceneConfig(
        basis=basis,
        intrinsics=intrinsics,
        depth_range=(5.0, 15.0),
        noise=NoiseModel(outlier_count=2, outlier_magnitude=30.0),
        trials=50,
        seed=0,
    )
    report = run_benchmark(cfg, methods=("wp", "fp", "wp-uniform", "fp-uniform"))
    print(format_table(report))


if __name__ == "__main__":
    main()
