"""Seeded input generation for the kpfit benchmark.

The object class (a hidden mean shape with two deformation modes, and 200
training shapes drawn from it) is fixed per workload; the seed draws the
scenes: shape, pose, depth, pixel noise, confidences and, for heatmaps, the
corrupted maps. Scenes and ground truth use numpy only, so a seed gives the
same scenes on every commit. The program under test builds and saves the
basis from the training shapes (``build_basis``/``save_basis``, as a user
would) and writes the keypoint and heatmap files in its documented formats.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

TRAINING_SHAPES = 200
MODE_STDS = (0.3, 0.2)
# The object class (hidden shape model and training set) is the same for every
# seed; the seed draws the scenes. With a per-seed class, the spread of the
# median rotation error between seeds came from the class geometry and did
# not shrink with more scenes.
CLASS_SEED = 1703


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    p: int
    depth_range: tuple  # multiples of the hidden mean shape's diameter
    pixel_sigma: float
    intrinsics: tuple  # fx, fy, cx, cy
    scenes: int  # scenes per pass; p90 needs at least 100
    max_rot_err_deg_p50: float  # accuracy gate on the median rotation error
    weak_perspective: bool = False  # solve_wp only, else solve_fp
    heatmap_grid: int = 0  # 0: the program reads KPTS files, else KPHM maps
    image_size: tuple = ()
    corrupted_maps: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fp_p124",
            why="Widest problem (criterion-9 scene): KPTS -> solve_fp with its WP "
            "init at p=124; FP block descent is most of the fit and its array "
            "work scales with p.",
            p=124,
            depth_range=(5.0, 10.0),
            pixel_sigma=1.0,
            intrinsics=(800.0, 800.0, 320.0, 240.0),
            scenes=200,
            max_rot_err_deg_p50=1.0,
        ),
        Workload(
            name="wp_far_p12",
            why="Far field, weak perspective only: KPTS -> solve_wp at p=12; "
            "convex_init, WP descent and its Procrustes solves are the whole fit "
            "and FP is bypassed.",
            p=12,
            depth_range=(20.0, 30.0),
            pixel_sigma=1.0,
            intrinsics=(800.0, 800.0, 320.0, 240.0),
            scenes=200,
            max_rot_err_deg_p50=10.0,
            weak_perspective=True,
        ),
        Workload(
            name="detect_p12",
            why="Detector pipeline end to end: 64x64 KPHM maps with two weak "
            "peaks -> extract_peaks -> solve_fp and solve_pnp at p=12; small-p "
            "FP in the outlier regime.",
            p=12,
            depth_range=(3.0, 5.0),
            pixel_sigma=1.0,
            intrinsics=(400.0, 400.0, 128.0, 128.0),
            scenes=200,
            max_rot_err_deg_p50=30.0,
            heatmap_grid=64,
            image_size=(256, 256),
            corrupted_maps=2,
        ),
    )
}


@dataclass
class Scene:
    path: str
    rotation: np.ndarray  # ground-truth camera-from-object rotation


def _hidden_model(rng, p):
    """Mean shape and two orthonormal deformation modes (as in the basis demo)."""
    b0 = rng.uniform(-1.0, 1.0, (3, p))
    q, _ = np.linalg.qr(rng.normal(size=(3 * p, len(MODE_STDS))))
    return b0, [q[:, i].reshape(3, p) for i in range(len(MODE_STDS))]


def _shape(rng, b0, modes):
    c = rng.normal(0.0, 1.0, len(modes)) * np.array(MODE_STDS)
    return b0 + sum(ci * m for ci, m in zip(c, modes))


def _rotation(rng):
    """Uniform rotation from a normalized Gaussian quaternion."""
    w, x, y, z = (q := rng.normal(size=4)) / np.linalg.norm(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def _project(intrinsics, cam):
    fx, fy, cx, cy = intrinsics
    return np.vstack([fx * cam[0] / cam[2] + cx, fy * cam[1] / cam[2] + cy])


def _render_maps(rng, wl, pixels):
    """Gaussian maps (sigma one cell) on the detector grid, some corrupted."""
    grid = wl.heatmap_grid
    centers = pixels * (grid / np.array(wl.image_size, dtype=float))[:, None]
    ys, xs = np.mgrid[0:grid, 0:grid]
    amplitude = rng.uniform(0.8, 1.0, wl.p)
    maps = [
        a * np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / 2.0)
        for a, (cx, cy) in zip(amplitude, centers.T)
    ]
    # weak detections: the true response fades and a spurious cell wins
    for i in rng.choice(wl.p, size=wl.corrupted_maps, replace=False):
        maps[i] = 0.1 * maps[i]
        maps[i][rng.integers(0, grid), rng.integers(0, grid)] = 0.12
    return maps


def generate(kpfit, wl, seed, workdir):
    """Write the basis and one input file per scene into ``workdir``.

    ``kpfit`` is the imported package under test. Returns the basis path, the
    scenes and the SHA-256 of all input bytes.
    """
    class_rng = np.random.default_rng([CLASS_SEED, wl.p])
    b0, modes = _hidden_model(class_rng, wl.p)
    training = [_shape(class_rng, b0, modes) for _ in range(TRAINING_SHAPES)]
    basis = kpfit.build_basis(training, k=len(MODE_STDS), class_name="bench")
    basis_path = str(workdir / "basis.txt")
    kpfit.save_basis(basis, basis_path)
    diameter = float(
        np.sqrt(((b0[:, :, None] - b0[:, None, :]) ** 2).sum(axis=0).max())
    )
    width, height = wl.image_size or (np.inf, np.inf)

    rng = np.random.default_rng([seed, wl.p])
    scenes = []
    for i in range(wl.scenes):
        while True:
            rotation = _rotation(rng)
            lateral = rng.uniform(-0.25, 0.25, 2) * diameter
            depth = rng.uniform(*wl.depth_range) * diameter
            cam = rotation @ _shape(rng, b0, modes) + np.array([*lateral, depth])[:, None]
            pixels = _project(wl.intrinsics, cam)
            pixels += rng.normal(0.0, wl.pixel_sigma, pixels.shape)
            inside = (pixels >= 0.0).all() and (pixels[0] < width).all() and (
                pixels[1] < height
            ).all()
            if inside:
                break
        if wl.heatmap_grid:
            path = workdir / f"scene{i:04d}.kphm"
            kpfit.write_heatmaps(
                [
                    kpfit.Heatmap(values=m, keypoint_name=name)
                    for m, name in zip(_render_maps(rng, wl, pixels), basis.keypoint_names)
                ],
                path,
            )
        else:
            path = workdir / f"scene{i:04d}.txt"
            confidence = rng.uniform(0.8, 1.0, wl.p)
            kpfit.write_keypoints(
                kpfit.KeypointObservations(pixels, confidence, basis.keypoint_names),
                path,
            )
        scenes.append(Scene(str(path), rotation))

    digest = hashlib.sha256()
    for path in [basis_path] + [s.path for s in scenes]:
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return basis_path, scenes, digest.hexdigest()
