"""Synthetic benchmark harness: scene generation, method runner, error reports.

Scenes are sampled deterministically from (seed, trial_index): a shape drawn
from the basis with Gaussian coefficients, a random pose, full-perspective
projection, and a configurable pixel-noise/outlier corruption whose
confidences emulate heatmap peaks (corrupted keypoints get low confidence).

Reports hold no wall-clock numbers, so fixed-seed runs are byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateGeometryError, KpfitError
from .fp_solver import solve_fp
from .geometry import geodesic_distance
from .observations import KeypointObservations
from .pnp import solve_pnp
from .shape_basis import compose_shape
from .wp_solver import SolverOptions, solve_wp

METHOD_ORDER = ("wp", "fp", "pnp", "wp-uniform", "fp-uniform")
CLEAN_CONFIDENCE = (0.8, 1.0)
OUTLIER_CONFIDENCE = (0.05, 0.2)


@dataclass
class NoiseModel:
    """Pixel noise plus confidence-informative outlier corruption.

    ``outlier_count`` corrupts exactly that many keypoints per trial;
    otherwise each keypoint is corrupted independently with
    ``outlier_prob``. Corrupted keypoints are displaced by
    ``outlier_magnitude`` pixels in a random direction and draw a low
    confidence (``OUTLIER_CONFIDENCE``); clean keypoints draw a high one
    (``CLEAN_CONFIDENCE``, exactly 1 when the scene is entirely noise-free).
    """

    pixel_sigma: float = 0.0
    outlier_prob: float = 0.0
    outlier_magnitude: float = 0.0
    outlier_count: int = None

    def __post_init__(self):
        if not 0.0 <= self.outlier_prob <= 1.0:
            raise ValueError("outlier_prob must lie in [0, 1]")
        if self.pixel_sigma < 0.0 or self.outlier_magnitude < 0.0:
            raise ValueError("noise magnitudes must be nonnegative")


@dataclass
class SceneConfig:
    """Everything needed to sample benchmark trials deterministically."""

    basis: object
    intrinsics: object
    depth_range: tuple = (5.0, 15.0)  # multiples of the mean-shape diameter
    noise: NoiseModel = field(default_factory=NoiseModel)
    trials: int = 100
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.depth_range[0] <= self.depth_range[1]):
            raise ValueError("depth range must be positive and ordered")
        if self.trials < 1:
            raise ValueError("trial count must be >= 1")


@dataclass
class SceneSample:
    rotation: np.ndarray
    translation: np.ndarray
    shape: np.ndarray
    observations: KeypointObservations
    intrinsics: object


def _uniform_rotation(rng):
    """Uniform SO(3) sample via the subgroup algorithm (rotation + reflection)."""
    x1, x2, x3 = rng.random(3)
    c, s = np.cos(2.0 * np.pi * x1), np.sin(2.0 * np.pi * x1)
    rz = np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]], dtype=float)
    phi = 2.0 * np.pi * x2
    v = np.array(
        [np.cos(phi) * np.sqrt(x3), np.sin(phi) * np.sqrt(x3), np.sqrt(1.0 - x3)]
    )
    return -(np.eye(3) - 2.0 * np.outer(v, v)) @ rz


def sample_scene(cfg, trial_index):
    """Deterministic trial sample; randomness depends only on (seed, trial)."""
    rng = np.random.default_rng([cfg.seed, trial_index])
    basis = cfg.basis
    p = basis.num_keypoints
    diameter = basis.diameter()

    coeffs = rng.normal(0.0, 1.0, basis.num_modes) * np.sqrt(basis.eigenvalues)
    shape = compose_shape(basis, coeffs)

    for attempt in range(100):
        rotation = _uniform_rotation(rng)
        depth = rng.uniform(*cfg.depth_range) * diameter
        # lateral offset scales with the object, not the depth, so distant
        # scenes stay near the optical axis (weak perspective regime)
        lateral = rng.uniform(-0.25, 0.25, 2) * diameter
        translation = np.array([lateral[0], lateral[1], depth])
        cam = rotation @ shape + translation[:, None]
        if np.all(cam[2] > 0.1 * diameter):
            break
    else:
        raise DegenerateGeometryError(
            "could not sample a pose with all keypoints in front of the camera"
        )

    pixels = cfg.intrinsics.project(cam)
    noise = cfg.noise

    w = pixels.copy()
    if noise.pixel_sigma > 0.0:
        w = w + rng.normal(0.0, noise.pixel_sigma, (2, p))

    corrupted = np.zeros(p, dtype=bool)
    if noise.outlier_count is not None and noise.outlier_count > 0:
        idx = rng.choice(p, size=min(noise.outlier_count, p), replace=False)
        mask = np.zeros(p, dtype=bool)
        mask[idx] = True
    elif noise.outlier_prob > 0.0:
        mask = rng.random(p) < noise.outlier_prob
    else:
        mask = np.zeros(p, dtype=bool)
    if noise.outlier_magnitude > 0.0 and np.any(mask):
        angles = rng.uniform(0.0, 2.0 * np.pi, int(mask.sum()))
        w[0, mask] += noise.outlier_magnitude * np.cos(angles)
        w[1, mask] += noise.outlier_magnitude * np.sin(angles)
        corrupted = mask

    d = np.ones(p)
    if noise.pixel_sigma > 0.0:
        d = rng.uniform(*CLEAN_CONFIDENCE, p)
    if np.any(corrupted):
        d[corrupted] = rng.uniform(*OUTLIER_CONFIDENCE, int(corrupted.sum()))

    obs = KeypointObservations(w, d, basis.keypoint_names)
    return SceneSample(
        rotation=rotation,
        translation=translation,
        shape=shape,
        observations=obs,
        intrinsics=cfg.intrinsics,
    )


@dataclass
class MethodStats:
    mean_rot_deg: float
    median_rot_deg: float
    mean_trans: float  # None for weak perspective (depth not recoverable)
    median_trans: float
    failures: int
    successes: int


@dataclass
class ErrorReport:
    methods: tuple
    stats: dict
    records: list


def _run_method(method, scene, basis, opts):
    obs = scene.observations
    if method.endswith("-uniform"):
        obs = obs.with_uniform_confidence()
        method = method[: -len("-uniform")]
    if method == "wp":
        est = solve_wp(obs, basis, opts)
        rot_err = geodesic_distance(est.rotation(), scene.rotation)
        return rot_err, None, est.final_cost
    if method == "fp":
        est = solve_fp(obs, scene.intrinsics, basis, opts)
        rot_err = geodesic_distance(est.rotation, scene.rotation)
        return rot_err, float(np.linalg.norm(est.translation - scene.translation)), (
            est.final_cost
        )
    est = solve_pnp(basis.b0, obs.w, scene.intrinsics)
    rot_err = geodesic_distance(est.rotation, scene.rotation)
    return rot_err, float(np.linalg.norm(est.translation - scene.translation)), None


def run_benchmark(cfg, methods=("wp", "fp", "pnp"), opts=None):
    """Run the requested methods on every trial and aggregate error statistics.

    Failed trials are excluded from the statistics of the failing method and
    counted in its failure tally.
    """
    for m in methods:
        if m not in METHOD_ORDER:
            raise ValueError(f"unknown method {m!r}")
    methods = tuple(m for m in METHOD_ORDER if m in methods)
    opts = opts or SolverOptions()

    records = []
    errors = {m: [] for m in methods}
    for trial in range(cfg.trials):
        scene = sample_scene(cfg, trial)
        for method in methods:
            rec = {"trial": trial, "method": method}
            try:
                rot_err, trans_err, cost = _run_method(method, scene, cfg.basis, opts)
            except (KpfitError, np.linalg.LinAlgError) as exc:
                rec["error"] = f"{type(exc).__name__}: {exc}"
            else:
                rec["rotation_error_deg"] = float(np.degrees(rot_err))
                rec["translation_error"] = trans_err
                if cost is not None:
                    rec["final_cost"] = float(cost)
                errors[method].append((rot_err, trans_err))
            records.append(rec)

    stats = {}
    for method in methods:
        ok = errors[method]
        rots = np.degrees([e[0] for e in ok]) if ok else np.zeros(0)
        trans = [e[1] for e in ok if e[1] is not None]
        stats[method] = MethodStats(
            mean_rot_deg=float(np.mean(rots)) if len(rots) else float("nan"),
            median_rot_deg=float(np.median(rots)) if len(rots) else float("nan"),
            mean_trans=float(np.mean(trans)) if trans else None,
            median_trans=float(np.median(trans)) if trans else None,
            failures=cfg.trials - len(ok),
            successes=len(ok),
        )
    return ErrorReport(methods=methods, stats=stats, records=records)


def format_table(report):
    """Fixed-layout text table (rotation in degrees, translation in model units)."""
    lines = [
        f"{'method':<12} {'rot_mean_deg':>14} {'rot_median_deg':>15} "
        f"{'trans_mean':>12} {'trans_median':>13} {'fails':>6}"
    ]
    for method in report.methods:
        st = report.stats[method]

        def cell(v, width):
            return f"{'N/A':>{width}}" if v is None else f"{v:>{width}.6f}"

        lines.append(
            f"{method:<12} {st.mean_rot_deg:>14.6f} {st.median_rot_deg:>15.6f} "
            f"{cell(st.mean_trans, 12)} {cell(st.median_trans, 13)} "
            f"{st.failures:>6d}"
        )
    return "\n".join(lines) + "\n"


def format_records(report):
    """Machine-readable JSON record of per-trial results and summary stats."""
    doc = {
        "format": "kpfit-bench-records",
        "version": 1,
        "methods": {
            m: {
                "mean_rot_deg": report.stats[m].mean_rot_deg,
                "median_rot_deg": report.stats[m].median_rot_deg,
                "mean_trans": report.stats[m].mean_trans,
                "median_trans": report.stats[m].median_trans,
                "failures": report.stats[m].failures,
                "successes": report.stats[m].successes,
            }
            for m in report.methods
        },
        "records": report.records,
    }
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"
