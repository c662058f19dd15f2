"""Pose and shape recovery from confidence-weighted 2D semantic keypoints."""

import logging

from .bench import (
    ErrorReport,
    NoiseModel,
    SceneConfig,
    format_records,
    format_table,
    run_benchmark,
    sample_scene,
)
from .errors import (
    BehindCameraError,
    DegenerateGeometryError,
    FormatError,
    InsufficientConstraintsError,
    InvalidRotationError,
    KpfitError,
)
from .fp_solver import FPEstimate, cost_fp, fp_cost_gradient, solve_fp, wp_to_fp_init
from .geometry import (
    CameraIntrinsics,
    geodesic_distance,
    lift_stiefel,
    normalize_keypoints,
    project_to_so3,
    project_weak,
    so3_exp,
    so3_log,
    weighted_procrustes,
)
from .heatmap import (
    Heatmap,
    extract_peaks,
    read_heatmaps,
    synthesize_heatmap,
    write_heatmaps,
)
from .observations import (
    KeypointObservations,
    format_keypoints,
    read_intrinsics,
    read_keypoints,
    write_intrinsics,
    write_keypoints,
)
from .pnp import PnPEstimate, solve_pnp
from .shape_basis import (
    ShapeBasis,
    build_basis,
    compose_shape,
    load_basis,
    project_coefficients,
    read_model,
    save_basis,
    variance_explained,
    write_model,
)
from .wp_solver import (
    SolverOptions,
    WPEstimate,
    convex_init,
    cost_wp,
    solve_wp,
    wp_cost_gradient,
)

__version__ = "0.1.0"

# solvers warn on the "kpfit" logger; the application decides where that goes
logging.getLogger(__name__).addHandler(logging.NullHandler())
