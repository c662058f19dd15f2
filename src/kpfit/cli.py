"""Command-line interface: fitting, baselines, heatmaps, and the benchmark.

Subcommands: build-basis, fit-wp, fit-fp, pnp, peaks, bench, synth-heatmaps.
Every command reads the documented text/binary formats, writes to stdout or
``--out``, and exits nonzero with a one-line diagnostic on any error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .bench import NoiseModel, SceneConfig, format_records, format_table, run_benchmark
from .errors import KpfitError
from .fp_solver import solve_fp
from .geometry import CameraIntrinsics
from .heatmap import extract_peaks, read_heatmaps, synthesize_heatmap, write_heatmaps
from .observations import fmt_float, format_keypoints, read_intrinsics, read_keypoints
from .pnp import solve_pnp
from .shape_basis import build_basis, load_basis, read_model, save_basis
from .wp_solver import SolverOptions, solve_wp

DEFAULT_INTRINSICS = CameraIntrinsics(800.0, 800.0, 320.0, 240.0)


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _vec(v):
    return " ".join(fmt_float(x) for x in np.asarray(v, dtype=float).ravel())


def _solver_options(args):
    return SolverOptions(
        lam=args.lam,
        mu=args.mu,
        max_iterations=args.max_iters,
        relative_tolerance=args.tol,
    )


def _add_solver_flags(parser):
    parser.add_argument("--lambda", dest="lam", type=float, default=None)
    parser.add_argument("--mu", type=float, default=None)
    parser.add_argument("--max-iters", type=int, default=500)
    parser.add_argument("--tol", type=float, default=1e-9)


def _cmd_build_basis(args):
    models, names = [], None
    for path in args.models:
        shape, kp_names = read_model(path)
        if names is None:
            names = kp_names
        elif kp_names != names:
            raise KpfitError(f"keypoint names in {path} differ from the first model")
        models.append(shape)
    basis = build_basis(
        models,
        k=args.k,
        variance_fraction=args.variance_fraction,
        class_name=args.class_name,
        keypoint_names=names or (),
        prealign=args.prealign,
    )
    if basis.num_modes == 0:
        print("warning: training shapes carry no variance; mean-only basis (k=0)",
              file=sys.stderr)
    save_basis(basis, args.out)
    return 0


def _cmd_fit_wp(args):
    basis = load_basis(args.basis)
    obs = read_keypoints(args.keypoints)
    est = solve_wp(obs, basis, _solver_options(args))
    lines = [f"s {fmt_float(est.s)}", "rbar"]
    lines += [_vec(row) for row in est.rbar]
    lines.append(f"tbar {_vec(est.tbar)}")
    lines.append(f"c {_vec(est.c)}" if est.c.size else "c")
    lines.append(f"cost {fmt_float(est.final_cost)}")
    lines.append(f"iterations {est.iterations} converged {str(est.converged).lower()}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_fit_fp(args):
    basis = load_basis(args.basis)
    obs = read_keypoints(args.keypoints)
    intrinsics = read_intrinsics(args.intrinsics)
    est = solve_fp(obs, intrinsics, basis, _solver_options(args))
    lines = ["rotation"]
    lines += [_vec(row) for row in est.rotation]
    lines.append(f"translation {_vec(est.translation)}")
    lines.append(f"c {_vec(est.c)}" if est.c.size else "c")
    lines.append(f"depths {_vec(est.depths)}")
    lines.append(f"cost {fmt_float(est.final_cost)}")
    lines.append(f"iterations {est.iterations} converged {str(est.converged).lower()}")
    if est.diagnostic:
        lines.append(f"diagnostic {est.diagnostic}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_pnp(args):
    basis = load_basis(args.basis)
    obs = read_keypoints(args.keypoints)
    intrinsics = read_intrinsics(args.intrinsics)
    est = solve_pnp(basis.b0, obs.w, intrinsics)
    lines = ["rotation"]
    lines += [_vec(row) for row in est.rotation]
    lines.append(f"translation {_vec(est.translation)}")
    lines.append(f"reprojection_rmse {fmt_float(est.reprojection_rmse)}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_peaks(args):
    maps = read_heatmaps(args.heatmaps)
    scale_to = None
    if args.scale_to:
        try:
            w, h = args.scale_to.lower().split("x")
            scale_to = (int(w), int(h))
        except ValueError as exc:
            raise KpfitError(f"bad --scale-to value {args.scale_to!r}") from exc
    obs = extract_peaks(maps, scale_to=scale_to, subpixel=args.subpixel)
    _emit(format_keypoints(obs), args.out)
    return 0


def _cmd_synth_heatmaps(args):
    obs = read_keypoints(args.keypoints)
    maps = [
        synthesize_heatmap(
            args.width, args.height, obs.w[:, i], sigma=args.sigma,
            keypoint_name=obs.keypoint_names[i],
        )
        for i in range(obs.num_keypoints)
    ]
    write_heatmaps(maps, args.out)
    return 0


def _cmd_bench(args):
    basis = load_basis(args.basis)
    intrinsics = (
        read_intrinsics(args.intrinsics) if args.intrinsics else DEFAULT_INTRINSICS
    )
    cfg = SceneConfig(
        basis=basis,
        intrinsics=intrinsics,
        depth_range=(args.depth_min, args.depth_max),
        noise=NoiseModel(
            pixel_sigma=args.pixel_sigma,
            outlier_prob=args.outlier_prob,
            outlier_magnitude=args.outlier_mag,
            outlier_count=args.outlier_count,
        ),
        trials=args.trials,
        seed=args.seed,
    )
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    report = run_benchmark(cfg, methods, _solver_options(args))
    text = format_table(report) if args.format == "table" else format_records(report)
    _emit(text, args.out)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kpfit",
        description="6-DoF pose and shape recovery from weighted 2D keypoints",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-basis", help="build a PCA shape basis from models")
    p.add_argument("models", nargs="+")
    p.add_argument("--out", required=True)
    p.add_argument("--class-name", default="")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--variance-fraction", type=float, default=0.95)
    p.add_argument("--prealign", action="store_true")
    p.set_defaults(func=_cmd_build_basis)

    p = sub.add_parser("fit-wp", help="weak-perspective fit")
    p.add_argument("--basis", required=True)
    p.add_argument("--keypoints", required=True)
    p.add_argument("--out", default=None)
    _add_solver_flags(p)
    p.set_defaults(func=_cmd_fit_wp)

    p = sub.add_parser("fit-fp", help="full-perspective fit")
    p.add_argument("--basis", required=True)
    p.add_argument("--keypoints", required=True)
    p.add_argument("--intrinsics", required=True)
    p.add_argument("--out", default=None)
    _add_solver_flags(p)
    p.set_defaults(func=_cmd_fit_fp)

    p = sub.add_parser("pnp", help="rigid-model PnP baseline on the mean shape")
    p.add_argument("--basis", required=True)
    p.add_argument("--keypoints", required=True)
    p.add_argument("--intrinsics", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_pnp)

    p = sub.add_parser("peaks", help="extract peak keypoints from a heatmap file")
    p.add_argument("--heatmaps", required=True)
    p.add_argument("--scale-to", default=None, metavar="WxH")
    p.add_argument("--subpixel", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_peaks)

    p = sub.add_parser("synth-heatmaps", help="render Gaussian heatmaps for keypoints")
    p.add_argument("--keypoints", required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth_heatmaps)

    p = sub.add_parser("bench", help="run the synthetic benchmark")
    p.add_argument("--basis", required=True)
    p.add_argument("--intrinsics", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--methods", default="wp,fp,pnp")
    p.add_argument("--depth-min", type=float, default=5.0)
    p.add_argument("--depth-max", type=float, default=15.0)
    p.add_argument("--pixel-sigma", type=float, default=0.0)
    p.add_argument("--outlier-prob", type=float, default=0.0)
    p.add_argument("--outlier-mag", type=float, default=0.0)
    p.add_argument("--outlier-count", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("table", "records"), default="table")
    _add_solver_flags(p)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (KpfitError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
