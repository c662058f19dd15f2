#!/usr/bin/env python3
"""kpfit benchmark: seeded fit pipelines, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 benchmarks/run.py --workload fp_p124 --seed 1 --seconds 20 --trace 0

Each run is one fresh process and one closed-loop client: the next scene is
fitted only after the previous fit returns. BLAS and OpenMP are pinned to one
thread. The run generates its inputs from ``--seed`` (the program sees only a
SHAPEBASIS file and one KPTS or KPHM file per scene), imports kpfit from
``src/`` of the same checkout, then fits the scenes in a cycle for
``--seconds`` seconds in whole passes (at least one).

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs an untraced
loop and then a traced loop (half the time each) and reports the per-layer
metrics; the traced loop must reproduce the untraced outputs bit for bit.
Metrics that depend only on the seed (errors, iteration and call counts,
fractions) are taken over the first pass, so they repeat exactly. Each fit's
time is scaled to reference host speed by a probe (see bench_speed.py); a
scene's latency is its median over the passes, fit_ms_p50/p90 are percentiles
of that over the scenes, and scenes_per_s is the scene count over the median
pass time. setup_s is the median over fresh processes, each scaled by its own
probe run right after its set-up.

Every output is checked (rotation in SO(3) to 1e-9, positive FP depths,
finite non-negative costs, the median rotation error below the workload's
limit, identical outputs on every pass over a scene). The last stdout line is
a JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it, prefixed ``report``, adds host metadata, sample counts
and digests of the inputs and outputs.
"""

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:  # before numpy loads BLAS
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from bench_inputs import WORKLOADS, generate  # noqa: E402
from bench_speed import REFERENCE_S, HostSpeed  # noqa: E402
from bench_trace import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
LOAD_BASIS_REPEATS = 20
WARMUP_FITS = 2
SO3_TOL = 1e-9

# a fresh process times its own set-up, then probes its own speed (the
# first probe warms up the numpy calls it makes)
SETUP_CHILD = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "import kpfit\n"
    "kpfit.load_basis(sys.argv[1])\n"
    "t1 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "import bench_speed\n"
    "bench_speed.probe_work()\n"
    "t2 = time.perf_counter()\n"
    "bench_speed.probe_work()\n"
    "print(repr(t1 - t0), repr(time.perf_counter() - t2))\n"
)

# end-to-end metrics (--trace 0): name -> unit
END_TO_END = {
    "fit_ms_p50": "ms",
    "fit_ms_p90": "ms",
    "scenes_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "rot_err_deg_p50": "deg",
    "ok_frac": "fraction",
}
# reported in every run but not bounded, since they can be exactly 0
EXTRA_END_TO_END = {"converged_frac": "fraction", "fail_frac": "fraction"}

PER_LAYER = {
    "fp_solver.solve_fp_self_ms": "ms",
    "fp_solver.iterations": "count",
    "fp_solver.cap_frac": "fraction",
    "wp_solver.convex_init_ms": "ms",
    "wp_solver.solve_wp_self_ms": "ms",
    "wp_solver.iterations": "count",
    "wp_solver.converged_frac": "fraction",
    "geometry.weighted_procrustes_calls": "count",
    "geometry.weighted_procrustes_ms": "ms",
    "shape_basis.compose_shape_calls": "count",
    "shape_basis.compose_shape_ms": "ms",
    "shape_basis.load_basis_ms": "ms",
    "pnp.solve_pnp_ms": "ms",
    "pnp.fail_frac": "fraction",
    "heatmap.read_heatmaps_ms": "ms",
    "heatmap.extract_peaks_ms": "ms",
    "heatmap.bytes_read": "bytes",
    "observations.read_keypoints_ms": "ms",
    "bench.unattributed_ms": "ms",
    "bench.trace_overhead_frac": "fraction",
    "bench.converged_frac": "fraction",
    "bench.fail_frac": "fraction",
}

# fields that make up a fit's deterministic output, per estimate type
OUTPUT_FIELDS = {
    "WPEstimate": ("s", "c", "rbar", "tbar", "final_cost", "iterations", "converged"),
    "FPEstimate": (
        "rotation", "translation", "c", "depths", "final_cost", "iterations", "converged",
    ),
    "PnPEstimate": ("rotation", "translation", "reprojection_rmse"),
}


def import_kpfit():
    if not (SRC / "kpfit" / "__init__.py").is_file():
        raise SystemExit(f"error: no kpfit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import kpfit

    if Path(kpfit.__file__).resolve().parent != (SRC / "kpfit").resolve():
        raise SystemExit(f"error: kpfit imported from {kpfit.__file__}, not {SRC}")
    return kpfit


def make_pipeline(kpfit, wl, basis):
    """Input file -> (estimates, name of the PnP baseline's error or None).

    Calls go through module attributes so the tracer's wrappers see them.
    """
    intrinsics = kpfit.CameraIntrinsics(*wl.intrinsics)
    observations, heatmap = kpfit.observations, kpfit.heatmap
    fp_solver, wp_solver, pnp = kpfit.fp_solver, kpfit.wp_solver, kpfit.pnp

    if wl.heatmap_grid:

        def fit(path):
            maps = heatmap.read_heatmaps(path)
            obs = heatmap.extract_peaks(maps, scale_to=wl.image_size, subpixel=True)
            est = fp_solver.solve_fp(obs, intrinsics, basis)
            try:
                return (est, pnp.solve_pnp(basis.b0, obs.w, intrinsics)), None
            except (kpfit.KpfitError, np.linalg.LinAlgError) as exc:
                return (est,), type(exc).__name__

    elif wl.weak_perspective:

        def fit(path):
            return (wp_solver.solve_wp(observations.read_keypoints(path), basis),), None

    else:

        def fit(path):
            obs = observations.read_keypoints(path)
            return (fp_solver.solve_fp(obs, intrinsics, basis),), None

    return fit


def rotation_of(est):
    """The estimate's 3x3 rotation; WP rows are completed by the cross product."""
    if type(est).__name__ == "WPEstimate":
        return np.vstack([est.rbar, np.cross(est.rbar[0], est.rbar[1])])
    return np.asarray(est.rotation, dtype=float)


def in_so3(r):
    return (
        r.shape == (3, 3)
        and bool(np.all(np.isfinite(r)))
        and float(np.max(np.abs(r.T @ r - np.eye(3)))) <= SO3_TOL
        and abs(float(np.linalg.det(r)) - 1.0) <= SO3_TOL
    )


def check_outputs(estimates):
    """Names of the output checks the estimates violate."""
    bad = []
    for est in estimates:
        kind = type(est).__name__
        if not in_so3(rotation_of(est)):
            bad.append(f"{kind}: rotation not in SO(3)")
        cost = est.reprojection_rmse if kind == "PnPEstimate" else est.final_cost
        if not (np.isfinite(cost) and cost >= 0.0):
            bad.append(f"{kind}: cost not finite and >= 0")
        if kind == "FPEstimate" and not np.all(np.asarray(est.depths) > 0.0):
            bad.append(f"{kind}: depth not positive")
    return bad


def output_digest(estimates, *labels):
    h = hashlib.sha256(repr(labels).encode())
    for est in estimates:
        kind = type(est).__name__
        h.update(kind.encode())
        for name in OUTPUT_FIELDS[kind]:
            h.update(np.asarray(getattr(est, name), dtype=float).tobytes())
    return h.hexdigest()


def rotation_error_deg(r, truth):
    """Geodesic angle via ||R - R*||_F = 2 sqrt(2) sin(angle / 2) (stable near 0)."""
    chord = np.linalg.norm(r - truth) / (2.0 * np.sqrt(2.0))
    return float(np.degrees(2.0 * np.arcsin(min(chord, 1.0))))


@dataclass(slots=True)
class Fit:
    scene: int
    start: float
    seconds: float  # raw; times ``factor`` gives seconds at reference host speed
    digest: str
    failure: str  # error raised by the fit or output checks violated; None if ok
    pnp_failure: str  # error raised by the PnP baseline; None if ok or not run
    estimates: tuple  # kept for the first pass only
    trace: tuple  # (span stats, unattributed seconds, bytes read) when traced
    factor: float = 1.0


def run_loop(kpfit, fit, scenes, seconds, speed, tracer=None):
    """Closed loop over the scenes in turn until ``seconds`` have elapsed and
    every scene has been fitted once, probing host speed between fits."""
    fits = []
    start = perf_counter()
    while len(fits) < len(scenes) or perf_counter() - start < seconds:
        index = len(fits) % len(scenes)
        scene = scenes[index]
        speed.maybe_probe()
        if tracer:
            tracer.begin()
        t0 = perf_counter()
        try:
            (estimates, pnp_failure), failure = fit(scene.path), None
        except (kpfit.KpfitError, np.linalg.LinAlgError) as exc:
            estimates, pnp_failure, failure = (), None, type(exc).__name__
        elapsed = perf_counter() - t0
        trace = tracer.end() if tracer else None
        failure = failure or "; ".join(check_outputs(estimates)) or None
        digest = output_digest(estimates, failure, pnp_failure)
        keep = estimates if len(fits) < len(scenes) else ()
        fits.append(Fit(index, t0, elapsed, digest, failure, pnp_failure, keep, trace))
    speed.probe()
    for f in fits:
        f.factor = speed.factor(f.start + 0.5 * f.seconds)
    return fits


def deterministic_metrics(reference, scenes):
    """End-to-end metrics that depend only on the inputs (first pass)."""
    n = len(reference)
    ok = [f for f in reference if f.failure is None]
    errors = [
        rotation_error_deg(rotation_of(f.estimates[0]), scenes[f.scene].rotation) for f in ok
    ]
    return {
        "rot_err_deg_p50": (statistics.median(errors) if errors else 180.0, len(ok)),
        "ok_frac": (len(ok) / n, n),
        "converged_frac": (sum(bool(f.estimates[0].converged) for f in ok) / n, n),
        "fail_frac": ((n - len(ok)) / n, n),
    }


def per_scene(fits, n, value=lambda f: f.seconds * f.factor):
    """Each scene's median over its passes."""
    samples = [[] for _ in range(n)]
    for f in fits:
        samples[f.scene].append(value(f))
    return [statistics.median(s) for s in samples]


def percentile_ms(fits, n, q, value=lambda f: f.seconds * f.factor):
    return float(np.percentile(per_scene(fits, n, value), q)) * 1e3


def scenes_per_s(fits, n):
    """Scenes over the median time of a whole pass, at reference host speed."""
    passes = [
        sum(f.seconds * f.factor for f in fits[i : i + n])
        for i in range(0, len(fits) - n + 1, n)
    ]
    return n / statistics.median(passes), len(passes)


def setup_samples(basis_path):
    """(raw seconds, seconds at reference host speed) of ``import kpfit`` plus
    ``load_basis`` in fresh processes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, basis_path, str(HERE)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        seconds, probe = map(float, out.stdout.split())
        samples.append((seconds, seconds * REFERENCE_S / probe))
    return samples


def median_call_s(speed, fn, *args, repeats):
    """Median seconds of ``fn(*args)`` at reference host speed."""
    samples = []
    speed.probe()
    for _ in range(repeats):
        start = perf_counter()
        fn(*args)
        samples.append((perf_counter() - start, start))
    speed.probe()
    return statistics.median(t * speed.factor(at) for t, at in samples)


def per_layer_metrics(traced, n, det, max_iterations):
    """Per-fit layer numbers. Times are medians over the scenes of each
    scene's median pass, at reference host speed; counts and fractions are
    over the first traced pass, so they repeat exactly. A layer the workload
    never calls reads 0."""
    first = traced[:n]

    def spans(fit, name):
        return fit.trace[0].get(name)

    def ms(name, field="total"):
        def value(f):
            return getattr(spans(f, name), field) * f.factor if spans(f, name) else 0.0

        return statistics.median(per_scene(traced, n, value)) * 1e3

    def calls(fits, name):
        return [spans(f, name).calls if spans(f, name) else 0 for f in fits]

    def results(name):
        return [r for f in first if spans(f, name) for r in spans(f, name).results]

    def mean(values):
        return statistics.fmean(values) if values else 0.0

    fp, wp = results("fp_solver.solve_fp"), results("wp_solver.solve_wp")
    pnp_calls = sum(calls(first, "pnp.solve_pnp"))
    return {
        "fp_solver.solve_fp_self_ms": ms("fp_solver.solve_fp", "self_time"),
        "fp_solver.iterations": mean([e.iterations for e in fp]),
        "fp_solver.cap_frac": mean(
            [float(e.iterations >= max_iterations and not e.converged) for e in fp]
        ),
        "wp_solver.convex_init_ms": ms("wp_solver.convex_init"),
        "wp_solver.solve_wp_self_ms": ms("wp_solver.solve_wp", "self_time"),
        "wp_solver.iterations": mean([e.iterations for e in wp]),
        "wp_solver.converged_frac": mean([float(e.converged) for e in wp]),
        "geometry.weighted_procrustes_calls": mean(calls(first, "geometry.weighted_procrustes")),
        "geometry.weighted_procrustes_ms": ms("geometry.weighted_procrustes"),
        "shape_basis.compose_shape_calls": mean(calls(first, "shape_basis.compose_shape")),
        "shape_basis.compose_shape_ms": ms("shape_basis.compose_shape"),
        "pnp.solve_pnp_ms": ms("pnp.solve_pnp"),
        "pnp.fail_frac": (
            sum(f.pnp_failure is not None for f in first) / pnp_calls if pnp_calls else 0.0
        ),
        "heatmap.read_heatmaps_ms": ms("heatmap.read_heatmaps"),
        "heatmap.extract_peaks_ms": ms("heatmap.extract_peaks"),
        "heatmap.bytes_read": mean([f.trace[2] for f in first]),
        "observations.read_keypoints_ms": ms("observations.read_keypoints"),
        "bench.unattributed_ms": statistics.median(
            per_scene(traced, n, lambda f: f.trace[1] * f.factor)
        ) * 1e3,
        "bench.converged_frac": det["converged_frac"][0],
        "bench.fail_frac": det["fail_frac"][0],
    }


def host_metadata():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument(
        "--scenes", type=int, default=None,
        help="scenes per pass (default: the workload's; small values are for self-tests)",
    )
    args = ap.parse_args(argv)
    if args.seconds < 0 or (args.scenes is not None and args.scenes < 1):
        ap.error("--seconds must be >= 0 and --scenes >= 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    # a terminated run still removes its inputs (the finally below)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    kpfit = import_kpfit()
    wl = WORKLOADS[args.workload]
    if args.scenes is not None:
        wl = dataclasses.replace(wl, scenes=args.scenes)

    workdir = ROOT / ".bench_work" / f"{wl.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        basis_path, scenes, inputs_sha = generate(kpfit, wl, args.seed, workdir)
        result = measure(kpfit, wl, args, basis_path, scenes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    result["report"]["inputs_sha256"] = inputs_sha
    emit(args, result)
    return 0


def measure(kpfit, wl, args, basis_path, scenes):
    n = len(scenes)
    e2e = {}
    speed = HostSpeed()
    if args.trace:
        load_basis_s = median_call_s(
            speed, kpfit.shape_basis.load_basis, basis_path, repeats=LOAD_BASIS_REPEATS
        )
    else:
        setup = setup_samples(basis_path)  # more after the loop

    fit = make_pipeline(kpfit, wl, kpfit.load_basis(basis_path))
    for _ in range(WARMUP_FITS):
        fit(scenes[0].path)
    loop_seconds = args.seconds / 2 if args.trace else args.seconds
    fits = run_loop(kpfit, fit, scenes, loop_seconds, speed)
    reference = fits[:n]
    det = deterministic_metrics(reference, scenes)
    e2e.update(
        {
            "fit_ms_p50": (percentile_ms(fits, n, 50), n),
            "fit_ms_p90": (percentile_ms(fits, n, 90), n),
            "scenes_per_s": scenes_per_s(fits, n),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
            **det,
        }
    )
    raw = {
        "fit_ms_p50": percentile_ms(fits, n, 50, lambda f: f.seconds),
        "fit_ms_p90": percentile_ms(fits, n, 90, lambda f: f.seconds),
    }
    if not args.trace:
        setup += setup_samples(basis_path)
        e2e["setup_s"] = (statistics.median(s for _, s in setup), len(setup))
        raw["setup_s"] = statistics.median(s for s, _ in setup)
    all_fits = list(fits)

    if args.trace:
        tracer = Tracer(kpfit)
        try:
            tracer.begin()
            fit(scenes[0].path)  # warm-up
            tracer.end()
            traced = run_loop(kpfit, fit, scenes, loop_seconds, speed, tracer)
        finally:
            tracer.close()
        all_fits += traced
        metrics = per_layer_metrics(
            traced, n, det, kpfit.SolverOptions().max_iterations
        )
        metrics["shape_basis.load_basis_ms"] = load_basis_s * 1e3
        metrics["bench.trace_overhead_frac"] = (
            percentile_ms(traced, n, 50) / percentile_ms(fits, n, 50) - 1.0
        )
        metrics = {name: metrics[name] for name in PER_LAYER}
        counts = {name: n for name in PER_LAYER}
        counts["shape_basis.load_basis_ms"] = LOAD_BASIS_REPEATS
    else:
        metrics = {name: e2e[name][0] for name in END_TO_END}
        counts = {name: e2e[name][1] for name in END_TO_END}

    mismatches = sum(1 for f in all_fits if f.digest != reference[f.scene].digest)
    failed = sum(1 for f in all_fits if f.failure)
    accurate = det["rot_err_deg_p50"][0] <= wl.max_rot_err_deg_p50
    units = {**END_TO_END, **EXTRA_END_TO_END}
    return {
        "correct": failed == 0 and mismatches == 0 and accurate,
        "attempted": len(all_fits),
        "failed": failed,
        "metrics": metrics,
        "units": PER_LAYER if args.trace else END_TO_END,
        "report": {
            "workload": wl.name,
            "seed": args.seed,
            "trace": args.trace,
            "scenes_per_pass": n,
            "untraced_fits": len(fits),
            "raw_unscaled": raw,
            "host_probe_s_median": speed.median_seconds(),
            "end_to_end": {
                k: {"value": v, "unit": units[k], "n": c} for k, (v, c) in e2e.items()
            },
            "counts": counts,
            "repeat_mismatches": mismatches,
            "accuracy_limit_deg": wl.max_rot_err_deg_p50,
            "failures": sorted({f.failure for f in all_fits if f.failure}),
            "pnp_failures_first_pass": sum(f.pnp_failure is not None for f in reference),
            "outputs_sha256": hashlib.sha256(
                "".join(f.digest for f in reference).encode()
            ).hexdigest(),
            "host": host_metadata(),
        },
    }


def emit(args, result):
    report, units = result["report"], result["units"]
    print(
        f"kpfit benchmark: workload={report['workload']} seed={args.seed} "
        f"trace={args.trace} scenes/pass={report['scenes_per_pass']} "
        f"fits={result['attempted']} failed={result['failed']} correct={result['correct']}"
    )
    rows = [(k, m["value"], m["unit"], m["n"]) for k, m in report["end_to_end"].items()]
    if args.trace:
        rows += [(k, v, units[k], report["counts"][k]) for k, v in result["metrics"].items()]
    for name, value, unit, count in rows:
        print(f"  {name:<36} {value:>14.6g} {unit:<9} n={count}")
    for failure in report["failures"]:
        print(f"  failure: {failure}")
    print("report " + json.dumps(report, sort_keys=True))
    metrics = {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()}
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )


if __name__ == "__main__":
    sys.exit(main())
