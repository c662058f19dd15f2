"""Layer spans for the traced benchmark run, recorded from outside the program.

The tracer replaces public functions of the kpfit modules with timing
wrappers, both where a user calls them and where the layers call each other
through a module-level name (``fp_solver.solve_wp``, ``wp_solver.convex_init``,
``weighted_procrustes`` and ``compose_shape`` in both solvers). Spans nest on
a stack; each closed span adds its duration, its self time (duration minus
its child spans) and its call count to per-fit totals, so memory does not
grow with the number of calls. Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
import os
import sys
from time import perf_counter

# "<module>.<function>" of each public function given a span
SPANS = (
    "observations.read_keypoints",
    "heatmap.read_heatmaps",
    "heatmap.extract_peaks",
    "fp_solver.solve_fp",
    "wp_solver.solve_wp",
    "wp_solver.convex_init",
    "geometry.weighted_procrustes",
    "shape_basis.compose_shape",
    "pnp.solve_pnp",
)

# spans whose returned estimates are kept, for iteration and convergence counts
KEEP_RESULTS = ("fp_solver.solve_fp", "wp_solver.solve_wp")


class SpanStats:
    __slots__ = ("calls", "total", "self_time", "results")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.results = []  # returned estimates, for spans that keep them


class Tracer:
    """Installs the wrappers on construction; ``close`` restores the originals."""

    def __init__(self, package):
        self._restore = []
        self._stack = []
        self.fit = None
        self.bytes_read = 0
        prefix = package.__name__ + "."
        modules = [m for n, m in sys.modules.items() if n.startswith(prefix)]
        modules.append(package)
        for name in SPANS:
            module, attr = name.split(".")
            original = getattr(sys.modules[prefix + module], attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def close(self):
        for mod, key, original in reversed(self._restore):
            setattr(mod, key, original)
        self._restore.clear()

    def _wrap(self, name, original):
        stack = self._stack
        keep_result = name in KEEP_RESULTS
        reads_file = name == "heatmap.read_heatmaps"

        @functools.wraps(original)
        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            stats = self.fit.get(name)
            if stats is None:
                stats = self.fit[name] = SpanStats()
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                stack[-1][0] += duration
                stats.calls += 1
                stats.total += duration
                stats.self_time += duration - frame[0]
            if keep_result:
                stats.results.append(result)
            if reads_file:
                self.bytes_read += os.path.getsize(args[0])
            return result

        return traced

    def begin(self):
        """Open the root span of one fit."""
        self.fit = {}
        self.bytes_read = 0
        self._stack[:] = [[0.0]]
        self._root_start = perf_counter()

    def end(self):
        """Close the root span; returns (per-span stats, unattributed seconds, bytes)."""
        duration = perf_counter() - self._root_start
        (root,) = self._stack
        self._stack.clear()
        return self.fit, duration - root[0], self.bytes_read
