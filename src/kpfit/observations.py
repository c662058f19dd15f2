"""Confidence-weighted 2D keypoint observations and their text file formats.

Keypoint file (``KPTS v1``): header line ``KPTS v1 p=<n>``, then one line per
keypoint ``<name> <x> <y> <d>``. Missing keypoints carry ``d = 0``. Intrinsics
files hold a single line ``fx fy cx cy [skew]``. Floats are written with 17
significant digits so files round-trip bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError
from .geometry import CameraIntrinsics


def fmt_float(x):
    """Decimal encoding with 17 significant digits; round-trips doubles exactly."""
    return format(float(x), ".17g")


@dataclass
class KeypointObservations:
    """2xp keypoint matrix with per-keypoint confidences in [0, inf)."""

    w: np.ndarray
    d: np.ndarray
    keypoint_names: tuple = field(default=())

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=float)
        self.d = np.asarray(self.d, dtype=float)
        if self.w.ndim != 2 or self.w.shape[0] != 2:
            raise ValueError("w must be a 2xp matrix")
        p = self.w.shape[1]
        if self.d.shape != (p,):
            raise ValueError("d must have one entry per keypoint")
        if np.any(self.d < 0.0) or not np.all(np.isfinite(self.d)):
            raise ValueError("confidences must be finite and nonnegative")
        used = self.d > 0.0
        if not np.all(np.isfinite(self.w[:, used])):
            raise ValueError("keypoints with positive confidence must be finite")
        if not self.keypoint_names:
            self.keypoint_names = tuple(f"kp{i}" for i in range(p))
        else:
            self.keypoint_names = tuple(self.keypoint_names)
            if len(self.keypoint_names) != p:
                raise ValueError("keypoint_names length must match keypoint count")

    @property
    def num_keypoints(self):
        return self.w.shape[1]

    def with_uniform_confidence(self):
        """Copy with every confidence set to 1 (the uniform-weight ablation)."""
        return KeypointObservations(
            self.w.copy(), np.ones(self.num_keypoints), self.keypoint_names
        )


def read_lines(path):
    """Non-blank lines of a UTF-8 text file; other bytes raise FormatError."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise FormatError(f"not UTF-8 text: {exc}") from exc
    return [ln for ln in text.split("\n") if ln.strip()]


def format_keypoints(obs):
    """``KPTS v1`` text of the observations."""
    lines = [f"KPTS v1 p={obs.num_keypoints}"]
    for i, name in enumerate(obs.keypoint_names):
        if any(ch.isspace() for ch in name):
            raise FormatError(f"keypoint name {name!r} contains whitespace")
        lines.append(
            f"{name} {fmt_float(obs.w[0, i])} {fmt_float(obs.w[1, i])} "
            f"{fmt_float(obs.d[i])}"
        )
    return "\n".join(lines) + "\n"


def write_keypoints(obs, path):
    text = format_keypoints(obs)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_keypoints(path):
    lines = read_lines(path)
    if not lines:
        raise FormatError("empty keypoint file")
    header = lines[0].split()
    if len(header) != 3 or header[0] != "KPTS" or header[1] != "v1" or not header[
        2
    ].startswith("p="):
        raise FormatError(f"bad keypoint header: {lines[0]!r}")
    try:
        p = int(header[2][2:])
    except ValueError as exc:
        raise FormatError(f"bad keypoint count in header: {lines[0]!r}") from exc
    body = lines[1:]
    if len(body) != p:
        raise FormatError(f"expected {p} keypoint lines, found {len(body)}")
    names, xs, ys, ds = [], [], [], []
    for ln in body:
        parts = ln.split()
        if len(parts) != 4:
            raise FormatError(f"bad keypoint line: {ln!r}")
        names.append(parts[0])
        try:
            xs.append(float(parts[1]))
            ys.append(float(parts[2]))
            ds.append(float(parts[3]))
        except ValueError as exc:
            raise FormatError(f"bad number in keypoint line: {ln!r}") from exc
    try:
        return KeypointObservations(np.array([xs, ys]), np.array(ds), tuple(names))
    except ValueError as exc:
        raise FormatError(f"invalid keypoints: {exc}") from exc


def write_intrinsics(intrinsics, path):
    parts = [
        fmt_float(intrinsics.fx),
        fmt_float(intrinsics.fy),
        fmt_float(intrinsics.cx),
        fmt_float(intrinsics.cy),
    ]
    if intrinsics.skew != 0.0:
        parts.append(fmt_float(intrinsics.skew))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(" ".join(parts) + "\n")


def read_intrinsics(path):
    parts = " ".join(read_lines(path)).split()
    if len(parts) not in (4, 5):
        raise FormatError("intrinsics file must hold 'fx fy cx cy [skew]'")
    try:
        vals = [float(v) for v in parts]
    except ValueError as exc:
        raise FormatError("bad number in intrinsics file") from exc
    skew = vals[4] if len(vals) == 5 else 0.0
    try:
        return CameraIntrinsics(vals[0], vals[1], vals[2], vals[3], skew)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
