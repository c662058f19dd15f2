"""Keypoint heatmaps: peak extraction, Gaussian synthesis, and binary file I/O.

File format (``KPHM``): 16-byte header (magic ``KPHM``, format version u16
little-endian, map count u16 LE, width u32 LE, height u32 LE) followed by
count * height * width IEEE-754 binary32 values (LE, row-major, map-major),
then a trailing name table (u16 LE byte length + UTF-8 bytes per map).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError
from .observations import KeypointObservations

MAGIC = b"KPHM"
VERSION = 1


@dataclass
class Heatmap:
    """Nonnegative response grid for a single keypoint."""

    values: np.ndarray
    keypoint_name: str = ""

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float32)
        if self.values.ndim != 2:
            raise ValueError("heatmap values must be a 2D grid")
        if not np.all(np.isfinite(self.values)) or np.any(self.values < 0.0):
            raise ValueError("heatmap values must be finite and nonnegative")

    @property
    def height(self):
        return self.values.shape[0]

    @property
    def width(self):
        return self.values.shape[1]


def synthesize_heatmap(width, height, center, sigma=1.0, keypoint_name=""):
    """Gaussian ground-truth heatmap centered at ``center`` = (x, y)."""
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    cx, cy = float(center[0]), float(center[1])
    ys, xs = np.ogrid[0:height, 0:width]
    values = np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2) / (2.0 * sigma**2))
    return Heatmap(values=values, keypoint_name=keypoint_name)


def _subpixel_refine(values, y, x):
    """One-dimensional quadratic interpolation around the argmax pixel."""
    out = [float(x), float(y)]
    for axis, idx in ((1, x), (0, y)):
        if 0 < idx < values.shape[axis] - 1:
            if axis == 1:
                left, mid, right = values[y, idx - 1], values[y, idx], values[y, idx + 1]
            else:
                left, mid, right = values[idx - 1, x], values[idx, x], values[idx + 1, x]
            denom = left - 2.0 * mid + right
            if denom < 0.0:
                out[1 - axis] = idx + 0.5 * (left - right) / denom
    return out


def extract_peaks(maps, scale_to=None, subpixel=False):
    """Peak locations and values of a list of heatmaps as observations.

    ``scale_to`` = (target_width, target_height) maps grid coordinates to a
    target image size by uniform per-axis scaling. Argmax ties break at the
    smallest row-major index. All-zero maps yield a (0, 0) sentinel with d = 0.
    """
    maps = list(maps)
    if not maps:
        raise ValueError("empty heatmap list")
    h, w = maps[0].height, maps[0].width
    if h == 0 or w == 0:
        raise ValueError("zero-sized heatmaps")
    xs, ys, ds, names = [], [], [], []
    for i, hm in enumerate(maps):
        if (hm.height, hm.width) != (h, w):
            raise ValueError("all heatmaps must share the same dimensions")
        flat_idx = int(np.argmax(hm.values))  # first max in row-major order
        y, x = divmod(flat_idx, w)
        peak = float(hm.values[y, x])
        if peak <= 0.0:
            xs.append(0.0)
            ys.append(0.0)
            ds.append(0.0)
        else:
            fx, fy = (float(x), float(y))
            if subpixel:
                fx, fy = _subpixel_refine(hm.values, y, x)
            if scale_to is not None:
                fx *= scale_to[0] / w
                fy *= scale_to[1] / h
            xs.append(fx)
            ys.append(fy)
            ds.append(peak)
        names.append(hm.keypoint_name or f"kp{i}")
    return KeypointObservations(np.array([xs, ys]), np.array(ds), tuple(names))


def write_heatmaps(maps, path):
    maps = list(maps)
    if len(maps) > 0xFFFF:
        raise FormatError("map count exceeds the format limit")
    if maps:
        h, w = maps[0].height, maps[0].width
        for hm in maps:
            if (hm.height, hm.width) != (h, w):
                raise FormatError("all heatmaps must share the same dimensions")
        if w > 0xFFFFFFFF or h > 0xFFFFFFFF:
            raise FormatError("heatmap dimensions exceed the format limit")
    else:
        h = w = 0
    names = [hm.keypoint_name.encode("utf-8") for hm in maps]
    if any(len(name) > 0xFFFF for name in names):
        raise FormatError("keypoint name too long for the format")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<HHII", VERSION, len(maps), w, h))
        for hm in maps:
            fh.write(hm.values.astype("<f4").tobytes(order="C"))
        for name in names:
            fh.write(struct.pack("<H", len(name)))
            fh.write(name)


def read_heatmaps(path):
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 16:
        raise FormatError("truncated heatmap file header")
    if data[:4] != MAGIC:
        raise FormatError("bad magic bytes in heatmap file")
    version, count, w, h = struct.unpack("<HHII", data[4:16])
    if version != VERSION:
        raise FormatError(f"unsupported heatmap format version {version}")
    payload = count * h * w * 4
    if len(data) < 16 + payload:
        raise FormatError("truncated heatmap payload")
    grids = np.frombuffer(data, dtype="<f4", count=count * h * w, offset=16)
    grids = grids.reshape(count, h, w).copy()
    offset = 16 + payload
    names = []
    for _ in range(count):
        if len(data) < offset + 2:
            raise FormatError("truncated heatmap name table")
        (n,) = struct.unpack_from("<H", data, offset)
        offset += 2
        if len(data) < offset + n:
            raise FormatError("truncated heatmap name table")
        names.append(data[offset : offset + n])
        offset += n
    try:  # a bad value, or a name that is not UTF-8 (UnicodeDecodeError)
        return [Heatmap(g, nm.decode("utf-8")) for g, nm in zip(grids, names)]
    except ValueError as exc:
        raise FormatError(f"invalid heatmap: {exc}") from exc
