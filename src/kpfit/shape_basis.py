"""PCA deformable shape model: mean shape plus linear deformation modes.

A shape is a 3xp keypoint matrix. The basis stores the elementwise mean B0
and unit-norm principal modes of the mean-centered, flattened training
shapes, with the corresponding variances kept separately as eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError
from .geometry import weighted_procrustes
from .observations import fmt_float, read_lines


@dataclass
class ShapeBasis:
    """Mean shape B0 (3xp), k unit-norm deformation modes and their variances.

    ``modes`` is one (k, 3, p) float array, also built from a sequence of 3xp
    arrays; k = 0 gives shape (0, 3, p).
    """

    class_name: str
    b0: np.ndarray
    modes: np.ndarray = field(default=())
    eigenvalues: np.ndarray = field(default_factory=lambda: np.zeros(0))
    keypoint_names: tuple = field(default=())

    def __post_init__(self):
        self.b0 = np.asarray(self.b0, dtype=float)
        if self.b0.ndim != 2 or self.b0.shape[0] != 3 or self.b0.shape[1] < 1:
            raise ValueError("mean shape must be a 3xp matrix with p >= 1")
        self.modes = np.asarray(self.modes, dtype=float)
        if self.modes.shape == (0,):
            self.modes = self.modes.reshape(0, *self.b0.shape)
        if self.modes.ndim != 3 or self.modes.shape[1:] != self.b0.shape:
            raise ValueError("every mode must match the mean shape's size")
        self.eigenvalues = np.asarray(self.eigenvalues, dtype=float)
        if self.eigenvalues.shape != (len(self.modes),):
            raise ValueError("need one eigenvalue per mode")
        for values in (self.b0, self.modes, self.eigenvalues):
            if not np.isfinite(values).all():
                raise ValueError("mean shape, modes and eigenvalues must be finite")
        if np.any(self.eigenvalues < 0.0):
            raise ValueError("eigenvalues must be nonnegative")
        if np.any(np.diff(self.eigenvalues) > 0.0):
            raise ValueError("eigenvalues must be sorted descending")
        flat = self.modes.reshape(len(self.modes), self.b0.size)
        gram = flat @ flat.T
        if np.any(np.abs(np.sqrt(np.diag(gram)) - 1.0) > 1e-9):
            raise ValueError("modes must have unit norm when flattened")
        if np.any(np.abs(gram - np.diag(np.diag(gram))) > 1e-9):
            raise ValueError("modes must be mutually orthogonal")
        if not self.keypoint_names:
            self.keypoint_names = tuple(f"kp{i}" for i in range(self.b0.shape[1]))
        else:
            self.keypoint_names = tuple(self.keypoint_names)
            if len(self.keypoint_names) != self.b0.shape[1]:
                raise ValueError("keypoint_names length must match p")

    @property
    def num_keypoints(self):
        return self.b0.shape[1]

    @property
    def num_modes(self):
        return len(self.modes)

    def diameter(self):
        """Largest pairwise distance between mean-shape keypoints."""
        diffs = self.b0[:, :, None] - self.b0[:, None, :]
        return float(np.sqrt((diffs**2).sum(axis=0).max()))


def _prealign(models):
    """Procrustes pre-alignment: center, scale-match, and rotate to the mean."""
    aligned = [m - m.mean(axis=1, keepdims=True) for m in models]
    norms = [np.linalg.norm(m) for m in aligned]
    target = float(np.mean(norms))
    aligned = [m * (target / n) for m, n in zip(aligned, norms)]
    w = np.ones(aligned[0].shape[1])
    for _ in range(10):
        ref = np.mean(aligned, axis=0)
        aligned = [weighted_procrustes(ref, m, w) @ m for m in aligned]
    return aligned


def build_basis(
    models,
    k=None,
    variance_fraction=0.95,
    class_name="",
    keypoint_names=(),
    prealign=False,
):
    """Build a ShapeBasis from keypoint sets sharing a canonical frame.

    Either pass an explicit mode count ``k`` or a ``variance_fraction`` in
    (0, 1]; then k is the smallest count whose cumulative eigenvalue fraction
    reaches it.
    """
    models = [np.asarray(m, dtype=float) for m in models]
    if len(models) < 2:
        raise ValueError("need at least 2 training models")
    p = models[0].shape[1] if models[0].ndim == 2 else 0
    for m in models:
        if p < 1 or m.shape != (3, p):
            raise ValueError("all models must be 3xp with identical p >= 1")
        if not np.all(np.isfinite(m)):
            raise ValueError("model coordinates must be finite")
    if k is None and not (0.0 < variance_fraction <= 1.0):
        raise ValueError("variance_fraction must lie in (0, 1]")
    if prealign:
        models = _prealign(models)

    n = len(models)
    data = np.stack([m.ravel() for m in models])  # n x 3p
    mean = data.mean(axis=0)
    centered = data - mean
    # Population-convention PCA: eigenvalues are s^2 / n of the centered data.
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    eigvals = s**2 / n
    total = eigvals.sum()
    # rank threshold against the raw data scale, not the centered spectrum:
    # identical models leave only rounding noise after centering
    scale = np.linalg.norm(data)
    rank = int(np.sum(s > max(n, data.shape[1]) * np.finfo(float).eps * scale))
    total = float(eigvals[:rank].sum())
    if k is not None:
        num = min(int(k), rank, n - 1)
    elif total <= 0.0:
        num = 0
    else:
        cum = np.cumsum(eigvals) / total
        num = int(np.searchsorted(cum, variance_fraction - 1e-12) + 1)
        num = min(num, rank, n - 1)

    modes = vt[:num].copy()
    # deterministic sign: each mode's largest-magnitude component positive
    modes[modes[np.arange(num), np.argmax(np.abs(modes), axis=1)] < 0.0] *= -1.0
    return ShapeBasis(
        class_name=class_name,
        b0=mean.reshape(3, p),
        modes=modes.reshape(num, 3, p),
        eigenvalues=eigvals[:num],
        keypoint_names=tuple(keypoint_names),
    )


def compose_shape(basis, c):
    """Evaluate B0 + sum_i c_i B_i."""
    c = np.asarray(c, dtype=float).reshape(-1)
    if c.shape != (basis.num_modes,):
        raise ValueError(
            f"coefficient vector length {c.shape[0]} != mode count {basis.num_modes}"
        )
    return basis.b0 + (c @ basis.modes.reshape(len(c), basis.b0.size)).reshape(3, -1)


def project_coefficients(basis, shape):
    """Coefficients of the orthogonal projection of a shape onto the basis."""
    diff = (np.asarray(shape, dtype=float) - basis.b0).ravel()
    return basis.modes.reshape(basis.num_modes, diff.size) @ diff


def variance_explained(basis):
    """Cumulative eigenvalue fractions; requires a positive total variance."""
    total = basis.eigenvalues.sum()
    if basis.num_modes == 0 or total <= 0.0:
        raise ValueError("variance fractions are undefined for an all-zero spectrum")
    return np.cumsum(basis.eigenvalues) / total


def save_basis(basis, path):
    """Write the line-oriented text basis format (bit-exact round trip)."""
    name = basis.class_name or "unnamed"
    if any(ch.isspace() for ch in name):
        raise FormatError("class name must not contain whitespace")
    for kp in basis.keypoint_names:
        if any(ch.isspace() for ch in kp):
            raise FormatError(f"keypoint name {kp!r} contains whitespace")
    lines = [
        "SHAPEBASIS v1",
        f"class {name}",
        f"p {basis.num_keypoints}",
        f"k {basis.num_modes}",
        "names " + " ".join(basis.keypoint_names),
        "B0",
    ]
    for row in basis.b0:
        lines.append(" ".join(fmt_float(v) for v in row))
    for i, (mode, eig) in enumerate(zip(basis.modes, basis.eigenvalues), start=1):
        lines.append(f"mode {i} eigenvalue {fmt_float(eig)}")
        for row in mode:
            lines.append(" ".join(fmt_float(v) for v in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_basis(path):
    it = iter(read_lines(path))

    def expect(prefix):
        try:
            ln = next(it)
        except StopIteration:
            raise FormatError(f"truncated basis file: missing {prefix!r} line")
        if not ln.startswith(prefix):
            raise FormatError(f"expected {prefix!r} line, got {ln!r}")
        return ln

    if expect("SHAPEBASIS") != "SHAPEBASIS v1":
        raise FormatError("unsupported basis format version")
    class_parts = expect("class ").split(maxsplit=1)
    if len(class_parts) != 2:
        raise FormatError("class line has no class name")
    class_name = class_parts[1]
    try:
        p = int(expect("p ").split()[1])
        k = int(expect("k ").split()[1])
    except (IndexError, ValueError) as exc:
        raise FormatError("bad p/k header in basis file") from exc
    names = tuple(expect("names ").split()[1:])
    if len(names) != p:
        raise FormatError("keypoint name count does not match p")

    def read_matrix():
        rows = []
        for _ in range(3):
            try:
                rows.append([float(v) for v in next(it).split()])
            except (StopIteration, ValueError) as exc:
                raise FormatError("truncated or malformed matrix block") from exc
            if len(rows[-1]) != p:
                raise FormatError("matrix row length does not match p")
        return np.array(rows)

    expect("B0")
    b0 = read_matrix()
    modes, eigvals = [], []
    for i in range(1, k + 1):
        header = expect("mode ").split()
        if len(header) != 4 or header[1] != str(i) or header[2] != "eigenvalue":
            raise FormatError(f"bad mode header: {' '.join(header)!r}")
        try:
            eigvals.append(float(header[3]))
        except ValueError as exc:
            raise FormatError(f"bad eigenvalue in mode header: {header[3]!r}") from exc
        modes.append(read_matrix())
    try:
        return ShapeBasis(
            class_name=class_name,
            b0=b0,
            modes=modes,
            eigenvalues=np.array(eigvals),
            keypoint_names=names,
        )
    except ValueError as exc:
        raise FormatError(f"invalid shape basis: {exc}") from exc


def write_model(shape, path, keypoint_names=()):
    """Write a single 3xp keypoint model (``MODEL v1`` text format)."""
    shape = np.asarray(shape, dtype=float)
    p = shape.shape[1]
    names = tuple(keypoint_names) or tuple(f"kp{i}" for i in range(p))
    lines = [f"MODEL v1 p={p}"]
    for i, name in enumerate(names):
        lines.append(
            f"{name} {fmt_float(shape[0, i])} {fmt_float(shape[1, i])} "
            f"{fmt_float(shape[2, i])}"
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_model(path):
    """Read a ``MODEL v1`` file; returns (3xp array, keypoint names)."""
    lines = read_lines(path)
    if not lines or not lines[0].startswith("MODEL v1 p="):
        raise FormatError("bad model file header")
    try:
        p = int(lines[0].split("p=")[1])
    except ValueError as exc:
        raise FormatError("bad point count in model header") from exc
    if p < 1 or len(lines) - 1 != p:
        raise FormatError(f"p={p}: need p >= 1 and p model lines, got {len(lines) - 1}")
    names, cols = [], []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 4:
            raise FormatError(f"bad model line: {ln!r}")
        names.append(parts[0])
        try:
            cols.append([float(v) for v in parts[1:]])
        except ValueError as exc:
            raise FormatError(f"bad number in model line: {ln!r}") from exc
    return np.array(cols).T, tuple(names)
