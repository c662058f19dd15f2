import numpy as np
import pytest

from kpfit import CameraIntrinsics, ShapeBasis, compose_shape
from kpfit.bench import _uniform_rotation


def make_basis(seed=0, p=12, k=2, eigenvalues=(0.09, 0.04), class_name="toy"):
    """Random but reproducible basis: unit-norm orthogonal modes via QR."""
    rng = np.random.default_rng(seed)
    b0 = rng.uniform(-1.0, 1.0, (3, p))
    modes = ()
    if k > 0:
        q, _ = np.linalg.qr(rng.normal(size=(3 * p, k)))
        modes = tuple(q[:, i].reshape(3, p) for i in range(k))
    return ShapeBasis(class_name, b0, modes, np.array(eigenvalues[:k]))


def array_mu(w, d):
    """The default spectral-norm weight 0.01 ||(W - wbar) D^(1/2)||_F, from arrays."""
    centred = w - (w @ d / d.sum())[:, None]
    return 0.01 * float(np.sqrt(np.sum(d * np.sum(centred**2, axis=0))))


def random_rotation(rng):
    return _uniform_rotation(rng)


def make_fp_scene(basis, intrinsics, seed, depth_mult=8.0, coeff_scale=1.0):
    """Noiseless full-perspective scene; returns (c, shape, R, T, pixels)."""
    rng = np.random.default_rng(seed)
    c = coeff_scale * rng.normal(0.0, 1.0, basis.num_modes) * np.sqrt(basis.eigenvalues)
    shape = compose_shape(basis, c)
    rotation = random_rotation(rng)
    translation = np.array([0.1, -0.2, depth_mult * basis.diameter()])
    pixels = intrinsics.project(rotation @ shape + translation[:, None])
    return c, shape, rotation, translation, pixels


@pytest.fixture
def basis():
    return make_basis()


@pytest.fixture
def intrinsics():
    return CameraIntrinsics(800.0, 800.0, 320.0, 240.0)
