"""Build a deformable shape basis from a population of 3D keypoint models.

We generate a family of shapes from a hidden 2-mode linear model, run PCA on
the population, and check that the recovered basis spans the same subspace
and explains the variance we put in.
"""

import os
import tempfile

import numpy as np

from kpfit import build_basis, compose_shape, load_basis, save_basis, variance_explained

BASIS_PATH = os.path.join(tempfile.gettempdir(), "demo_basis.txt")


def hidden_model(rng, p=15):
    b0 = rng.uniform(-1.0, 1.0, (3, p))
    q, _ = np.linalg.qr(rng.normal(size=(3 * p, 2)))
    modes = [q[:, i].reshape(3, p) for i in range(2)]
    return b0, modes


def main():
    rng = np.random.default_rng(0)
    b0, modes = hidden_model(rng)
    stds = np.array([0.3, 0.2])

    print("sampling 200 training shapes from a hidden 2-mode model")
    models = []
    for _ in range(200):
        c = rng.normal(0.0, 1.0, 2) * stds
        models.append(b0 + c[0] * modes[0] + c[1] * modes[1])

    basis = build_basis(models, variance_fraction=0.95, class_name="demo")
    print(f"selected {basis.num_modes} modes at 95% variance")
    print(f"eigenvalues: {np.round(basis.eigenvalues, 4)}")
    print(f"cumulative variance: {np.round(variance_explained(basis), 4)}")

    # principal angle between true and recovered mode subspaces
    truth = np.column_stack([m.ravel() for m in modes])
    found = np.column_stack([m.ravel() for m in basis.modes])
    overlap = np.linalg.svd(truth.T @ found, compute_uv=False)
    print(f"subspace cosines (1 = aligned): {np.round(overlap, 6)}")

    save_basis(basis, BASIS_PATH)
    reloaded = load_basis(BASIS_PATH)
    assert np.array_equal(reloaded.b0, basis.b0)
    print(f"saved to {BASIS_PATH} and reloaded bit-exactly")

    # a shape composed from coefficients stays within the training spread
    sample = compose_shape(basis, np.sqrt(basis.eigenvalues))
    spread = np.linalg.norm(sample - basis.b0)
    print(f"one-sigma shape deviates from the mean by {spread:.4f} units")


if __name__ == "__main__":
    main()
