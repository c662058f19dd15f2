from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import subspace_angles

from kpfit import (
    ShapeBasis,
    build_basis,
    compose_shape,
    load_basis,
    project_coefficients,
    save_basis,
    variance_explained,
)
from conftest import make_basis

DATA = Path(__file__).parent / "data"


def generate_models(basis, n, seed, coeff_std=None):
    rng = np.random.default_rng(seed)
    std = np.sqrt(basis.eigenvalues) if coeff_std is None else coeff_std
    return [
        compose_shape(basis, rng.normal(0.0, 1.0, basis.num_modes) * std)
        for _ in range(n)
    ]


def mode_matrix(basis):
    return np.column_stack([m.ravel() for m in basis.modes])


class TestBuildBasis:
    def test_identical_models_give_mean_only(self):
        rng = np.random.default_rng(0)
        model = rng.normal(size=(3, 6))
        basis = build_basis([model, model.copy()])
        assert basis.num_modes == 0
        assert np.allclose(basis.b0, model)

    def test_two_point_pca(self):
        rng = np.random.default_rng(1)
        b0 = rng.normal(size=(3, 5))
        u = rng.normal(size=(3, 5))
        basis = build_basis([b0 + u, b0 - u], k=1)
        assert basis.num_modes == 1
        direction = u.ravel() / np.linalg.norm(u)
        assert abs(abs(np.dot(mode_matrix(basis)[:, 0], direction)) - 1.0) < 1e-12
        assert basis.eigenvalues[0] == pytest.approx(np.sum(u**2), rel=1e-12)

    def test_recovers_two_mode_subspace(self):
        truth = make_basis(seed=5, p=10, k=2, eigenvalues=(0.25, 0.16))
        models = generate_models(truth, 10, seed=6)
        rebuilt = build_basis(models, k=2)
        angles = subspace_angles(mode_matrix(truth), mode_matrix(rebuilt))
        assert np.max(angles) < 1e-6
        assert variance_explained(rebuilt)[1] >= 0.95

    def test_variance_fraction_selection(self):
        truth = make_basis(seed=7, p=8, k=2, eigenvalues=(1.0, 0.5))
        models = generate_models(truth, 30, seed=8)
        full = build_basis(models, k=29)
        cum = variance_explained(full)
        expect_k = int(np.searchsorted(cum, 0.95 - 1e-12) + 1)
        frac = build_basis(models, variance_fraction=0.95)
        assert frac.num_modes == expect_k

    def test_input_validation(self):
        rng = np.random.default_rng(9)
        good = rng.normal(size=(3, 4))
        with pytest.raises(ValueError):
            build_basis([good])
        with pytest.raises(ValueError):
            build_basis([good, rng.normal(size=(3, 5))])
        with pytest.raises(ValueError):
            build_basis([good, good], variance_fraction=1.5)

    @pytest.mark.parametrize(
        "first",
        [np.zeros(0), np.zeros(3), np.zeros((3, 0))],
        ids=["(0,)", "(3,)", "(3,0)"],
    )
    def test_models_that_are_not_3xp_raise_value_error(self, first):
        with pytest.raises(ValueError, match="3xp"):
            build_basis([first, np.ones((3, 4))])


class TestComposeShape:
    def test_zero_coefficients(self, basis):
        assert np.array_equal(compose_shape(basis, np.zeros(2)), basis.b0)

    def test_one_hot(self, basis):
        out = compose_shape(basis, np.array([0.0, 1.0]))
        assert np.allclose(out, basis.b0 + basis.modes[1])

    def test_linearity(self, basis):
        rng = np.random.default_rng(10)
        for _ in range(20):
            a, b = rng.normal(size=2)
            c1, c2 = rng.normal(size=(2, 2))
            lhs = compose_shape(basis, a * c1 + b * c2)
            rhs = (
                a * compose_shape(basis, c1)
                + b * compose_shape(basis, c2)
                - (a + b - 1.0) * basis.b0
            )
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_projection_reconstruction_bound(self):
        truth = make_basis(seed=11, p=9, k=2, eigenvalues=(0.2, 0.1))
        models = generate_models(truth, 12, seed=12)
        rebuilt = build_basis(models, k=1)  # deliberately truncated
        # residual energy over the training set is what the dropped modes carried
        data = np.stack([m.ravel() for m in models])
        centered = data - data.mean(axis=0)
        _, s, _ = np.linalg.svd(centered, full_matrices=False)
        dropped = np.sum(s[1:] ** 2)
        total_residual = 0.0
        for m in models:
            recon = compose_shape(rebuilt, project_coefficients(rebuilt, m))
            total_residual += np.sum((m - recon) ** 2)
        assert total_residual <= dropped + 1e-9

    def test_matches_per_mode_loops(self, basis):
        rng = np.random.default_rng(7)
        for _ in range(10):
            c = rng.normal(size=basis.num_modes)
            loop = basis.b0.copy()
            for ci, mode in zip(c, basis.modes):
                loop += ci * mode
            assert np.allclose(compose_shape(basis, c), loop, rtol=1e-12, atol=1e-12)
            shape = rng.normal(size=basis.b0.shape)
            diff = (shape - basis.b0).ravel()
            loop_c = [np.dot(diff, m.ravel()) for m in basis.modes]
            assert np.allclose(
                project_coefficients(basis, shape), loop_c, rtol=1e-12, atol=1e-12
            )

    def test_dimension_mismatch(self, basis):
        with pytest.raises(ValueError):
            compose_shape(basis, np.zeros(3))

    def test_rebuild_from_composed_samples(self):
        truth = make_basis(seed=13, p=12, k=2, eigenvalues=(0.09, 0.04))
        models = generate_models(truth, 500, seed=14)
        rebuilt = build_basis(models, k=2)
        angles = subspace_angles(mode_matrix(truth), mode_matrix(rebuilt))
        assert np.max(angles) < 1e-3


class TestVarianceExplained:
    def test_known_fractions(self):
        basis = make_basis(seed=15, p=6, k=2, eigenvalues=(3.0, 1.0))
        assert np.allclose(variance_explained(basis), [0.75, 1.0])

    def test_single_mode(self):
        basis = make_basis(seed=16, p=6, k=1, eigenvalues=(2.0,))
        assert np.allclose(variance_explained(basis), [1.0])

    def test_generative_fractions(self):
        truth = make_basis(seed=17, p=10, k=2, eigenvalues=(4.0, 1.0))
        # exact +/- designs: eigenvalues reproduce the mode coefficients exactly
        m1 = compose_shape(truth, [2.0, 0.0])
        m2 = compose_shape(truth, [-2.0, 0.0])
        m3 = compose_shape(truth, [0.0, 1.0])
        m4 = compose_shape(truth, [0.0, -1.0])
        rebuilt = build_basis([m1, m2, m3, m4], k=2)
        assert np.allclose(rebuilt.eigenvalues, [2.0, 0.5], rtol=1e-12)
        assert np.allclose(variance_explained(rebuilt), [0.8, 1.0], atol=1e-9)

    def test_zero_spectrum_raises(self):
        basis = make_basis(seed=18, p=6, k=0, eigenvalues=())
        with pytest.raises(ValueError):
            variance_explained(basis)


class TestBasisInvariants:
    def test_modes_unit_norm_and_orthogonal(self, tmp_path):
        truth = make_basis(seed=19, p=7, k=2, eigenvalues=(0.1, 0.05))
        rebuilt = build_basis(generate_models(truth, 20, seed=20), k=2)
        m = mode_matrix(rebuilt)
        assert np.max(np.abs(m.T @ m - np.eye(2))) < 1e-9
        # every source yields one (k, 3, p) float array, k = 0 included
        mean_only = build_basis([truth.b0, truth.b0], k=1)
        save_basis(rebuilt, tmp_path / "k2.txt")
        save_basis(mean_only, tmp_path / "k0.txt")
        for k, built in [
            (2, rebuilt),
            (2, load_basis(tmp_path / "k2.txt")),
            (2, ShapeBasis("t", truth.b0, tuple(truth.modes), truth.eigenvalues)),
            (2, ShapeBasis("a", truth.b0, truth.modes, truth.eigenvalues)),
            (0, mean_only),
            (0, load_basis(tmp_path / "k0.txt")),
            (0, ShapeBasis("t", truth.b0, (), np.zeros(0))),
            (0, ShapeBasis("a", truth.b0, np.zeros((0, 3, 7)), np.zeros(0))),
        ]:
            assert isinstance(built.modes, np.ndarray)
            assert built.modes.dtype == float and built.modes.shape == (k, 3, 7)
            assert built.num_modes == k

    def test_eigenvalues_descending(self):
        with pytest.raises(ValueError):
            make_basis(seed=21, p=5, k=2, eigenvalues=(1.0, 2.0))


class TestBasisFile:
    def test_round_trip_bit_exact(self, tmp_path):
        truth = make_basis(seed=22, p=9, k=2, eigenvalues=(0.31, 0.07))
        basis = build_basis(
            generate_models(truth, 8, seed=23), k=2, class_name="widget"
        )
        path = tmp_path / "basis.txt"
        save_basis(basis, path)
        loaded = load_basis(path)
        assert loaded.class_name == "widget"
        assert np.array_equal(loaded.b0, basis.b0)
        assert all(np.array_equal(a, b) for a, b in zip(loaded.modes, basis.modes))
        assert np.array_equal(loaded.eigenvalues, basis.eigenvalues)
        assert loaded.keypoint_names == basis.keypoint_names
        # writing again produces identical bytes
        path2 = tmp_path / "basis2.txt"
        save_basis(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("SHAPEBASIS v2\n")
        from kpfit import FormatError

        with pytest.raises(FormatError):
            load_basis(path)

    @pytest.mark.parametrize(
        "edit",
        [
            ("class toy", "class "),
            ("mode 1 eigenvalue 0.089999999999999997", "mode 1 eigenvalue big"),
            # a mode that ShapeBasis rejects: not of unit norm
            ("-0.023703575596154547 ", "5.0 "),
            ("mode 1 eigenvalue 0.089999999999999997", "mode 1 eigenvalue nan"),
            ("0.54791209711192668 ", "nan "),
        ],
        ids=[
            "class-without-name",
            "non-numeric-eigenvalue",
            "mode-not-unit-norm",
            "nan-eigenvalue",
            "nan-in-mean-shape",
        ],
    )
    def test_malformed_content_raises_format_error(self, tmp_path, edit):
        from kpfit import FormatError

        text = (DATA / "basis.txt").read_text()
        old, new = edit
        assert text.count(old) == 1
        path = tmp_path / "bad.txt"
        path.write_text(text.replace(old, new))
        with pytest.raises(FormatError):
            load_basis(path)
