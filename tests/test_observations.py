import numpy as np
import pytest

from kpfit import (
    CameraIntrinsics,
    FormatError,
    KeypointObservations,
    read_intrinsics,
    read_keypoints,
    read_model,
    write_intrinsics,
    write_keypoints,
    write_model,
)


class TestKeypointObservations:
    def test_default_names(self):
        obs = KeypointObservations(np.zeros((2, 3)), np.ones(3))
        assert obs.keypoint_names == ("kp0", "kp1", "kp2")

    def test_missing_keypoint_may_be_nonfinite(self):
        w = np.zeros((2, 3))
        w[:, 1] = np.nan
        d = np.array([1.0, 0.0, 1.0])
        obs = KeypointObservations(w, d)
        assert obs.d[1] == 0.0

    def test_nonfinite_used_keypoint_rejected(self):
        w = np.zeros((2, 3))
        w[:, 1] = np.inf
        with pytest.raises(ValueError):
            KeypointObservations(w, np.ones(3))

    def test_negative_confidence_rejected(self):
        with pytest.raises(ValueError):
            KeypointObservations(np.zeros((2, 2)), np.array([0.5, -0.1]))

    def test_uniform_confidence_copy(self):
        obs = KeypointObservations(
            np.arange(6.0).reshape(2, 3), np.array([0.2, 0.9, 0.0]), ("a", "b", "c")
        )
        uni = obs.with_uniform_confidence()
        assert np.all(uni.d == 1.0)
        assert np.array_equal(uni.w, obs.w)
        assert uni.keypoint_names == obs.keypoint_names
        uni.w[0, 0] = 99.0
        assert obs.w[0, 0] == 0.0


class TestKeypointFile:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        obs = KeypointObservations(
            rng.uniform(-100.0, 100.0, (2, 5)),
            rng.uniform(0.0, 1.0, 5),
            ("nose", "tail", "fin_l", "fin_r", "eye"),
        )
        path = tmp_path / "kp.txt"
        write_keypoints(obs, path)
        loaded = read_keypoints(path)
        assert np.array_equal(loaded.w, obs.w)
        assert np.array_equal(loaded.d, obs.d)
        assert loaded.keypoint_names == obs.keypoint_names
        path2 = tmp_path / "kp2.txt"
        write_keypoints(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_header_line(self, tmp_path):
        obs = KeypointObservations(np.zeros((2, 2)), np.ones(2))
        path = tmp_path / "kp.txt"
        write_keypoints(obs, path)
        assert path.read_text().splitlines()[0] == "KPTS v1 p=2"

    def test_whitespace_name_rejected(self, tmp_path):
        obs = KeypointObservations(np.zeros((2, 1)), np.ones(1), ("bad name",))
        with pytest.raises(FormatError):
            write_keypoints(obs, tmp_path / "kp.txt")

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "KPTS v2 p=1\na 0 0 1\n",
            "KPTS v1 p=2\na 0 0 1\n",
            "KPTS v1 p=1\na 0 zero 1\n",
            "KPTS v1 p=1\na 0 0\n",
            "KPTS v1 p=1\na 0 0 nan\n",
            "KPTS v1 p=1\na 0 0 -1\n",
            "KPTS v1 p=1\na nan 0 1\n",
        ],
    )
    def test_malformed_files(self, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(FormatError):
            read_keypoints(path)


class TestIntrinsicsFile:
    def test_round_trip(self, tmp_path):
        k = CameraIntrinsics(801.25, 799.5, 320.125, 239.875)
        path = tmp_path / "cam.txt"
        write_intrinsics(k, path)
        assert read_intrinsics(path) == k

    def test_round_trip_with_skew(self, tmp_path):
        k = CameraIntrinsics(800.0, 800.0, 320.0, 240.0, skew=1.5)
        path = tmp_path / "cam.txt"
        write_intrinsics(k, path)
        assert read_intrinsics(path) == k

    def test_malformed(self, tmp_path):
        path = tmp_path / "cam.txt"
        path.write_text("800 800 320\n")
        with pytest.raises(FormatError):
            read_intrinsics(path)
        path.write_text("-800 800 320 240\n")
        with pytest.raises(FormatError):
            read_intrinsics(path)
        path.write_text("800 800 nan 240\n")
        with pytest.raises(FormatError):
            read_intrinsics(path)


class TestModelFile:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        shape = rng.normal(size=(3, 7))
        path = tmp_path / "m.txt"
        write_model(shape, path)
        loaded, names = read_model(path)
        assert np.array_equal(loaded, shape)
        assert names == tuple(f"kp{i}" for i in range(7))

    def test_malformed(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("MODEL v1 p=2\na 0 0 0\n")
        with pytest.raises(FormatError):
            read_model(path)
        path.write_text("MODEL v1 p=0\n")
        with pytest.raises(FormatError):
            read_model(path)
