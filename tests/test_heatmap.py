import struct

import numpy as np
import pytest

from kpfit import (
    FormatError,
    Heatmap,
    extract_peaks,
    read_heatmaps,
    synthesize_heatmap,
    write_heatmaps,
)


class TestSynthesize:
    def test_peak_value_and_location(self):
        hm = synthesize_heatmap(32, 24, (10.0, 7.0), sigma=1.5)
        assert hm.values[7, 10] == pytest.approx(1.0)
        assert int(np.argmax(hm.values)) == 7 * 32 + 10

    def test_one_sigma_falloff(self):
        sigma = 2.0
        hm = synthesize_heatmap(64, 64, (30.0, 20.0), sigma=sigma)
        assert hm.values[20, 32] == pytest.approx(np.exp(-0.5), rel=1e-6)
        assert hm.values[22, 30] == pytest.approx(np.exp(-0.5), rel=1e-6)

    def test_mass_matches_gaussian_integral(self):
        # far from the border the discrete sum approximates 2*pi*sigma^2
        sigma = 3.0
        hm = synthesize_heatmap(128, 128, (64.0, 64.0), sigma=sigma)
        assert float(hm.values.sum()) == pytest.approx(
            2.0 * np.pi * sigma**2, rel=0.01
        )

    def test_bad_sigma(self):
        with pytest.raises(ValueError):
            synthesize_heatmap(8, 8, (4.0, 4.0), sigma=0.0)


class TestExtractPeaks:
    def test_integer_peaks(self):
        maps = [
            synthesize_heatmap(40, 30, (12.0, 5.0), keypoint_name="a"),
            synthesize_heatmap(40, 30, (3.0, 17.0), keypoint_name="b"),
        ]
        obs = extract_peaks(maps)
        assert np.allclose(obs.w, [[12.0, 3.0], [5.0, 17.0]])
        assert np.allclose(obs.d, [1.0, 1.0])
        assert obs.keypoint_names == ("a", "b")

    def test_confidence_is_peak_value(self):
        hm = synthesize_heatmap(20, 20, (8.0, 8.0))
        hm.values *= 0.37
        obs = extract_peaks([hm])
        assert obs.d[0] == pytest.approx(0.37, rel=1e-6)

    def test_all_zero_map_sentinel(self):
        zero = Heatmap(np.zeros((10, 10), dtype=np.float32))
        obs = extract_peaks([zero])
        assert np.allclose(obs.w[:, 0], 0.0)
        assert obs.d[0] == 0.0

    def test_scaling_to_image_size(self):
        hm = synthesize_heatmap(40, 30, (10.0, 6.0))
        obs = extract_peaks([hm], scale_to=(400, 120))
        assert np.allclose(obs.w[:, 0], [100.0, 24.0])

    def test_amplitude_scaling_leaves_location_fixed(self):
        # peak location is invariant to uniform positive rescaling
        hm = synthesize_heatmap(40, 30, (12.3, 5.7), sigma=2.0)
        obs1 = extract_peaks([hm], subpixel=True)
        scaled = Heatmap(hm.values * 0.25)
        obs2 = extract_peaks([scaled], subpixel=True)
        assert np.allclose(obs1.w, obs2.w)
        assert obs2.d[0] == pytest.approx(0.25 * obs1.d[0], rel=1e-6)

    def test_subpixel_beats_integer_argmax(self):
        true_x, true_y = 12.3, 5.7
        hm = synthesize_heatmap(40, 30, (true_x, true_y), sigma=2.0)
        coarse = extract_peaks([hm], subpixel=False)
        fine = extract_peaks([hm], subpixel=True)
        err_coarse = np.hypot(coarse.w[0, 0] - true_x, coarse.w[1, 0] - true_y)
        err_fine = np.hypot(fine.w[0, 0] - true_x, fine.w[1, 0] - true_y)
        assert err_fine < err_coarse
        assert err_fine < 0.1

    def test_row_major_tie_break(self):
        values = np.zeros((5, 5), dtype=np.float32)
        values[1, 3] = 1.0
        values[2, 2] = 1.0
        obs = extract_peaks([Heatmap(values)])
        assert np.allclose(obs.w[:, 0], [3.0, 1.0])

    def test_mismatched_sizes(self):
        with pytest.raises(ValueError):
            extract_peaks(
                [synthesize_heatmap(8, 8, (1, 1)), synthesize_heatmap(9, 8, (1, 1))]
            )

    def test_empty_list(self):
        with pytest.raises(ValueError):
            extract_peaks([])


class TestHeatmapFile:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        maps = [
            Heatmap(rng.random((12, 17)).astype(np.float32), keypoint_name=f"kp_{i}")
            for i in range(3)
        ]
        path = tmp_path / "maps.kphm"
        write_heatmaps(maps, path)
        loaded = read_heatmaps(path)
        assert len(loaded) == 3
        for src, out in zip(maps, loaded):
            assert out.keypoint_name == src.keypoint_name
            assert np.array_equal(out.values, src.values)
        path2 = tmp_path / "again.kphm"
        write_heatmaps(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_header_layout(self, tmp_path):
        maps = [Heatmap(np.ones((4, 6), dtype=np.float32))]
        path = tmp_path / "one.kphm"
        write_heatmaps(maps, path)
        data = path.read_bytes()
        assert data[:4] == b"KPHM"
        version, count, w, h = struct.unpack("<HHII", data[4:16])
        assert (version, count, w, h) == (1, 1, 6, 4)

    def test_empty_file_round_trip(self, tmp_path):
        path = tmp_path / "none.kphm"
        write_heatmaps([], path)
        assert read_heatmaps(path) == []

    def test_overlong_name_writes_no_file(self, tmp_path):
        maps = [
            Heatmap(np.ones((2, 3), dtype=np.float32), keypoint_name="nose"),
            Heatmap(np.ones((2, 3), dtype=np.float32), keypoint_name="x" * 0x10000),
        ]
        path = tmp_path / "long.kphm"
        with pytest.raises(FormatError):
            write_heatmaps(maps, path)
        assert not path.exists()
        write_heatmaps(maps[:1], path)
        kept = path.read_bytes()
        with pytest.raises(FormatError):
            write_heatmaps(maps, path)
        assert path.read_bytes() == kept

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.kphm"
        path.write_bytes(b"NOPE" + b"\x00" * 12)
        with pytest.raises(FormatError):
            read_heatmaps(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "v9.kphm"
        path.write_bytes(b"KPHM" + struct.pack("<HHII", 9, 0, 0, 0))
        with pytest.raises(FormatError):
            read_heatmaps(path)

    def test_truncated_payload(self, tmp_path):
        maps = [Heatmap(np.ones((8, 8), dtype=np.float32))]
        path = tmp_path / "cut.kphm"
        write_heatmaps(maps, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(FormatError):
            read_heatmaps(path)

    def test_truncated_name_table(self, tmp_path):
        maps = [Heatmap(np.ones((4, 4), dtype=np.float32), keypoint_name="nose")]
        path = tmp_path / "cutname.kphm"
        write_heatmaps(maps, path)
        data = path.read_bytes()
        path.write_bytes(data[:-3])
        with pytest.raises(FormatError):
            read_heatmaps(path)

    @pytest.mark.parametrize(
        "offset, raw",
        [
            (16, struct.pack("<f", float("nan"))),
            (16, struct.pack("<f", -1.0)),
            (42, b"\xff\xfe"),  # inside the name "nose": not UTF-8
        ],
        ids=["nan-value", "negative-value", "name-not-utf8"],
    )
    def test_bad_content_raises_format_error(self, tmp_path, offset, raw):
        maps = [Heatmap(np.ones((2, 3), dtype=np.float32), keypoint_name="nose")]
        path = tmp_path / "bad.kphm"
        write_heatmaps(maps, path)
        data = bytearray(path.read_bytes())
        data[offset : offset + len(raw)] = raw
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            read_heatmaps(path)
