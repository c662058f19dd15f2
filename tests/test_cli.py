from pathlib import Path

import numpy as np
import pytest

from kpfit import (
    compose_shape,
    load_basis,
    read_heatmaps,
    read_keypoints,
    synthesize_heatmap,
    write_heatmaps,
    write_keypoints,
    write_model,
    KeypointObservations,
    SolverOptions,
    solve_wp,
)
from kpfit.cli import main

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFitCommands:
    def test_fit_fp_matches_frozen_output(self, tmp_path, capsys):
        out = tmp_path / "fit.txt"
        code, _, err = run_cli(
            capsys,
            "fit-fp",
            "--basis",
            str(DATA / "basis.txt"),
            "--keypoints",
            str(DATA / "keypoints.txt"),
            "--intrinsics",
            str(DATA / "intrinsics.txt"),
            "--out",
            str(out),
        )
        assert code == 0 and err == ""
        expected = (DATA / "expected_fit_fp.txt").read_text().splitlines()
        got = out.read_text().splitlines()
        assert got[0] == expected[0] == "rotation"
        for e_line, g_line in zip(expected, got):
            e_parts, g_parts = e_line.split(), g_line.split()
            assert len(e_parts) == len(g_parts)
            for e_tok, g_tok in zip(e_parts, g_parts):
                try:
                    e_val = float(e_tok)
                except ValueError:
                    assert g_tok == e_tok
                else:
                    assert float(g_tok) == pytest.approx(e_val, rel=1e-6, abs=1e-9)

    def test_fit_fp_cost_not_above_the_procrustes_block_fit(self, tmp_path, capsys):
        # the cost this fixture reached when block B was one Procrustes pass
        # for fixed depths; the exact (R, T | c) block must not stop higher
        out = tmp_path / "fit.txt"
        code, _, _ = run_cli(
            capsys,
            "fit-fp",
            "--basis",
            str(DATA / "basis.txt"),
            "--keypoints",
            str(DATA / "keypoints.txt"),
            "--intrinsics",
            str(DATA / "intrinsics.txt"),
            "--out",
            str(out),
        )
        assert code == 0
        lines = [line.split() for line in out.read_text().splitlines()]
        (cost,) = [float(parts[1]) for parts in lines if parts[0] == "cost"]
        assert cost <= 5.8634386953092244e-4

    def test_fit_wp_stdout_shape(self, capsys):
        code, out, err = run_cli(
            capsys,
            "fit-wp",
            "--basis",
            str(DATA / "basis.txt"),
            "--keypoints",
            str(DATA / "keypoints.txt"),
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("s ")
        assert float(lines[0].split()[1]) > 0.0
        assert lines[1] == "rbar"
        rbar = np.array([[float(v) for v in lines[i].split()] for i in (2, 3)])
        assert np.max(np.abs(rbar @ rbar.T - np.eye(2))) < 1e-9

    def test_fit_wp_mu_reaches_the_solver(self, capsys):
        basis = load_basis(DATA / "basis.txt")
        obs = read_keypoints(DATA / "keypoints.txt")
        want = solve_wp(obs, basis, SolverOptions(mu=5.0))
        # on this fixture mu = 5 moves the relaxed start, and so the fit's last bits
        assert want.s != solve_wp(obs, basis).s
        code, out, err = run_cli(
            capsys,
            "fit-wp",
            "--basis",
            str(DATA / "basis.txt"),
            "--keypoints",
            str(DATA / "keypoints.txt"),
            "--mu",
            "5",
        )
        assert code == 0 and err == ""
        lines = [line.split() for line in out.splitlines()]
        assert float(lines[0][1]) == want.s
        rbar = np.array([[float(v) for v in lines[i]] for i in (2, 3)])
        assert np.array_equal(rbar, want.rbar)
        assert [float(v) for v in lines[4][1:]] == list(want.tbar)
        assert [float(v) for v in lines[5][1:]] == list(want.c)
        assert float(lines[6][1]) == want.final_cost
        assert lines[7] == ["iterations", str(want.iterations), "converged", "true"]

    def test_pnp_command(self, capsys):
        code, out, err = run_cli(
            capsys,
            "pnp",
            "--basis",
            str(DATA / "basis.txt"),
            "--keypoints",
            str(DATA / "keypoints.txt"),
            "--intrinsics",
            str(DATA / "intrinsics.txt"),
        )
        assert code == 0
        assert out.splitlines()[0] == "rotation"
        assert "reprojection_rmse" in out


class TestBuildBasis:
    def test_build_and_reload(self, tmp_path, capsys):
        basis = load_basis(DATA / "basis.txt")
        rng = np.random.default_rng(0)
        paths = []
        for i in range(6):
            c = rng.normal(0.0, 1.0, 2) * np.sqrt(basis.eigenvalues)
            path = tmp_path / f"model{i}.txt"
            write_model(compose_shape(basis, c), path, basis.keypoint_names)
            paths.append(str(path))
        out = tmp_path / "rebuilt.txt"
        code, _, err = run_cli(
            capsys,
            "build-basis",
            *paths,
            "--out",
            str(out),
            "--k",
            "2",
            "--class-name",
            "rebuilt",
        )
        assert code == 0
        rebuilt = load_basis(out)
        assert rebuilt.num_modes == 2
        assert rebuilt.class_name == "rebuilt"
        assert np.max(np.abs(rebuilt.b0.mean(axis=1) - basis.b0.mean(axis=1))) < 1.0

    def test_zero_variance_warning(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        model = rng.normal(size=(3, 8))
        paths = []
        for i in range(3):
            path = tmp_path / f"same{i}.txt"
            write_model(model, path)
            paths.append(str(path))
        out = tmp_path / "flat.txt"
        code, _, err = run_cli(capsys, "build-basis", *paths, "--out", str(out))
        assert code == 0
        assert "mean-only" in err
        assert load_basis(out).num_modes == 0

    def test_mismatched_names_fail(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        write_model(rng.normal(size=(3, 4)), p1, ("q", "r", "s", "t"))
        write_model(rng.normal(size=(3, 4)), p2, ("q", "r", "s", "u"))
        code, _, err = run_cli(
            capsys, "build-basis", str(p1), str(p2), "--out", str(tmp_path / "o.txt")
        )
        assert code == 1
        assert err.startswith("error:")


class TestHeatmapCommands:
    def test_synth_then_peaks_round_trip(self, tmp_path, capsys):
        obs = KeypointObservations(
            np.array([[12.0, 30.0, 7.0], [8.0, 15.0, 22.0]]),
            np.ones(3),
            ("a", "b", "c"),
        )
        kp_path = tmp_path / "kp.txt"
        write_keypoints(obs, kp_path)
        hm_path = tmp_path / "maps.kphm"
        code, _, _ = run_cli(
            capsys,
            "synth-heatmaps",
            "--keypoints",
            str(kp_path),
            "--width",
            "48",
            "--height",
            "32",
            "--sigma",
            "1.5",
            "--out",
            str(hm_path),
        )
        assert code == 0
        assert len(read_heatmaps(hm_path)) == 3
        out_kp = tmp_path / "peaks.txt"
        code, _, _ = run_cli(
            capsys, "peaks", "--heatmaps", str(hm_path), "--out", str(out_kp)
        )
        assert code == 0
        peaks = read_keypoints(out_kp)
        assert np.allclose(peaks.w, obs.w)
        assert peaks.keypoint_names == obs.keypoint_names
        # stdout carries the same bytes as --out
        code, out, _ = run_cli(capsys, "peaks", "--heatmaps", str(hm_path))
        assert code == 0
        assert out.encode("utf-8") == out_kp.read_bytes()

    def test_peaks_whitespace_name_is_an_error_line(self, tmp_path, capsys):
        hm_path = tmp_path / "maps.kphm"
        hm = synthesize_heatmap(8, 8, (3.0, 4.0), keypoint_name="left eye")
        write_heatmaps([hm], hm_path)
        out_kp = tmp_path / "peaks.txt"
        for extra in ((), ("--out", str(out_kp))):
            argv = ("peaks", "--heatmaps", str(hm_path), *extra)
            code, out, err = run_cli(capsys, *argv)
            assert code == 1 and out == ""
            assert err.startswith("error:") and "whitespace" in err
            assert len(err.splitlines()) == 1
        assert not out_kp.exists()

    def test_peaks_scale_to(self, tmp_path, capsys):
        obs = KeypointObservations(np.array([[10.0], [5.0]]), np.ones(1))
        kp_path = tmp_path / "kp.txt"
        write_keypoints(obs, kp_path)
        hm_path = tmp_path / "maps.kphm"
        run_cli(
            capsys,
            "synth-heatmaps",
            "--keypoints",
            str(kp_path),
            "--width",
            "40",
            "--height",
            "20",
            "--out",
            str(hm_path),
        )
        code, out, _ = run_cli(
            capsys, "peaks", "--heatmaps", str(hm_path), "--scale-to", "80x40"
        )
        assert code == 0
        parts = out.splitlines()[1].split()
        assert float(parts[1]) == pytest.approx(20.0)
        assert float(parts[2]) == pytest.approx(10.0)

    def test_bad_scale_to(self, tmp_path, capsys):
        obs = KeypointObservations(np.array([[1.0], [1.0]]), np.ones(1))
        kp_path = tmp_path / "kp.txt"
        write_keypoints(obs, kp_path)
        hm_path = tmp_path / "maps.kphm"
        run_cli(
            capsys,
            "synth-heatmaps",
            "--keypoints",
            str(kp_path),
            "--width",
            "8",
            "--height",
            "8",
            "--out",
            str(hm_path),
        )
        code, _, err = run_cli(
            capsys, "peaks", "--heatmaps", str(hm_path), "--scale-to", "bogus"
        )
        assert code == 1
        assert err.startswith("error:")


class TestBench:
    def test_records_byte_identical_across_runs(self, tmp_path, capsys):
        argv = [
            "bench",
            "--basis",
            str(DATA / "basis.txt"),
            "--intrinsics",
            str(DATA / "intrinsics.txt"),
            "--trials",
            "3",
            "--seed",
            "21",
            "--pixel-sigma",
            "1.0",
            "--methods",
            "wp,fp",
            "--format",
            "records",
        ]
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_table_output(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "bench",
            "--basis",
            str(DATA / "basis.txt"),
            "--trials",
            "2",
            "--methods",
            "wp",
        )
        assert code == 0
        assert out.splitlines()[0].startswith("method")
        assert "wp" in out


class TestErrors:
    def test_missing_file_is_one_line_error(self, capsys):
        code, out, err = run_cli(
            capsys,
            "fit-wp",
            "--basis",
            "/nonexistent/basis.txt",
            "--keypoints",
            str(DATA / "keypoints.txt"),
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert len(err.splitlines()) == 1

    def test_malformed_basis_is_one_line_error(self, tmp_path, capsys):
        bad = tmp_path / "basis.txt"
        bad.write_text((DATA / "basis.txt").read_text().replace("class toy", "class "))
        code, out, err = run_cli(
            capsys,
            "fit-wp",
            "--basis",
            str(bad),
            "--keypoints",
            str(DATA / "keypoints.txt"),
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert len(err.splitlines()) == 1
