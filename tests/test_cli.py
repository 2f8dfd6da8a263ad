import numpy as np
import pytest

from fraclap.cli import main, parse_config
from fraclap.mesh import save_mesh

from conftest import ball_mesh


def read_lines(path):
    return path.read_text().splitlines()


class TestParsing:
    def test_defaults_and_flags(self):
        config = parse_config(["kernel", "--dim", "1", "--s", "0.75", "--scheme",
                               "analytic", "--nfd", "16"])
        assert config.command == "kernel"
        assert config.dim == 1
        assert config.s == 0.75
        assert config.n_fd == 16
        assert config.tol == 1e-10
        assert config.n_g == 64
        assert config.r_fd == 1.2

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dim=1\ns=0.25\nscheme=analytic\nnope_not_this=0\n"
                       .replace("nope_not_this=0\n", ""))
        config = parse_config(["kernel", "--config", str(cfg), "--s", "0.9"])
        assert config.dim == 1
        assert config.s == 0.9  # flag wins
        assert config.scheme == "analytic"

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("volume=11\n")
        assert main(["kernel", "--config", str(cfg)]) == 2

    def test_ball_list(self):
        config = parse_config(["convergence", "--ball", "0.2,0.1,0.05"])
        assert config.ball == [0.2, 0.1, 0.05]

    def test_resolved_m(self):
        assert parse_config(["kernel", "--dim", "2"]).resolved_m() == 2 ** 14
        assert parse_config(["kernel", "--dim", "3"]).resolved_m() == 2 ** 10
        assert parse_config(["kernel", "--dim", "2", "--m", "64"]).resolved_m() == 64


class TestKernelCommand:
    def test_analytic_self_comparison(self, tmp_path, capsys):
        out = tmp_path / "k.csv"
        code = main(["kernel", "--dim", "1", "--scheme", "analytic", "--s", "0.5",
                     "--nfd", "8", "--out", str(out)])
        assert code == 0
        lines = read_lines(out)
        assert lines[0].startswith("# config:")
        assert lines[1] == "p1,T"
        assert "max_error=0" in capsys.readouterr().out
        assert lines[-1].startswith("# max_error=0")

    def test_fft_error_line(self, tmp_path, capsys):
        out = tmp_path / "k.csv"
        code = main(["kernel", "--dim", "1", "--scheme", "fft", "--s", "0.5",
                     "--nfd", "81", "--m", "1024", "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        value = float(text.split("max_error=")[1].split()[0])
        assert value == pytest.approx(1.050e-06, rel=1.0)


class TestDecayCommand:
    def test_writes_profile_and_slope(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        code = main(["decay", "--dim", "1", "--scheme", "analytic", "--s", "0.5",
                     "--nfd", "48", "--out", str(out)])
        assert code == 0
        slope = float(capsys.readouterr().out.split("slope=")[1].split()[0])
        assert slope == pytest.approx(-2.0, abs=0.15)
        lines = read_lines(out)
        assert lines[1] == "abs_p,abs_T"

    def test_rejects_small_grid(self):
        assert main(["decay", "--dim", "1", "--scheme", "analytic", "--nfd", "8"]) == 2


class TestImpactCommand:
    def test_crossings(self, tmp_path, capsys):
        out = tmp_path / "impact.csv"
        code = main(["impact", "--dim", "2", "--s", "0.5", "--delta", "12",
                     "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        n1 = float(text.split("order1_crossing_nfd=")[1].split()[0])
        e1 = float(text.split("order1_crossing_error=")[1].split()[0])
        n2 = float(text.split("order2_crossing_nfd=")[1].split()[0])
        e2 = float(text.split("order2_crossing_error=")[1].split()[0])
        assert abs(n1 - 700) <= 0.3 * 700
        assert abs(e1 - 1.5e-3) <= 0.3 * 1.5e-3
        assert abs(n2 - 200) <= 0.3 * 200
        assert abs(e2 - 3e-5) <= 0.3 * 3e-5
        lines = read_lines(out)
        assert lines[1] == "n_fd,bound,err1,err2"

    def test_monotone_in_delta(self, tmp_path):
        from fraclap.cli import impact_bound_table
        n, b12, _, _ = impact_bound_table(2, 0.5, 12, 1.2)
        n, b9, _, _ = impact_bound_table(2, 0.5, 9, 1.2)
        assert np.all(b12 < b9)


class TestSolveCommand:
    def test_ball_solve(self, tmp_path, capsys):
        out = tmp_path / "solve.csv"
        code = main(["solve", "--dim", "2", "--s", "0.5", "--scheme", "fft",
                     "--m", "256", "--ball", "0.25", "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "converged=True" in text
        lines = read_lines(out)
        assert lines[1] == "iteration,relative_residual"

    def test_mesh_file_solve(self, tmp_path):
        mesh = ball_mesh(2, 4)
        mpath = tmp_path / "mesh.msh"
        save_mesh(mesh, mpath)
        out = tmp_path / "solve.csv"
        code = main(["solve", "--dim", "2", "--s", "0.5", "--scheme", "spectral",
                     "--mesh", str(mpath), "--out", str(out)])
        assert code == 0

    def test_missing_mesh_source(self):
        assert main(["solve", "--dim", "2"]) == 2

    @pytest.mark.parametrize("argv", [
        ["--ball", "0.2", "--rfd", "1000"],  # grid cap: n_fd 6585 > 4096
        ["--ball", "0.0004"],                 # mesher ring budget
    ])
    def test_size_caps_exit_2(self, argv, tmp_path, capsys):
        code = main(["solve", "--dim", "2", *argv, "--out", str(tmp_path / "s.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


class TestConvergenceCommand:
    def test_runs_and_fits_order(self, tmp_path, capsys):
        out = tmp_path / "conv.csv"
        code = main(["convergence", "--dim", "2", "--s", "0.5", "--scheme",
                     "spectral", "--ball", "0.2,0.1,0.05", "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        order = float(text.split("order=")[1].split()[0])
        assert 0.5 < order < 1.5
        lines = read_lines(out)
        assert lines[1] == "N,h_bar,l2_error"
        assert lines[-1].startswith("# order=")

    def test_needs_three_levels(self):
        assert main(["convergence", "--dim", "2", "--ball", "0.2,0.1"]) == 2


class TestPrecondCommand:
    def test_histories_aligned(self, tmp_path, capsys):
        out = tmp_path / "pc.csv"
        code = main(["precond", "--dim", "2", "--s", "0.5", "--scheme", "fft",
                     "--m", "256", "--ball", "0.2", "--out", str(out)])
        assert code == 0
        lines = read_lines(out)
        assert lines[1] == "iteration,none,sparse,circulant"
        text = capsys.readouterr().out
        assert text.count("precond=") == 3
