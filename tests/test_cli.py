from types import SimpleNamespace

import numpy as np
import pytest

import fraclap.cli
import fraclap.ichol
import fraclap.solver
from fraclap.cli import main, parse_config
from fraclap.mesh import SimplicialMesh, generate_ball_mesh, mesh_quality, save_mesh
from fraclap.stiffness import StiffnessKernel, analytic_1d, decay_profile
from fraclap.transfer import choose_grid

from conftest import ball_mesh, square_mesh

# the settings after m in every test below that leaves them at their defaults
TAIL = "n_g=64 r_fd=1.2 precond=auto tol=1e-10 delta=12"
# setup's refusal of the h=0.1 disk on an n_fd=3 grid, which leaves 218 columns empty
RANK_DEFICIENT = ("rank_check: transfer matrix is rank deficient (218 interior vertex "
                  "column(s) received no grid node, first few: [1, 2, 3, 4, 5, 6, 7, 8]); "
                  "refine the overlay grid (a larger n_fd) or the mesh")


def read_lines(path):
    return path.read_text().splitlines()


class HugeMesh(SimplicialMesh):
    n_elements = 200_001  # past the 3D cap of 2e5 elements


def huge_mesh():
    """A small 3D ball that reports more elements than the 3D cap."""
    small = ball_mesh(3, 2)
    return HugeMesh(dim=3, vertices=small.vertices, simplices=small.simplices,
                    n_interior=small.n_interior)


def count_calls(monkeypatch, name):
    """Arguments of every call to the function bound as `name` in whichever of
    the cli and solver modules binds it, recorded as the calls pass through."""
    calls = []
    for module in (m for m in (fraclap.cli, fraclap.solver) if hasattr(m, name)):
        def counting(*args, real=getattr(module, name), **kwargs):
            calls.append(args)
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, counting)
    return calls


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

    @pytest.mark.parametrize("entry,message", [
        ("precond=bogus", "argument --precond: invalid choice: 'bogus'"),
        ("n_fd=ten", "argument --nfd: invalid int value: 'ten'"),
        ("large=maybe", "config key 'large' must be true or false, got 'maybe'")])
    def test_config_file_values_refused_before_any_work(self, entry, message, monkeypatch,
                                                        tmp_path, capsys):
        # a file's precond=bogus was refused only by solve(), after setup, and
        # large=maybe meant False
        def refuse(*args, **kwargs):
            raise AssertionError("work ran before the config file's values were checked")
        for name in ("generate_ball_mesh", "load_mesh", "build_kernel", "setup"):
            monkeypatch.setattr(fraclap.cli, name, refuse)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"dim=2\n{entry}\n")
        out = tmp_path / "s.csv"
        assert main(["solve", "--config", str(cfg), "--ball", "0.3", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        [line] = captured.err.splitlines()
        assert line.startswith("error: ") and message in line

    @pytest.mark.parametrize("flags,message", [
        (["--precond", "bogus"], "error: argument --precond: invalid choice: 'bogus'"),
        (["--nfd", "x"], "error: argument --nfd: invalid int value: 'x'"),
        (["--bogus", "1"], "error: unrecognized arguments: --bogus 1")])
    def test_bad_flag_is_one_error_line(self, flags, message, tmp_path, capsys):
        # a bad flag is invalid input like any other: one 'error:' line, no usage block
        out = tmp_path / "s.csv"
        assert main(["solve", *flags, "--ball", "0.3", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        [line] = captured.err.splitlines()
        assert line.startswith(message)

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as stop:
            main(["solve", "--help"])
        assert stop.value.code == 0 and "--precond" in capsys.readouterr().out

    @pytest.mark.parametrize("value,large", [("yes", True), ("True", True), ("1", True),
                                             ("no", False), ("false", False), ("0", False)])
    def test_config_file_large(self, value, large, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"large={value}\nprecond=sparse\n")
        config = parse_config(["solve", "--config", str(cfg)])
        assert config.large is large and config.precond == "sparse"
        assert parse_config(["solve", "--config", str(cfg), "--large"]).large is True

    def test_ball_list(self):
        config = parse_config(["convergence", "--ball", "0.2,0.1,0.05"])
        assert config.ball == [0.2, 0.1, 0.05]

    def test_config_line_m(self):
        # without --m the kernel is build_kernel's default for the scheme, which
        # for fft depends on n_fd; the line says so instead of naming a number
        for dim in ("1", "2", "3"):
            assert " m=default " in parse_config(["kernel", "--dim", dim]).config_line()
        assert " m=64 " in parse_config(["kernel", "--dim", "2", "--m", "64"]).config_line()

    def test_unsupported_dim_has_no_default_m(self, tmp_path, capsys):
        assert main(["kernel", "--dim", "4", "--out", str(tmp_path / "k.csv")]) == 2
        assert capsys.readouterr().err.startswith("error: dim must be 1, 2 or 3")


def reference_write_kernel_csv(kernel, path, config_line):
    """A per-row writer of the rows that `fraclap kernel` writes a slab at a time."""
    k = kernel.offsets_per_axis
    header = ",".join(f"p{i + 1}" for i in range(kernel.dim)) + ",T"
    grids = np.meshgrid(*([np.arange(k)] * kernel.dim), indexing="ij")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# config: {config_line}\n")
        fh.write(header + "\n")
        flat = [g.ravel() for g in grids]
        vals = kernel.coeffs.ravel()
        for row in range(vals.shape[0]):
            offs = ",".join(str(int(g[row])) for g in flat)
            fh.write(f"{offs},{vals[row]:.16e}\n")


class TestKernelCsv:
    @pytest.mark.parametrize("dim,n_fd", [(1, 7), (2, 6), (3, 5)])
    @pytest.mark.parametrize("coeffs", ["random", "fft"])
    def test_bytes_match_per_row_writer(self, tmp_path, monkeypatch, capsys, dim, n_fd, coeffs):
        argv = ["kernel", "--dim", str(dim), "--s", "0.3", "--nfd", str(n_fd), "--m", "32",
                "--out", str(tmp_path / "new.csv")]
        if coeffs == "random":
            # both signs, exponents up to three digits, and a negative zero
            rng = np.random.default_rng(dim)
            k = 2 * n_fd + 1
            values = rng.standard_normal((k,) * dim) * 10.0 ** rng.integers(-300, 300, (k,) * dim)
            values.flat[0] = 1.5
            values.flat[-1] = -0.0
            kernel = StiffnessKernel(dim=dim, s=0.3, n_fd=n_fd, scheme="fft", coeffs=values)
            monkeypatch.setattr(fraclap.cli, "build_kernel", lambda *args: kernel)
        else:
            kernel = fraclap.solver.build_kernel("fft", 0.3, dim, n_fd, 32)
        assert main(argv) == 0
        reference_write_kernel_csv(kernel, tmp_path / "old.csv", parse_config(argv).config_line())
        expected = (tmp_path / "old.csv").read_bytes()
        if dim == 1:
            max_error = np.max(np.abs(kernel.coeffs - analytic_1d(0.3, n_fd).coeffs))
            expected += f"# max_error={max_error:.16e}\n".encode()
            assert f"max_error={max_error:.6e}\n" in capsys.readouterr().out
        assert (tmp_path / "new.csv").read_bytes() == expected


class TestCsvLayout:
    """Line 1 ('# config:' with the configuration that ran), line 2 (the
    header) and the footer of every command's CSV."""

    @pytest.mark.parametrize("argv,config,header,footer", [
        (["kernel"], f"command=kernel dim=2 s=0.5 scheme=fft n_fd=81 m=default {TAIL}",
         "p1,p2,T", None),
        (["kernel", "--dim", "1", "--nfd", "16"],
         f"command=kernel dim=1 s=0.5 scheme=fft n_fd=16 m=default {TAIL}", "p1,T",
         "# max_error="),
        (["decay"], f"command=decay dim=2 s=0.5 scheme=fft n_fd=81 m=default {TAIL}",
         "abs_p,abs_T", None),
        (["decay", "--dim", "3", "--nfd", "16", "--m", "64"],
         f"command=decay dim=3 s=0.5 scheme=fft n_fd=16 m=64 {TAIL}", "abs_p,abs_T", None),
        (["impact"], f"command=impact dim=2 s=0.5 scheme=fft n_fd=None m=default {TAIL}",
         "n_fd,bound,err1,err2", None),
        (["solve", "--ball", "0.25", "--m", "256"],
         f"command=solve dim=2 s=0.5 scheme=fft n_fd=7 m=256 {TAIL} ball=0.25",
         "iteration,relative_residual", None),
        (["convergence", "--ball", "0.4,0.3,0.2", "--m", "256"],
         f"command=convergence dim=2 s=0.5 scheme=fft n_fd=None m=256 {TAIL} ball=0.4,0.3,0.2",
         "N,h_bar,l2_error", "# order="),
        (["precond", "--ball", "0.25", "--m", "256"],
         f"command=precond dim=2 s=0.5 scheme=fft n_fd=7 m=256 {TAIL} ball=0.25",
         "iteration,none,sparse,circulant", None),
    ], ids=["kernel", "kernel-nfd16", "decay", "decay-3d-nfd16", "impact", "solve",
            "convergence", "precond"])
    def test_first_lines_and_footer(self, argv, config, header, footer, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert main([*argv, "--out", str(out)]) == 0
        lines = read_lines(out)
        assert lines[0] == f"# config: {config}"
        assert lines[1] == header
        footers = [line for line in lines[1:] if line.startswith("#")]
        assert footers == ([lines[-1]] if footer else [])
        if footer:
            assert lines[-1].startswith(footer)
        assert capsys.readouterr().out.endswith(f"wrote {out}\n")


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

    def test_default_m_dumps_the_solve_kernel(self, tmp_path, capsys):
        # no --m: the aliasing-corrected kernel that `fraclap solve` builds
        out = tmp_path / "k.csv"
        code = main(["kernel", "--dim", "1", "--s", "0.1", "--nfd", "81", "--out", str(out)])
        assert code == 0
        value = float(capsys.readouterr().out.split("max_error=")[1].split()[0])
        assert value <= 2e-12
        lines = read_lines(out)
        assert " m=default " in lines[0]
        dumped = np.array([float(line.split(",")[1]) for line in lines[2:-1]])
        np.testing.assert_array_equal(
            dumped, fraclap.solver.build_kernel("fft", 0.1, 1, 81).coeffs)

    def test_fft_error_line(self, tmp_path, capsys):
        out = tmp_path / "k.csv"
        code = main(["kernel", "--dim", "1", "--scheme", "fft", "--s", "0.5",
                     "--nfd", "81", "--m", "1024", "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        value = float(text.split("max_error=")[1].split()[0])
        assert value == pytest.approx(1.050e-06, rel=1.0)


    @pytest.mark.parametrize("command", ["kernel", "decay"])
    def test_3d_nfd_cap_exit_2_before_the_kernel(self, command, tmp_path, capsys,
                                                  monkeypatch):
        built = count_calls(monkeypatch, "build_kernel")
        code = main([command, "--dim", "3", "--nfd", "129", "--out", str(tmp_path / "k.csv")])
        assert code == 2
        assert built == []
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "beyond the cap 128" in err

    @pytest.mark.parametrize("command", ["kernel", "decay"])
    def test_large_lifts_the_nfd_cap(self, command, tmp_path, capsys, monkeypatch):
        def stop(*args, **kwargs):
            raise ValueError(f"kernel build reached at n_fd={args[3]}")

        monkeypatch.setattr(fraclap.cli, "build_kernel", stop)
        code = main([command, "--dim", "3", "--nfd", "129", "--large",
                     "--out", str(tmp_path / "k.csv")])
        assert code == 2
        assert capsys.readouterr().err == "error: kernel build reached at n_fd=129\n"


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

    def test_rows_are_the_profile(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        assert main(["decay", "--dim", "1", "--scheme", "analytic", "--s", "0.5",
                     "--nfd", "16", "--out", str(out)]) == 0
        profile = decay_profile(analytic_1d(0.5, 16))
        rows = np.array([[float(v) for v in line.split(",")] for line in read_lines(out)[2:]])
        np.testing.assert_array_equal(rows[:, 0], profile.radii)
        np.testing.assert_array_equal(rows[:, 1], profile.magnitudes)
        assert f"slope={profile.fitted_slope:.6f}" in capsys.readouterr().out

    def test_library_rule_is_the_only_one(self, tmp_path, capsys):
        # decay_profile needs n_fd >= 16; the command adds no rule of its own
        out = tmp_path / "d.csv"
        assert main(["decay", "--dim", "1", "--scheme", "analytic", "--nfd", "16",
                     "--out", str(out)]) == 0
        assert "slope=" in capsys.readouterr().out


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

    @pytest.mark.parametrize("argv,message", [
        (["--dim", "7"], "dim must be 1, 2 or 3, got 7"),
        (["--s", "1.5"], "fractional order must lie strictly in (0, 1), got 1.5"),
        (["--rfd", "0"], "r_fd must be positive and finite, got 0.0"),
        (["--rfd", "inf"], "r_fd must be positive and finite, got inf"),
        (["--rfd", "nan"], "r_fd must be positive and finite, got nan")],
        ids=["dim", "s", "rfd-zero", "rfd-inf", "rfd-nan"])
    def test_out_of_range_input_exit_2(self, argv, message, tmp_path, capsys):
        # these wrote a table and exited 0
        out = tmp_path / "impact.csv"
        assert main(["impact", *argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

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

    def test_square_mesh_has_no_error(self, tmp_path, capsys):
        # the unit-ball solution is no reference on [-0.5, 0.5]^2
        mpath = tmp_path / "square.mesh"
        save_mesh(square_mesh(20), mpath)
        out = tmp_path / "solve.csv"
        assert main(["solve", "--mesh", str(mpath), "--m", "256", "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "converged=True" in lines and "l2_error=nan" in lines

    def test_ball_mesh_file_has_an_error(self, tmp_path, capsys):
        mpath = tmp_path / "ball.mesh"
        save_mesh(ball_mesh(2, 4), mpath)
        assert main(["solve", "--mesh", str(mpath), "--m", "256",
                     "--out", str(tmp_path / "solve.csv")]) == 0
        text = capsys.readouterr().out
        assert 0.0 < float(text.split("l2_error=")[1].split()[0]) < 0.1

    def test_missing_mesh_source(self):
        assert main(["solve", "--dim", "2"]) == 2

    @pytest.mark.parametrize("command", ["solve", "precond"])
    @pytest.mark.parametrize("source", [["--ball", "0.3,0.2"], ["--mesh", "a.mesh,b.mesh"]])
    def test_more_than_one_mesh_exit_2_before_any_mesh(self, command, source, tmp_path,
                                                       monkeypatch, capsys):
        # --ball 0.3,0.2 built both meshes, solved on the first and stated
        # ball=0.3,0.2 in its '# config:' line
        built = count_calls(monkeypatch, "generate_ball_mesh")
        loaded = count_calls(monkeypatch, "load_mesh")
        out = tmp_path / "out.csv"
        assert main([command, "--dim", "2", *source, "--out", str(out)]) == 2
        assert built == [] and loaded == [] and not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {command} takes one mesh, got 2; a refinement study "
                                "is the convergence command\n")

    # every kind of failure that main() sees: invalid input, a resource cap,
    # a rank-deficient transfer and a missing file; each is one error line
    @pytest.mark.parametrize("argv", [
        ["--dim", "1", "--ball", "0.05"],
        ["--dim", "2", "--ball", "0.3", "--nfd", "5000"],
        ["--dim", "2", "--ball", "0.1", "--nfd", "3"],
        ["--dim", "2", "--mesh", "missing.mesh"],
    ], ids=["invalid_input", "nfd_cap", "rank_deficient", "missing_mesh"])
    def test_every_failure_kind_exit_2(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["solve", *argv, "--out", "s.csv"]) == 2
        err = capsys.readouterr().err
        lines = err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ") and "Traceback" not in err

    # a numerical breakdown inside a solve is a reported outcome: the MIC
    # factor of the modspec near field, which breaks down after its retry
    # (the report gives the retry's shift), and the modspec circulant at
    # s=0.75, indefinite on the first residual (both exited 2)
    @pytest.mark.parametrize("argv,preconditioner,shifted", [
        (["--precond", "sparse", "--ball", "0.1"], "sparse9", True),
        (["--precond", "circulant", "--ball", "0.05", "--s", "0.75"], "circulant", False),
    ], ids=["mic_breakdown", "circulant_first_residual"])
    def test_breakdown_exit_1(self, argv, preconditioner, shifted, tmp_path, monkeypatch,
                              capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["solve", "--dim", "2", "--scheme", "modspec", *argv,
                     "--out", "s.csv"]) == 1
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        for line in ("converged=False", "stop_reason=preconditioner_indefinite",
                     "iterations=0", "true_residual=1.0000000000000000e+00",
                     f"preconditioner={preconditioner}"):
            assert line in lines
        shift = float(captured.out.split("precond_shift=")[1].split()[0])
        assert (shift > 0.0) if shifted else (shift == 0.0)
        assert captured.err == ""
        assert read_lines(tmp_path / "s.csv")[1:] == ["iteration,relative_residual"]

    def test_precond_breakdowns_exit_1(self, tmp_path, capsys):
        # modspec at s=0.75: the sparse factor breaks down after its retry and
        # the circulant on the first residual; each line says why it stopped
        out = tmp_path / "p.csv"
        assert main(["precond", "--dim", "2", "--ball", "0.05", "--s", "0.75",
                     "--scheme", "modspec", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out.splitlines() == [
            "precond=none iterations=51", "precond=sparse stop_reason=preconditioner_indefinite",
            "precond=circulant stop_reason=preconditioner_indefinite", f"wrote {out}"]
        assert captured.err == ""
        assert read_lines(out)[1] == "iteration,none,sparse,circulant"
        assert read_lines(out)[2] == "0,1.0000000000000000e+00,,"

    @pytest.mark.parametrize("command", ["solve", "precond"])
    def test_config_line_states_the_mesh_dim(self, command, tmp_path, capsys):
        # --dim defaults to 2; the run takes dim 3 from the mesh file
        mpath = tmp_path / "ball3d.mesh"
        save_mesh(ball_mesh(3, 2), mpath)
        out = tmp_path / f"{command}.csv"
        assert main([command, "--mesh", str(mpath), "--m", "128", "--out", str(out)]) == 0
        assert read_lines(out)[0].startswith(f"# config: command={command} dim=3 ")

    @pytest.mark.parametrize("argv", [
        ["--ball", "0.2", "--rfd", "1000"],  # grid cap: n_fd 6585 > 4096
        ["--ball", "0.0004"],                 # mesher ring budget
    ])
    def test_size_caps_exit_2(self, argv, tmp_path, capsys):
        code = main(["solve", "--dim", "2", *argv, "--out", str(tmp_path / "s.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("lines,message", [
        (["2 -2 0"], "line 1: vertex and simplex counts must be nonnegative, got -2 and 0"),
        (["2 3 0", "0 0", "1 0", "0 1"], "mesh has no elements"),
        (["2 4 2", "0 0", "1 0", "1 1", "0 1", "1 2 3", "1 3 4"],
         "mesh has no interior vertex, so the transfer has no column"),
        (["2 5 4", "0 0", "1 0", "1 1", "0 1", "0.5 0.5", "1 2 5", "2 3 5", "3 4 5", "4 1 5",
          "boundary", "5 0 99 -3"], "boundary section lists vertex 0, outside 1..5"),
        (["2 4 2", "0 0", "1 0", "1 1", "0 1", "1 2 3", "1 3 99999999999999999999999"],
         "line 7: integer '99999999999999999999999' for simplex indices does not fit in "
         "64 bits"),
        (["2 4 2", "0 0", "1 0", "1 1", "0 1", "1 2 3", "1 3 5"],
         "line 7: simplex vertex index 5 outside 1..4"),
        # a nan coordinate used to fail in the grid choice, naming no line
        (["2 5 4", "0 0", "1 0", "1 nan", "0 1", "0.5 0.5", "1 2 5", "2 3 5", "3 4 5",
          "4 1 5"], "line 4: vertex coordinate 'nan' is not finite"),
        # "\udcff" is the byte 0xff; the message gave its offset and no line
        (["2 3 1", "0 0", "1 0", "0 \udcff1"],
         "line 4: byte 0xff at file offset 16 is not UTF-8")])
    def test_empty_or_mislabelled_mesh_file_exit_2(self, lines, message, tmp_path, capsys):
        mpath = tmp_path / "mesh.msh"
        mpath.write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))
        code = main(["solve", "--dim", "2", "--m", "256", "--mesh", str(mpath),
                     "--out", str(tmp_path / "s.csv")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("tol", ["inf", "nan", "0", "1"])
    def test_tolerance_outside_unit_interval_exit_2(self, tol, tmp_path, capsys):
        # --tol inf reported converged=True after one iteration and exited 0
        code = main(["solve", "--dim", "2", "--ball", "0.3", "--m", "256", "--tol", tol,
                     "--out", str(tmp_path / "s.csv")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line == f"error: tol must lie strictly in (0, 1), got {float(tol)!r}"

    @pytest.mark.parametrize("command,ball", [("solve", "0.3"), ("convergence", "0.3,0.2,0.1"),
                                              ("precond", "0.3")])
    def test_tolerance_refused_before_any_work(self, command, ball, monkeypatch, tmp_path,
                                               capsys):
        # convergence --tol 2 failed only in level 0's solve, after the shared
        # kernel and level 0's setup; precond ran its setup and exited 1
        def refuse(*args, **kwargs):
            raise AssertionError("work ran before the tolerance check")
        for name in ("generate_ball_mesh", "build_kernel", "setup", "solve_bvp"):
            monkeypatch.setattr(fraclap.cli, name, refuse)
        out = tmp_path / "t.csv"
        assert main([command, "--dim", "2", "--ball", ball, "--tol", "2",
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err == "error: tol must lie strictly in (0, 1), got 2.0\n"
        assert not out.exists()

    @pytest.mark.parametrize("r_fd", ["inf", "nan", "-1"])
    @pytest.mark.parametrize("n_fd", [[], ["--nfd", "10"]])
    def test_r_fd_not_positive_and_finite_exit_2(self, r_fd, n_fd, tmp_path, capsys):
        # inf with --nfd 10 warned and blamed the transfer's rank; without
        # --nfd, inf and nan failed in choose_grid's ceil
        code = main(["solve", "--dim", "2", "--ball", "0.3", "--rfd", r_fd, *n_fd,
                     "--out", str(tmp_path / "s.csv")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: r_fd must be positive and finite, got {float(r_fd)}\n"

    def test_3d_explicit_nfd_cap_exit_2(self, tmp_path, capsys):
        code = main(["solve", "--dim", "3", "--ball", "0.5", "--nfd", "129",
                     "--out", str(tmp_path / "s.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "beyond the cap 128" in err
        assert "Traceback" not in err

    def test_permuted_mic_triangle_exit_2(self, tmp_path, capsys, monkeypatch):
        def permuting(lower, **kwargs):
            order = np.arange(lower.shape[0])[::-1].copy()
            return SimpleNamespace(perm_r=order, perm_c=order, U=lower)
        monkeypatch.setattr(fraclap.ichol, "splu", permuting)
        code = main(["solve", "--dim", "2", "--m", "256", "--ball", "0.25",
                     "--precond", "sparse", "--out", str(tmp_path / "s.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: SuperLU permuted")
        assert "Traceback" not in err

    def test_rank_deficiency_printed_as_one_line(self, tmp_path, capsys):
        code = main(["solve", "--dim", "2", "--nfd", "3", "--ball", "0.1", "--m", "256",
                     "--out", str(tmp_path / "s.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [f"error: {RANK_DEFICIENT}"]
        assert ".py:" not in err and "Traceback" not in err

    def test_solve_bvp_names_the_empty_columns(self):
        # library callers get the same text, from setup's RuntimeError
        with pytest.raises(RuntimeError) as err:
            fraclap.solver.solve_bvp(generate_ball_mesh(2, 0.1), 0.5, n_fd=3, m=256)
        assert str(err.value) == RANK_DEFICIENT

    @pytest.mark.parametrize("h", ["0.1", "0.05"])
    def test_spectral_circulant_not_converged_exit_1(self, h, tmp_path, capsys):
        # the circulant surrogate of the ball-based kernel stalls CG: a
        # reported non-convergence, not an exception
        out = tmp_path / "solve.csv"
        code = main(["solve", "--scheme", "spectral", "--precond", "circulant",
                     "--ball", h, "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert "converged=False" in captured.out
        assert "stop_reason=preconditioner_indefinite" in captured.out
        assert "preconditioner=circulant" in captured.out
        assert captured.err == ""
        assert read_lines(out)[1] == "iteration,relative_residual"

    def test_3d_mesh_file_capped_without_dim(self, tmp_path, monkeypatch, capsys):
        # the cap follows the mesh, not --dim (which defaults to 2)
        monkeypatch.setattr(fraclap.cli, "load_mesh", lambda path: huge_mesh())
        code = main(["solve", "--mesh", "huge.mesh", "--out", str(tmp_path / "s.csv")])
        assert code == 2
        assert "cap the mesh at 2e5 elements" in capsys.readouterr().err


class TestConvergenceCommand:
    def test_runs_and_fits_order(self, tmp_path, capsys):
        out = tmp_path / "conv.csv"
        code = main(["convergence", "--dim", "2", "--s", "0.5", "--scheme",
                     "spectral", "--ball", "0.2,0.1,0.05", "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        order = float(text.split("order=")[1].split()[0])
        assert 0.5 < order < 1.5
        # each level states the n_fd it ran, which neither the CSV nor the
        # '# config:' line (n_fd=None) says
        n_fds = [choose_grid(mesh_quality(generate_ball_mesh(2, h)), 1.2).n_fd
                 for h in (0.2, 0.1, 0.05)]
        levels = [line.split() for line in text.splitlines() if line.startswith("level=")]
        assert [fields[3] for fields in levels] == [f"n_fd={n}" for n in n_fds]
        lines = read_lines(out)
        assert lines[1] == "N,h_bar,l2_error"
        assert lines[-1].startswith("# order=")

    def test_needs_three_levels(self):
        assert main(["convergence", "--dim", "2", "--ball", "0.2,0.1"]) == 2

    @pytest.mark.parametrize("ball", ["0.1,0.1,0.1", "0.1,0.1,0.07", "0.07,0.1,0.05"])
    def test_levels_that_do_not_refine_exit_2(self, ball, tmp_path, monkeypatch, capsys):
        built = count_calls(monkeypatch, "build_kernel")
        solved = count_calls(monkeypatch, "solve_bvp")
        out = tmp_path / "conv.csv"
        assert main(["convergence", "--dim", "2", "--ball", ball, "--out", str(out)]) == 2
        assert built == [] and solved == [] and not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: convergence levels must refine: h_bar must strictly "
                               "decrease, got ")

    def test_every_level_guarded_before_the_kernel(self, monkeypatch, capsys):
        small = ball_mesh(3, 2)
        huge = huge_mesh()
        # only the last level is past the cap
        monkeypatch.setattr(fraclap.cli, "generate_ball_mesh",
                            lambda dim, h: huge if h < 0.3 else small)
        built = count_calls(monkeypatch, "build_kernel")
        assert main(["convergence", "--dim", "3", "--ball", "0.5,0.4,0.2"]) == 2
        assert built == []
        assert "cap the mesh at 2e5 elements" in capsys.readouterr().err

    def test_3d_mesh_files_without_dim(self, tmp_path, capsys):
        # the shared kernel takes the meshes' dimension, not --dim's default 2
        paths = []
        for n_r in (2, 3, 4):
            paths.append(str(tmp_path / f"b{n_r}.mesh"))
            save_mesh(ball_mesh(3, n_r), paths[-1])
        outputs = []
        for dim_flag in ([], ["--dim", "3"]):
            out = tmp_path / f"conv{len(outputs)}.csv"
            code = main(["convergence", "--mesh", ",".join(paths), "--m", "128",
                         "--out", str(out), *dim_flag])
            assert code == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            assert read_lines(out)[0].startswith("# config: command=convergence dim=3 ")
            outputs.append((captured.out.splitlines()[:-1], read_lines(out)[1:]))
        assert outputs[0] == outputs[1]

    def test_square_levels_exit_2(self, tmp_path, capsys, monkeypatch):
        paths = []
        for name, mesh in (("b", ball_mesh(2, 3)), ("s", square_mesh(12)), ("t", square_mesh(16))):
            paths.append(str(tmp_path / f"{name}.mesh"))
            save_mesh(mesh, paths[-1])
        built = count_calls(monkeypatch, "build_kernel")
        out = tmp_path / "conv.csv"
        assert main(["convergence", "--mesh", ",".join(paths), "--out", str(out)]) == 2
        assert built == [] and not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: convergence studies measure the error against the "
                                "unit-ball solution, but level(s) [1, 2] do not mesh the unit "
                                "ball\n")

    def test_mixed_dimensions_exit_2(self, tmp_path, capsys, monkeypatch):
        paths = []
        for dim, n_r in ((2, 3), (2, 4), (3, 3)):
            paths.append(str(tmp_path / f"b{dim}{n_r}.mesh"))
            save_mesh(ball_mesh(dim, n_r), paths[-1])
        built = count_calls(monkeypatch, "build_kernel")
        assert main(["convergence", "--mesh", ",".join(paths),
                     "--out", str(tmp_path / "conv.csv")]) == 2
        assert built == []
        assert "share one dimension, got dims [2, 3]" in capsys.readouterr().err

    def test_programming_error_keeps_its_traceback(self, monkeypatch):
        # a level's TypeError became an exit-2 'error:' line
        def broken(*args, **kwargs):
            raise TypeError("unexpected keyword")
        monkeypatch.setattr(fraclap.cli, "solve_bvp", broken)
        with pytest.raises(TypeError, match="unexpected keyword"):
            main(["convergence", "--dim", "2", "--m", "64", "--ball", "0.4,0.3,0.2"])

    def test_kernel_of_another_order_exit_2(self, monkeypatch, capsys):
        real = fraclap.cli.build_kernel
        monkeypatch.setattr(fraclap.cli, "build_kernel",
                            lambda scheme, s, *args: real(scheme, 0.75, *args))
        assert main(["convergence", "--dim", "2", "--s", "0.5", "--m", "256",
                     "--ball", "0.4,0.3,0.2"]) == 2
        assert "s = 0.5 is not the kernel's order 0.75" in capsys.readouterr().err


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

    def test_rank_deficient_transfer_exit_2(self, tmp_path, capsys):
        # the transfer is checked once for the run, not per variant
        code = main(["precond", "--dim", "2", "--nfd", "3", "--ball", "0.1", "--m", "256",
                     "--out", str(tmp_path / "pc.csv")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {RANK_DEFICIENT}"]

    def test_kernel_built_once(self, tmp_path, capsys, monkeypatch):
        built = count_calls(monkeypatch, "build_kernel")
        code = main(["precond", "--dim", "2", "--m", "256", "--ball", "0.2",
                     "--out", str(tmp_path / "pc.csv")])
        assert code == 0
        assert len(built) == 1
        assert capsys.readouterr().out.count("iterations=") == 3

    def test_transfer_built_once(self, tmp_path, capsys, monkeypatch):
        built = count_calls(monkeypatch, "build_transfer")
        code = main(["precond", "--dim", "2", "--m", "256", "--ball", "0.2",
                     "--out", str(tmp_path / "pc.csv")])
        assert code == 0
        assert len(built) == 1
        assert capsys.readouterr().out.count("iterations=") == 3

    def test_grid_cap_exit_2(self, tmp_path, capsys):
        code = main(["precond", "--dim", "2", "--ball", "0.2", "--rfd", "1000",
                     "--out", str(tmp_path / "pc.csv")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "beyond the cap 4096" in captured.err
        assert "Traceback" not in captured.err
        assert "failed" not in captured.out

    def test_large_lifts_grid_cap(self, tmp_path, capsys, monkeypatch):
        # past the cap the kernel build is reached; stop it there
        def stop(*args, **kwargs):
            raise ValueError(f"kernel build reached at n_fd={args[3]}")

        monkeypatch.setattr(fraclap.solver, "build_kernel", stop)
        code = main(["precond", "--dim", "2", "--ball", "0.2", "--rfd", "1000", "--large",
                     "--out", str(tmp_path / "pc.csv")])
        assert code == 2
        assert capsys.readouterr().err == "error: kernel build reached at n_fd=6585\n"
