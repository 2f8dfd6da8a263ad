"""Experiment command line: kernel accuracy dumps, decay profiles, the
error-impact bound, single solves, convergence studies, and preconditioner
comparisons.  Every command writes CSV (UTF-8, LF) through _write_csv: a
'# config:' comment echoing the configuration that ran, the header, the rows
and an optional '# key=value' footer, plus key=value summary lines on stdout.
Errors are measured against the unit-ball solution, so a solve on another
domain prints l2_error=nan and a convergence study refuses it.  Exit code 0
means every requested run completed and converged, 1 that a run did not
(a numerical breakdown included; its stop_reason says why), and 2 invalid
input, a resource limit, a rank-deficient transfer or a failed internal check,
reported as the run's one stderr line, 'error: <message>'.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from dataclasses import dataclass

import numpy as np

from . import stiffness
from .core import OverlayGrid, check_tolerance, order_value
from .mesh import generate_ball_mesh, is_unit_ball, load_mesh, mesh_quality
from .solver import build_kernel, setup, solve, solve_bvp
from .stiffness import decay_profile, restrict
from .transfer import capped_grid, choose_grid

__all__ = ["ExperimentConfig", "cmd_kernel", "cmd_decay", "cmd_impact", "cmd_solve",
           "cmd_convergence", "cmd_precond", "impact_crossing", "main"]

@dataclass
class ExperimentConfig:
    command: str
    dim: int = 2
    s: float = 0.5
    scheme: str = "fft"
    n_fd: int | None = None  # kernel/decay default to 81; solve commands pick from the mesh
    m: int | None = None     # None: build_kernel's default for the scheme
    n_g: int = 64
    r_fd: float = 1.2
    precond: str = "auto"
    tol: float = 1e-10
    delta: int = 12
    out: str | None = None
    ball: list | None = None
    mesh: list | None = None
    large: bool = False

    def config_line(self) -> str:
        m = "default" if self.m is None else self.m
        parts = [f"command={self.command}", f"dim={self.dim}", f"s={self.s}",
                 f"scheme={self.scheme}", f"n_fd={self.n_fd}", f"m={m}",
                 f"n_g={self.n_g}", f"r_fd={self.r_fd}", f"precond={self.precond}",
                 f"tol={self.tol}", f"delta={self.delta}"]
        if self.ball:
            parts.append("ball=" + ",".join(str(h) for h in self.ball))
        if self.mesh:
            parts.append("mesh=" + ",".join(self.mesh))
        return " ".join(parts)


# what main reports as one 'error:' line (exit 2); anything else keeps its traceback
_REPORTED = (ValueError, RuntimeError, ArithmeticError, OSError, MemoryError)


def _meshes(config: ExperimentConfig):
    """Mesh sequence from --mesh paths or --ball target_h values.  Every 3D
    mesh is held to the desk-scale cap of 2e5 elements (--large lifts it)
    before any grid or kernel is built; the n_fd cap is the solver's
    (transfer.N_FD_CAPS)."""
    if config.mesh:
        meshes = [load_mesh(path) for path in config.mesh]
    elif config.ball:
        meshes = [generate_ball_mesh(config.dim, h) for h in config.ball]
    else:
        raise ValueError("provide a mesh source with --mesh or --ball")
    if not config.large and any(m.dim == 3 and m.n_elements > 200_000 for m in meshes):
        raise ValueError("3D runs cap the mesh at 2e5 elements by default; pass --large to lift")
    return meshes


def _max_n_fd(config: ExperimentConfig):
    """max_n_fd for the solver: its default cap, or none under --large."""
    return None if not config.large else 10 ** 9


def _write_csv(config: ExperimentConfig, header: str, rows, footer: str = ""):
    """Write the output CSV, the last step of every command: the '# config:'
    line, the header, each row (text without its final newline) and
    '# <footer>' when given; then print where it went."""
    path = config.out or f"{config.command}_out.csv"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# config: {config.config_line()}\n{header}\n")
        for row in rows:
            fh.write(row + "\n")
        if footer:
            fh.write(f"# {footer}\n")
    print(f"wrote {path}")


def _dump_config(config: ExperimentConfig) -> ExperimentConfig:
    """The config with the dump's n_fd (default 81) under the solver's cap;
    --large lifts it.  The '# config:' line states the n_fd that ran."""
    n_fd = config.n_fd if config.n_fd is not None else 81
    n_fd = capped_grid(config.dim, config.r_fd, n_fd, _max_n_fd(config)).n_fd
    return dataclasses.replace(config, n_fd=n_fd)


def _kernel_rows(kernel):
    """The orthant's rows p1[,p2[,p3]],T in C order of the offsets, with
    17-significant-digit entries, one text block per slab of equal first
    offset: one %-format per slab, the later offsets are literal text, the
    same in every slab."""
    k = kernel.offsets_per_axis
    rows = ["%.16e"]
    for _ in range(kernel.dim - 1):
        rows = [f"{p},{row}" for p in range(k) for row in rows]
    for p in range(k):
        lead = f"{p},"
        yield (lead + ("\n" + lead).join(rows)) % tuple(kernel.coeffs[p].ravel().tolist())


def cmd_kernel(config: ExperimentConfig) -> int:
    """Kernel dump; in one dimension also the max-norm error against the
    analytic closed form."""
    config = _dump_config(config)
    kernel = build_kernel(config.scheme, config.s, config.dim, config.n_fd,
                          config.m, config.n_g)
    footer = ""
    if config.dim == 1:
        reference = stiffness.analytic_1d(config.s, config.n_fd)
        max_error = float(np.max(np.abs(kernel.coeffs - reference.coeffs)))
        print(f"max_error={max_error:.6e}")
        footer = f"max_error={max_error:.16e}"
    header = ",".join(f"p{i + 1}" for i in range(config.dim)) + ",T"
    _write_csv(config, header, _kernel_rows(kernel), footer)
    return 0


def cmd_decay(config: ExperimentConfig) -> int:
    config = _dump_config(config)
    kernel = build_kernel(config.scheme, config.s, config.dim, config.n_fd,
                          config.m, config.n_g)
    profile = decay_profile(kernel)
    print(f"slope={profile.fitted_slope:.6f}")
    _write_csv(config, "abs_p,abs_T",
               (f"{r:.16e},{t:.16e}" for r, t in zip(profile.radii, profile.magnitudes)))
    return 0


def impact_bound_table(dim: int, s: float, delta: int, r_fd: float):
    """Bound (2n+1)^d n^{2s} 10^{-delta} / r_fd^{2s} for n = 1..4000, with the
    model first- and second-order discretization errors 1/n and 1/n^2."""
    n = np.arange(1, 4001, dtype=float)
    bound = (2 * n + 1) ** dim * n ** (2.0 * s) * 10.0 ** (-delta) / r_fd ** (2.0 * s)
    return n, bound, 1.0 / n, 1.0 / n ** 2


def impact_crossing(n, bound, err):
    """Log-interpolated intersection of the bound with a discretization error."""
    diff = np.log(bound) - np.log(err)
    sign_change = np.nonzero((diff[:-1] < 0) & (diff[1:] >= 0))[0]
    if sign_change.size == 0:
        return None
    i = int(sign_change[0])
    t = -diff[i] / (diff[i + 1] - diff[i])
    log_n = np.log(n[i]) + t * (np.log(n[i + 1]) - np.log(n[i]))
    n_e = float(np.exp(log_n))
    e_e = float(np.exp(np.interp(log_n, np.log(n), np.log(err))))
    return n_e, e_e


def cmd_impact(config: ExperimentConfig) -> int:
    if config.delta < 1:
        raise ValueError("delta must be at least 1")
    order_value(config.s)
    OverlayGrid(config.dim, config.r_fd, 1)  # refuses a dim or r_fd out of range
    n, bound, err1, err2 = impact_bound_table(config.dim, config.s, config.delta, config.r_fd)
    for order, err in ((1, err1), (2, err2)):
        crossing = impact_crossing(n, bound, err)
        if crossing is None:
            print(f"order{order}_crossing=none")
        else:
            print(f"order{order}_crossing_nfd={crossing[0]:.3f}")
            print(f"order{order}_crossing_error={crossing[1]:.6e}")
    _write_csv(config, "n_fd,bound,err1,err2",
               (f"{int(n[i])},{bound[i]:.16e},{err1[i]:.16e},{err2[i]:.16e}"
                for i in range(n.shape[0])))
    return 0


def cmd_solve(config: ExperimentConfig) -> int:
    mesh = _meshes(config)[0]
    op, times = setup(mesh, config.s, config.scheme, n_fd=config.n_fd, m=config.m,
                      n_g=config.n_g, r_fd=config.r_fd, max_n_fd=_max_n_fd(config))
    # the '# config:' line states what ran
    config = dataclasses.replace(config, dim=mesh.dim, n_fd=op.grid.n_fd)
    u, report = solve(op, mesh, config.precond, tol=config.tol)
    report.wall_times = {**times, **report.wall_times}
    print(report.to_text(), end="")
    _write_csv(config, "iteration,relative_residual",
               (f"{i},{res:.16e}" for i, res in enumerate(report.residual_history)))
    return 0 if report.converged else 1


def cmd_convergence(config: ExperimentConfig) -> int:
    meshes = _meshes(config)
    if len(meshes) < 3:
        raise ValueError("convergence studies need at least 3 refinement levels")
    dims = sorted({m.dim for m in meshes})
    if len(dims) > 1:
        raise ValueError(f"convergence levels must share one dimension, got dims {dims}")
    config = dataclasses.replace(config, dim=dims[0])
    off_ball = [level for level, m in enumerate(meshes) if not is_unit_ball(m)]
    if off_ball:
        raise ValueError("convergence studies measure the error against the unit-ball "
                         f"solution, but level(s) {off_ball} do not mesh the unit ball")
    qualities = [mesh_quality(m) for m in meshes]
    h_bars = [q.h_bar for q in qualities]
    if any(fine >= coarse for coarse, fine in zip(h_bars, h_bars[1:])):
        raise ValueError("convergence levels must refine: h_bar must strictly decrease, got "
                         + ", ".join(f"{h:.6e}" for h in h_bars))
    # one kernel at the finest grid is sliced per level (entries depend only
    # on the offset, never on the grid size)
    cap = _max_n_fd(config)
    grids = [choose_grid(q, config.r_fd, max_n_fd=cap) for q in qualities]
    shared = build_kernel(config.scheme, config.s, dims[0],
                          max(g.n_fd for g in grids), config.m, config.n_g)
    rows = []
    failures = 0
    for level, (mesh, grid, h_bar) in enumerate(zip(meshes, grids, h_bars)):
        try:
            u, report = solve_bvp(
                mesh, config.s, config.scheme, n_fd=grid.n_fd,
                kernel=restrict(shared, grid.n_fd), n_g=config.n_g,
                r_fd=config.r_fd, precond=config.precond, tol=config.tol, max_n_fd=cap)
        except _REPORTED as exc:
            raise RuntimeError(f"convergence level {level} failed: {exc}") from exc
        if not report.converged:
            failures += 1
        rows.append((mesh.n_elements, h_bar, report.l2_error))
        print(f"level={level} N={mesh.n_elements} h_bar={h_bar:.6e} n_fd={grid.n_fd} "
              f"l2_error={report.l2_error:.6e} iterations={report.iterations}")
    log_h = np.log([r[1] for r in rows])
    log_e = np.log([r[2] for r in rows])
    order = float(np.polyfit(log_h, log_e, 1)[0])
    print(f"order={order:.4f}")
    _write_csv(config, "N,h_bar,l2_error",
               (f"{n_el},{h_bar:.16e},{err:.16e}" for n_el, h_bar, err in rows),
               f"order={order:.6f}")
    return 0 if failures == 0 else 1


def cmd_precond(config: ExperimentConfig) -> int:
    mesh = _meshes(config)[0]
    # one setup serves every variant; a failure there is the run's, not a
    # variant's, and reaches main (exit 2)
    op, _ = setup(mesh, config.s, config.scheme, n_fd=config.n_fd, m=config.m,
                  n_g=config.n_g, r_fd=config.r_fd, max_n_fd=_max_n_fd(config))
    config = dataclasses.replace(config, dim=mesh.dim, n_fd=op.grid.n_fd)
    variants = ("none", "sparse", "circulant")
    histories = {}
    converged = True
    for variant in variants:
        u, report = solve(op, mesh, variant, tol=config.tol)
        histories[variant] = report.residual_history
        converged &= report.converged
        status = (f"iterations={report.iterations}" if report.converged
                  else f"stop_reason={report.stop_reason}")
        print(f"precond={variant} {status}")
    longest = max(len(h) for h in histories.values())
    _write_csv(config, "iteration," + ",".join(variants),
               (f"{i}," + ",".join(f"{histories[v][i]:.16e}" if i < len(histories[v]) else ""
                                   for v in variants) for i in range(longest)))
    return 0 if converged else 1


def _load_config_file(path) -> dict:
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {body!r}")
            key, value = body.split("=", 1)
            out[key.strip()] = value.strip()
    return out


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser (and, by inheritance, its subparsers) whose errors
    raise ValueError, so main() reports a bad flag as its one 'error:' line."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fraclap",
        description="Experiments for the overlay-grid fractional Laplacian solver")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("kernel", "dump a stiffness kernel (1D adds the max error vs the closed form)"),
        ("decay", "dump the kernel decay profile and fitted tail slope"),
        ("impact", "tabulate the kernel-error impact bound against model errors"),
        ("solve", "solve one boundary value problem on the unit ball or a mesh file"),
        ("convergence", "run a refinement study and fit the observed order"),
        ("precond", "compare CG iteration counts across preconditioners"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key=value config file; flags override it")
        p.add_argument("--dim", type=int)
        p.add_argument("--s", type=float)
        p.add_argument("--scheme", choices=list(stiffness.SCHEMES))
        p.add_argument("--nfd", type=int, dest="n_fd")
        p.add_argument("--m", type=int)
        p.add_argument("--ng", type=int, dest="n_g")
        p.add_argument("--rfd", type=float, dest="r_fd")
        p.add_argument("--mesh", help="comma-separated mesh file paths")
        p.add_argument("--ball", help="comma-separated target_h values for unit-ball meshes")
        p.add_argument("--precond", choices=["auto", "none", "sparse", "circulant"])
        p.add_argument("--tol", type=float)
        p.add_argument("--delta", type=int)
        p.add_argument("--out")
        p.add_argument("--large", action="store_true", default=None,
                       help="lift the 3D desk-scale caps")
    return parser


def parse_config(argv=None) -> ExperimentConfig:
    """Flags over an optional --config file.  Each file entry becomes its
    flag (the key without underscores) ahead of the command line's, so one
    parser checks both, before any mesh work, and the later flag wins."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    keys = [f.name for f in dataclasses.fields(ExperimentConfig) if f.name != "command"]
    if args.config:
        tokens = []
        for key, value in _load_config_file(args.config).items():
            if key not in keys:
                raise ValueError(f"unknown config key {key!r}")
            if key != "large":
                tokens.append(f"--{key.replace('_', '')}={value}")
            elif value.lower() in ("1", "true", "yes"):
                tokens.append("--large")
            elif value.lower() not in ("0", "false", "no"):
                raise ValueError(f"config key 'large' must be true or false, got {value!r}")
        try:  # the command line parsed above, so a bad value is the file's
            args = build_parser().parse_args([argv[0], *tokens, *argv[1:]])
        except ValueError as exc:
            raise ValueError(f"{args.config}: {exc}") from None
    merged = {key: getattr(args, key) for key in keys if getattr(args, key) is not None}
    if isinstance(merged.get("ball"), str):
        merged["ball"] = [float(tok) for tok in merged["ball"].split(",") if tok]
    if isinstance(merged.get("mesh"), str):
        merged["mesh"] = [tok for tok in merged["mesh"].split(",") if tok]
    return ExperimentConfig(command=args.command, **merged)


_COMMANDS = {
    "kernel": cmd_kernel,
    "decay": cmd_decay,
    "impact": cmd_impact,
    "solve": cmd_solve,
    "convergence": cmd_convergence,
    "precond": cmd_precond,
}


def main(argv=None) -> int:
    try:
        config = parse_config(argv)
        if config.command in ("solve", "convergence", "precond"):
            check_tolerance(config.tol)  # before any mesh, kernel or setup work
        return _COMMANDS[config.command](config)
    except _REPORTED as exc:
        # MemoryError is also what the size caps raise: a resource limit;
        # ArithmeticError is a failed internal check.  A breakdown inside
        # a solve raises nothing: its report says it and the run exits 1
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
