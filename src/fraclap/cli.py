"""Experiment command line: kernel accuracy dumps, decay profiles, the
error-impact bound, single solves, convergence studies, and preconditioner
comparisons.  Every command writes CSV (UTF-8, LF) with a '# config:' comment
echoing the full configuration, plus key=value summary lines on stdout.
Exit code 0 means every requested run completed and converged.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

import numpy as np

from . import stiffness
from .mesh import generate_ball_mesh, load_mesh, mesh_quality
from .solver import build_kernel, solve_bvp
from .stiffness import decay_profile, restrict, write_decay_csv, write_kernel_csv
from .transfer import choose_grid

__all__ = ["ExperimentConfig", "cmd_kernel", "cmd_decay", "cmd_impact", "cmd_solve",
           "cmd_convergence", "cmd_precond", "main"]

_DEFAULTS = {
    "dim": 2,
    "s": 0.5,
    "scheme": "fft",
    "n_fd": None,       # kernel/decay default to 81; solve commands pick from the mesh
    "m": None,          # per-dim default applied later
    "n_g": 64,
    "r_fd": 1.2,
    "precond": "auto",
    "tol": 1e-10,
    "delta": 12,
    "out": None,
    "ball": None,
    "mesh": None,
    "large": False,
}


@dataclass
class ExperimentConfig:
    command: str
    dim: int = 2
    s: float = 0.5
    scheme: str = "fft"
    n_fd: int | None = None
    m: int | None = None
    n_g: int = 64
    r_fd: float = 1.2
    precond: str = "auto"
    tol: float = 1e-10
    delta: int = 12
    out: str | None = None
    ball: list | None = None
    mesh: list | None = None
    large: bool = False

    def resolved_m(self) -> int:
        if self.m is not None:
            return self.m
        return 2 ** 14 if self.dim <= 2 else 2 ** 10

    def config_line(self) -> str:
        parts = [f"command={self.command}", f"dim={self.dim}", f"s={self.s}",
                 f"scheme={self.scheme}", f"n_fd={self.n_fd}", f"m={self.resolved_m()}",
                 f"n_g={self.n_g}", f"r_fd={self.r_fd}", f"precond={self.precond}",
                 f"tol={self.tol}", f"delta={self.delta}"]
        if self.ball:
            parts.append("ball=" + ",".join(str(h) for h in self.ball))
        if self.mesh:
            parts.append("mesh=" + ",".join(self.mesh))
        return " ".join(parts)

    def default_out(self) -> str:
        return self.out if self.out else f"{self.command}_out.csv"


def _meshes(config: ExperimentConfig):
    """Mesh sequence from --mesh paths or --ball target_h values."""
    if config.mesh:
        return [load_mesh(path) for path in config.mesh]
    if config.ball:
        return [generate_ball_mesh(config.dim, h) for h in config.ball]
    raise ValueError("provide a mesh source with --mesh or --ball")


def _desk_guard(config: ExperimentConfig, mesh=None):
    if config.large or config.dim != 3:
        return
    if config.n_fd is not None and config.n_fd > 128:
        raise ValueError("3D runs cap n_fd at 128 by default; pass --large to lift")
    if mesh is not None and mesh.n_elements > 200_000:
        raise ValueError("3D runs cap the mesh at 2e5 elements by default; pass --large to lift")


def cmd_kernel(config: ExperimentConfig) -> int:
    """Kernel dump; in one dimension also the max-norm error against the
    analytic closed form."""
    n_fd = config.n_fd if config.n_fd is not None else 81
    kernel = build_kernel(config.scheme, config.s, config.dim, n_fd,
                          config.resolved_m(), config.n_g)
    path = config.default_out()
    write_kernel_csv(kernel, path, config.config_line())
    if config.dim == 1:
        reference = stiffness.analytic_1d(config.s, n_fd)
        max_error = float(np.max(np.abs(kernel.coeffs - reference.coeffs)))
        with open(path, "a", encoding="utf-8", newline="\n") as fh:
            fh.write(f"# max_error={max_error:.16e}\n")
        print(f"max_error={max_error:.6e}")
    print(f"wrote {path}")
    return 0


def cmd_decay(config: ExperimentConfig) -> int:
    n_fd = config.n_fd if config.n_fd is not None else 81
    if n_fd < 32:
        raise ValueError("decay studies need n_fd >= 32")
    kernel = build_kernel(config.scheme, config.s, config.dim, n_fd,
                          config.resolved_m(), config.n_g)
    profile = decay_profile(kernel)
    path = config.default_out()
    write_decay_csv(profile, path, config.config_line())
    print(f"slope={profile.fitted_slope:.6f}")
    print(f"wrote {path}")
    return 0


def impact_bound_table(dim: int, s: float, delta: int, r_fd: float, n_max: int = 4000):
    """Bound (2n+1)^d n^{2s} 10^{-delta} / r_fd^{2s} per n, with the model
    first- and second-order discretization errors 1/n and 1/n^2."""
    n = np.arange(1, n_max + 1, dtype=float)
    bound = (2 * n + 1) ** dim * n ** (2.0 * s) * 10.0 ** (-delta) / r_fd ** (2.0 * s)
    return n, bound, 1.0 / n, 1.0 / n ** 2


def _crossing(n, bound, err):
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
    n, bound, err1, err2 = impact_bound_table(config.dim, config.s, config.delta, config.r_fd)
    path = config.default_out()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# config: {config.config_line()}\n")
        fh.write("n_fd,bound,err1,err2\n")
        for row in range(n.shape[0]):
            fh.write(f"{int(n[row])},{bound[row]:.16e},{err1[row]:.16e},{err2[row]:.16e}\n")
    for order, err in ((1, err1), (2, err2)):
        crossing = _crossing(n, bound, err)
        if crossing is None:
            print(f"order{order}_crossing=none")
        else:
            print(f"order{order}_crossing_nfd={crossing[0]:.3f}")
            print(f"order{order}_crossing_error={crossing[1]:.6e}")
    print(f"wrote {path}")
    return 0


def cmd_solve(config: ExperimentConfig) -> int:
    mesh = _meshes(config)[0]
    _desk_guard(config, mesh)
    u, report = solve_bvp(
        mesh, config.s, config.scheme, n_fd=config.n_fd, m=config.m, n_g=config.n_g,
        r_fd=config.r_fd, precond=config.precond, tol=config.tol,
        max_n_fd=None if not config.large else 10 ** 9)
    path = config.default_out()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# config: {config.config_line()}\n")
        fh.write("iteration,relative_residual\n")
        for i, res in enumerate(report.residual_history):
            fh.write(f"{i},{res:.16e}\n")
    print(report.to_text(), end="")
    print(f"wrote {path}")
    return 0 if report.converged else 1


def cmd_convergence(config: ExperimentConfig) -> int:
    meshes = _meshes(config)
    if len(meshes) < 3:
        raise ValueError("convergence studies need at least 3 refinement levels")
    # one kernel at the finest grid is sliced per level (entries depend only
    # on the offset, never on the grid size)
    cap = None if not config.large else 10 ** 9
    grids = [choose_grid(mesh_quality(m), config.r_fd, max_n_fd=cap) for m in meshes]
    shared = build_kernel(config.scheme, config.s, config.dim,
                          max(g.n_fd for g in grids), config.m, config.n_g)
    rows = []
    failures = 0
    for level, (mesh, grid) in enumerate(zip(meshes, grids)):
        _desk_guard(config, mesh)
        try:
            u, report = solve_bvp(
                mesh, config.s, config.scheme, n_fd=grid.n_fd,
                kernel=restrict(shared, grid.n_fd), n_g=config.n_g,
                r_fd=config.r_fd, precond=config.precond, tol=config.tol)
        except Exception as exc:
            raise RuntimeError(f"convergence level {level} failed: {exc}") from exc
        if not report.converged:
            failures += 1
        h_bar = mesh.n_elements ** (-1.0 / mesh.dim)
        rows.append((mesh.n_elements, h_bar, report.l2_error))
        print(f"level={level} N={mesh.n_elements} h_bar={h_bar:.6e} "
              f"l2_error={report.l2_error:.6e} iterations={report.iterations}")
    log_h = np.log([r[1] for r in rows])
    log_e = np.log([r[2] for r in rows])
    order = float(np.polyfit(log_h, log_e, 1)[0])
    path = config.default_out()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# config: {config.config_line()}\n")
        fh.write("N,h_bar,l2_error\n")
        for n_el, h_bar, err in rows:
            fh.write(f"{n_el},{h_bar:.16e},{err:.16e}\n")
        fh.write(f"# order={order:.6f}\n")
    print(f"order={order:.4f}")
    print(f"wrote {path}")
    return 0 if failures == 0 else 1


def cmd_precond(config: ExperimentConfig) -> int:
    mesh = _meshes(config)[0]
    _desk_guard(config, mesh)
    variants = ("none", "sparse", "circulant")
    histories = {}
    iterations = {}
    failures = []
    for variant in variants:
        try:
            u, report = solve_bvp(
                mesh, config.s, config.scheme, n_fd=config.n_fd, m=config.m,
                n_g=config.n_g, r_fd=config.r_fd, precond=variant, tol=config.tol)
            histories[variant] = report.residual_history
            iterations[variant] = report.iterations if report.converged else None
            status = report.iterations if report.converged else "no convergence"
            print(f"precond={variant} iterations={status}")
        except Exception as exc:
            failures.append(variant)
            histories[variant] = []
            iterations[variant] = None
            print(f"precond={variant} failed: {exc}")
    path = config.default_out()
    longest = max(len(h) for h in histories.values())
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# config: {config.config_line()}\n")
        fh.write("iteration," + ",".join(variants) + "\n")
        for i in range(longest):
            cells = [f"{histories[v][i]:.16e}" if i < len(histories[v]) else ""
                     for v in variants]
            fh.write(f"{i}," + ",".join(cells) + "\n")
    print(f"wrote {path}")
    return 0 if not failures and all(iterations[v] is not None for v in variants) else 1


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


def _parse_ball_list(text):
    return [float(tok) for tok in text.split(",") if tok]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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


_CASTS = {"dim": int, "s": float, "scheme": str, "n_fd": int, "m": int, "n_g": int,
          "r_fd": float, "precond": str, "tol": float, "delta": int, "out": str,
          "large": lambda v: str(v).lower() in ("1", "true", "yes")}


def parse_config(argv=None) -> ExperimentConfig:
    args = build_parser().parse_args(argv)
    merged = dict(_DEFAULTS)
    if args.config:
        for key, value in _load_config_file(args.config).items():
            if key in ("ball", "mesh"):
                merged[key] = value
            elif key in _CASTS:
                merged[key] = _CASTS[key](value)
            else:
                raise ValueError(f"unknown config key {key!r}")
    for key in ("dim", "s", "scheme", "n_fd", "m", "n_g", "r_fd", "precond",
                "tol", "delta", "out", "large", "ball", "mesh"):
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    if isinstance(merged.get("ball"), str):
        merged["ball"] = _parse_ball_list(merged["ball"])
    if isinstance(merged.get("mesh"), str):
        merged["mesh"] = [tok for tok in merged["mesh"].split(",") if tok]
    merged["large"] = bool(merged.get("large"))
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
        return _COMMANDS[config.command](config)
    except (ValueError, RuntimeError, OSError, MemoryError) as exc:
        # MemoryError is also what the size caps raise: a resource limit
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
