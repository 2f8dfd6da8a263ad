"""The three seeded fraclap workloads and the checks that classify each solve.

Every workload meshes the unit ball and rotates it about the origin by a
rotation drawn from the seed.  The ball, the closed-form solution and the
minimum element height do not change under rotation, so the overlay grid and
the problem size stay fixed while the grid/mesh incidences change.

A workload has three parts:
  inputs   mesh generation and rotation (not timed);
  setup()  the one-time work before the first solve call (timed);
  run()    one pass over its solve ops (timed op by op).

Each op ends as an Outcome; a failed op never aborts the pass.
"""

from __future__ import annotations

import contextlib
import io
import math
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.fft

import fraclap as fl
import fraclap.cli

TOL = 1e-10
R_FD = 1.2


@dataclass
class Outcome:
    """One solve op and the reasons it failed, if any."""

    op: int
    label: str
    seconds: float = 0.0
    iterations: int = 0
    l2_error: float | None = None
    true_residual: float | None = None
    reasons: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.reasons

    def check(self, converged: bool, true_residual: float, l2_error: float | None = None,
              l2_bound: float | None = None):
        self.true_residual = true_residual
        if not converged:
            self.reasons.append("did not converge")
        if not true_residual <= math.sqrt(TOL):
            self.reasons.append(f"true residual {true_residual:.3e} > sqrt(tol)")
        if l2_bound is not None:
            self.l2_error = l2_error
            if not l2_error <= l2_bound:
                self.reasons.append(f"l2_error {l2_error:.4e} outside bound {l2_bound:.4e}")

    def raised(self, exc: BaseException):
        self.reasons.append(f"raised {type(exc).__name__}: {exc}")

    def record(self) -> dict:
        return {"op": self.op, "label": self.label, "ok": self.ok, "seconds": self.seconds,
                "iterations": self.iterations, "l2_error": self.l2_error,
                "true_residual": self.true_residual, "reasons": self.reasons}


class Clock:
    """Hands out op ids, runs ops through an optional tracer and sums their
    wall time.  Op 0 is the setup; solve ops count from 1."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.solve_s = 0.0
        self._next_op = 1

    def outcome(self, label: str) -> Outcome:
        self._next_op += 1
        return Outcome(self._next_op - 1, label)

    def call(self, out: Outcome, fn, *args):
        t0 = time.perf_counter()
        try:
            if self.tracer is None:
                return fn(*args)
            return self.tracer.run("op", out.op, fn, *args)
        finally:
            out.seconds = time.perf_counter() - t0
            self.solve_s += out.seconds


def rotation(dim: int, seed: int | None) -> np.ndarray:
    """Proper rotation drawn from the seed; None gives the identity."""
    if seed is None:
        return np.eye(dim)
    rng = np.random.default_rng(seed)
    if dim == 2:
        angle = rng.uniform(0.0, 2.0 * math.pi)
        c, s = math.cos(angle), math.sin(angle)
        return np.array([[c, -s], [s, c]])
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def rotated_ball(dim: int, h: float, seed: int | None):
    """Rotated unit-ball mesh, after checking that rotation kept the grid
    size and the unknown count of the unrotated mesh."""
    base = fl.generate_ball_mesh(dim, h)
    mesh = fl.SimplicialMesh(dim=dim, vertices=base.vertices @ rotation(dim, seed).T,
                             simplices=base.simplices, n_interior=base.n_interior)
    n_fd = fl.choose_grid(fl.mesh_quality(mesh), R_FD).n_fd
    n_fd_base = fl.choose_grid(fl.mesh_quality(base), R_FD).n_fd
    if n_fd != n_fd_base or mesh.n_interior != base.n_interior:
        raise RuntimeError(f"rotation changed the problem size: n_fd {n_fd} vs {n_fd_base}, "
                           f"unknowns {mesh.n_interior} vs {base.n_interior}")
    return mesh, {"h": h, "n_fd": n_fd, "unknowns": mesh.n_interior,
                  "elements": mesh.n_elements}


def _embedding_bytes(dim: int, n_fd: int) -> dict:
    """Grid vector, FFT buffer and real-input spectrum of one Toeplitz apply,
    from the embedding length the plan uses (next fast length >= 4 n_fd + 1)."""
    length = scipy.fft.next_fast_len(4 * n_fd + 1)
    return {"grid_vector": 8 * (2 * n_fd + 1) ** dim,
            "fft_buffer": 8 * length ** dim,
            "spectrum": 16 * length ** (dim - 1) * (length // 2 + 1)}


class Disk2dConvergence:
    """The paper's 2D refinement study, run like ``fraclap convergence``: one
    fft kernel at the finest n_fd, restricted per level.  The levels stop at
    h=0.035 (2,437 unknowns) so that one pass takes about 2 s and a run
    measures many passes."""

    name = "disk2d_convergence"
    levels = (0.1, 0.07, 0.05, 0.035)
    s = 0.5
    # lumped L2 error bounds against the closed form, about 1.25x the values
    # measured at the commit that introduced this benchmark
    l2_bounds = (2.75e-2, 2.0e-2, 1.35e-2, 9.8e-3)
    order_tolerance = 0.2

    def __init__(self, seed, scratch: Path):
        self.meshes, self.inputs = [], []
        for h in self.levels:
            mesh, info = rotated_ball(2, h, seed)
            self.meshes.append(mesh)
            self.inputs.append(info)

    def setup(self):
        grids = [fl.choose_grid(fl.mesh_quality(m), R_FD) for m in self.meshes]
        kernel = fl.build_kernel("fft", self.s, 2, max(g.n_fd for g in grids))
        return grids, kernel

    def run(self, state, clock: Clock) -> list[Outcome]:
        grids, shared = state
        outcomes, rows = [], []
        for level, (mesh, grid) in enumerate(zip(self.meshes, grids)):
            out = clock.outcome(f"level{level} h={self.levels[level]}")
            try:
                _, report = clock.call(out, self._solve, mesh, grid, shared)
            except Exception as exc:
                out.raised(exc)
            else:
                out.iterations = report.iterations
                out.check(report.converged, report.true_residual, report.l2_error,
                          self.l2_bounds[level])
                rows.append((mesh.n_elements ** -0.5, report.l2_error))
            outcomes.append(out)
        expected = min(1.0, self.s + 0.5)
        if len(rows) == len(self.levels):
            order = float(np.polyfit(np.log([r[0] for r in rows]),
                                     np.log([r[1] for r in rows]), 1)[0])
            if abs(order - expected) > self.order_tolerance:
                for out in outcomes:
                    out.reasons.append(f"fitted order {order:.4f} off {expected} "
                                       f"by more than {self.order_tolerance}")
        return outcomes

    def _solve(self, mesh, grid, shared):
        return fl.solve_bvp(mesh, self.s, "fft", n_fd=grid.n_fd,
                            kernel=fl.restrict(shared, grid.n_fd), r_fd=R_FD,
                            precond="auto", tol=TOL)

    def headline_l2(self, outcomes):
        return outcomes[-1].l2_error

    def working_set(self):
        finest = self.inputs[-1]
        exact = max(i["unknowns"] for i in self.inputs if i["unknowns"] <= 5000)
        return {**_embedding_bytes(2, finest["n_fd"]),
                "symbol_samples": 8 * (2 ** 14) ** 2,
                "exact_rank_gram": 8 * exact ** 2}


# ---------------------------------------------------------------------------

class Ball3dCli:
    """``fraclap solve --dim 3 --mesh <rotated ball> --m 512``.  The CLI's
    default m=2^10 makes one solve take about 20 s, too long to repeat within
    a run; at m=2^9 it takes about 2.5 s and the 3D kernel still dominates."""

    name = "ball3d_cli"
    h = 0.2
    m = 2 ** 9
    l2_bound = 3.5e-2
    _summary = re.compile(r"^(converged|iterations|l2_error|true_residual|preconditioner)=(.*)$",
                          re.M)

    def __init__(self, seed, scratch: Path):
        mesh, info = rotated_ball(3, self.h, seed)
        self.inputs = [info]
        self.mesh_path = scratch / f"ball3d-seed{seed}.mesh"
        self.out_path = scratch / f"ball3d-seed{seed}.csv"
        fl.save_mesh(mesh, self.mesh_path)

    def setup(self):
        return None

    def run(self, state, clock: Clock) -> list[Outcome]:
        out = clock.outcome(f"cli solve h={self.h}")
        argv = ["solve", "--dim", "3", "--mesh", str(self.mesh_path), "--m", str(self.m),
                "--out", str(self.out_path)]
        stdout, stderr = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = clock.call(out, fraclap.cli.main, argv)
        except Exception as exc:
            out.raised(exc)
            return [out]
        if code != 0:
            out.reasons.append(f"exit code {code}: {stderr.getvalue().strip()}")
        fields = dict(self._summary.findall(stdout.getvalue()))
        if "l2_error" not in fields:
            out.reasons.append("no solve summary on stdout")
            return [out]
        out.iterations = int(fields["iterations"])
        out.check(fields["converged"] == "True", float(fields["true_residual"]),
                  float(fields["l2_error"]), self.l2_bound)
        return [out]

    def headline_l2(self, outcomes):
        return outcomes[0].l2_error

    def working_set(self):
        n_fd = self.inputs[0]["n_fd"]
        return {**_embedding_bytes(3, n_fd),
                "symbol_slab": 16 * self.m * (2 * n_fd + 1) ** 2,
                "exact_rank_gram": 8 * self.inputs[0]["unknowns"] ** 2}


# ---------------------------------------------------------------------------

class Disk2dMultisource:
    """One discretization, many right-hand sides: a constant source plus
    seeded smooth sources, each solved with every preconditioner.  At h=0.025
    (4,681 unknowns) one pass of 12 solves takes about 2 s.  The rank check
    is asked for its heuristic path, which ``auto`` takes above 5,000
    columns, so that setup is not one dense eigensolve."""

    name = "disk2d_multisource"
    h = 0.025
    s = 0.75
    scheme = "nufft"
    m = 2 ** 11
    smooth_sources = 3
    l2_bound = 2.0e-3
    # relative distance of a preconditioned solution from the componentwise
    # median of the three
    agreement = 1e-6
    preconds = ("none", "sparse", "circulant")

    def __init__(self, seed, scratch: Path):
        self.mesh, info = rotated_ball(2, self.h, seed)
        self.inputs = [info]
        rng = np.random.default_rng(None if seed is None else seed + 1)
        self.sources = [("constant", 1.0)]
        for k in range(self.smooth_sources):
            a0, b = rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5)
            a = rng.uniform(-0.5, 0.5, size=2)
            self.sources.append((f"smooth{k}", _smooth_source(a0, a, b)))

    def setup(self):
        grid = fl.choose_grid(fl.mesh_quality(self.mesh), R_FD)
        kernel = fl.build_kernel(self.scheme, self.s, 2, grid.n_fd, self.m)
        transfer = fl.build_transfer(self.mesh, grid)
        op = fl.OverlayOperator(transfer=transfer, plan=fl.ToeplitzPlan(kernel), grid=grid,
                                s=self.s)
        if not fl.column_rank_check(transfer, "heuristic"):
            rank = RuntimeError("transfer matrix is rank deficient")
            return op, dict.fromkeys(self.preconds, rank)
        # a failed build is kept, and every op that needs it counts as failed
        preconds = {"none": None}
        for name, build in (("sparse", fl.build_sparse_preconditioner),
                            ("circulant", fl.build_circulant_preconditioner)):
            try:
                preconds[name] = build(op)
            except Exception as exc:
                preconds[name] = exc
        return op, preconds

    def run(self, state, clock: Clock) -> list[Outcome]:
        op, preconds = state
        outcomes = []
        for label, f in self.sources:
            solutions = {}
            for name in self.preconds:
                out = clock.outcome(f"{label} {name}")
                outcomes.append(out)
                precond = preconds[name]
                if isinstance(precond, Exception):
                    out.reasons.append(f"setup raised {type(precond).__name__}: {precond}")
                    continue
                try:
                    u, report, l2 = clock.call(out, self._solve, op, precond, f,
                                               label == "constant")
                except Exception as exc:
                    out.raised(exc)
                    continue
                out.iterations = report.iterations
                out.check(report.converged, report.true_residual, l2,
                          self.l2_bound if l2 is not None else None)
                solutions[name] = (out, u)
            if label != "constant":
                self._check_agreement(solutions)
        return outcomes

    def _solve(self, op, precond, f, with_error):
        b = fl.assemble_rhs(self.mesh, op.transfer, self.s, f)
        u, report = fl.cg_solve(op, b, precond, tol=TOL)
        if not with_error:
            return u, report, None
        full = np.zeros(self.mesh.n_vertices)
        full[:self.mesh.n_interior] = u
        l2 = fl.lumped_l2_error(self.mesh, full,
                                lambda x: fl.exact_solution(2, self.s, x))
        return u, report, l2

    def _check_agreement(self, solutions):
        if len(solutions) < 2:
            return
        median = np.median(np.stack([u for _, u in solutions.values()]), axis=0)
        scale = np.linalg.norm(median)
        for out, u in solutions.values():
            distance = float(np.linalg.norm(u - median) / scale)
            if not distance <= self.agreement:
                out.reasons.append(f"solution differs from the other preconditioners by "
                                   f"{distance:.3e} > {self.agreement:.0e}")

    def headline_l2(self, outcomes):
        return next(o.l2_error for o in outcomes if o.label == "constant circulant")

    def working_set(self):
        return {**_embedding_bytes(2, self.inputs[0]["n_fd"]),
                "symbol_samples": 8 * (self.m + 1) ** 2,
                "mesh_vector": 8 * self.inputs[0]["unknowns"]}


def _smooth_source(a0, a, b):
    def f(x):
        return a0 + x @ a + b * np.sum(x * x, axis=1)
    return f


WORKLOADS = {w.name: w for w in (Disk2dConvergence, Ball3dCli, Disk2dMultisource)}
