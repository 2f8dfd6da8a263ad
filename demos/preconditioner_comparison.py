"""Iteration counts of CG under the two preconditioners, per kernel scheme.

The sparse preconditioner factorizes the near-field part of the operator;
the circulant one inverts a reduced-grid surrogate in frequency space.  Both
help for the true-kernel schemes.  For the ball-surrogate kernels the
circulant can be indefinite on the lifted subspace; such runs are reported
as not converged rather than with a misleading count.

One grid, transfer and rank check serve all nine solves, and the circulant
runs share the transfer's Gram solver; each scheme builds one kernel.
"""

from fraclap import (OverlayOperator, ToeplitzPlan, build_kernel, build_transfer,
                     generate_ball_mesh, require_full_rank, select_grid, solve)

mesh = generate_ball_mesh(2, 1.0 / 30)
print(f"mesh: {mesh.n_elements} triangles; s = 0.75, tol = 1e-10\n")
grid = select_grid(mesh)
transfer = build_transfer(mesh, grid)
require_full_rank(transfer)

for scheme in ("fft", "spectral", "modspec"):
    kernel = build_kernel(scheme, 0.75, 2, grid.n_fd, 2 ** 12 if scheme != "spectral" else None)
    op = OverlayOperator(transfer=transfer, plan=ToeplitzPlan(kernel), grid=grid, s=0.75)
    counts = {}
    for precond in ("none", "sparse", "circulant"):
        try:
            u, report = solve(op, mesh, precond, max_iter=3000)
            counts[precond] = report.iterations if report.converged else "no convergence"
        except Exception as exc:
            counts[precond] = type(exc).__name__
    print(f"{scheme:<9}: " + "  ".join(f"{k}={v}" for k, v in counts.items()))
