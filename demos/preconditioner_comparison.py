"""Iteration counts of CG under the two preconditioners, per kernel scheme.

The sparse preconditioner factorizes the near-field part of the operator;
the circulant one inverts a reduced-grid surrogate in frequency space.  Both
help for the true-kernel schemes.  For the ball-surrogate kernels the
circulant can be indefinite on the lifted subspace, and the sparse factor
can break down; such runs print the report's stop_reason rather than a
misleading count.

Each scheme runs setup once (grid, kernel, transfer and rank check) and its
three solves share that operator; the circulant run builds the transfer's
Gram solver.
"""

from fraclap import generate_ball_mesh, setup, solve

mesh = generate_ball_mesh(2, 1.0 / 30)
print(f"mesh: {mesh.n_elements} triangles; s = 0.75, tol = 1e-10\n")

for scheme in ("fft", "spectral", "modspec"):
    op, _ = setup(mesh, 0.75, scheme, m=2 ** 12 if scheme != "spectral" else None)
    counts = {}
    for precond in ("none", "sparse", "circulant"):
        u, report = solve(op, mesh, precond, max_iter=3000)
        counts[precond] = report.iterations if report.converged else report.stop_reason
    print(f"{scheme:<9}: " + "  ".join(f"{k}={v}" for k, v in counts.items()))
