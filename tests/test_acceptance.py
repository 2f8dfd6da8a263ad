"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines as they complete.  The expensive criteria (5-7) take a few minutes at
desk scale.
"""

import math

import numpy as np
import pytest
import scipy.fft

from fraclap.cli import impact_bound_table, impact_crossing
from fraclap.mesh import generate_ball_mesh, mesh_quality
from fraclap.solver import (assemble_rhs, build_circulant_preconditioner, build_kernel,
                            build_sparse_preconditioner, cg_solve, solve, solve_bvp,
                            OverlayOperator)
from fraclap.stiffness import (analytic_1d, decay_profile, fft_uniform, modified_spectral,
                               nonuniform, restrict, spectral)
from fraclap.toeplitz import ToeplitzPlan
from fraclap.transfer import build_transfer, capped_grid, choose_grid, column_rank_check
from fraclap.core import gauss_legendre

from conftest import ball_mesh, dense_materialize, scattered_ball, whole_grid

# reference max-norm kernel errors in one dimension (N_FD = 81)
FFT_REFERENCE = {
    (0.5, 2 ** 10): 1.050e-06, (0.75, 2 ** 10): 2.609e-08, (0.9, 2 ** 10): 1.713e-09,
    (0.5, 2 ** 14): 3.902e-09, (0.75, 2 ** 14): 2.337e-11, (0.9, 2 ** 14): 6.516e-13,
}
MODSPEC_REFERENCE = {
    (0.1, 2 ** 10): 7.550e-07, (0.25, 2 ** 10): 2.962e-07, (0.5, 2 ** 10): 1.050e-06,
    (0.75, 2 ** 10): 2.792e-06, (0.9, 2 ** 10): 4.723e-06,
    (0.1, 2 ** 14): 7.387e-08, (0.25, 2 ** 14): 2.457e-09, (0.5, 2 ** 14): 3.902e-09,
    (0.75, 2 ** 14): 1.037e-08, (0.9, 2 ** 14): 1.755e-08,
}


def report(number, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE CRITERION {number}: {status} -- {detail}")
    assert passed, f"criterion {number}: {detail}"


def test_criterion_1_kernel_accuracy_1d():
    worst = 0.0
    for (s, m), reference in FFT_REFERENCE.items():
        err = np.max(np.abs(fft_uniform(s, 1, 81, m).coeffs - analytic_1d(s, 81).coeffs))
        worst = max(worst, err / (3.0 * reference))
    for (s, m), reference in MODSPEC_REFERENCE.items():
        err = np.max(np.abs(modified_spectral(s, 1, 81, m, 64).coeffs
                            - analytic_1d(s, 81).coeffs))
        worst = max(worst, err / (3.0 * reference))
    report(1, worst <= 1.0,
           f"1D kernel max-norm errors within 3x of the reference values "
           f"(worst fraction of allowance: {worst:.3f})")


def test_criterion_2_matvec_oracle_equivalence():
    rng = np.random.default_rng(42)
    worst_small = 0.0
    for dim in (1, 2, 3):
        n_fd = 6
        m = 32
        kernels = [fft_uniform(0.5, dim, n_fd, m), nonuniform(0.5, dim, n_fd, m + 1),
                   spectral(0.5, dim, n_fd, 32), modified_spectral(0.5, dim, n_fd, m, 32)]
        for kernel in kernels:
            plan = ToeplitzPlan(kernel)
            dense = dense_materialize(kernel)
            u = rng.standard_normal(plan.grid_shape)
            got = plan.apply(u).ravel()
            ref = dense @ u.ravel()
            worst_small = max(worst_small,
                              np.max(np.abs(got - ref)) / np.max(np.abs(ref)))
    worst_16 = 0.0
    for kernel in (fft_uniform(0.5, 2, 16, 64), nonuniform(0.5, 2, 16, 65),
                   spectral(0.5, 2, 16, 64), modified_spectral(0.5, 2, 16, 64, 64)):
        plan = ToeplitzPlan(kernel)
        dense = dense_materialize(kernel)
        u = rng.standard_normal(plan.grid_shape)
        got = plan.apply(u).ravel()
        ref = dense @ u.ravel()
        worst_16 = max(worst_16, np.max(np.abs(got - ref)) / np.max(np.abs(ref)))
    report(2, worst_small <= 1e-12 and worst_16 <= 1e-11,
           f"FFT apply vs direct summation: worst rel {worst_small:.2e} (n_fd<=6, "
           f"all dims/schemes), {worst_16:.2e} (dim 2, n_fd 16)")


def test_criterion_3_spd_dense_kernels():
    smallest = np.inf
    for dim in (1, 2, 3):
        kernel = fft_uniform(0.5, dim, 4, 32)
        smallest = min(smallest, np.linalg.eigvalsh(dense_materialize(kernel))[0])
    smallest = min(smallest, np.linalg.eigvalsh(dense_materialize(analytic_1d(0.5, 4)))[0])
    report(3, smallest > 0.0,
           f"dense fft/analytic operators positive definite "
           f"(smallest eigenvalue {smallest:.3e})")


def test_criterion_4_decay_slopes():
    failures = []
    for dim, n_fd, m in [(1, 81, 2 ** 12), (2, 32, 2048), (3, 16, 512)]:
        for s in (0.25, 0.5, 0.75):
            slope = decay_profile(fft_uniform(s, dim, n_fd, m)).fitted_slope
            target = -(dim + 2 * s)
            if abs(slope - target) > 0.2:
                failures.append(f"fft d={dim} s={s}: {slope:.3f} vs {target}")
    for dim, n_fd in [(2, 48), (3, 20)]:
        for s in (0.25, 0.5, 0.75):
            slope = decay_profile(spectral(s, dim, n_fd, 64)).fitted_slope
            target = -(dim + 1) / 2
            if abs(slope - target) > 0.3:
                failures.append(f"spectral d={dim} s={s}: {slope:.3f} vs {target}")
    for s in (0.25, 0.75):
        slope = decay_profile(spectral(s, 1, 81, 64)).fitted_slope
        target = -(1 + min(1.0, 2 * s))
        if abs(slope - target) > 0.2:
            failures.append(f"spectral d=1 s={s}: {slope:.3f} vs {target}")
    report(4, not failures,
           "tail slopes match the expected decay rates" if not failures
           else "; ".join(failures))


def _convergence_levels_2d():
    ring_counts = [10, 14, 20, 28, 40, 57, 80]
    meshes = [ball_mesh(2, n_r) for n_r in ring_counts]
    # grid sizes rounded up to multiples of 6 keep the domain boundary at the
    # same grid phase on every level
    n_fds = [6 * math.ceil(math.ceil(1.2 / mesh_quality(m).a_h) / 6) for m in meshes]
    return meshes, n_fds


def test_criterion_5_convergence_orders():
    failures = []
    details = []
    meshes, n_fds = _convergence_levels_2d()
    # one transfer and one rank check per mesh serve every order and scheme
    levels = []
    for mesh, n_fd in zip(meshes, n_fds):
        grid = capped_grid(2, 1.2, n_fd)
        transfer = build_transfer(mesh, grid)
        assert column_rank_check(transfer)
        levels.append((mesh, grid, transfer))
    n_max = max(n_fds)
    for s in (0.25, 0.5, 0.75):
        kernels = {
            "fft": fft_uniform(s, 2, n_max, 2 ** 14),
            "spectral": spectral(s, 2, n_max, 64),
            "modspec": modified_spectral(s, 2, n_max, 2 ** 12, 64),
        }
        expected = min(1.0, s + 0.5)
        for name, big in kernels.items():
            errors, h_bars = [], []
            for mesh, grid, transfer in levels:
                op = OverlayOperator(transfer=transfer, grid=grid, s=s,
                                     plan=ToeplitzPlan(restrict(big, grid.n_fd)))
                u, rep = solve(op, mesh, "auto", tol=1e-10)
                assert rep.converged
                errors.append(rep.l2_error)
                h_bars.append(mesh.n_elements ** -0.5)
            order = float(np.polyfit(np.log(h_bars), np.log(errors), 1)[0])
            details.append(f"2D {name} s={s}: {order:.2f}")
            if abs(order - expected) > 0.2:
                failures.append(f"2D {name} s={s}: order {order:.3f} vs {expected}")

    # one coarse 3D refinement pair
    errors, h_bars = [], []
    for target_h in (0.28, 0.14):
        mesh = ball_mesh(3, round(1 / target_h))
        n_fd = 6 * math.ceil(math.ceil(1.2 / mesh_quality(mesh).a_h) / 6)
        u, rep = solve_bvp(mesh, 0.5, "fft", n_fd=n_fd, m=256, tol=1e-10,
                           precond="circulant")
        assert rep.converged
        errors.append(rep.l2_error)
        h_bars.append(mesh.n_elements ** (-1.0 / 3.0))
    order3 = (math.log(errors[0] / errors[1]) / math.log(h_bars[0] / h_bars[1]))
    details.append(f"3D fft s=0.5: {order3:.2f}")
    if abs(order3 - 1.0) > 0.35:
        failures.append(f"3D pair order {order3:.3f} vs 1.0")

    report(5, not failures, "observed orders: " + ", ".join(details)
           if not failures else "; ".join(failures))


def test_criterion_6_error_turnover():
    errors = []
    sweep = [8, 12, 18, 27, 40, 60, 90, 130]
    for n_fd in sweep:
        n_r = max(3, int(0.55 * n_fd))
        mesh = ball_mesh(2, n_r)
        u, rep = solve_bvp(mesh, 0.5, "fft", n_fd=n_fd, m=2 * n_fd + 2, tol=1e-10,
                           precond="circulant")
        assert rep.converged
        errors.append(rep.l2_error)
    errors = np.asarray(errors)
    arg_min = int(np.argmin(errors))
    non_monotone = bool(np.any(np.diff(errors) > 0) and np.any(np.diff(errors) < 0))
    interior = 0 < arg_min < len(errors) - 1
    report(6, non_monotone and interior,
           f"coarse-kernel error over n_fd sweep {sweep}: "
           f"{['%.3e' % e for e in errors]} (minimum at index {arg_min})")


def test_criterion_7_preconditioner_behavior():
    mesh = scattered_ball(40, 0.49)
    s, n_fd, m, tol = 0.75, 96, 2 ** 12, 1e-10
    # one transfer serves every scheme, and one kernel every preconditioner
    grid = capped_grid(2, 1.2, n_fd)
    transfer = build_transfer(mesh, grid)
    assert column_rank_check(transfer)

    def run(scheme, preconds):
        kernel = build_kernel(scheme, s, 2, n_fd, None if scheme == "spectral" else m)
        op = OverlayOperator(transfer=transfer, plan=ToeplitzPlan(kernel), grid=grid, s=s)
        counts = {}
        for precond in preconds:
            u, rep = solve(op, mesh, precond, tol=tol, max_iter=3000)
            counts[precond] = rep.iterations if rep.converged else None
        return counts

    fft_counts = run("fft", ("none", "sparse", "circulant"))
    spectral_counts = run("spectral", ("none", "sparse", "circulant"))
    modspec_counts = run("modspec", ("none", "circulant"))

    failures = []
    fn, fs, fc = fft_counts["none"], fft_counts["sparse"], fft_counts["circulant"]
    if not (fn and fs and fc and fn >= 2 * fs and fn >= 2 * fc):
        failures.append(f"fft counts {fft_counts} lack the factor-2 improvements")
    sn = spectral_counts["none"]
    for pc in ("sparse", "circulant"):
        sp = spectral_counts[pc]
        if sn is None or (sp is not None and sp < sn):
            failures.append(f"spectral {pc} improved on none: {spectral_counts}")
    mn, mc = modspec_counts["none"], modspec_counts["circulant"]
    if not (mn and mc and mn >= 2 * mc):
        failures.append(f"modspec counts {modspec_counts} lack the factor-2 improvement")

    report(7, not failures,
           f"iterations fft={fft_counts} spectral={spectral_counts} "
           f"modspec={modspec_counts}" if not failures else "; ".join(failures))


def test_criterion_8_impact_bound_crossings():
    n, bound, err1, err2 = impact_bound_table(2, 0.5, 12, 1.2)
    first = impact_crossing(n, bound, err1)
    second = impact_crossing(n, bound, err2)
    ok = (first is not None and second is not None
          and abs(first[0] - 700) <= 0.3 * 700 and abs(first[1] - 1.5e-3) <= 0.3 * 1.5e-3
          and abs(second[0] - 200) <= 0.3 * 200 and abs(second[1] - 3e-5) <= 0.3 * 3e-5)
    report(8, ok, f"crossings first={first} second={second} vs "
                  f"(700, 1.5e-3) and (200, 3e-5) within 30%")


def test_criterion_9_property_suite():
    rng = np.random.default_rng(9)
    failures = []

    # adjoint identities: transfer and assembled operator
    mesh = ball_mesh(2, 6)
    grid = choose_grid(mesh_quality(mesh), 1.2)
    transfer = build_transfer(mesh, grid)
    kernel = fft_uniform(0.5, 2, grid.n_fd, max(64, 2 * grid.n_fd + 1))
    op = OverlayOperator(transfer=transfer, plan=ToeplitzPlan(kernel), grid=grid, s=0.5)
    # the transfer on every grid node, as the dense oracle sees it
    matrix = whole_grid(transfer)
    for _ in range(5):
        u = rng.standard_normal(transfer.cols)
        v = rng.standard_normal(matrix.shape[0])
        a = (matrix @ u) @ v
        b = u @ (matrix.T @ v)
        if abs(a - b) > 1e-13 * max(1.0, abs(a)):
            failures.append("transfer adjoint identity")
        w = rng.standard_normal(transfer.cols)
        lhs = op.apply(u) @ w
        rhs = u @ op.apply(w)
        if abs(lhs - rhs) > 1e-11 * max(1.0, abs(lhs)):
            failures.append("operator adjoint identity")

    # PCG against a dense direct solve
    dense = matrix.toarray().T @ dense_materialize(kernel) @ matrix.toarray()
    rhs_vec = assemble_rhs(mesh, transfer, 0.5, 1.0)
    direct = np.linalg.solve(dense, rhs_vec)
    for precond in (None, build_sparse_preconditioner(op), build_circulant_preconditioner(op)):
        x, rep = cg_solve(op, rhs_vec, precond, tol=1e-12, max_iter=3000)
        if np.max(np.abs(x - direct)) > 1e-8 * np.max(np.abs(direct)):
            failures.append(f"PCG vs dense solve ({rep.preconditioner})")

    # partition of unity and constant preservation
    ones_grid = matrix @ np.ones(transfer.cols)
    row_sums = np.asarray(matrix.sum(axis=1)).ravel()
    covered = row_sums > 1.0 - 1e-12
    if not np.allclose(ones_grid[covered], 1.0, atol=1e-12):
        failures.append("partition of unity")
    back = (matrix.T @ np.ones(matrix.shape[0])) / transfer.column_sums
    if not np.allclose(back, 1.0, rtol=1e-13):
        failures.append("constant preservation")

    # DFT round trip
    x = rng.standard_normal((6, 7)) + 1j * rng.standard_normal((6, 7))
    if np.max(np.abs(scipy.fft.ifftn(scipy.fft.fftn(x)) - x)) > 1e-12:
        failures.append("DFT round trip")

    # quadrature exactness on mapped intervals
    nodes, weights = gauss_legendre(7)
    mid, half = 0.5 * (-1.3 + 2.7), 0.5 * (2.7 + 1.3)
    xq, wq = mid + half * nodes, half * weights
    for k in range(14):
        exact = (2.7 ** (k + 1) - (-1.3) ** (k + 1)) / (k + 1)
        if abs(wq @ xq ** k - exact) > 1e-12 * max(1.0, abs(exact)):
            failures.append(f"quadrature exactness degree {k}")

    report(9, not failures,
           "adjoints, dense-solve agreement, unity partition, DFT round trip, "
           "quadrature exactness" if not failures else "; ".join(set(failures)))
