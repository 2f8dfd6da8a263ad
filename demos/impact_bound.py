"""Why kernel accuracy matters: the error amplification bound.

An entrywise kernel error of 10^-delta is amplified by the dense operator to
roughly (2N+1)^d N^{2s} 10^-delta / r^{2s} in the worst case.  The bound
grows with N while the discretization error shrinks, so the total error
turns upward once the grid is refined past the crossing point.
"""

from fraclap.cli import impact_bound_table, impact_crossing

for delta in (9, 12):
    for dim in (2, 3):
        n, bound, err1, err2 = impact_bound_table(dim, 0.5, delta, 1.2)
        first = impact_crossing(n, bound, err1)
        second = impact_crossing(n, bound, err2)
        print(f"d={dim} delta={delta}:")
        if first:
            print(f"  first-order crossing  N_FD ~ {first[0]:7.1f}, error ~ {first[1]:.2e}")
        if second:
            print(f"  second-order crossing N_FD ~ {second[0]:7.1f}, error ~ {second[1]:.2e}")
