"""Check that the benchmark counts a known-bad solve as a failed op.

    python3 bench/gate_check.py

Case: the modspec kernel at m=2^11 with s=0.75 on the unrotated h=0.0125
disk.  There the sparse preconditioner's modified incomplete Cholesky breaks
down (IncompleteCholeskyError escapes the retry), and CG with the circulant
preconditioner stops without converging, far from the closed form.  The
multisource workload's own setup and checks must record both as failed ops,
without crashing.  Exit code 0 when they do, 1 when the gate lets either
through.
"""

from __future__ import annotations

import sys

from run import OUT, cap_threads, import_fraclap


def main() -> int:
    cap_threads()
    import_fraclap()
    from workloads import Clock, Disk2dMultisource

    class ModspecDefect(Disk2dMultisource):
        h = 0.0125
        scheme = "modspec"
        m = 2 ** 11
        smooth_sources = 0
        preconds = ("sparse", "circulant")

    work = ModspecDefect(None, OUT)
    outcomes = work.run(work.setup(), Clock())
    for o in outcomes:
        status = "ok" if o.ok else "FAILED " + "; ".join(o.reasons)
        print(f"{o.label:<20} it={o.iterations:<4} l2={o.l2_error}  {status}")
    by_label = {o.label: o for o in outcomes}
    sparse, circulant = by_label["constant sparse"], by_label["constant circulant"]
    gate_holds = (not sparse.ok and any("IncompleteCholeskyError" in r for r in sparse.reasons)
                  and not circulant.ok)
    print(f"gate {'holds' if gate_holds else 'BROKEN'}: {sum(not o.ok for o in outcomes)} of "
          f"{len(outcomes)} ops counted as failed")
    return 0 if gate_holds else 1


if __name__ == "__main__":
    sys.exit(main())
