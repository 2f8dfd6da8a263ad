"""Host-speed normalisation of the benchmark's end-to-end times.

On a shared host the speed of the same code drifts by 20% and more over
minutes, with every operation of a run slowing together.  A run times a fixed
reference mix of the operations fraclap spends its time in (FFTs, sparse
matrix-vector products, elementwise transcendental functions, a Python-level
loop; all single-threaded, none of it fraclap code) right before and after
each timed step, and scales the step's wall time by

    NOMINAL_S / (mean of the two reference times)

so a time reads in seconds on a host where a reference chunk takes
NOMINAL_S.  A change to fraclap cannot move the reference, so it moves a normalised time
by the same share as the wall time.  Raw wall times stay in the run record.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.fft
import scipy.sparse

# median chunk time on a 2-vCPU Intel Xeon at 2.1 GHz
NOMINAL_S = 0.012
CHUNKS = 5

_inputs = None


def _make_inputs():
    rng = np.random.default_rng(0)
    grid = rng.standard_normal((270, 270))
    matrix = scipy.sparse.random(20000, 20000, density=5e-4, format="csr", random_state=rng)
    vector = rng.standard_normal(20000)
    points = rng.uniform(0.1, 3.0, 200_000)
    return grid, matrix, vector, points


def reference_s() -> float:
    """Median wall time of one chunk of the fixed reference mix, over a few
    chunks run back to back, so that a single interrupt does not count."""
    global _inputs
    if _inputs is None:
        _inputs = _make_inputs()
        reference_s()
    grid, matrix, vector, points = _inputs
    chunks = []
    for _ in range(CHUNKS):
        t0 = time.perf_counter()
        for _ in range(3):
            scipy.fft.irfft2(scipy.fft.rfft2(grid), grid.shape)
            for _ in range(4):
                matrix @ vector
            np.exp(-points) * np.power(points, 1.5)
            sum(i * i for i in range(8000))
        chunks.append(time.perf_counter() - t0)
    return statistics.median(chunks)


class Normaliser:
    """Records steps timed between reference runs; each is normalised by the
    mean of the reference times just before and just after it."""

    def __init__(self):
        self.references = [reference_s()]
        self.wall_s = []
        self.normalised_s = []

    def add(self, wall_s: float):
        """Record a step that has just ended."""
        self.references.append(reference_s())
        speed = 0.5 * (self.references[-2] + self.references[-1])
        self.wall_s.append(wall_s)
        self.normalised_s.append(wall_s * NOMINAL_S / speed)
