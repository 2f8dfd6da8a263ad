"""Application of the dense grid operator through a circulant embedding.

The operator is multilevel Toeplitz: acting on a grid tensor u it returns
v_j = sum_m T_{j-m} u_m over the overlay grid (no spacing factor; the solver
scales the right-hand side instead).  Embedding the generator into a
circulant of length L >= 4*n_fd + 1 per axis makes the product a circular
convolution at O(N^d log N^d) cost, against O(N^{2d}) for the direct sum.
Only (2*n_fd + 1)^d of the L^d inputs are nonzero and only as many outputs
are kept, so the transforms run axis by axis over the data-carrying lines
alone: forward, the last axis first and each further axis on the lines the
previous ones filled; inverse, in the opposite order, cutting each axis back
to the grid right after its transform.

Grid vectors are plain ndarrays of shape (2*n_fd + 1,) * dim indexed from
the node k = -n_fd per axis.
"""

from __future__ import annotations

import numpy as np
import scipy.fft

from .stiffness import StiffnessKernel

__all__ = ["dft", "ToeplitzPlan", "plan", "apply", "dense_materialize"]

_DENSE_LIMIT = 20000


def dft(values, direction: str = "forward") -> np.ndarray:
    """Multi-dimensional DFT of any size per axis: unnormalized forward,
    (1/N)-normalized inverse.  Sizes with large prime factors go through the
    Bluestein fallback of the underlying mixed-radix engine, so round trips
    hold at any length."""
    a = np.asarray(values)
    if direction == "forward":
        return scipy.fft.fftn(a)
    if direction == "inverse":
        return scipy.fft.ifftn(a)
    raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")


class ToeplitzPlan:
    """Precomputed transform of the zero-extended generator, reusable for any
    number of applications to grid vectors of the matching shape."""

    def __init__(self, kernel: StiffnessKernel):
        self.kernel = kernel
        n = kernel.n_fd
        self.grid_shape = (2 * n + 1,) * kernel.dim
        # next FFT-friendly length at least 4n + 1 so no offset pair collides
        # modulo the transform size
        length = scipy.fft.next_fast_len(4 * n + 1)
        self.fft_shape = (length,) * kernel.dim
        offsets = np.arange(-2 * n, 2 * n + 1)
        place = np.mod(offsets, length)
        generator = np.zeros(self.fft_shape)
        generator[np.ix_(*([place] * kernel.dim))] = kernel.full_tensor()
        try:
            self._spectrum = scipy.fft.rfftn(generator)
        except MemoryError as exc:
            raise MemoryError(f"cannot plan transform of shape {self.fft_shape}") from exc

    def apply(self, u: np.ndarray) -> np.ndarray:
        """v = T u as the convolution with the embedded generator, transforming
        only the lines of the zero-padded input that carry data and keeping
        only the lines of the output that fall on the grid."""
        u = np.asarray(u, dtype=float)
        if u.shape != self.grid_shape:
            raise ValueError(f"grid vector has shape {u.shape}, expected {self.grid_shape}")
        length = self.fft_shape[0]
        k = self.grid_shape[0]
        axes = range(u.ndim - 1)
        spec = scipy.fft.rfft(u, n=length, axis=-1)
        for axis in reversed(axes):
            spec = scipy.fft.fft(spec, n=length, axis=axis, overwrite_x=True)
        spec *= self._spectrum
        for axis in axes:
            spec = scipy.fft.ifft(spec, axis=axis, overwrite_x=True)
            spec = spec[(slice(None),) * axis + (slice(0, k),)]
        return scipy.fft.irfft(spec, n=length, axis=-1)[..., :k].copy()


def plan(kernel: StiffnessKernel) -> ToeplitzPlan:
    """Precompute the generator transform for ``kernel``."""
    return ToeplitzPlan(kernel)


def apply(plan_: ToeplitzPlan, u: np.ndarray) -> np.ndarray:
    """v_j = sum_m T_{j-m} u_m over the grid."""
    return plan_.apply(u)


def dense_materialize(kernel: StiffnessKernel) -> np.ndarray:
    """Dense symmetric matrix A[(j),(m)] = T_{j-m} over flattened grid nodes.

    Oracle scale only: refuses more than 20000 nodes.  For the fft and
    analytic kernels the result is positive definite.
    """
    k = kernel.offsets_per_axis
    size = k ** kernel.dim
    if size > _DENSE_LIMIT:
        raise ValueError(f"dense materialization limited to {_DENSE_LIMIT} nodes, got {size}")
    ax = np.arange(k)
    offset = np.abs(np.subtract.outer(ax, ax))
    if kernel.dim == 1:
        return kernel.coeffs[offset]
    if kernel.dim == 2:
        full = kernel.coeffs[offset[:, None, :, None], offset[None, :, None, :]]
        return full.reshape(size, size)
    full = kernel.coeffs[offset[:, None, None, :, None, None],
                         offset[None, :, None, None, :, None],
                         offset[None, None, :, None, None, :]]
    return full.reshape(size, size)
