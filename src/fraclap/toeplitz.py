"""Application of the dense grid operator through a circulant embedding.

The operator is multilevel Toeplitz: acting on a grid tensor u it returns
v_j = sum_m T_{j-m} u_m over a box of b_1 x ... x b_d grid nodes (no spacing
factor; the solver scales the right-hand side instead).  The box is the whole
overlay grid, b = 2*n_fd + 1 per axis, unless the plan is given a smaller
shape; wherever the box sits on the grid, its block of the operator has the
same generator restricted to offsets |p| <= b - 1.  Embedding that generator
into a circulant of length L >= 2*b - 1 per axis makes the product a circular
convolution at O(L^d log L^d) cost, against O(b^{2d}) for the direct sum.
Only the b_1 x ... x b_d inputs of the L^d are nonzero and only as many
outputs are kept, so the transforms run axis by axis over the data-carrying
lines alone: forward, the last axis first and each further axis on the lines
the previous ones filled; inverse, in the opposite order, cutting each axis
back to the box right after its transform.

Grid vectors are plain ndarrays of the plan's shape, (2*n_fd + 1,) * dim for
the whole grid, indexed from the box's first node per axis.
"""

from __future__ import annotations

import functools
import operator

import numpy as np
import scipy.fft

from .stiffness import StiffnessKernel

__all__ = ["dft", "ToeplitzPlan", "dense_materialize"]

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
    """Transform of the zero-extended generator for grid tensors of one shape,
    reusable for any number of applications.

    ``shape`` gives the nodes per axis, each between 1 and 2*n_fd + 1; the
    default is the whole grid.  The generator's transform is built on the
    first apply and kept, so a plan that is never applied costs nothing.
    """

    def __init__(self, kernel: StiffnessKernel, shape=None):
        self.kernel = kernel
        full = kernel.offsets_per_axis
        try:
            shape = (full,) * kernel.dim if shape is None else tuple(map(operator.index, shape))
        except TypeError:
            raise ValueError(f"plan shape {shape!r} is not a sequence of integers") from None
        if len(shape) != kernel.dim or not all(1 <= b <= full for b in shape):
            raise ValueError(f"plan shape {shape} must have {kernel.dim} axes of 1 to "
                             f"{full} nodes")
        self.grid_shape = shape
        # next FFT-friendly length at least 2b - 1 so no offset pair collides
        # modulo the transform size
        self.fft_shape = tuple(scipy.fft.next_fast_len(2 * b - 1) for b in shape)

    @functools.cached_property
    def _spectrum(self) -> np.ndarray:
        offsets = [np.arange(1 - b, b) for b in self.grid_shape]
        place = [np.mod(o, length) for o, length in zip(offsets, self.fft_shape)]
        generator = np.zeros(self.fft_shape)
        generator[np.ix_(*place)] = self.kernel.coeffs[np.ix_(*[np.abs(o) for o in offsets])]
        try:
            return scipy.fft.rfftn(generator)
        except MemoryError as exc:
            raise MemoryError(f"cannot plan transform of shape {self.fft_shape}") from exc

    def apply(self, u: np.ndarray) -> np.ndarray:
        """v = T u as the convolution with the embedded generator, transforming
        only the lines of the zero-padded input that carry data and keeping
        only the lines of the output that fall on the grid."""
        u = np.asarray(u, dtype=float)
        if u.shape != self.grid_shape:
            raise ValueError(f"grid vector has shape {u.shape}, expected {self.grid_shape}")
        lengths, sizes = self.fft_shape, self.grid_shape
        axes = range(u.ndim - 1)
        spec = scipy.fft.rfft(u, n=lengths[-1], axis=-1)
        for axis in reversed(axes):
            spec = scipy.fft.fft(spec, n=lengths[axis], axis=axis, overwrite_x=True)
        spec *= self._spectrum
        for axis in axes:
            spec = scipy.fft.ifft(spec, axis=axis, overwrite_x=True)
            spec = spec[(slice(None),) * axis + (slice(0, sizes[axis]),)]
        return scipy.fft.irfft(spec, n=lengths[-1], axis=-1)[..., :sizes[-1]].copy()


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
