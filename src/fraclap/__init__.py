"""Matrix-free finite difference solution of homogeneous Dirichlet problems
of the fractional Laplacian on bounded domains.

An unstructured simplicial mesh of the domain couples to a uniform overlay
grid through sparse linear interpolation; the dense grid operator applies in
near-linear time through FFTs of its Toeplitz generator.  Four interchangeable
kernel constructions and two preconditioners (sparse near-field and circulant)
are provided, plus an experiment command line (``fraclap``).
"""

from .core import OverlayGrid, bessel_j_half_order, gamma, gauss_legendre
from .mesh import (DegenerateElementError, MeshFormatError, MeshQuality, SimplicialMesh,
                   generate_ball_mesh, load_mesh, lumped_l2_error, mesh_quality, save_mesh)
from .solver import (CirculantPreconditioner, OverlayOperator, Preconditioner, SolveReport,
                     SparsePreconditioner, assemble_rhs, build_circulant_preconditioner,
                     build_kernel, build_sparse_preconditioner, cg_solve, exact_solution,
                     setup, solve, solve_bvp)
from .stiffness import (SCHEMES, DecayProfile, StiffnessKernel, analytic_1d, decay_profile,
                        fft_corrected, fft_uniform, modified_spectral, nonuniform, restrict,
                        spectral)
from .toeplitz import ToeplitzPlan
from .transfer import TransferMatrix, build_transfer, choose_grid, column_rank_check

__version__ = "0.1.0"
