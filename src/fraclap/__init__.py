"""Matrix-free finite difference solution of homogeneous Dirichlet problems
of the fractional Laplacian on bounded domains.

An unstructured simplicial mesh of the domain couples to a uniform overlay
grid through sparse linear interpolation; the dense grid operator applies in
near-linear time through FFTs of its Toeplitz generator.  Four interchangeable
kernel constructions and two preconditioners (sparse near-field and circulant)
are provided, plus an experiment command line (``fraclap``).
"""

from .core import (FractionalOrder, OverlayGrid, QuadratureRule, bessel_j0,
                   bessel_j_half_order, gamma, gauss_legendre, symbol)
from .mesh import (DegenerateElementError, MeshFormatError, MeshQuality, SimplicialMesh,
                   generate_ball_mesh, load_mesh, lumped_l2_error, mesh_quality, save_mesh)
from .solver import (CirculantPreconditioner, OverlayOperator, Preconditioner, SolveReport,
                     SparsePreconditioner, assemble_rhs, build_circulant_preconditioner,
                     build_kernel, build_sparse_preconditioner, cg_solve, exact_solution,
                     solve_bvp)
from .stiffness import (SCHEMES, DecayProfile, StiffnessKernel, analytic_1d, decay_profile,
                        fft_uniform, modified_spectral, nonuniform, restrict, spectral,
                        write_decay_csv, write_kernel_csv)
from .toeplitz import ToeplitzPlan, dense_materialize, dft
from .transfer import (TransferMatrix, TransferRankWarning, apply_transfer,
                       apply_transfer_transpose, build_transfer, choose_grid,
                       column_rank_check)

__version__ = "0.1.0"
