"""k-distance dominating sets of m x n grid graphs.

Construction via residue classes of the diagonal lattice code, corner
removal, exact branch-and-bound ground truth, closed-form bounds, and a
CLI (see `kdom --help`).
"""
from .bounds import cor_bound, fss_bound, new_bound
from .construction import (
    ConstructionTrace,
    base_set,
    best_residue,
    construct,
    project_inward,
    remove_corners,
)
from .errors import (
    DomainError,
    KdomError,
    SetFileError,
    VerificationError,
)
from .exact import exact_gamma, path_gamma
from .gridmodel import (
    GridDims,
    is_dominating,
    neighborhood_box,
    verify_domination,
)
from .lattice import (
    Box,
    Radius,
    VertexSet,
    phi,
)

__version__ = "0.1.0"
