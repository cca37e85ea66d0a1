"""k-distance dominating sets of m x n grid graphs.

Construction via residue classes of the diagonal lattice code, corner
removal, exact branch-and-bound ground truth, closed-form bounds, and a
CLI (see `kdom --help`).
"""
from .bounds import (
    BoundRow,
    bijm_bound,
    chang_bound,
    comparison_table,
    cor_bound,
    fss_bound,
    new_bound,
)
from .construction import (
    Corner,
    CornerCase,
    CornerContext,
    ConstructionTrace,
    base_set,
    best_residue,
    classify_corner,
    construct,
    project_inward,
    remove_corners,
)
from .errors import (
    CornerOverlapError,
    DomainError,
    GridTooSmallError,
    KdomError,
    SetFileError,
    VerificationError,
)
from .exact import ExactResult, exact_gamma, path_gamma
from .gridmodel import (
    CoverageReport,
    GridDims,
    is_dominating,
    neighborhood_box,
    verify_domination,
)
from .lattice import (
    Box,
    LatticePoint,
    Radius,
    Residue,
    VertexSet,
    inverse_image_in_box,
    phi,
)

__version__ = "0.1.0"
