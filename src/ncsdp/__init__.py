"""Moment relaxations of noncommutative polynomial optimization problems.

Pipeline: model a problem over the free *-algebra (`NcPolynomial`,
`Problem`), build its order-k moment relaxation (`build`, optionally over a
clique decomposition), certify the constant trace property (`certify`,
`verify`), rescale into a standard-form SDP (`assemble`, `count_stats`),
and solve it (`solve`): a spectral dual path with a certified lower bound
for small blocks, the conditional gradient augmented Lagrangian method
otherwise. `gen_dense` and `gen_sparse` produce random feasible instances.
"""

from .cgal import CgalConfig, CgalError, SolveReport, dual_bound, min_eigpair, solve
from .ctp import CtpCertificate, CtpError, ball_coeffs, certify, verify
from .free_algebra import (
    CapacityError,
    NcPolynomial,
    SymmetryMode,
    WordBasis,
    basis_size,
    canonicalize,
    evaluate,
    evaluate_scalar,
)
from .generator import gen_dense, gen_sparse
from .relaxation import (
    Problem,
    Relaxation,
    build,
    minimal_order,
    moment_vector_from_evaluation,
)
from .sparsity import CliqueAssignmentError, CliqueDecomposition, decompose
from .standard_form import CountStats, StandardSdp, assemble, count_stats, read_sdp, recover_moments, write_sdp

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "CgalConfig",
    "CgalError",
    "CliqueAssignmentError",
    "CliqueDecomposition",
    "CountStats",
    "CtpCertificate",
    "CtpError",
    "NcPolynomial",
    "Problem",
    "Relaxation",
    "SolveReport",
    "StandardSdp",
    "SymmetryMode",
    "WordBasis",
    "assemble",
    "ball_coeffs",
    "basis_size",
    "build",
    "canonicalize",
    "certify",
    "count_stats",
    "decompose",
    "dual_bound",
    "evaluate",
    "evaluate_scalar",
    "gen_dense",
    "gen_sparse",
    "min_eigpair",
    "minimal_order",
    "moment_vector_from_evaluation",
    "read_sdp",
    "recover_moments",
    "solve",
    "verify",
    "write_sdp",
]
