"""Moment relaxations of noncommutative polynomial optimization problems.

Pipeline: model a problem over the free *-algebra (`NcPolynomial`,
`Problem`), build its order-k moment relaxation (`build`, optionally over a
clique decomposition), certify the constant trace property (`certify`,
`verify`), rescale into a standard-form SDP (`assemble`, `count_stats`),
and solve it with the conditional gradient augmented Lagrangian method
(`solve`). `gen_dense` and `gen_sparse` produce random feasible instances.
"""

from .cgal import CgalConfig, CgalError, SolveReport, min_eigpair, solve
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
from .lp import LpInstance, LpResult, solve_lp
from .relaxation import (
    Problem,
    Relaxation,
    build,
    minimal_order,
    moment_vector_from_evaluation,
    sample_equality_feasible_moments,
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
    "LpInstance",
    "LpResult",
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
    "evaluate",
    "evaluate_scalar",
    "gen_dense",
    "gen_sparse",
    "min_eigpair",
    "minimal_order",
    "moment_vector_from_evaluation",
    "read_sdp",
    "recover_moments",
    "sample_equality_feasible_moments",
    "solve",
    "solve_lp",
    "verify",
    "write_sdp",
]
