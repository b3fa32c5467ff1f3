"""Nonnegative matrix factorization by alternating rank-k nonnegative
least squares, with closed-form block updates for k in {1, 2, 3}."""

from .matrix import (
    DenseMatrix,
    MatrixRef,
    SparseMatrixCSR,
    at_times,
    frobenius_norm,
    gram,
    relative_residual,
)
from .nnls import (
    NnlsSolution,
    RankDeficiencyError,
    nnls_block,
)
from .solver import (
    BlockWorkspace,
    FactorPair,
    RepairPlan,
    SolveTrace,
    SolverConfig,
    fit,
    flops_per_sweep,
    initialize,
    repair_block,
    update_block_V,
)
from .synth import SynthSpec, gen_dense, gen_sparse
from .mmio import (
    MatrixMarketError,
    TraceRow,
    read_matrix_market,
    read_trace_csv,
    write_matrix_market,
    write_trace_csv,
)

__version__ = "0.1.0"

__all__ = [
    "DenseMatrix",
    "SparseMatrixCSR",
    "MatrixRef",
    "gram",
    "at_times",
    "relative_residual",
    "frobenius_norm",
    "NnlsSolution",
    "RankDeficiencyError",
    "nnls_block",
    "FactorPair",
    "BlockWorkspace",
    "RepairPlan",
    "SolverConfig",
    "SolveTrace",
    "initialize",
    "update_block_V",
    "repair_block",
    "fit",
    "flops_per_sweep",
    "SynthSpec",
    "gen_dense",
    "gen_sparse",
    "MatrixMarketError",
    "TraceRow",
    "read_matrix_market",
    "write_matrix_market",
    "write_trace_csv",
    "read_trace_csv",
]
