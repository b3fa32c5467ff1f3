"""The benchmark's three workloads and their seeded input preparation.

Everything here runs before any timing.  A run's inputs are a pure
function of the run seed: the synthetic generator draws them, and for the
Matrix Market workloads each is written to a file that the timed loop then
reads, as a user holding that file would.

Each workload also fixes its convergence target.  The target is not an
absolute residual but ``target_ratio`` times the relative residual of the
best rank-r approximation of the same input (truncated SVD, Eckart-Young).
That reference depends only on the input, never on the solver, and it
removes the seed-to-seed shift of the residual level, which otherwise
moves the sweep at which a fixed number is crossed by tens of percent.
``target_ratio`` is chosen so that the seed code reaches the target at about
two thirds of the sweep budget on every seed tried (see README.md).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.linalg import svds

import arknls as ak


@dataclass(frozen=True)
class Workload:
    """One seeded input recipe plus the fit settings the benchmark runs on it.

    ``keep`` is the sparse generator's keep probability (0 means dense).
    ``inputs`` is how many matrices a run draws from its seed; its fits
    cycle through them, so a run's medians average over inputs too.
    ``source`` is the form the user holds the input in: ``"ndarray"`` (an
    in-memory C-ordered array, loaded with ``DenseMatrix``) or ``"mtx"`` (a
    Matrix Market file, loaded with ``read_matrix_market``).
    """

    name: str
    m: int
    n: int
    true_rank: int
    noise: float
    keep: float
    source: str
    rank: int
    k: int
    budget: int
    target_ratio: float
    inputs: int

    def config(self, seed: int) -> ak.SolverConfig:
        return ak.SolverConfig(rank=self.rank, k=self.k, max_sweeps=self.budget, seed=seed)


WORKLOADS = {
    w.name: w
    for w in (
        # Dense BLAS products dominate a sweep; set-up is the Fortran copy
        # in DenseMatrix plus fit's transposed copy.  No repairs, no mmio.
        Workload("dense-2k", 2000, 2000, 30, 0.03, 0.0, "ndarray", 30, 2, 30, 1.0664, 1),
        # The numpy sparse at_times dominates a sweep and mmio parsing
        # dominates set-up.  10000 x 5000 rather than 20000 x 10000 because
        # gen_sparse holds three dense m x n arrays (about 1.2 GB here,
        # 4.8 GB at the larger shape).
        Workload("sparse-mtx", 10000, 5000, 20, 0.0, 0.01, "mtx", 20, 1, 3, 1.00395, 1),
        # Rank 6x the data's rank: the block pass and all three repair
        # kinds dominate; products are small.  Reads the mmio array path.
        # How fast a fit reaches the target differs by about 5% between
        # inputs, so a run draws eight.  Not listed in BENCHMARK.json: its
        # times swung with the machine's load too much (see README.md).
        Workload("small-overrank", 300, 200, 5, 0.01, 0.0, "mtx", 30, 3, 90, 1.0700, 8),
    )
}


def init_seed(run_seed: int, case: int) -> int:
    """Solver seed of a run's ``case``-th case.

    Cases start from different points so that a run's medians average over
    initializations, not only over timing noise.
    """
    return run_seed * 1000 + case


@dataclass
class Prepared:
    """One input drawn for a run, ready to be loaded and fitted."""

    workload: Workload
    seed: int
    array: Optional[np.ndarray]
    path: Optional[Path]
    reference: float
    gen_s: float
    file_bytes: int
    nnz: int

    @property
    def density(self) -> float:
        return self.nnz / (self.workload.m * self.workload.n)

    @property
    def target(self) -> float:
        return self.workload.target_ratio * self.reference

    def load(self) -> ak.MatrixRef:
        """The user's load step: parse the file or wrap the array."""
        if self.path is not None:
            return ak.read_matrix_market(self.path)
        return ak.DenseMatrix(self.array)

    def cleanup(self) -> None:
        if self.path is not None:
            self.path.unlink(missing_ok=True)


def best_rank_residual(A: ak.MatrixRef, r: int) -> float:
    """Relative residual of the best rank-``r`` approximation of ``A``.

    ARPACK runs from a fixed start vector, so the value is a deterministic
    function of the input.
    """
    if isinstance(A, ak.DenseMatrix):
        mat = A.data
        fro2 = float(np.sum(mat * mat))
    else:
        mat = csr_array((A.values, A.col_indices, A.row_offsets), shape=A.shape)
        fro2 = float(np.dot(A.values, A.values))
    start = np.ones(min(A.shape))
    sigma = svds(mat, k=r, v0=start, return_singular_vectors=False)
    return float(np.sqrt(max(fro2 - float(np.sum(sigma * sigma)), 0.0) / fro2))


def prepare(workload: Workload, seed: int, workdir: Path) -> list[Prepared]:
    """Draw the run's inputs from ``seed`` and put them in the user's form."""
    return [
        _prepare_one(workload, seed * workload.inputs + i, workdir)
        for i in range(workload.inputs)
    ]


def _prepare_one(workload: Workload, seed: int, workdir: Path) -> Prepared:
    spec = ak.SynthSpec(
        m=workload.m,
        n=workload.n,
        true_rank=workload.true_rank,
        noise_std=workload.noise,
        sparsity=workload.keep,
        seed=seed,
    )
    started = time.perf_counter()
    A = ak.gen_sparse(spec) if workload.keep else ak.gen_dense(spec)
    gen_s = time.perf_counter() - started
    nnz = A.nnz if isinstance(A, ak.SparseMatrixCSR) else int(np.count_nonzero(A.data))
    reference = best_rank_residual(A, workload.rank)
    if workload.source == "ndarray":
        return Prepared(
            workload, seed, np.ascontiguousarray(A.data), None, reference, gen_s, 0, nnz
        )
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / f"{workload.name}-{seed}.mtx"
    ak.write_matrix_market(A, path)
    return Prepared(
        workload, seed, None, path, reference, gen_s, path.stat().st_size, nnz
    )
