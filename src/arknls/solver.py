"""Alternating block-coordinate NMF driver.

Factors ``U`` (m x r) and ``V`` (n x r) are updated in blocks of ``k``
consecutive columns, ``k`` in {1, 2, 3}.  Per block the nonnegative
least squares subproblem has a closed form driven entirely by two cached
products: ``H`` (data matrix transposed times the coefficient factor) and
the coefficient Gram matrix ``M``.  This module assembles the block's
residual from them and hands it to :func:`arknls.nnls.solve_block`, the
one implementation of that closed form.  Before every block update the
coefficient columns are checked for (numerical) rank deficiency and, if
needed, repaired in place without changing the product ``U_i V_i^T``, so
the closed form never divides by a vanishing determinant.

One driver, ``_half_sweep``, runs both halves of a sweep for ``sweep`` and
``fit``: the second half updates ``U`` by running the identical code on a
transposed view of the data matrix (no copy) with the factor roles swapped.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Literal, Optional

import numpy as np

from .matrix import (
    DenseMatrix,
    MatrixRef,
    _fro_squared,
    at_times,
    gram,
    row_dense,
    transposed,
)
from .nnls import RANK_EPS, RankDeficiencyError, _sym_det3, solve_block
from .rng import make_rng, uniform_matrix

__all__ = [
    "FactorPair",
    "BlockWorkspace",
    "RepairPlan",
    "SolverConfig",
    "SolveTrace",
    "initialize",
    "build_workspace",
    "update_block_V",
    "repair_block",
    "sweep",
    "fit",
    "flops_per_sweep",
]

BlockObserver = Callable[[str, int], None]


@dataclass
class SolverConfig:
    """Solve parameters.

    ``rank`` is the approximation rank r.  Stopping is the union of a sweep
    budget, an optional wall-clock budget checked after each full sweep,
    and an optional threshold on the change of the relative residual
    between consecutive sweeps.
    """

    rank: int
    k: int = 3
    max_sweeps: int = 100
    time_limit: Optional[float] = None
    tol_residual_change: Optional[float] = None
    seed: int = 0
    rank_eps: float = RANK_EPS

    def validate(self) -> None:
        if self.rank < 1:
            raise ValueError("rank must be at least 1")
        if self.k not in (1, 2, 3):
            raise ValueError("block width k must be 1, 2 or 3")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be at least 1")
        if self.time_limit is not None and self.time_limit <= 0:
            raise ValueError("time_limit must be positive")
        if self.tol_residual_change is not None and self.tol_residual_change < 0:
            raise ValueError("tol_residual_change must be nonnegative")
        if self.rank_eps <= 0:
            raise ValueError("rank_eps must be positive")
        if self.rank < self.k:
            raise ValueError("rank must be at least the block width")


@dataclass
class FactorPair:
    """The two nonnegative factors plus their block partition metadata.

    ``q`` is the number of full k-column blocks; when ``k`` does not divide
    ``r`` one extra block covering the final k columns (overlapping the
    last full block) is processed per sweep.
    """

    U: DenseMatrix
    V: DenseMatrix
    r: int
    k: int
    q: int


@dataclass
class SolveTrace:
    """One record per full sweep, plus the total count of column repairs."""

    sweeps: list[int] = field(default_factory=list)
    elapsed_s: list[float] = field(default_factory=list)
    rel_residual: list[float] = field(default_factory=list)
    repair_events: int = 0

    def append(self, sweep_index: int, elapsed: float, residual: float) -> None:
        self.sweeps.append(sweep_index)
        self.elapsed_s.append(elapsed)
        self.rel_residual.append(residual)

    def records(self) -> list[tuple[int, float, float]]:
        return list(zip(self.sweeps, self.elapsed_s, self.rel_residual))

    @property
    def final_residual(self) -> float:
        if not self.rel_residual:
            raise ValueError("empty trace")
        return self.rel_residual[-1]

    def __len__(self) -> int:
        return len(self.sweeps)


@dataclass
class BlockWorkspace:
    """Per-sweep caches.

    ``H`` holds the data-times-coefficient product (one column per column
    of the coefficient factor) and ``M`` the coefficient Gram matrix; both
    stay consistent with the coefficient factor through repairs.
    """

    H: np.ndarray
    M: np.ndarray


@dataclass
class RepairPlan:
    """Outcome of the rank repair applied to one coefficient block.

    ``order`` is the local column permutation chosen by the sign cases of
    the three-column fix (identity unless exactly one mixing coefficient
    was negative) and ``columns`` the block's global column indices in that
    order.  ``scale`` is the multiplier that folded column 2 into column 1
    in the pairwise fix; ``mix1``/``mix2`` are the (normalized, hence
    nonnegative) coefficients expressing the dependent third column.
    """

    columns: tuple[int, ...]
    order: tuple[int, ...] = (0, 1, 2)
    scale: Optional[float] = None
    mix1: Optional[float] = None
    mix2: Optional[float] = None
    reset_first: bool = False
    reset_pair: bool = False
    reset_triple: bool = False

    @property
    def events(self) -> int:
        return int(self.reset_first) + int(self.reset_pair) + int(self.reset_triple)


def _block_columns(r: int, k: int) -> list[tuple[int, ...]]:
    if r < k:
        raise ValueError(f"rank {r} smaller than block width {k}")
    q, rem = divmod(r, k)
    blocks = [tuple(range(k * i, k * (i + 1))) for i in range(q)]
    if rem:
        blocks.append(tuple(range(r - k, r)))
    return blocks


def initialize(A: MatrixRef, r: int, seed: int, k: int = 3) -> FactorPair:
    """Random nonnegative factors: uniform(0, 1) entries, V drawn before U,
    then the columns of U scaled to unit 2-norm.

    The stream is PCG64 seeded with ``seed`` and matrices are filled
    column-major, so a seed pins the factors bit for bit.
    """
    m, n = A.rows, A.cols
    if not 1 <= r <= min(m, n):
        raise ValueError(f"rank {r} must lie in [1, min(m, n)] = [1, {min(m, n)}]")
    rng = make_rng(seed)
    v = uniform_matrix(rng, n, r)
    u = uniform_matrix(rng, m, r)
    norms = np.sqrt(np.sum(u * u, axis=0))
    if np.any(norms == 0.0):
        raise RuntimeError("drew an all-zero column, seed unusable")
    u /= norms
    return FactorPair(
        U=DenseMatrix._wrap(u), V=DenseMatrix._wrap(v), r=r, k=k, q=r // k
    )


def build_workspace(A: MatrixRef, factors: FactorPair) -> BlockWorkspace:
    """Fresh caches for a V-side pass: ``H = A^T U`` and ``M = U^T U``."""
    return BlockWorkspace(
        H=at_times(A, factors.U).data, M=gram(factors.U).data.copy(order="F")
    )


def _refresh_caches(A, coef, H, M, col: int, unit_row: int) -> None:
    # coef[:, col] was rebuilt as a unit vector e_{unit_row}; patch the
    # touched H column and M row/column instead of recomputing products.
    H[:, col] = row_dense(A, unit_row)
    M[:, col] = coef[unit_row, :]
    M[col, :] = coef[unit_row, :]


def _repair(A, coef, target, H, M, cols, rank_eps) -> RepairPlan:
    """Make the coefficient block full rank while preserving its product
    with the target block.  No-op on already independent columns.

    Detection runs on Gram entries only.  Column checks proceed left to
    right: a vanished leading column is rebuilt as a unit vector, a
    dependent second column is folded into the first (its target column
    absorbs ``scale`` times the second target column), and a third column
    lying in the span of the first two is folded into both with the sign
    cases deciding which column gets rebuilt.
    """
    plan = RepairPlan(columns=cols)
    k = len(cols)
    c1 = cols[0]
    scale_ref = max(M[c, c] for c in cols)
    if M[c1, c1] <= rank_eps * scale_ref:
        coef[:, c1] = 0.0
        coef[c1, c1] = 1.0
        target[:, c1] = 0.0
        _refresh_caches(A, coef, H, M, c1, c1)
        plan.reset_first = True
    if k == 1:
        return plan

    c2 = cols[1]
    m11, m22, m12 = M[c1, c1], M[c2, c2], M[c1, c2]
    if m11 * m22 - m12 * m12 <= rank_eps * m11 * m22:
        alpha = math.sqrt(m22 / m11)
        target[:, c1] += alpha * target[:, c2]
        target[:, c2] = 0.0
        coef[:, c2] = 0.0
        unit_row = c2 if coef[c1, c1] != 0.0 else c1
        coef[unit_row, c2] = 1.0
        _refresh_caches(A, coef, H, M, c2, unit_row)
        plan.scale = alpha
        plan.reset_pair = True
    if k == 2:
        return plan

    c3 = cols[2]
    m11, m22, m33 = M[c1, c1], M[c2, c2], M[c3, c3]
    m12, m13, m23 = M[c1, c2], M[c1, c3], M[c2, c3]
    if _sym_det3(m11, m22, m33, m12, m13, m23) <= rank_eps * m11 * m22 * m33:
        d12 = m11 * m22 - m12 * m12
        mix1 = (m22 * m13 - m23 * m12) / d12
        mix2 = (m11 * m23 - m12 * m13) / d12
        if mix1 >= 0.0 and mix2 >= 0.0:
            order = (0, 1, 2)
        elif mix1 < 0.0 < mix2:
            mix1, mix2 = -mix1 / mix2, 1.0 / mix2
            order = (0, 2, 1)
        elif mix2 < 0.0 < mix1:
            mix1, mix2 = -mix2 / mix1, 1.0 / mix1
            order = (1, 2, 0)
        else:
            # Both negative cannot happen for nonnegative independent
            # leading columns; refuse to guess rather than pick a case.
            raise RankDeficiencyError(
                "inconsistent mixing coefficients in block repair"
            )
        j1, j2, j3 = (cols[i] for i in order)
        target[:, j1] += mix1 * target[:, j3]
        target[:, j2] += mix2 * target[:, j3]
        target[:, j3] = 0.0
        coef[:, j3] = 0.0
        minor = coef[j1, j1] * coef[j2, j2] - coef[j2, j1] * coef[j1, j2]
        if minor != 0.0:
            unit_row = j3
        elif coef[j1, j1] + coef[j1, j2] == 0.0:
            unit_row = j1
        else:
            unit_row = j2
        coef[unit_row, j3] = 1.0
        _refresh_caches(A, coef, H, M, j3, unit_row)
        plan.order = order
        plan.mix1, plan.mix2 = mix1, mix2
        plan.reset_triple = True
    return plan


def _update_block(target, H, M, cols, rank_eps) -> None:
    """Closed-form joint update of the target columns of one block.

    The residual columns ``r_j = H[:, c_j] - target @ M[:, c_j]`` are
    formed with the current target, one column at a time, and
    :func:`solve_block` turns them into the block's new columns.
    """
    block = slice(cols[0], cols[-1] + 1)
    R = np.empty((target.shape[0], len(cols)), order="F")
    for j, c in enumerate(cols):
        np.subtract(H[:, c], target @ M[:, c], out=R[:, j])
    target[:, block] = solve_block(M[block, block], R, target[:, block], rank_eps)


def repair_block(
    factors: FactorPair,
    workspace: BlockWorkspace,
    block_index: int,
    A: MatrixRef,
    rank_eps: float = RANK_EPS,
) -> RepairPlan:
    """Repair the coefficient block ``U_i`` for a V-side pass."""
    cols = _block_columns(factors.r, factors.k)[block_index]
    return _repair(
        A, factors.U.data, factors.V.data, workspace.H, workspace.M, cols, rank_eps
    )


def update_block_V(
    A: MatrixRef,
    factors: FactorPair,
    workspace: BlockWorkspace,
    block_index: int,
    rank_eps: float = RANK_EPS,
) -> None:
    """Update the V columns of one block in place.

    Requires current caches and a full-rank coefficient block (repair
    first).  ``A`` is unused by the formulas themselves, which read only
    the caches; it is part of the signature for parity with the repair.
    """
    cols = _block_columns(factors.r, factors.k)[block_index]
    _update_block(factors.V.data, workspace.H, workspace.M, cols, rank_eps)


def _half_sweep(
    A: MatrixRef,
    factors: FactorPair,
    side: str,
    rank_eps: float,
    fro2: float,
    observer: Optional[BlockObserver],
) -> tuple[float, int]:
    """The driver behind :func:`sweep` and :func:`fit`: repair plus update
    every block of the ``side`` factor once; returns (objective, repairs).

    The objective comes from the trace identity on the maintained caches,
    clamped at zero once it is known to be finite.
    """
    if side == "V":
        data, coef, target = A, factors.U, factors.V
    elif side == "U":
        data, coef, target = transposed(A), factors.V, factors.U
    else:
        raise ValueError('direction must be "V" or "U"')
    coef_arr, target_arr = coef.data, target.data
    H = at_times(data, coef).data
    M = gram(coef).data.copy(order="F")
    repairs = 0
    for idx, cols in enumerate(_block_columns(factors.r, factors.k)):
        plan = _repair(data, coef_arr, target_arr, H, M, cols, rank_eps)
        repairs += plan.events
        _update_block(target_arr, H, M, cols, rank_eps)
        if observer is not None:
            observer(side, idx)
    cross = float(np.sum(target_arr * H))
    quad = float(np.sum((target_arr.T @ target_arr) * M))
    objective = fro2 - 2.0 * cross + quad
    if not math.isfinite(objective):
        raise FloatingPointError(
            f"numerical breakdown: objective is {objective} after the "
            f"{side} half-sweep"
        )
    return max(objective, 0.0), repairs


def sweep(
    A: MatrixRef,
    factors: FactorPair,
    direction: Literal["V", "U"] = "V",
    rank_eps: float = RANK_EPS,
    observer: Optional[BlockObserver] = None,
) -> float:
    """One half-sweep over every block of one factor.

    ``direction="V"`` updates V with U as coefficients; ``direction="U"``
    runs the identical code on the transposed view of the data matrix with
    the roles swapped.  Returns the objective ``|A - U V^T|_F^2`` after the
    pass, and raises :class:`FloatingPointError` if it is not finite.
    """
    return _half_sweep(A, factors, direction, rank_eps, _fro_squared(A), observer)[0]


def fit(
    A: MatrixRef,
    config: SolverConfig,
    observer: Optional[BlockObserver] = None,
    clock: Optional[Callable[[], float]] = None,
) -> tuple[FactorPair, SolveTrace]:
    """Run alternating V-then-U sweeps from a seeded random start.

    The trace records the relative residual once per full sweep, measured
    after the U half from the caches that half maintained.  The U half runs
    on ``transposed(A)``, a view of ``A``'s own storage.  Negative dense
    input is rejected here, as :class:`SparseMatrixCSR` rejects it, and a
    numerical breakdown (a non-finite objective) raises
    :class:`FloatingPointError`.
    """
    config.validate()
    if config.rank > min(A.rows, A.cols):
        raise ValueError("rank exceeds min(A dimensions)")
    if isinstance(A, DenseMatrix) and A.data.size and A.data.min() < 0.0:
        raise ValueError("dense matrix entries must be nonnegative")
    fro2 = _fro_squared(A)
    if fro2 == 0.0:
        raise ValueError("cannot factorize an all-zero matrix")
    fro = math.sqrt(fro2)
    factors = initialize(A, config.rank, config.seed, k=config.k)
    tick = clock if clock is not None else time.perf_counter
    trace = SolveTrace()
    started = tick()
    previous = None
    for sweep_index in range(1, config.max_sweeps + 1):
        for side in "VU":
            objective, repairs = _half_sweep(
                A, factors, side, config.rank_eps, fro2, observer
            )
            trace.repair_events += repairs
        residual = math.sqrt(objective) / fro
        trace.append(sweep_index, tick() - started, residual)
        if (
            config.tol_residual_change is not None
            and previous is not None
            and abs(previous - residual) < config.tol_residual_change
        ):
            break
        previous = residual
        if config.time_limit is not None and tick() - started >= config.time_limit:
            break
    return factors, trace


def _half_sweep_flops(m: int, n: int, r: int) -> float:
    # Cost model for one V-side half-sweep: the two cached products plus
    # per-block residual assembly, vector work and repair bookkeeping.
    return 2.0 * m * n * r + 2.0 * n * r * r + (r / 3.0) * (7.0 * n * r + 50.0 * n + 6.0 * m)


def flops_per_sweep(m: int, n: int, r: int) -> float:
    """Modeled flop count of one full sweep (V half plus mirrored U half).

    This is a cost model for scaling analysis, not a measurement; the
    leading term is ``4 m n r``.
    """
    if m < 0 or n < 0 or r < 0:
        raise ValueError("dimensions must be nonnegative")
    return _half_sweep_flops(m, n, r) + _half_sweep_flops(n, m, r)
