"""Alternating block-coordinate NMF driver.

Factors ``U`` (m x r) and ``V`` (n x r) are updated in blocks of up to
``k`` columns, ``k`` in ``BLOCK_WIDTHS``.  Each half regroups the columns
from the coefficient Gram matrix ``M`` (:func:`_partition`): a block is a
set of columns, the most correlated first, and the r mod k left over form
a ragged last block.  Each block's nonnegative least squares subproblem
is solved by :func:`arknls.nnls.solve_block` from two cached products:
``H``, the data matrix transposed times the coefficient factor, and
``M``.  Before the update, one rule repairs each block position in turn
where :func:`arknls.nnls.rank_deficiency`, the test the kernel raises
through, fails, without changing the product ``U_i V_i^T``.

:func:`initialize` starts V from rows of the data, and a repair rebuilds a
column at a power of two of the coefficient factor's scale, so the fit of
``2^e A`` is the fit of ``A`` with V scaled by ``2^e``, bit for bit,
wherever nothing under- or overflows.

One driver, ``_half_sweep``, runs both halves of a sweep for ``sweep`` and
``fit``; the U half runs the same code on a transposed view of the data
with the factor roles swapped.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field, fields
from typing import Callable, ClassVar, Literal, Optional

import numpy as np

from .matrix import (
    DenseMatrix,
    MatrixRef,
    _check_integers,
    _check_seed,
    _finite_fro2,
    _sparse_at_times,
    _trace_residual,
    at_times,
    gram,
    read_rows,
    transposed,
)
from .nnls import (
    _WIDTHS_TEXT,
    BLOCK_WIDTHS,
    RANK_EPS,
    fold,
    lift_work,
    rank_deficiency,
    solve_block,
)
from .rng import make_rng, uniform_matrix

__all__ = [
    "FactorPair",
    "BlockWorkspace",
    "RepairPlan",
    "REPAIR_KINDS",
    "SolverConfig",
    "SolveTrace",
    "initialize",
    "update_block_V",
    "repair_block",
    "sweep",
    "fit",
    "flops_per_sweep",
]

BlockObserver = Callable[[str, int], None]

@dataclass(slots=True)
class SolverConfig:
    """Solve parameters.

    ``rank`` is the approximation rank r.  Stopping is the union of a sweep
    budget, an optional wall-clock budget checked after each full sweep,
    and an optional threshold on the change of the relative residual
    between consecutive sweeps.  ``rank_eps`` is a constant, not a field:
    the slots leave no instance attribute to shadow it with, so assigning
    it raises :class:`AttributeError`.
    """

    rank: int
    k: int = 3
    max_sweeps: int = 100
    time_limit: Optional[float] = None
    tol_residual_change: Optional[float] = None
    seed: int = 0
    rank_eps: ClassVar[float] = RANK_EPS

    def validate(self) -> None:
        _check_integers(rank=self.rank, k=self.k, max_sweeps=self.max_sweeps)
        _check_seed(self.seed)
        if self.rank < 1:
            raise ValueError("rank must be at least 1")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be at least 1")
        _check_reals(
            time_limit=self.time_limit, tol_residual_change=self.tol_residual_change
        )
        # NaN fails no comparison, so finiteness is checked explicitly.
        if self.time_limit is not None and not (
            math.isfinite(self.time_limit) and self.time_limit > 0
        ):
            raise ValueError("time_limit must be finite and positive")
        if self.tol_residual_change is not None and not (
            math.isfinite(self.tol_residual_change) and self.tol_residual_change >= 0
        ):
            raise ValueError("tol_residual_change must be finite and nonnegative")
        _check_block_width(self.rank, self.k)


def _check_reals(**values) -> None:
    # True would pass as 1.0, and a string fails math.isfinite with a
    # TypeError that names no field.
    for name, value in values.items():
        if value is not None and (
            isinstance(value, bool) or not isinstance(value, numbers.Real)
        ):
            raise ValueError(f"{name} must be a real number, got {value!r}")


def _check_block_width(rank: int, k: int) -> None:
    if k not in BLOCK_WIDTHS:
        raise ValueError(f"block width k must be {_WIDTHS_TEXT}")
    if rank < k:
        raise ValueError("rank must be at least the block width k")


def _check_pair(factors: FactorPair) -> None:
    # A caller-built pair must match its own factors.
    r, U, V = factors.r, factors.U, factors.V
    if not U.cols == V.cols == r:
        raise ValueError(f"r = {r} but U and V have {U.cols} and {V.cols} columns")
    _check_block_width(r, factors.k)


@dataclass
class FactorPair:
    """The two nonnegative factors, their rank ``r`` and block width ``k``.

    ``q``, the number of full k-column blocks, is accepted for callers
    that build a pair by hand and read by nothing: each half-sweep chooses
    its own blocks (:func:`_partition`).
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
    ``blocks`` is a cache, not an argument: the partition
    :func:`repair_block` and :func:`update_block_V` index, which the first
    of their calls fills from ``M``, before any repair, as a half-sweep
    computes it, and which is kept for the workspace's life.
    """

    H: np.ndarray
    M: np.ndarray
    blocks: Optional[list[tuple[int, ...]]] = field(
        default=None, init=False, repr=False
    )


@dataclass
class RepairPlan:
    """Which block positions the repair fixed in one coefficient block:
    position j's flag is named ``REPAIR_KINDS[j]``."""

    reset_first: bool = False
    reset_pair: bool = False
    reset_triple: bool = False

    @property
    def events(self) -> int:
        return sum(getattr(self, kind) for kind in REPAIR_KINDS)


REPAIR_KINDS = tuple(f.name for f in fields(RepairPlan))


def _partition(M: np.ndarray, k: int) -> list[tuple[int, ...]]:
    """One half's blocks: range(r) as r // k blocks of ``k`` columns, in
    the order taken, then the r mod k columns left, each block sorted.

    Greedy on the normalized Gram ``c_ij = m_ij / (s_i s_j)``,
    ``s_i = sqrt(m_ii)``, with ``c_ij = 0`` where ``s_i s_j = 0``: a block
    starts from the free pair with the largest ``c_ij``, ties to the
    smaller ``(i, j)``, and at k = 3 adds the free column with the largest
    ``c_il + c_jl``, ties to the lower index.  Coupled columns then share
    a block and are solved jointly.  The walk stops when only the last
    block's columns are left: k of them when k divides r, which the walk
    would take whatever their scores.  A pure function of ``M``'s bits,
    and the identity at k = 1 and at r = k.
    """
    r = M.shape[0]
    if k == 1:
        return [(c,) for c in range(r)]
    whole, ragged = divmod(r, k)
    walked = whole if ragged else whole - 1
    free = [True] * r
    blocks = []
    if walked:
        s = np.sqrt(np.diagonal(M))
        # A non-finite M makes no valid partition; the rank test reports it.
        with np.errstate(over="ignore", invalid="ignore"):
            scale = np.multiply.outer(s, s)
            c = np.divide(M, scale, out=np.zeros((r, r)), where=scale > 0.0)
        # A stable sort in row-major order breaks ties by (i, j).
        first, second = np.divmod(np.argsort(-c, axis=None, kind="stable"), r)
        upper = first < second
        for i, j in zip(first[upper].tolist(), second[upper].tolist()):
            if free[i] and free[j]:
                free[i] = free[j] = False
                block = [i, j]
                if k == 3:
                    # Taken columns score -inf: c is marked in place once
                    # the sort has read it.
                    c[:, i] = c[:, j] = -np.inf
                    l = int(np.argmax(c[i] + c[j]))
                    if not free[l]:
                        # Every free score is -inf: the tie goes to the lowest.
                        l = free.index(True)
                    block.append(l)
                    free[l] = False
                    c[:, l] = -np.inf
                blocks.append(tuple(sorted(block)))
                if len(blocks) == walked:
                    break
    return blocks + [tuple(x for x in range(r) if free[x])]


def initialize(A: MatrixRef, r: int, seed: int, k: int = 3) -> FactorPair:
    """Seeded nonnegative factors: U uniform(0, 1) with unit 2-norm
    columns, and column j of V row ``rows[j]`` of ``A``.

    The stream is PCG64 seeded with ``seed``.  U is drawn first, filled
    column-major, then the r distinct rows ``rng.choice(m, r,
    replace=False)``, read by :func:`read_rows`: the "random Acol" start
    of Langville, Meyer, Albright & Cooper (2014).  So a seed pins the
    factors bit for bit, V carries the data's scale (``2^e A`` starts from
    the same U and ``2^e V``), and the dense and sparse forms of one
    matrix start alike.  An all-zero sampled row gives an all-zero column.
    """
    _check_integers(rank=r, k=k)
    _check_seed(seed)
    m, n = A.rows, A.cols
    if not 1 <= r <= min(m, n):
        raise ValueError(f"rank {r} must lie in [1, min(m, n)] = [1, {min(m, n)}]")
    _check_block_width(r, k)
    rng = make_rng(seed)
    u = uniform_matrix(rng, m, r)
    norms = np.sqrt(np.sum(u * u, axis=0))
    if np.any(norms == 0.0):
        raise RuntimeError("drew an all-zero column, seed unusable")
    u /= norms
    rows = rng.choice(m, r, replace=False).tolist()
    entries = read_rows(A, rows)
    v = np.zeros((n, r), order="F")
    for j, i in enumerate(rows):
        slots, values = entries[i]
        v[slots, j] = values
    return FactorPair(DenseMatrix._wrap(u), DenseMatrix._wrap(v), r, k, r // k)


def _rebuild(A, coef, target, H, M, rows, col: int, unit_row: int) -> None:
    """Zero ``target[:, col]``, make ``coef[:, col]`` the vector
    ``s e_{unit_row}`` and patch ``H``'s column and ``M``'s row and column
    to match, with the row of ``A`` from the gather ``rows`` or, if it
    lacks it, read alone.

    ``s`` is the power of two ``2**frexp(sqrt(max_i m_ii))[1]`` over the
    coefficient Gram ``M``, at the scale of the coefficient columns rather
    than 1.  Multiplying by it is exact, so ``H`` and ``M`` stay the
    products of the rebuilt column, and the rebuild scales with the data.
    """
    s = math.ldexp(1.0, math.frexp(math.sqrt(np.max(np.diagonal(M))))[1])
    target[:, col] = 0.0
    coef[:, col] = 0.0
    coef[unit_row, col] = s
    slots, values = rows.get(unit_row) or read_rows(A, [unit_row])[unit_row]
    H[:, col] = 0.0
    H[slots, col] = s * values
    row = s * coef[unit_row, :]
    M[:, col] = row
    M[col, :] = row


def _unit_row(coef, kept, last: int) -> int:
    # Column last's own row, unless the kept columns' minor on their rows
    # is 0: then the first kept row they leave zero, else the last one.
    rows = coef[np.ix_(kept, kept)].tolist()
    if _det(rows) != 0.0:
        return last
    return next((i for i, row in zip(kept, rows) if not any(row)), kept[-1])


def _det(rows) -> float:
    # Cofactor expansion along the first row; 1 for no rows.
    if not rows:
        return 1.0
    return sum(
        (-1) ** i * x * _det([row[:i] + row[i + 1 :] for row in rows[1:]])
        for i, x in enumerate(rows[0])
    )


def _gather(M, cols) -> np.ndarray:
    # The Gram block of the columns cols, a copy.  take on M's transpose,
    # C-ordered where M is Fortran-ordered, copies nothing else: M.take
    # would copy all of M to C order first, and an index array or np.ix_
    # allocates index buffers; both also ran slower.
    return M.T.take(cols, 1).take(cols, 0).T


def _repair(A, coef, target, H, M, cols, Mb, rows) -> RepairPlan:
    """Make the coefficient block of columns ``cols`` full rank while
    preserving its product with the target block.  No-op on already
    independent columns.

    One rule for every position j, left to right on the block's Gram
    ``Mb``, gathered by the caller: where :func:`rank_deficiency` fires,
    :func:`fold` names the column to rebuild and the nonnegative shares by
    which the kept columns' targets absorb its target, :func:`_rebuild`
    makes it the scaled unit vector :func:`_unit_row` picks, and ``Mb`` is
    gathered again in place from the ``M`` that rebuild patched.  ``rows``
    holds rows of ``A`` gathered in advance by :func:`read_rows`.
    """
    plan = RepairPlan()
    for j in range(len(cols)):
        if rank_deficiency(Mb, j):
            order, shares = fold(Mb, j)
            *kept, last = (cols[i] for i in order)
            for col, share in zip(kept, shares):
                target[:, col] += share * target[:, last]
            _rebuild(A, coef, target, H, M, rows, last, _unit_row(coef, kept, last))
            Mb[...] = _gather(M, cols)
            setattr(plan, REPAIR_KINDS[j], True)
    return plan


def _update_block(target, H, M, cols, Mb, tested, R, work) -> None:
    """Closed-form joint update of the target columns ``cols`` of one
    block, whose coefficient Gram is ``Mb``.

    The residual columns ``r_j = H[:, c_j] - target @ M[:, c_j]`` are
    formed with the current target, one column at a time, in the leading
    columns of the Fortran-ordered buffer ``R`` (a row per target row),
    and :func:`solve_block` writes the block's new values straight into
    the target's columns, with ``work`` as its scratch; both come from
    :func:`_block_scratch`, so a block allocates nothing of column length.
    ``tested`` skips the kernel's rank tests, which the repair ran on this
    ``Mb`` without a rebuild.
    """
    R = R[:, : len(cols)]
    for j, c in enumerate(cols):
        np.matmul(target, M[:, c], out=R[:, j])
        np.subtract(H[:, c], R[:, j], out=R[:, j])
    solve_block(Mb, R, [target[:, c] for c in cols], work, tested)


def _block_scratch(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    # The residual buffer and the kernel's scratch for blocks of up to k
    # n-row factor columns, allocated once and reused by every block.
    return np.empty((n, k), order="F"), lift_work(n, k)


def repair_block(
    factors: FactorPair,
    workspace: BlockWorkspace,
    block_index: int,
    A: MatrixRef,
    rank_eps: float = RANK_EPS,
) -> RepairPlan:
    """Repair the coefficient block ``U_i`` for a V-side pass, block
    ``block_index`` of ``workspace.blocks``.  ``rank_eps`` must be
    ``RANK_EPS``."""
    _check_rank_eps(rank_eps)
    _check_pair(factors)
    cols = _workspace_block(factors, workspace, block_index)
    U, V = factors.U.data, factors.V.data
    M = workspace.M
    return _repair(A, U, V, workspace.H, M, cols, _gather(M, cols), {})


def update_block_V(
    A: MatrixRef,
    factors: FactorPair,
    workspace: BlockWorkspace,
    block_index: int,
    rank_eps: float = RANK_EPS,
) -> None:
    """Update the V columns of block ``block_index`` of
    ``workspace.blocks`` in place from current caches and a full-rank
    coefficient block (repair first).  ``A`` is unread; it and
    ``rank_eps``, which must be ``RANK_EPS``, mirror :func:`repair_block`.
    """
    _check_rank_eps(rank_eps)
    _check_pair(factors)
    cols = _workspace_block(factors, workspace, block_index)
    V, M = factors.V.data, workspace.M
    R, work = _block_scratch(V.shape[0], len(cols))
    _update_block(V, workspace.H, M, cols, _gather(M, cols), False, R, work)


def _workspace_block(
    factors: FactorPair, workspace: BlockWorkspace, index: int
) -> tuple[int, ...]:
    if workspace.blocks is None:
        workspace.blocks = _partition(workspace.M, factors.k)
    return workspace.blocks[index]


def _check_rank_eps(rank_eps: float) -> None:
    if rank_eps != RANK_EPS:
        raise ValueError(f"rank_eps must be RANK_EPS = {RANK_EPS}, got {rank_eps!r}")


def _dead_columns(coef: np.ndarray, M: np.ndarray) -> list[int]:
    # An all-zero column has a zero Gram diagonal.  A diagonal can also
    # underflow to zero, so each candidate is confirmed on the column.
    zero_diag = np.flatnonzero(np.diagonal(M) == 0.0)
    return [int(c) for c in zero_diag if not coef[:, c].any()]


def _products(data: MatrixRef, coef: DenseMatrix, dead: list[int]) -> np.ndarray:
    """``H = data^T coef``, skipping the all-zero columns ``dead`` on
    sparse input, whose kernels compute every output column on its own: the
    live columns, written straight into ``H``, come out bitwise as in the
    full product, and dead ones as its exact zeros.  Dense input runs the
    full product: BLAS on a column subset changed the live columns' bits.
    """
    if isinstance(data, DenseMatrix):
        return at_times(data, coef).data
    live = np.setdiff1d(np.arange(coef.cols), dead) if dead else None
    return _sparse_at_times(data, coef.data, live)


def _half_sweep(
    A: MatrixRef,
    factors: FactorPair,
    side: str,
    fro2: float,
    observer: Optional[BlockObserver],
    M: Optional[np.ndarray] = None,
    objective: bool = True,
) -> tuple[Optional[float], int, np.ndarray]:
    """The driver behind :func:`sweep` and :func:`fit`: repair plus update
    every block of the ``side`` factor once.

    ``M`` is the coefficient factor's Gram matrix (Fortran-ordered, as
    :func:`gram` returns it) if the caller has it, else computed; it is
    updated in place.  The blocks are partitioned from it first, so that
    their r x r temporaries are gone before ``H`` is live.  All-zero
    (dead) coefficient columns are read off its diagonal: sparse input
    skips their product columns, and the rows of ``A`` their repairs read
    are gathered at once by :func:`read_rows`.  Returns the objective from
    the trace identity on the caches (:func:`_trace_residual`), or
    ``None`` unless ``objective``, the number of repairs and the updated
    factor's Gram, the next half's ``M``.  Besides the factors, ``H`` and
    r x r matrices, the pass holds only the residual buffer and kernel
    scratch, allocated once and freed before the objective.
    """
    if side == "V":
        data, coef, target = A, factors.U, factors.V
    elif side == "U":
        data, coef, target = transposed(A), factors.V, factors.U
    else:
        raise ValueError('direction must be "V" or "U"')
    coef_arr, target_arr = coef.data, target.data
    if M is None:
        M = gram(coef).data
    blocks = _partition(M, factors.k)
    dead = _dead_columns(coef_arr, M)
    H = _products(data, coef, dead)
    # A dead column is rebuilt as e_c, so its repair reads row c.
    rows = read_rows(data, dead) if dead else {}
    R, work = _block_scratch(target.rows, factors.k)
    repairs = 0
    for idx, cols in enumerate(blocks):
        Mb = _gather(M, cols)
        plan = _repair(data, coef_arr, target_arr, H, M, cols, Mb, rows)
        repairs += plan.events
        _update_block(target_arr, H, M, cols, Mb, not plan.events, R, work)
        if observer is not None:
            observer(side, idx)
    del R, work  # freed before the objective, which then sets the peak
    if not objective:
        return None, repairs, gram(target).data
    value, target_gram = _trace_residual(fro2, H, target, M)
    return value, repairs, target_gram


def sweep(
    A: MatrixRef,
    factors: FactorPair,
    direction: Literal["V", "U"] = "V",
    observer: Optional[BlockObserver] = None,
) -> float:
    """One half-sweep over every block of one factor.

    ``direction="V"`` updates V with U as coefficients; ``direction="U"``
    runs the identical code on the transposed view of the data matrix with
    the roles swapped.  Returns the objective ``|A - U V^T|_F^2`` after the
    pass.  Dense or sparse input with a NaN, infinite or negative entry
    raises :class:`ValueError`, checked on every call; so do ``factors`` whose
    ``r`` or ``k`` does not fit its own factors.  A non-finite objective
    raises :class:`FloatingPointError`.
    """
    _check_pair(factors)
    fro2 = _finite_fro2(A, nonnegative=True)
    return _half_sweep(A, factors, direction, fro2, observer)[0]


def fit(
    A: MatrixRef,
    config: SolverConfig,
    clock: Optional[Callable[[], float]] = None,
) -> tuple[FactorPair, SolveTrace]:
    """Run alternating V-then-U sweeps from the seeded start of
    :func:`initialize`.

    The trace records the relative residual once per full sweep, measured
    after the U half from the caches that half maintained.  The U half runs
    on ``transposed(A)``, a view of ``A``'s own storage.  Each half hands
    the Gram matrix of the factor it updated to the next half as that
    half's coefficient Gram; the V half computes no objective.  Dense or
    sparse input with a NaN, infinite or negative entry raises
    :class:`ValueError`: the check reads the values as they are when
    ``fit`` is called, once per call, not per half.  A
    numerical breakdown (a non-finite objective) raises
    :class:`FloatingPointError`.
    """
    config.validate()
    fro2 = _finite_fro2(A, nonnegative=True)
    if fro2 == 0.0:
        raise ValueError("cannot factorize an all-zero matrix")
    fro = math.sqrt(fro2)
    factors = initialize(A, config.rank, config.seed, k=config.k)
    tick = clock if clock is not None else time.perf_counter
    trace = SolveTrace()
    started = tick()
    previous = None
    gram_next = None
    for sweep_index in range(1, config.max_sweeps + 1):
        for side in "VU":
            objective, repairs, gram_next = _half_sweep(
                A, factors, side, fro2, None, gram_next, side == "U"
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
