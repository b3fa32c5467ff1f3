"""Closed-form nonnegative least squares for narrow column blocks.

``solve_block`` is the one implementation of the closed form.  For a
full column rank coefficient block it solves ``min |G y - b|`` subject to
``y >= 0`` for every row of a batch at once, in terms of the Gram matrix,
the current values and their residual, by one rule: a single column is
the clamped update ``[v + r/m]_+``, and k columns lift a solve of their
first k - 1, resolving the last column first.  The clamps are order
dependent, so this evaluation order is part of the contract, not an
implementation detail.  The solver's block updates call it on whole factor
columns, and ``nnls_block`` on a single row.  ``rank_deficiency`` is
the one rank test: ``solve_block`` raises through it, and the solver's
repair decides with it and folds a dependent column by ``fold``; both
read the block's normalized Gram.  The package holds no second solver:
the kernel's references, an exhaustive active-set oracle and the lift
written as explicit projections of ``G``, live with the tests, in
``tests/reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, sqrt
from typing import Optional

import numpy as np

from .matrix import DenseMatrix, gram

__all__ = [
    "NnlsSolution",
    "RankDeficiencyError",
    "nnls_block",
    "BLOCK_WIDTHS",
    "RANK_EPS",
]

# The block widths k the closed form accepts: its rank test knows the
# first three column positions of a block.
BLOCK_WIDTHS = (1, 2, 3)
_WIDTHS_TEXT = ", ".join(map(str, BLOCK_WIDTHS[:-1])) + f" or {BLOCK_WIDTHS[-1]}"

# Relative cutoff deciding when a Gram determinant counts as zero.
RANK_EPS = 1e-12

# fold's zero share: 8 units of rounding.
_MIX_ZERO = 8.0 * 2.0**-52


class RankDeficiencyError(ValueError):
    """Coefficient columns are (numerically) linearly dependent."""


@dataclass
class NnlsSolution:
    """Nonnegative solution vector plus its worst KKT violation.

    ``kkt_residual`` is the max over coordinates of ``|g_j|`` where the
    entry is positive and ``max(0, -g_j)`` where it is zero, with
    ``g = G^T (G y - b)``.  It is diagnostic only.
    """

    y: np.ndarray
    kkt_residual: float


def _kkt_residual(G: np.ndarray, b: np.ndarray, y: np.ndarray) -> float:
    grad = G.T @ (G @ y - b)
    viol = np.where(y > 0.0, np.abs(grad), np.maximum(0.0, -grad))
    return float(viol.max()) if viol.size else 0.0


def _normalized(M, j: int):
    # (c12,) or (c12, c13, c23): c_il = m_il / (s_i s_l), s_i = sqrt(m_ii),
    # over the leading j + 1 Gram rows M, as floats, or None where an s_i
    # is 0.  A finite s_i is below 1.4e154, so no s_i s_l overflows.
    s1, s2 = sqrt(M[0][0]), sqrt(M[1][1])
    s3 = sqrt(M[2][2]) if j == 2 else 1.0
    if not isfinite(s1 + s2 + s3):
        raise FloatingPointError("numerical breakdown: a column norm is not finite")
    if not (s1 and s2 and s3):
        return None
    c12 = M[0][1] / (s1 * s2)
    return (c12,) if j == 1 else (c12, M[0][2] / (s1 * s3), M[1][2] / (s2 * s3))


def rank_deficiency(Mb, j: int) -> Optional[str]:
    """The one rank test: why column ``j`` (0-based, below the widest of
    ``BLOCK_WIDTHS``) of a coefficient block with Gram matrix ``Mb`` is
    numerically dependent on the columns before it, or ``None`` if not.

    No decision depends on the scale of ``Mb``: ``|u1|^2`` is tested
    against ``RANK_EPS`` times the largest squared norm, and later columns
    by the leading determinant of the normalized Gram, ``1 - c12^2`` or
    ``1 - c12^2 - c13^2 - c23^2 + 2 c12 c13 c23`` with
    ``c_il = m_il / (|u_i| |u_l|)``, against ``RANK_EPS``.  A zero norm
    counts as dependent.  An infinite or NaN ``m_il`` raises
    :class:`FloatingPointError` at position ``max(i, l)``, the first to read
    it as a norm or a normalized entry.
    """
    if j + 1 not in BLOCK_WIDTHS:
        raise ValueError(f"column position j = {j} outside a block of {_WIDTHS_TEXT}")
    M = Mb.tolist()
    if j:
        c = _normalized(M, j)
        if c is None:
            value = 0.0
        elif j == 1:
            value = 1.0 - c[0] * c[0]
        else:
            c12, c13, c23 = c
            value = 1.0 - c12 * c12 - c13 * c13 - c23 * c23 + 2.0 * c12 * c13 * c23
        floor = RANK_EPS
    else:
        value, floor = M[0][0], RANK_EPS * max([row[i] for i, row in enumerate(M)])
    if value > floor:  # NaN fails this, and value is +inf only where floor is
        return None
    label = ("|u1|^2", "1 - c12^2", "det C")[j]
    if not (isfinite(value) and isfinite(floor)):
        raise FloatingPointError(f"numerical breakdown: {label} = {value} vs {floor}")
    return (
        f"{label} = {value:.3e} at or below its rank threshold; "
        "the coefficient columns are (numerically) linearly dependent"
    )


def fold(Mb, j: int) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """``(order, shares)`` for a block whose column ``j`` alone fails the
    rank test: ``u_l = sum_i shares_i u_{order_i}``, every share
    nonnegative, with ``l = order[-1]`` the column to rebuild.

    The shares of ``u_j/|u_j| = sum_i nu_i u_i/|u_i|`` over the columns
    before it solve their normalized Gram against their ``c_ij``: none at
    j = 0, ``nu = c12`` at j = 1, a 2 x 2 solve at j = 2.  Then
    ``a_i = nu_i |u_j|/|u_i|``, all 0 if a norm is 0, and a share within
    ``_MIX_ZERO`` of 0 is 0, so a last-bit change cannot flip its sign.
    One negative share puts column ``j`` among the kept and rebuilds the
    column of the one positive share instead.
    """
    M = Mb.tolist()
    c = _normalized(M, j) if j else None
    if c is None:
        return tuple(range(j + 1)), (0.0,) * j
    if j == 1:
        nu, a = c, [c[0] * sqrt(M[1][1] / M[0][0])]
    else:
        c12, c13, c23 = c
        d12 = 1.0 - c12 * c12
        nu = ((c13 - c12 * c23) / d12, (c23 - c12 * c13) / d12)
        a = [x * sqrt(M[2][2]) / sqrt(M[i][i]) for i, x in enumerate(nu)]
    a = [0.0 if abs(x) <= _MIX_ZERO else y for x, y in zip(nu, a)]
    if all(x >= 0.0 for x in a):
        return tuple(range(j + 1)), tuple(a)
    positive = [i for i, x in enumerate(a) if x > 0.0]
    if len(positive) != 1:
        # Impossible for nonnegative independent columns before column j.
        raise RankDeficiencyError("inconsistent mixing coefficients in block repair")
    p = positive[0]
    kept = [i for i in range(j) if i != p]
    return (*kept, j, p), (*(-a[i] / a[p] for i in kept), 1.0 / a[p])


def solve_block(Mb, R, V, work=None, tested=False) -> None:
    """Closed-form joint NNLS update of k columns, k in ``BLOCK_WIDTHS``,
    row by row, written into ``V``.

    ``Mb`` is the k x k Gram matrix of the coefficient columns, ``V`` the
    current values, an n x k array or a sequence of k length-n column
    views (the solver passes its factor's own columns, in any order), and
    ``R = rhs - V Mb`` their residual, an n x k array; each row of the
    result solves its own rank-k problem, elementwise over the rows, by
    the lift in :func:`_lift`.  ``R`` is only read.  ``work`` is scratch
    from :func:`lift_work` for n rows and at least k columns; a caller
    that solves many blocks passes one and allocates nothing per block.
    Raises :class:`RankDeficiencyError`, with ``V`` untouched, where
    :func:`rank_deficiency` fails; ``tested=True`` says the caller ran it
    at every position of this ``Mb`` and none failed, and skips it.
    """
    k = Mb.shape[0]
    for j in range(k) if not tested else ():
        failed = rank_deficiency(Mb, j)
        if failed is not None:
            raise RankDeficiencyError(failed)
    if work is None:
        work = lift_work(R.shape[0], k)
    _lift(Mb.tolist(), R.T, V.T if isinstance(V, np.ndarray) else V, work)


def lift_work(n: int, k: int) -> np.ndarray:
    """Scratch for :func:`solve_block` on n rows and up to k columns: the
    lift holds 2^k - 1 vectors of length n at once."""
    return np.empty(((1 << k) - 1, n))


def _lift(M, R, V, free) -> None:
    # The rank-(k-1) -> k lift in Gram/residual form.  M holds
    # Gram rows as floats (its leading block is read); R and V are sequences
    # of residual and value columns, and free holds 2^k - 1 spare vectors
    # of their length.  With l the last column:
    #   1. solve the head with column l projected out: on the Schur complement
    #      m_ij - (m_il/m_ll) m_jl and the residual r_i - (m_il/m_ll) r_l;
    #   2. update column l against the residual that head solution leaves;
    #   3. solve the head in place against the residual the new column leaves.
    # Every step writes into V or free, never into R.
    l = len(V) - 1
    m = M[l][l]
    if l == 0:
        # [v + r/m]_+
        step = free[0]
        np.divide(R[0], m, out=step)
        np.add(V[0], step, out=step)
        np.maximum(step, 0.0, out=V[0])
        return
    head = range(l)
    ratio = [M[i][l] / m for i in head]
    shifted, projected, rest = free[:l], free[l : 2 * l], free[2 * l :]
    for i in head:
        np.copyto(shifted[i], V[i])
        np.multiply(ratio[i], R[l], out=projected[i])
        np.subtract(R[i], projected[i], out=projected[i])
    schur = [[M[i][j] - ratio[i] * M[j][l] for j in head] for i in head]
    _lift(schur, projected, shifted, rest)
    # r = r_l - sum_i m_il (shifted_i - v_i), summed left to right.
    r, prev = projected[0], R[l]
    for i in head:
        delta = shifted[i]
        np.subtract(delta, V[i], out=delta)
        np.multiply(M[i][l], delta, out=delta)
        np.subtract(prev, delta, out=r)
        prev = r
    step = shifted[0]
    np.copyto(step, V[l])
    _lift([[m]], [r], V[l:], rest)
    np.subtract(V[l], step, out=step)
    for i in head:
        np.multiply(M[i][l], step, out=projected[i])
        np.subtract(R[i], projected[i], out=projected[i])
    _lift(M, projected, V[:l], rest)


def nnls_block(G, b) -> NnlsSolution:
    """``min |G y - b|`` subject to ``y >= 0`` through the solver's kernel,
    :func:`solve_block`, with right-hand side ``G^T b`` and start 0.

    ``G`` is m x k with k in ``BLOCK_WIDTHS``, or a vector for k = 1.  One
    column is ``y = [g.b]_+ / |g|^2``.  Two, with Gram entries
    ``n1 = |g1|^2``, ``n2 = |g2|^2`` and ``c = g2.g1``, are one lift of it::

        s  = [ (b.g1 - (c/n2) b.g2) / (n1 - (c/n2) c) ]_+
        y2 = [ (b.g2 - c s) / n2 ]_+
        y1 = [ (b.g1 - c y2) / n1 ]_+

    and three lift that once more: y3 is resolved first from the projected
    two-column solve, then y2 and y1.  Dependent columns raise
    :class:`RankDeficiencyError`.
    """
    G = np.asarray(G, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if G.ndim == 1:
        G = G[:, None]
    if G.ndim != 2 or G.shape[1] not in BLOCK_WIDTHS or b.shape != (G.shape[0],):
        raise ValueError(f"G must be m x k with k {_WIDTHS_TEXT}, and b of length m")
    # A Fortran copy keeps the Gram's bits whatever G's memory order.
    Mb = gram(DenseMatrix(np.asfortranarray(G))).data
    t = G.T @ b
    y = np.zeros((1, G.shape[1]))
    solve_block(Mb, t[None, :], y)
    return NnlsSolution(y=y[0], kkt_residual=_kkt_residual(G, b, y[0]))
