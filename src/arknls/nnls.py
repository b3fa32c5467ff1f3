"""Closed-form nonnegative least squares for 1, 2 and 3 columns.

``solve_block`` is the one implementation of the closed form.  For a
full column rank coefficient block it solves ``min |G y - b|`` subject to
``y >= 0`` for every row of a batch at once, written with nested
nonnegative clamps ``[x]_+ = max(x, 0)`` in terms of the Gram matrix, the
current values and their residual.  The clamps are order dependent: the
last unknown is resolved first and feeds the earlier ones, so the
evaluation order is part of the contract, not an implementation detail.
The solver's block updates call it on whole factor columns, and
``nnls_rank1/2/3`` call it on a single row.

``nnls_recursive`` lifts any rank-k solver to rank k+1 by projecting the
problem off the final column, and ``nnls_oracle`` is a deliberately slow
exhaustive active-set check; both are independent of ``solve_block`` and
serve as its references.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .matrix import DenseMatrix, gram

__all__ = [
    "NnlsSolution",
    "RankDeficiencyError",
    "nnls_rank1",
    "nnls_rank2",
    "nnls_rank3",
    "nnls_recursive",
    "nnls_oracle",
    "RANK_EPS",
]

# Relative cutoff deciding when a Gram determinant counts as zero.
RANK_EPS = 1e-12


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


def _guard(label: str, value: float, floor: float) -> None:
    if value <= floor:
        raise RankDeficiencyError(
            f"{label} = {value:.3e} at or below its rank threshold; "
            "the coefficient columns are (numerically) linearly dependent"
        )


def _sym_det3(m11, m22, m33, m12, m13, m23) -> float:
    return (
        m11 * (m22 * m33 - m23 * m23)
        - m12 * (m12 * m33 - m23 * m13)
        + m13 * (m12 * m23 - m22 * m13)
    )


def solve_block(Mb, R, V, rank_eps: float = RANK_EPS) -> np.ndarray:
    """Closed-form joint NNLS update of k = 1, 2 or 3 columns, row by row.

    ``Mb`` is the k x k Gram matrix of the coefficient columns, ``V`` the
    current n x k values and ``R = rhs - V Mb`` their residual; each row
    of the result solves its own rank-k problem.  Everything is
    elementwise over the rows.  For k = 3 the solve order is column 3,
    then 2, then 1; the intermediate vectors p, p~ and z carry the nested
    clamps.  Raises :class:`RankDeficiencyError` when a determinant or
    norm is at or below its rank threshold.
    """
    k = Mb.shape[0]
    m11 = Mb[0, 0]
    _guard("|u1|^2", m11, rank_eps * max(Mb[j, j] for j in range(k)))
    r1, v1 = R[:, 0], V[:, 0]
    if k == 1:
        return np.maximum(v1 + r1 / m11, 0.0)[:, None]

    m22, m12 = Mb[1, 1], Mb[0, 1]
    d12 = m11 * m22 - m12 * m12
    _guard("|u2|^2", m22, 0.0)
    _guard("d12", d12, rank_eps * m11 * m22)
    r2, v2 = R[:, 1], V[:, 1]
    if k == 2:
        w = np.maximum(v1 + (m22 * r1 - m12 * r2) / d12, 0.0)
        v2_new = np.maximum(v2 + r2 / m22 + (m12 / m22) * (v1 - w), 0.0)
        v1_new = np.maximum(v1 + r1 / m11 + (m12 / m11) * (v2 - v2_new), 0.0)
        return np.array((v1_new, v2_new)).T

    m33, m13, m23 = Mb[2, 2], Mb[0, 2], Mb[1, 2]
    det = _sym_det3(m11, m22, m33, m12, m13, m23)
    d13 = m11 * m33 - m13 * m13
    d23 = m22 * m33 - m23 * m23
    _guard("|u3|^2", m33, 0.0)
    _guard("d13", d13, 0.0)
    _guard("d23", d23, 0.0)
    _guard("det(Ui^T Ui)", det, rank_eps * m11 * m22 * m33)
    a = m12 * m33 - m23 * m13
    b = m13 * m22 - m23 * m12
    r3, v3 = R[:, 2], V[:, 2]

    inner = np.maximum((d23 * r1 - a * r2 - b * r3) / det + v1, 0.0)
    p = np.maximum(v2 + (m33 * r2 - m23 * r3) / d23 + (a / d23) * (v1 - inner), 0.0)
    p_tilde = np.maximum(v1 + (m33 * r1 - m13 * r3) / d13 + (a / d13) * (v2 - p), 0.0)
    v3_new = np.maximum(
        v3 + r3 / m33 + (m13 / m33) * (v1 - p_tilde) + (m23 / m33) * (v2 - p), 0.0
    )
    z = np.maximum(v1 + (m22 * r1 - m12 * r2) / d12 + (b / d12) * (v3 - v3_new), 0.0)
    v2_new = np.maximum(
        v2 + r2 / m22 + (m12 / m22) * (v1 - z) + (m23 / m22) * (v3 - v3_new), 0.0
    )
    v1_new = np.maximum(
        v1 + r1 / m11 + (m12 / m11) * (v2 - v2_new) + (m13 / m11) * (v3 - v3_new), 0.0
    )
    return np.array((v1_new, v2_new, v3_new)).T


def _closed_form(G, b, k: int) -> NnlsSolution:
    # One right-hand side through the solver's kernel: rhs G^T b, start 0.
    G = np.asarray(G, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if G.ndim != 2 or G.shape[1] != k or b.shape != (G.shape[0],):
        raise ValueError(f"G must be m x {k} and b of length m")
    Mb = gram(DenseMatrix._wrap(G)).data
    t = G.T @ b
    y = solve_block(Mb, t[None, :], np.zeros((1, k)))[0]
    return NnlsSolution(y=y, kkt_residual=_kkt_residual(G, b, y))


def nnls_rank1(g, b) -> NnlsSolution:
    """Single-column case: ``y = [g.b]_+ / |g|^2``.

    ``g`` may be a vector or an m x 1 matrix.
    """
    g = np.asarray(g, dtype=np.float64)
    return _closed_form(g[:, None] if g.ndim == 1 else g, b, 1)


def nnls_rank2(G, b) -> NnlsSolution:
    """Two-column case.

    With Gram entries ``n1 = |g1|^2``, ``n2 = |g2|^2``, ``c = g2.g1`` and
    ``d12 = n1 n2 - c^2``::

        y2 = [ b.g2 - c [ (n2 b.g1 - b.g2 c) / d12 ]_+ ]_+ / n2
        y1 = [ b.g1 - c y2 ]_+ / n1
    """
    return _closed_form(G, b, 2)


def nnls_rank3(G, b) -> NnlsSolution:
    """Three-column case, resolved in the order y3, y2, y1 as in
    :func:`solve_block`."""
    return _closed_form(G, b, 3)


def nnls_recursive(
    G, b, base_solver: Callable[[np.ndarray, np.ndarray], NnlsSolution]
) -> NnlsSolution:
    """Rank-(k+1) solution built from two calls to a rank-k solver.

    Split ``G = [Gk | g]`` on its last column.  The last unknown is::

        y_last = [ g . (b - Gk s(Gt, bt)) ]_+ / |g|^2

    where ``Gt`` and ``bt`` are ``Gk`` and ``b`` with their components
    along ``g`` projected out, and ``s`` denotes the base solver.  The
    remaining unknowns then solve the rank-k problem against
    ``b - g y_last``.
    """
    G = np.asarray(G, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if G.ndim != 2 or G.shape[1] < 2 or b.shape != (G.shape[0],):
        raise ValueError("G must be m x (k+1) with k >= 1 and b of length m")
    gramG = G.T @ G
    if np.linalg.det(gramG) <= RANK_EPS * float(np.prod(np.diag(gramG))):
        raise RankDeficiencyError("recursive problem with dependent columns")
    head_cols = G[:, :-1]
    g = G[:, -1]
    n2 = float(g @ g)
    proj = np.outer(g, g @ head_cols) / n2
    head_proj = head_cols - proj
    b_proj = b - g * (float(g @ b) / n2)
    shifted = base_solver(head_proj, b_proj).y
    y_last = max(float(g @ (b - head_cols @ shifted)), 0.0) / n2
    y_head = base_solver(head_cols, b - g * y_last).y
    y = np.concatenate([y_head, [y_last]])
    return NnlsSolution(y=y, kkt_residual=_kkt_residual(G, b, y))


def _accepted_candidates(G, b, dual_tol=1e-9):
    """All active sets passing primal and dual feasibility.

    Yields ``(residual_norm, solution_norm, subset, y)`` tuples.  For each
    subset the unconstrained problem restricted to those columns is solved
    through its normal equations; the complement is pinned at zero.
    """
    G = np.asarray(G, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    m, k = G.shape
    gram_full = G.T @ G
    gtb = G.T @ b
    for mask in range(1 << k):
        subset = tuple(j for j in range(k) if mask >> j & 1)
        y = np.zeros(k)
        if subset:
            idx = list(subset)
            try:
                y[idx] = np.linalg.solve(gram_full[np.ix_(idx, idx)], gtb[idx])
            except np.linalg.LinAlgError:
                continue
            if np.any(y[idx] < 0.0):
                continue
        grad = gram_full @ y - gtb
        off = [j for j in range(k) if j not in subset]
        if off and np.any(grad[off] < -dual_tol):
            continue
        resid = float(np.linalg.norm(G @ y - b))
        yield resid, float(np.linalg.norm(y)), subset, y


def nnls_oracle(G, b) -> NnlsSolution:
    """Exhaustive reference solver enumerating all 2^k active sets.

    Among accepted candidates the smallest residual wins; exact ties fall
    back to the smallest solution norm and then the lexicographically
    smallest subset, so the oracle is deterministic even on degenerate
    fuzz inputs.  Intended for k <= 12.
    """
    G = np.asarray(G, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if G.ndim != 2 or b.shape != (G.shape[0],):
        raise ValueError("G must be m x k and b of length m")
    if G.shape[1] > 12:
        raise ValueError("oracle enumeration limited to k <= 12")
    best = None
    for cand in _accepted_candidates(G, b):
        if best is None or cand[:3] < best[:3]:
            best = cand
    if best is None:
        raise RankDeficiencyError("no KKT-feasible active set found")
    y = best[3]
    return NnlsSolution(y=y, kkt_residual=_kkt_residual(G, b, y))
