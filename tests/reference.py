"""The kernel's test references, independent of ``arknls.nnls.solve_block``.

``nnls_recursive`` lifts any rank-k solver to rank k+1 by projecting the
problem off the final column, and ``nnls_oracle`` is a deliberately slow
exhaustive active-set check.  ``tests/test_nnls.py`` and criteria 1 and 2
of ``tests/test_acceptance.py`` check ``nnls_block`` against them.
"""

from typing import Callable

import numpy as np

from arknls.nnls import RANK_EPS, NnlsSolution, RankDeficiencyError, _kkt_residual


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
