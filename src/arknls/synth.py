"""Deterministic synthetic test matrices.

Dense inputs are planted low-rank products ``W H^T`` with unit-norm W
columns plus optional Gaussian noise, clamped at zero entrywise; only the
product is returned (row-major, as numpy forms it), not its planted
factors.  Sparse inputs take such a dense matrix and keep each entry with
the requested probability, scaling survivors by fresh uniform weights;
the result is no longer exactly low rank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matrix import (
    DenseMatrix,
    SparseMatrixCSR,
    _check_integers,
    _check_reals,
    _check_seed,
    _one_blas_thread,
)
from .rng import gaussian_matrix, make_rng, uniform_matrix

__all__ = ["SynthSpec", "gen_dense", "gen_sparse"]


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for one synthetic matrix.

    ``sparsity`` is the expected fraction of kept (nonzero) entries;
    zero means dense.  :meth:`validate` accepts only Python or numpy
    integers for ``m``, ``n``, ``true_rank`` and ``seed``, and only real
    numbers for ``noise_std`` and ``sparsity``: ``True``, a string or
    ``None`` raises :class:`ValueError` naming the field.
    """

    m: int
    n: int
    true_rank: int
    noise_std: float = 0.0
    sparsity: float = 0.0
    seed: int = 0

    def validate(self) -> None:
        _check_integers(m=self.m, n=self.n, true_rank=self.true_rank)
        _check_seed(self.seed)
        _check_reals(noise_std=self.noise_std, sparsity=self.sparsity)
        if self.m < 1 or self.n < 1:
            raise ValueError("dimensions must be positive")
        if not 1 <= self.true_rank <= min(self.m, self.n):
            raise ValueError("true_rank must lie in [1, min(m, n)]")
        if not (math.isfinite(self.noise_std) and self.noise_std >= 0):
            raise ValueError("noise_std must be finite and nonnegative")
        # A NaN or infinite sparsity already fails this range test.
        if not 0.0 <= self.sparsity < 1.0:
            raise ValueError("sparsity must lie in [0, 1)")


def _planted_dense(spec: SynthSpec, rng) -> np.ndarray:
    # Draw order is part of the contract: W, then H, then the noise.
    w = uniform_matrix(rng, spec.m, spec.true_rank)
    w /= np.sqrt(np.sum(w * w, axis=0))
    h = uniform_matrix(rng, spec.n, spec.true_rank)
    # At one BLAS thread, so that the matrix does not depend on the
    # caller's thread count: at two threads OpenBLAS summed the 2000 x
    # 1500 product of rank 3 in another order.
    with _one_blas_thread():
        a = w @ h.T
    if spec.noise_std > 0.0:
        a += gaussian_matrix(rng, spec.m, spec.n, spec.noise_std)
        np.maximum(a, 0.0, out=a)
    return a


def gen_dense(spec: SynthSpec) -> DenseMatrix:
    """Dense planted low-rank matrix; deterministic in ``spec.seed``.
    Without noise its rank is ``spec.true_rank`` up to rounding."""
    spec.validate()
    if spec.sparsity != 0.0:
        raise ValueError("gen_dense requires sparsity == 0")
    return DenseMatrix(_planted_dense(spec, make_rng(spec.seed)))


def gen_sparse(spec: SynthSpec) -> SparseMatrixCSR:
    """Sparse matrix: planted dense base, entrywise Bernoulli mask with
    keep probability ``spec.sparsity``, kept entries scaled by fresh
    uniform(0, 1) weights.  Realized density is random, not exact.
    """
    spec.validate()
    if not 0.0 < spec.sparsity < 1.0:
        raise ValueError("gen_sparse requires 0 < sparsity < 1")
    rng = make_rng(spec.seed)
    base = _planted_dense(spec, rng)
    mask = uniform_matrix(rng, spec.m, spec.n) < spec.sparsity
    weights = uniform_matrix(rng, spec.m, spec.n)
    rows, cols = np.nonzero(mask)
    values = weights[rows, cols] * base[rows, cols]
    keep = values > 0.0
    return SparseMatrixCSR.from_coo(
        spec.m, spec.n, rows[keep], cols[keep], values[keep]
    )
