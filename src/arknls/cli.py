"""Benchmark command line: factorize a Matrix Market file or a synthetic
matrix and record the per-sweep residual trace.

Reproducibility policy: rep ``c`` of ``--reps C`` runs the solver with seed
``--seed + c``, and the CSV written by ``--out`` is the first rep's trace
with a deterministic elapsed column (cumulative modeled flops at a nominal
1 Gflop/s), so identical flags and seed produce identical bytes.  Real
wall-clock time is what ``--summary`` reports and what ``--time-limit``
enforces; note that a wall-clock limit makes the sweep count, and hence
the outputs, machine dependent.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .matrix import MatrixRef
from .mmio import read_matrix_market, write_trace_csv
from .solver import SolverConfig, fit, flops_per_sweep
from .synth import SynthSpec, gen_dense, gen_sparse

__all__ = ["RunSpec", "build_parser", "run", "main"]


@dataclass
class RunSpec:
    """One benchmark invocation: exactly one input source, rank, block
    width, stopping settings, repetition count and output destinations."""

    input_path: Optional[str]
    synthetic: Optional[SynthSpec]
    rank: int
    k: int
    max_sweeps: int
    time_limit: Optional[float]
    tol: Optional[float]
    seed: int
    reps: int
    out: Optional[str]
    summary: bool

    def validate(self) -> None:
        if (self.input_path is None) == (self.synthetic is None):
            raise ValueError("exactly one input source is required")
        if self.reps < 1:
            raise ValueError("reps must be at least 1")


def _synthetic_spec(text: str):
    parts = text.split(",")
    if len(parts) != 5:
        raise argparse.ArgumentTypeError(
            "expected 'm,n,rank,noise,sparsity' (five comma-separated values)"
        )
    try:
        m, n, true_rank = int(parts[0]), int(parts[1]), int(parts[2])
        noise, sparsity = float(parts[3]), float(parts[4])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return m, n, true_rank, noise, sparsity


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arknls-bench",
        description="Nonnegative matrix factorization benchmark runner.",
        epilog=(
            "The CSV trace (--out) is the first rep's residual per sweep with "
            "a deterministic modeled elapsed_s column; --summary prints "
            "measured wall time."
        ),
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", metavar="PATH", help="Matrix Market input file")
    source.add_argument(
        "--synthetic",
        metavar="M,N,RANK,NOISE,SPARSITY",
        type=_synthetic_spec,
        help="generate the input (sparsity 0 means dense; otherwise it is "
        "the expected nonzero fraction)",
    )
    parser.add_argument("--rank", type=_positive_int, required=True,
                        help="approximation rank r")
    parser.add_argument("--k", type=int, choices=(1, 2, 3), default=3,
                        help="block width (default 3)")
    parser.add_argument("--max-sweeps", type=_positive_int, default=100,
                        help="sweep budget (default 100)")
    parser.add_argument("--time-limit", type=float, default=None,
                        metavar="SECONDS", help="wall-clock budget per rep")
    parser.add_argument("--tol", type=float, default=None, metavar="T",
                        help="stop once the residual changes less than T per sweep")
    parser.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    parser.add_argument("--reps", type=_positive_int, default=1, metavar="C",
                        help="repetitions, seeded seed, seed+1, ... (default 1)")
    parser.add_argument("--out", metavar="PATH.csv", default=None,
                        help="write the first rep's trace as CSV")
    parser.add_argument("--summary", action="store_true",
                        help="print mean/std of the final residual over reps")
    return parser


def _load_input(spec: RunSpec) -> MatrixRef:
    if spec.input_path is not None:
        return read_matrix_market(spec.input_path)
    assert spec.synthetic is not None
    if spec.synthetic.sparsity == 0.0:
        return gen_dense(spec.synthetic)
    return gen_sparse(spec.synthetic)


def execute(spec: RunSpec) -> int:
    spec.validate()
    matrix = _load_input(spec)
    finals, wall_times = [], []
    first_trace = None
    for rep in range(spec.reps):
        config = SolverConfig(
            rank=spec.rank,
            k=spec.k,
            max_sweeps=spec.max_sweeps,
            time_limit=spec.time_limit,
            tol_residual_change=spec.tol,
            seed=spec.seed + rep,
        )
        started = time.perf_counter()
        _, trace = fit(matrix, config)
        wall_times.append(time.perf_counter() - started)
        finals.append(trace.final_residual)
        if rep == 0:
            first_trace = trace
    if spec.out is not None:
        step = flops_per_sweep(matrix.rows, matrix.cols, spec.rank) / 1e9
        rows = [
            (sweep, sweep * step, residual)
            for sweep, _, residual in first_trace.records()
        ]
        write_trace_csv(rows, spec.out)
    if spec.summary:
        mean = float(np.mean(finals))
        std = float(np.std(finals))
        print(
            f"k={spec.k} rank={spec.rank} "
            f"final_rel_residual={mean:.6g}±{std:.6g} "
            f"time_s={float(np.mean(wall_times)):.6g}"
        )
    return 0


def run(argv=None) -> int:
    """Parse flags and execute; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    spec = RunSpec(
        input_path=args.input,
        synthetic=None,
        rank=args.rank,
        k=args.k,
        max_sweeps=args.max_sweeps,
        time_limit=args.time_limit,
        tol=args.tol,
        seed=args.seed,
        reps=args.reps,
        out=args.out,
        summary=args.summary,
    )
    if args.synthetic is not None:
        m, n, true_rank, noise, sparsity = args.synthetic
        spec.synthetic = SynthSpec(
            m=m, n=n, true_rank=true_rank, noise_std=noise,
            sparsity=sparsity, seed=args.seed,
        )
    try:
        return execute(spec)
    # RankDeficiencyError and MatrixMarketError are ValueErrors.
    except (ValueError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(run())
