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

import numpy as np

from .matrix import MatrixRef
from .mmio import read_matrix_market, write_trace_csv
from .nnls import BLOCK_WIDTHS
from .solver import SolverConfig, fit, flops_per_sweep
from .synth import SynthSpec, gen_dense, gen_sparse

__all__ = ["build_parser", "run", "main"]


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
    parser.add_argument("--k", type=int, choices=BLOCK_WIDTHS, default=3,
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


def _load_input(args: argparse.Namespace) -> MatrixRef:
    if args.input is not None:
        return read_matrix_market(args.input)
    m, n, true_rank, noise, sparsity = args.synthetic
    spec = SynthSpec(
        m=m, n=n, true_rank=true_rank, noise_std=noise,
        sparsity=sparsity, seed=args.seed,
    )
    return gen_dense(spec) if sparsity == 0.0 else gen_sparse(spec)


def execute(args: argparse.Namespace) -> int:
    """Run the parsed flags' benchmark; returns the process exit code."""
    matrix = _load_input(args)
    finals, wall_times = [], []
    first_trace = None
    for rep in range(args.reps):
        config = SolverConfig(
            rank=args.rank,
            k=args.k,
            max_sweeps=args.max_sweeps,
            time_limit=args.time_limit,
            tol_residual_change=args.tol,
            seed=args.seed + rep,
        )
        started = time.perf_counter()
        _, trace = fit(matrix, config)
        wall_times.append(time.perf_counter() - started)
        finals.append(trace.final_residual)
        if rep == 0:
            first_trace = trace
    if args.out is not None:
        step = flops_per_sweep(matrix.rows, matrix.cols, args.rank) / 1e9
        rows = [
            (sweep, sweep * step, residual)
            for sweep, _, residual in first_trace.records()
        ]
        write_trace_csv(rows, args.out)
    if args.summary:
        mean = float(np.mean(finals))
        std = float(np.std(finals))
        print(
            f"k={args.k} rank={args.rank} "
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
    try:
        return execute(args)
    # RankDeficiencyError and MatrixMarketError are ValueErrors.
    except (ValueError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # A file can declare a shape whose rows or products no memory holds.
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
