"""arknls benchmark: one seeded workload, timed through the public API.

    python3 perfbench/run.py --workload dense-2k --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its ``src``
directory.  The run prepares the workload's input from ``--seed`` (untimed),
then fits it repeatedly for ``--seconds`` and checks every fit.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
replays each fit one public layer call at a time and reports per-layer
metrics instead.  Informational JSON lines (environment, input, sample
counts, failures) go first; the last line of standard output is the result
object ``{"correct", "attempted", "failed", "metrics"}``.

Exit codes: 0 with a result, 1 when the replay does not reproduce ``fit``,
2 for usage errors or a checkout without the package source.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench_work"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: on a shared 2-core machine a second BLAS thread made
# dense sweep times swing by up to 50% whenever the other core was busy,
# against about 10% with one thread.
BLAS_THREADS = 1


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
    }


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds < 0:
        parser.error("--seconds must be nonnegative")
    return args


def main(argv=None) -> int:
    src = ROOT / "src"
    if not (src / "arknls" / "__init__.py").is_file():
        print(
            f"perfbench: no package source at {src / 'arknls'}; "
            "run from the root of an arknls checkout",
            file=sys.stderr,
        )
        return 2
    # Set before numpy is first imported.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))

    from workloads import WORKLOADS, prepare

    args = parse_args(argv, sorted(WORKLOADS))
    workload = WORKLOADS[args.workload]
    inputs = prepare(workload, args.seed, WORKDIR)
    try:
        if args.trace:
            from replay import ReplayMismatch, per_layer

            try:
                metrics, records, samples = per_layer(inputs, args.seed, args.seconds)
            except ReplayMismatch as err:
                print(f"perfbench: benchmark error: {err}", file=sys.stderr)
                return 1
        else:
            from measure import end_to_end

            metrics, records, samples = end_to_end(inputs, args.seed, args.seconds)
    finally:
        for prepared in inputs:
            prepared.cleanup()

    failures = [f for r in records for f in r.failures]
    info = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "env": environment(),
        "shape": [workload.m, workload.n],
        "inputs": [
            {
                "data_seed": p.seed,
                "nnz": p.nnz,
                "density": p.density,
                "file_bytes": p.file_bytes,
                "gen_s": p.gen_s,
                "best_rank_residual": p.reference,
                "target_residual": p.target,
            }
            for p in inputs
        ],
        "fit": {"rank": workload.rank, "k": workload.k, "budget": workload.budget},
        "samples": samples,
        "failures": failures[:10],
    }
    print(json.dumps(info))
    failed = sum(1 for r in records if r.failures)
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
