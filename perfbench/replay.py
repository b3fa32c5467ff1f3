"""Traced replay of ``fit`` through the public layer functions.

The replay performs ``fit``'s steps one public call at a time (``initialize``,
``transposed``, then per half-sweep ``at_times``, ``gram`` and, per block,
``repair_block`` and ``update_block_V``) and records a span around each call
from this file.  Nothing inside the package is instrumented.  The one step
of ``fit`` with no public entry point, the objective at the end of each
half-sweep, is skipped; ``sweep.unattributed_ms`` is the time it and
everything else the spans miss take in an untraced sweep.

A replay only counts if it measured ``fit``: its factors must equal, bit for
bit, those of an untraced ``fit`` from the same seed with the same budget,
and its repair counts must sum to that fit's ``trace.repair_events``.
Otherwise :class:`ReplayMismatch` is raised and no number is reported.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter
from typing import Optional

import arknls as ak
from arknls.matrix import transposed
from measure import MB, by_case, peak_mb, schedule, timed_fit
from workloads import Prepared, init_seed

REPAIR_KINDS = ("reset_first", "reset_pair", "reset_triple")


class ReplayMismatch(RuntimeError):
    """The replay did not reproduce ``fit``; its timings are meaningless."""


class Spans:
    """In-memory spans: name, start, end and the index of the parent span."""

    def __init__(self) -> None:
        self.spans: list[list] = []

    def open(self, name: str, parent: Optional[int] = None) -> int:
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]


def block_count(r: int, k: int) -> int:
    # fit's partition: r // k full blocks plus one overlapping tail block.
    return -(-r // k)


def replay_fit(A: ak.MatrixRef, config: ak.SolverConfig, spans: Spans):
    """``fit``'s computation, one timed public call at a time.

    Returns the factors and the repair counts by kind plus the number of
    blocks visited and repaired.
    """
    config.validate()
    root = spans.open("fit")
    s = spans.open("solver.initialize", root)
    factors = ak.initialize(A, config.rank, config.seed, k=config.k)
    spans.close(s)
    s = spans.open("matrix.transposed", root)
    A_t = transposed(A)
    spans.close(s)
    r, k = factors.r, factors.k
    counts = Counter()
    for _ in range(config.max_sweeps):
        sweep_span = spans.open("sweep", root)
        for side, data, coef, target in (
            ("V", A, factors.U, factors.V),
            ("U", A_t, factors.V, factors.U),
        ):
            half = spans.open("half_sweep", sweep_span)
            s = spans.open(f"matrix.at_times.{side}", half)
            H = ak.at_times(data, coef).data
            spans.close(s)
            s = spans.open("matrix.gram", half)
            M = ak.gram(coef).data.copy(order="F")
            spans.close(s)
            pair = ak.FactorPair(U=coef, V=target, r=r, k=k, q=r // k)
            workspace = ak.BlockWorkspace(H=H, M=M)
            block_pass = spans.open("solver.block_pass", half)
            for idx in range(block_count(r, k)):
                s = spans.open("solver.repair_block", block_pass)
                plan = ak.repair_block(pair, workspace, idx, data, config.rank_eps)
                spans.close(s)
                s = spans.open("solver.update_block", block_pass)
                ak.update_block_V(data, pair, workspace, idx, config.rank_eps)
                spans.close(s)
                counts["visited"] += 1
                counts["repaired"] += plan.events > 0
                for kind in REPAIR_KINDS:
                    counts[kind] += getattr(plan, kind)
            spans.close(block_pass)
            spans.close(half)
        spans.close(sweep_span)
    spans.close(root)
    return factors, counts


def check_replay(replayed, counts, reference, repair_events: int) -> None:
    """Raise :class:`ReplayMismatch` unless the replay reproduced ``fit``."""
    for name in ("U", "V"):
        got = getattr(replayed, name).data
        want = getattr(reference, name).data
        if got.shape != want.shape or got.tobytes("F") != want.tobytes("F"):
            raise ReplayMismatch(f"replayed {name} differs from fit's {name}")
    events = sum(counts[kind] for kind in REPAIR_KINDS)
    if events != repair_events:
        raise ReplayMismatch(
            f"replay counted {events} repairs, fit's trace has {repair_events}"
        )


def _at_times_flops_bytes(A: ak.MatrixRef, r: int) -> tuple[float, float]:
    """Flops and bytes touched by one ``at_times(A, U)``, from array sizes.

    Computed, not measured: it ignores cache misses and temporaries.
    """
    if isinstance(A, ak.DenseMatrix):
        flops = 2.0 * A.rows * A.cols * r
        a_bytes = 8.0 * A.rows * A.cols
    else:
        flops = 2.0 * A.nnz * r
        a_bytes = 16.0 * A.nnz + 8.0 * (A.rows + 1)
    return flops, a_bytes + 8.0 * (A.rows + A.cols) * r


def per_layer(
    inputs: list[Prepared], run_seed: int, seconds: float
) -> tuple[dict, list, dict]:
    """Per-layer metrics of one traced run, its untraced fit records and
    its sample counts.

    Each fit of the schedule is an untraced ``fit`` (the reference and the
    untraced sweep time) followed by a traced replay of it from the same
    seed.  Peak memory is taken on the first input.
    """
    workload = inputs[0].workload
    spans = Spans()
    counts = Counter()
    fits = []
    for case, prepared, seed in schedule(inputs, run_seed, seconds):
        record, reference = timed_fit(prepared, seed)
        fits.append((case, record))
        if reference is None:
            continue
        load = spans.open("load")
        A = prepared.load()
        spans.close(load)
        replayed, got = replay_fit(A, workload.config(seed), spans)
        check_replay(replayed, got, reference, record.repair_events)
        counts += got

    by_case(fits)  # fails repeats that did not reproduce their case
    records = [record for _, record in fits]
    prepared = inputs[0]
    A = prepared.load()
    A_t = transposed(A)
    factors = ak.initialize(A, workload.rank, init_seed(run_seed, 0), k=workload.k)
    at_times_peak = max(
        peak_mb(lambda: ak.at_times(A, factors.U)),
        peak_mb(lambda: ak.at_times(A_t, factors.V)),
    )
    transposed_peak = peak_mb(lambda: transposed(A))
    read_peak = peak_mb(prepared.load) if prepared.path is not None else 0.0

    def med_ms(name):
        return 1e3 * statistics.median(spans.durations(name))

    untraced_sweeps = [s for r in records for s in r.sweep_s]
    sweep_ms = 1e3 * statistics.median(untraced_sweeps)
    at_v, at_u = med_ms("matrix.at_times.V"), med_ms("matrix.at_times.U")
    flops, nbytes = _at_times_flops_bytes(A, workload.rank)
    flops_t, nbytes_t = _at_times_flops_bytes(A_t, workload.rank)
    load_s = statistics.median(spans.durations("load"))
    sweeps = spans.durations("sweep")
    traced_sweep_ms = 1e3 * statistics.median(sweeps)
    gram_ms = med_ms("matrix.gram")
    repair_ms, update_ms = med_ms("solver.repair_block"), med_ms("solver.update_block")
    blocks = 2 * block_count(workload.rank, workload.k)
    # Median time per sweep spent in each layer, from per-call medians.
    layer_ms = {
        "matrix.at_times": at_v + at_u,
        "matrix.gram": 2 * gram_ms,
        "solver.repair_block": blocks * repair_ms,
        "solver.update_block": blocks * update_ms,
    }
    from_mtx = prepared.path is not None
    file_mb = statistics.median(p.file_bytes for p in inputs) / MB
    metrics = {
        "matrix.at_times.V_ms": (at_v, "ms"),
        "matrix.at_times.U_ms": (at_u, "ms"),
        "matrix.at_times.gflops": ((flops + flops_t) / (at_v + at_u) / 1e6, "Gflop/s"),
        "matrix.at_times.flops_per_byte": ((flops + flops_t) / (nbytes + nbytes_t), "flop/B"),
        "matrix.at_times.peak_mb": (at_times_peak, "MB"),
        "matrix.gram_ms": (gram_ms, "ms"),
        "matrix.transposed_ms": (med_ms("matrix.transposed"), "ms"),
        "matrix.transposed.peak_mb": (transposed_peak, "MB"),
        "matrix.dense_wrap_ms": (0.0 if from_mtx else 1e3 * load_s, "ms"),
        "solver.initialize_ms": (med_ms("solver.initialize"), "ms"),
        "solver.update_block_us": (1e3 * update_ms, "us"),
        "solver.repair_block_us": (1e3 * repair_ms, "us"),
        "solver.block_pass_ms": (med_ms("solver.block_pass"), "ms"),
        "solver.repairs.reset_first": (counts["reset_first"] / len(records), "count"),
        "solver.repairs.reset_pair": (counts["reset_pair"] / len(records), "count"),
        "solver.repairs.reset_triple": (counts["reset_triple"] / len(records), "count"),
        "solver.repair_ratio": (counts["repaired"] / counts["visited"], "1"),
        "solver.sweep_gflops": (
            ak.flops_per_sweep(workload.m, workload.n, workload.rank) / sweep_ms / 1e6,
            "Gflop/s",
        ),
        "mmio.read_s": (load_s if from_mtx else 0.0, "s"),
        "mmio.read_mb_per_s": (file_mb / load_s if from_mtx else 0.0, "MB/s"),
        "mmio.read.peak_mb": (read_peak, "MB"),
        "synth.gen_s": (statistics.median(p.gen_s for p in inputs), "s"),
        "input.nnz": (statistics.median(p.nnz for p in inputs), "count"),
        "input.density": (statistics.median(p.density for p in inputs), "1"),
        "input.file_mb": (file_mb, "MB"),
    }
    for name, ms in layer_ms.items():
        metrics[f"{name}.share"] = (ms / traced_sweep_ms, "1")
    metrics["sweep.unattributed_ms"] = (sweep_ms - sum(layer_ms.values()), "ms")
    metrics["trace.overhead_pct"] = (100.0 * (traced_sweep_ms / sweep_ms - 1.0), "%")
    samples = {
        "fits": len(records),
        "traced_sweeps": len(sweeps),
        "untraced_sweeps": len(untraced_sweeps),
        "at_times_calls": 2 * len(sweeps),
        "block_calls": counts["visited"],
    }
    return metrics, records, samples
