"""Untraced, timed fits through the public API, and the checks on each fit.

One timed fit is the user's whole path: load the input (``set-up`` starts),
call ``fit``, and read the result.  ``fit``'s own trace gives the per-sweep
clock; everything ``fit`` does before its first sweep (validation, |A|^2,
``initialize``, the transposed copy) is its preamble, taken as the fit's
wall time minus ``trace.elapsed_s[-1]``.  The CLI CSV's modeled
``elapsed_s`` column is never read.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

import arknls as ak
from workloads import Prepared, init_seed

MB = 1e6
MIN_CASES = 2
REPEATS = 3


@dataclass
class FitRecord:
    load_s: float
    preamble_s: float
    sweep_s: list[float]
    sweeps_to_target: int
    residuals: list[float]
    repair_events: int
    failures: list[str] = field(default_factory=list)

    @property
    def setup_s(self) -> float:
        return self.load_s + self.preamble_s


def check_fit(A, factors, trace, target: float, budget: int) -> list[str]:
    """Reasons the fit is wrong; empty when it passes."""
    failures = []
    U, V = factors.U.data, factors.V.data
    for name, arr in (("U", U), ("V", V)):
        if not np.isfinite(arr).all():
            failures.append(f"{name} has non-finite entries")
        elif arr.min() < 0.0:
            failures.append(f"{name} has negative entries")
    res = trace.rel_residual
    if len(res) != budget:
        failures.append(f"ran {len(res)} sweeps, budget is {budget}")
    for i in range(1, len(res)):
        if res[i] > res[i - 1] + 1e-10 * (1.0 + res[i - 1]):
            failures.append(f"residual rose at sweep {i + 1}: {res[i - 1]!r} -> {res[i]!r}")
            break
    if not failures:
        direct = ak.relative_residual(A, factors.U, factors.V)
        if abs(trace.final_residual - direct) > 1e-9 * direct:
            failures.append(
                f"trace residual {trace.final_residual!r} != direct {direct!r}"
            )
    if not any(value <= target for value in res):
        failures.append(f"target {target!r} not reached in {budget} sweeps")
    return failures


def first_at_target(residuals: list[float], target: float) -> int:
    """1-based index of the first sweep at or below ``target``; 0 if none."""
    for i, value in enumerate(residuals, start=1):
        if value <= target:
            return i
    return 0


def timed_fit(
    prepared: Prepared, seed: int
) -> tuple[FitRecord, Optional[ak.FactorPair]]:
    """Load, fit with the full budget, then check (the check is untimed).

    A ``fit`` that raises is a failed fit: its record has no sweeps and the
    factors are ``None``.
    """
    budget = prepared.workload.budget
    t0 = time.perf_counter()
    A = prepared.load()
    t1 = time.perf_counter()
    try:
        factors, trace = ak.fit(A, prepared.workload.config(seed))
    except Exception as err:  # the run goes on and reports the failure
        failure = f"fit raised {type(err).__name__}: {err}"
        record = FitRecord(
            load_s=t1 - t0,
            preamble_s=time.perf_counter() - t1,
            sweep_s=[],
            sweeps_to_target=budget,
            residuals=[],
            repair_events=0,
            failures=[failure],
        )
        return record, None
    t2 = time.perf_counter()
    elapsed = trace.elapsed_s
    preamble = (t2 - t1) - elapsed[-1]
    # A fit that misses the target fails its check; its sweeps-to-target
    # is censored at the budget.
    hit = first_at_target(trace.rel_residual, prepared.target) or budget
    record = FitRecord(
        load_s=t1 - t0,
        preamble_s=preamble,
        sweep_s=list(np.diff(elapsed, prepend=0.0)),
        sweeps_to_target=hit,
        residuals=trace.rel_residual,
        repair_events=trace.repair_events,
        failures=check_fit(A, factors, trace, prepared.target, budget),
    )
    return record, factors


def peak_mb(call) -> float:
    """``tracemalloc`` peak while ``call()`` runs, above what was live
    before it.

    Taken apart from any timing because tracing allocations slows
    Python-level code.
    """
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / MB


def schedule(inputs: list[Prepared], run_seed: int, seconds: float):
    """Yield (case, input, solver seed) for each fit of a run.

    A case is one input with one start point; cases cycle through the
    inputs.  The first round runs new cases until a ``REPEATS``-th of
    ``seconds`` has passed (at least ``MIN_CASES``), then ``REPEATS - 1``
    more rounds rerun the same cases in the same order, so the repeats of a
    case lie a round apart.
    """
    deadline = time.perf_counter() + seconds / REPEATS
    cases = []
    while len(cases) < MIN_CASES or time.perf_counter() < deadline:
        case = len(cases)
        cases.append((inputs[case % len(inputs)], init_seed(run_seed, case)))
        yield case, *cases[case]
    for _ in range(REPEATS - 1):
        for case, (prepared, seed) in enumerate(cases):
            yield case, prepared, seed


def by_case(fits) -> list[list[FitRecord]]:
    """Group (case, record) pairs into each case's repeats, and fail a
    repeat whose residuals differ from the case's first fit: a fixed seed
    must reproduce ``fit`` exactly."""
    cases: dict[int, list[FitRecord]] = {}
    for case, record in fits:
        reps = cases.setdefault(case, [])
        if reps and record.residuals != reps[0].residuals:
            record.failures.append("repeat of the same seed gave other residuals")
        reps.append(record)
    return list(cases.values())


def fastest(reps: list[FitRecord]) -> tuple[float, float, list[float]]:
    """A case's set-up time, preamble and per-sweep times, each the fastest
    over the case's repeats.

    The repeats run the same computation, so the minimum drops the time a
    repeat lost to other load on the machine.  Sweep ``i`` is taken from
    whichever repeat ran it fastest: a slow spell on a shared machine lasts
    seconds, longer than many sweeps but not than a round of cases.
    """
    return (
        min(r.setup_s for r in reps),
        min(r.preamble_s for r in reps),
        [min(times) for times in zip(*(r.sweep_s for r in reps))],
    )


def end_to_end(
    inputs: list[Prepared], run_seed: int, seconds: float
) -> tuple[dict, list[FitRecord], dict]:
    """The end-to-end metrics of one run, its fit records and sample counts."""
    # The peak pass goes first and doubles as the warm-up.
    A = inputs[0].load()
    fit_peak = peak_mb(lambda: ak.fit(A, inputs[0].workload.config(init_seed(run_seed, 0))))
    del A
    fits = [(case, timed_fit(p, seed)[0]) for case, p, seed in schedule(inputs, run_seed, seconds)]
    records = [record for _, record in fits]
    passed = sum(1 for r in records if not r.failures)
    # Time and quality come from the cases whose every repeat ran to the end.
    cases = [reps for reps in by_case(fits) if all(r.residuals for r in reps)]
    if not cases:
        raise RuntimeError(f"no fit ran to the end: {records[0].failures}")
    best = [fastest(reps) for reps in cases]
    to_target = [
        preamble + sum(sweeps[: reps[0].sweeps_to_target])
        for (_, preamble, sweeps), reps in zip(best, cases)
    ]
    metrics = {
        "time_to_target_s": (statistics.median(to_target), "s"),
        "sweep_ms": (1e3 * statistics.median(t for *_, sweeps in best for t in sweeps), "ms"),
        "setup_s": (statistics.median(setup for setup, *_ in best), "s"),
        "sweeps_to_target": (statistics.median(reps[0].sweeps_to_target for reps in cases), "count"),
        "final_rel_residual": (statistics.median(reps[0].residuals[-1] for reps in cases), "1"),
        "peak_mb": (fit_peak, "MB"),
        "pass_rate": (passed / len(records), "1"),
    }
    samples = {
        "cases": len(cases),
        "fits": len(records),
        "sweeps": sum(len(r.sweep_s) for r in records),
    }
    return metrics, records, samples
