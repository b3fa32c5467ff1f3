"""End-to-end acceptance suite.

Each test exercises one release criterion at its stated tolerance and
prints a single PASS/FAIL line (run with ``pytest -s`` to see them all).
"""

import json
import os
import subprocess
import sys
import time

import numpy as np

import arknls
from arknls.cli import run as cli_run
from arknls.matrix import (
    DenseMatrix,
    SparseMatrixCSR,
    _finite_fro2,
    _one_blas_thread,
    at_times,
    gram,
)
from arknls.mmio import (
    read_matrix_market,
    read_trace_csv,
    write_matrix_market,
    write_trace_csv,
)
from arknls.nnls import nnls_block
from arknls.solver import (
    BlockWorkspace,
    FactorPair,
    SolverConfig,
    _half_sweep,
    fit,
    initialize,
    repair_block,
    update_block_V,
)
from arknls.synth import SynthSpec, gen_dense
from reference import nnls_oracle, nnls_recursive


def report(num, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] criterion {num:2d} ({name}): {status}  {detail}")
    assert passed, f"criterion {num} ({name}) failed: {detail}"


def build_workspace(a, factors):
    # Fresh caches for a V-side pass: H = A^T U and M = U^T U.
    return BlockWorkspace(H=at_times(a, factors.U).data, M=gram(factors.U).data)


def bounded_instance(rng, m, k):
    g = rng.random((m, k))
    g[:k, :k] += 0.1 * np.eye(k)
    return g, rng.uniform(-1.0, 1.0, m)


def test_c01_oracle_equivalence():
    rng = np.random.default_rng(1001)
    started = time.perf_counter()
    worst = 0.0
    for k in (2, 3):
        for _ in range(10_000):
            g, b = bounded_instance(rng, 10, k)
            diff = np.abs(nnls_block(g, b).y - nnls_oracle(g, b).y).max()
            worst = max(worst, diff)
    elapsed = time.perf_counter() - started
    report(
        1,
        "oracle equivalence",
        worst <= 1e-10 and elapsed < 30.0,
        f"max |diff| = {worst:.2e}, elapsed = {elapsed:.1f}s",
    )


def test_c02_recursion_consistency():
    rng = np.random.default_rng(1002)
    worst3 = 0.0
    for _ in range(1000):
        g, b = bounded_instance(rng, 10, 3)
        diff = np.abs(
            nnls_recursive(g, b, nnls_block).y - nnls_block(g, b).y
        ).max()
        worst3 = max(worst3, diff)
    worst4 = 0.0
    for _ in range(500):
        g, b = bounded_instance(rng, 12, 4)
        diff = np.abs(
            nnls_recursive(g, b, nnls_block).y - nnls_oracle(g, b).y
        ).max()
        worst4 = max(worst4, diff)
    report(
        2,
        "recursion consistency",
        worst3 <= 1e-10 and worst4 <= 1e-8,
        f"rank-3 diff = {worst3:.2e}, rank-4 diff = {worst4:.2e}",
    )


def test_c03_monotone_block_updates():
    A = gen_dense(SynthSpec(m=300, n=200, true_rank=10, noise_std=0.03, seed=3))
    a = A.data
    buf = np.empty_like(a)
    flat = buf.ravel(order="K")

    def objective(factors):
        # Dense |A - U V^T|^2, computed in one preallocated buffer.
        np.matmul(factors.U.data, factors.V.data.T, out=buf)
        np.subtract(a, buf, out=buf)
        return float(np.dot(flat, flat))

    # Each block through fit's half-sweep driver, at one BLAS thread as
    # in a fit, with the coefficient Gram computed afresh per half.
    fro2 = _finite_fro2(A, nonnegative=True)
    violations = 0
    checks = 0
    for r in (7, 15):
        for k in (1, 2, 3):
            for seed in range(5):
                factors = initialize(A, r, seed=seed, k=k)
                state = {"obj": objective(factors)}

                def observe(side, idx, factors=factors, state=state):
                    nonlocal violations, checks
                    new = objective(factors)
                    checks += 1
                    if new > state["obj"] + 1e-10 * (1.0 + state["obj"]):
                        violations += 1
                    state["obj"] = new

                with _one_blas_thread():
                    for _ in range(200):
                        _half_sweep(A, factors, "V", fro2, observe)
                        _half_sweep(A, factors, "U", fro2, observe)
    report(
        3,
        "monotone block updates",
        violations == 0 and checks > 0,
        f"{violations} violations over {checks} block updates",
    )


def test_c04_singularity_repair():
    rng = np.random.default_rng(1004)
    m, n = 14, 11
    base = np.ones(m)
    bigger = base + rng.random(m)
    cases = [
        ("zero u1", [np.zeros(m), rng.random(m), rng.random(m)]),
        ("u2 = 0.5 u1", lambda u1: [u1, 0.5 * u1, rng.random(m)]),
        ("u2 = 2 u1", lambda u1: [u1, 2.0 * u1, rng.random(m)]),
        ("mix both nonneg", None),
        ("mix first negative", [base, bigger, 2.0 * bigger - base]),
        ("mix second negative", [bigger, base, 2.0 * bigger - base]),
    ]
    worst_prod = 0.0
    worst_cache = 0.0
    min_det = np.inf
    for label, cols in cases:
        if callable(cols):
            cols = cols(rng.random(m))
        if cols is None:
            u1, u2 = rng.random(m), rng.random(m)
            cols = [u1, u2, 0.5 * u1 + 0.25 * u2]
        a = DenseMatrix(rng.random((m, n)))
        factors = FactorPair(
            U=DenseMatrix(np.column_stack(cols)),
            V=DenseMatrix(rng.random((n, 3))),
            r=3,
            k=3,
            q=1,
        )
        before = factors.U.data @ factors.V.data.T
        ws = build_workspace(a, factors)
        plan = repair_block(factors, ws, 0, a)
        assert plan.events >= 1, label
        after = factors.U.data @ factors.V.data.T
        prod_err = np.linalg.norm(before - after) / (
            1e-12 + np.linalg.norm(before)
        )
        worst_prod = max(worst_prod, prod_err)
        gram_now = factors.U.data.T @ factors.U.data
        min_det = min(min_det, float(np.linalg.det(gram_now)))
        h_ref = a.data.T @ factors.U.data
        cache_err = max(
            np.max(np.abs(ws.H - h_ref)) / (1.0 + np.max(np.abs(h_ref))),
            np.max(np.abs(ws.M - gram_now)) / (1.0 + np.max(np.abs(gram_now))),
        )
        worst_cache = max(worst_cache, cache_err)
    report(
        4,
        "singularity repair",
        worst_prod <= 1e-12 and min_det > 0.0 and worst_cache <= 1e-11,
        f"product err = {worst_prod:.2e}, min det = {min_det:.2e}, "
        f"cache err = {worst_cache:.2e}",
    )


def test_c05_hals_equivalence():
    rng = np.random.default_rng(1005)
    worst = 0.0
    for trial in range(100):
        m = int(rng.integers(8, 30))
        n = int(rng.integers(6, 24))
        r = int(rng.integers(2, 7))
        a = DenseMatrix(rng.random((m, n)))
        factors = initialize(a, r, seed=trial, k=1)
        v_ref = factors.V.data.copy()
        h = a.data.T @ factors.U.data
        gram_u = factors.U.data.T @ factors.U.data
        for j in range(r):
            col = (
                h[:, j] - v_ref @ gram_u[:, j] + v_ref[:, j] * gram_u[j, j]
            ) / gram_u[j, j]
            v_ref[:, j] = np.maximum(col, 0.0)
        _half_sweep(a, factors, "V", _finite_fro2(a, nonnegative=True), None)
        worst = max(worst, float(np.max(np.abs(factors.V.data - v_ref))))
    report(5, "k=1 equals HALS", worst <= 1e-12, f"max entry diff = {worst:.2e}")


def test_c06_noiseless_recovery():
    A = gen_dense(SynthSpec(m=300, n=200, true_rank=10, noise_std=0.0, seed=6))
    started = time.perf_counter()
    finals = []
    for seed in range(5):
        cfg = SolverConfig(rank=10, k=3, max_sweeps=500, seed=seed)
        _, trace = fit(A, cfg)
        finals.append(trace.final_residual)
    elapsed = time.perf_counter() - started
    median = float(np.median(finals))
    report(
        6,
        "noiseless recovery",
        median < 1e-2 and elapsed < 60.0,
        f"median residual = {median:.2e}, elapsed = {elapsed:.1f}s",
    )


def test_c07_row_decoupling():
    rng = np.random.default_rng(1007)
    worst = 0.0
    for trial in range(10):
        a = DenseMatrix(rng.random((20, 15)))
        factors = initialize(a, 3, seed=trial, k=3)
        ws = build_workspace(a, factors)
        residual = a.data.copy()  # single block, nothing else to subtract
        repair_block(factors, ws, 0, a)
        cols = ws.blocks[0]
        update_block_V(a, factors, ws, 0)
        for t in range(a.cols):
            want = nnls_block(factors.U.data[:, list(cols)], residual[:, t]).y
            worst = max(
                worst, float(np.max(np.abs(factors.V.data[t, list(cols)] - want)))
            )
    report(7, "row decoupling", worst <= 1e-10, f"max row diff = {worst:.2e}")


# Run in a child process with BLAS on one thread, so that the calling
# thread's CPU time (thread_time) is the whole cost of a sweep and load on
# other cores cannot stretch one size's wall time.  Each rep fits both
# sizes back to back, in alternating order, and takes each fit's fastest
# sweep after the first; the median over reps of the paired ratios
# cancels drift that hits both fits of a rep and ignores a rep that a
# transient hit.
_C08_CHILD = """
import json, time
import numpy as np
from arknls.solver import SolverConfig, fit
from arknls.synth import SynthSpec, gen_dense

data = {n: gen_dense(SynthSpec(m=2000, n=n, true_rank=10, noise_std=0.0, seed=8))
        for n in (2000, 4000)}
reps = []
for rep in range(7):
    sweep_s = {}
    for n in (2000, 4000) if rep % 2 else (4000, 2000):
        cfg = SolverConfig(rank=30, k=3, max_sweeps=3, seed=0)
        _, trace = fit(data[n], cfg, clock=time.thread_time)
        sweep_s[n] = float(np.min(np.diff(trace.elapsed_s)))
    reps.append(sweep_s)
print(json.dumps(reps))
"""


def test_c08_cost_scaling():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    package_root = os.path.dirname(os.path.dirname(arknls.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (package_root, env.get("PYTHONPATH")))
    )
    child = subprocess.run(
        [sys.executable, "-c", _C08_CHILD],
        env=env, capture_output=True, text=True, check=True,
    )
    reps = json.loads(child.stdout)
    ratio = float(np.median([rep["4000"] / rep["2000"] for rep in reps]))
    ms = {n: 1e3 * float(np.median([rep[n] for rep in reps])) for n in ("2000", "4000")}
    report(
        8,
        "cost scaling in n",
        1.5 <= ratio <= 2.8,
        f"per-sweep {ms['2000']:.1f}ms -> {ms['4000']:.1f}ms (medians), "
        f"median paired ratio = {ratio:.2f}",
    )


def test_c09_k3_not_worse_than_k2():
    A = gen_dense(SynthSpec(m=300, n=200, true_rank=10, noise_std=0.0, seed=9))
    means = {}
    for k in (2, 3):
        finals = [
            fit(A, SolverConfig(rank=10, k=k, max_sweeps=500, seed=s))[1].final_residual
            for s in range(5)
        ]
        means[k] = float(np.mean(finals))
    report(
        9,
        "k=3 vs k=2 accuracy",
        means[3] <= means[2] + 1e-3,
        f"mean residual k=3 = {means[3]:.2e}, k=2 = {means[2]:.2e}",
    )


def test_c10_io_roundtrips_and_cli_determinism(tmp_path):
    rng = np.random.default_rng(1010)
    ok = True
    details = []

    dense = DenseMatrix(rng.random((8, 6)))
    path = tmp_path / "dense.mtx"
    write_matrix_market(dense, path)
    ok &= np.array_equal(read_matrix_market(path).data, dense.data)

    mask = rng.random((12, 9)) < 0.25
    rows, cols = np.nonzero(mask)
    sparse = SparseMatrixCSR.from_coo(12, 9, rows, cols, rng.random(rows.size))
    path = tmp_path / "sparse.mtx"
    write_matrix_market(sparse, path)
    back = read_matrix_market(path)
    ok &= np.array_equal(back.row_offsets, sparse.row_offsets)
    ok &= np.array_equal(back.col_indices, sparse.col_indices)
    ok &= np.array_equal(back.values, sparse.values)

    trace_rows = [(i, 0.25 * i, 1.0 / (1 + i)) for i in range(1, 8)]
    path = tmp_path / "trace.csv"
    write_trace_csv(trace_rows, path)
    parsed = read_trace_csv(path)
    ok &= all(
        p.sweep == w[0]
        and abs(p.elapsed_s - w[1]) <= 1e-9 * (1 + w[1])
        and abs(p.rel_residual - w[2]) <= 1e-9
        for p, w in zip(parsed, trace_rows)
    )
    details.append("roundtrips ok" if ok else "roundtrip mismatch")

    args = ["--synthetic", "60,45,5,0.01,0", "--rank", "5",
            "--max-sweeps", "25", "--seed", "4"]
    out1, out2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
    code1 = cli_run(args + ["--out", str(out1)])
    code2 = cli_run(args + ["--out", str(out2)])
    deterministic = (
        code1 == 0 and code2 == 0 and out1.read_bytes() == out2.read_bytes()
    )
    details.append(f"cli bytes identical = {deterministic}")
    report(10, "io roundtrips + cli determinism", ok and deterministic,
           "; ".join(details))
