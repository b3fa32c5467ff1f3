import numpy as np
import pytest

from arknls.matrix import DenseMatrix, frobenius_norm, relative_residual
from arknls.nnls import RankDeficiencyError, nnls_rank1, nnls_rank2, nnls_rank3
from arknls.solver import (
    FactorPair,
    SolverConfig,
    _block_columns,
    build_workspace,
    fit,
    flops_per_sweep,
    _half_sweep_flops,
    initialize,
    repair_block,
    sweep,
    update_block_V,
)
from arknls.synth import SynthSpec, gen_dense, gen_sparse


def direct_objective(A, factors):
    return np.linalg.norm(A.data - factors.U.data @ factors.V.data.T) ** 2


def make_factors(u, v, k=3):
    u = np.asfortranarray(np.asarray(u, dtype=float))
    v = np.asfortranarray(np.asarray(v, dtype=float))
    r = u.shape[1]
    return FactorPair(U=DenseMatrix(u), V=DenseMatrix(v), r=r, k=k, q=r // k)


class TestInitialize:
    def test_deterministic(self):
        a = gen_dense(SynthSpec(m=12, n=9, true_rank=3, seed=0))
        f1 = initialize(a, 4, seed=99)
        f2 = initialize(a, 4, seed=99)
        assert np.array_equal(f1.U.data, f2.U.data)
        assert np.array_equal(f1.V.data, f2.V.data)

    def test_unit_columns_and_nonneg(self):
        a = gen_dense(SynthSpec(m=40, n=25, true_rank=3, seed=0))
        f = initialize(a, 6, seed=3)
        norms = np.linalg.norm(f.U.data, axis=0)
        assert np.all(np.abs(norms - 1.0) <= 1e-12)
        assert f.U.data.min() >= 0.0 and f.V.data.min() >= 0.0

    def test_rank_bound(self):
        a = gen_dense(SynthSpec(m=5, n=4, true_rank=2, seed=0))
        with pytest.raises(ValueError):
            initialize(a, 5, seed=0)


class TestBlockPartition:
    def test_exact_division(self):
        assert _block_columns(3, 3) == [(0, 1, 2)]
        assert _block_columns(6, 2) == [(0, 1), (2, 3), (4, 5)]

    def test_overlapping_remainder(self):
        assert _block_columns(7, 3) == [(0, 1, 2), (3, 4, 5), (4, 5, 6)]
        assert _block_columns(8, 3) == [(0, 1, 2), (3, 4, 5), (5, 6, 7)]
        assert _block_columns(5, 2) == [(0, 1), (2, 3), (3, 4)]


class TestUpdateBlock:
    def test_single_rhs_reduction(self):
        rng = np.random.default_rng(0)
        a = DenseMatrix(rng.random((10, 1)))
        u = rng.random((10, 3))
        f = make_factors(u, np.zeros((1, 3)))
        ws = build_workspace(a, f)
        update_block_V(a, f, ws, 0)
        want = nnls_rank3(u, a.data[:, 0]).y
        assert np.max(np.abs(f.V.data[0] - want)) <= 1e-12

    def test_fixed_point(self):
        rng = np.random.default_rng(1)
        u = rng.random((30, 3)) + 0.1
        v_true = rng.random((20, 3))
        a = DenseMatrix(u @ v_true.T)
        f = make_factors(u, v_true.copy())
        ws = build_workspace(a, f)
        update_block_V(a, f, ws, 0)
        assert np.max(np.abs(f.V.data - v_true)) <= 1e-12

    def test_monotone_descent(self):
        rng = np.random.default_rng(2)
        a = DenseMatrix(rng.random((30, 20)))
        f = make_factors(rng.random((30, 3)), rng.random((20, 3)))
        ws = build_workspace(a, f)
        before = direct_objective(a, f)
        update_block_V(a, f, ws, 0)
        after = direct_objective(a, f)
        assert after <= before + 1e-10 * before

    def test_unrepaired_block_rejected(self):
        rng = np.random.default_rng(3)
        u = rng.random((10, 3))
        u[:, 2] = u[:, 0]  # dependent
        a = DenseMatrix(rng.random((10, 6)))
        f = make_factors(u, rng.random((6, 3)))
        ws = build_workspace(a, f)
        with pytest.raises(RankDeficiencyError):
            update_block_V(a, f, ws, 0)


class TestRepairBlock:
    def run_repair(self, u_cols, seed=0, m=12, n=9):
        rng = np.random.default_rng(seed)
        a = DenseMatrix(rng.random((m, n)))
        u = np.column_stack(u_cols)
        v = rng.random((n, 3))
        f = make_factors(u, v)
        before = f.U.data @ f.V.data.T
        ws = build_workspace(a, f)
        plan = repair_block(f, ws, 0, a)
        self.check_state(a, f, ws, before)
        return plan, f

    def check_state(self, a, f, ws, before):
        after = f.U.data @ f.V.data.T
        norm = np.linalg.norm(before)
        assert np.linalg.norm(before - after) <= 1e-12 * (1.0 + norm)
        m = f.U.data.T @ f.U.data
        norms2 = np.diag(m)
        assert np.all(norms2 > 0.0)
        assert np.linalg.det(m) > 1e-12 * np.prod(norms2)
        h_ref = a.data.T @ f.U.data
        scale_h = 1.0 + np.max(np.abs(h_ref))
        assert np.max(np.abs(ws.H - h_ref)) <= 1e-11 * scale_h
        assert np.max(np.abs(ws.M - m)) <= 1e-11 * (1.0 + np.max(np.abs(m)))
        assert f.V.data.min() >= 0.0

    def test_zero_first_column(self):
        rng = np.random.default_rng(4)
        plan, f = self.run_repair(
            [np.zeros(12), rng.random(12), rng.random(12)]
        )
        assert plan.reset_first and plan.events == 1
        assert f.U.data[0, 0] == 1.0 and np.all(f.V.data[:, 0] == 0.0)

    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    def test_dependent_pair(self, alpha):
        rng = np.random.default_rng(5)
        u1 = rng.random(12)
        plan, _ = self.run_repair([u1, alpha * u1, rng.random(12)])
        assert plan.reset_pair
        assert plan.scale == pytest.approx(alpha, rel=1e-12)

    def test_dependent_triple_identity_case(self):
        rng = np.random.default_rng(6)
        u1, u2 = rng.random(12), rng.random(12)
        plan, _ = self.run_repair([u1, u2, 0.5 * u1 + 0.25 * u2])
        assert plan.reset_triple and plan.order == (0, 1, 2)
        assert plan.mix1 == pytest.approx(0.5, abs=1e-10)
        assert plan.mix2 == pytest.approx(0.25, abs=1e-10)

    def test_dependent_triple_sign_cases(self):
        rng = np.random.default_rng(7)
        base = np.ones(12)
        bigger = base + rng.random(12)
        # third column = -1 * first + 2 * second, still nonnegative
        plan, _ = self.run_repair([base, bigger, 2.0 * bigger - base])
        assert plan.reset_triple and plan.order == (0, 2, 1)
        assert plan.mix1 >= 0.0 and plan.mix2 >= 0.0
        # third column = 2 * first - 1 * second
        plan, _ = self.run_repair([bigger, base, 2.0 * bigger - base])
        assert plan.reset_triple and plan.order == (1, 2, 0)
        assert plan.mix1 >= 0.0 and plan.mix2 >= 0.0

    def test_noop_on_full_rank(self):
        rng = np.random.default_rng(8)
        u = [rng.random(12) for _ in range(3)]
        plan, f = self.run_repair(u)
        assert plan.events == 0
        np.testing.assert_array_equal(f.U.data, np.column_stack(u))

    def test_cascaded_degeneracies(self):
        rng = np.random.default_rng(9)
        u2 = rng.random(12)
        plan, _ = self.run_repair([np.zeros(12), u2, 3.0 * u2])
        assert plan.reset_first and plan.reset_triple and plan.events == 2


class TestSweep:
    def test_block_visit_counts(self):
        rng = np.random.default_rng(10)
        a = DenseMatrix(rng.random((15, 12)))
        for r, expected in [(3, 1), (7, 3)]:
            f = initialize(a, r, seed=0, k=3)
            seen = []
            sweep(a, f, "V", observer=lambda side, b: seen.append(b))
            assert len(seen) == expected

    def test_objective_matches_direct(self):
        rng = np.random.default_rng(11)
        a = DenseMatrix(rng.random((18, 14)))
        f = initialize(a, 5, seed=1, k=3)
        for direction in ("V", "U"):
            obj = sweep(a, f, direction)
            want = direct_objective(a, f)
            assert obj == pytest.approx(want, rel=1e-10)

    def test_objective_non_increasing(self):
        rng = np.random.default_rng(12)
        a = DenseMatrix(rng.random((25, 16)))
        f = initialize(a, 6, seed=2, k=3)
        prev = direct_objective(a, f)
        for _ in range(10):
            for direction in ("V", "U"):
                obj = sweep(a, f, direction)
                assert obj <= prev + 1e-10 * (1.0 + prev)
                prev = obj

    def test_cache_consistency_through_sweep(self):
        # Mirror one half-sweep by hand and recompute the caches from
        # scratch afterwards.
        rng = np.random.default_rng(13)
        a = DenseMatrix(rng.random((20, 15)))
        f = initialize(a, 7, seed=3, k=3)
        f.U.data[:, 1] = 0.0  # force a repair so the refresh path runs
        ws = build_workspace(a, f)
        for i in range(len(_block_columns(f.r, f.k))):
            repair_block(f, ws, i, a)
            update_block_V(a, f, ws, i)
        h_ref = a.data.T @ f.U.data
        m_ref = f.U.data.T @ f.U.data
        assert np.max(np.abs(ws.H - h_ref)) <= 1e-11 * (1 + np.max(np.abs(h_ref)))
        assert np.max(np.abs(ws.M - m_ref)) <= 1e-11 * (1 + np.max(np.abs(m_ref)))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_row_decoupling(self, k):
        # Each updated block row solves its own small NNLS against the
        # residual with every other block frozen.
        reference = {1: nnls_rank1, 2: nnls_rank2, 3: nnls_rank3}[k]
        rng = np.random.default_rng(14)
        a = DenseMatrix(rng.random((20, 15)))
        f = initialize(a, 6, seed=4, k=k)
        ws = build_workspace(a, f)
        for i, cols in enumerate(_block_columns(f.r, f.k)):
            others = [c for c in range(f.r) if c not in cols]
            residual = a.data - f.U.data[:, others] @ f.V.data[:, others].T
            repair_block(f, ws, i, a)
            update_block_V(a, f, ws, i)
            for t in range(a.cols):
                want = reference(f.U.data[:, list(cols)], residual[:, t]).y
                assert np.max(np.abs(f.V.data[t, list(cols)] - want)) <= 1e-10


class TestFit:
    def test_noiseless_recovery(self):
        a = gen_dense(SynthSpec(m=30, n=20, true_rank=3, noise_std=0.0, seed=42))
        hits = 0
        for seed in range(5):
            cfg = SolverConfig(rank=3, k=3, max_sweeps=200, seed=seed)
            _, trace = fit(a, cfg)
            if trace.final_residual < 1e-2:
                hits += 1
        assert hits >= 4

    def test_trace_monotone(self):
        a = gen_dense(SynthSpec(m=25, n=18, true_rank=4, noise_std=0.02, seed=1))
        _, trace = fit(a, SolverConfig(rank=4, k=3, max_sweeps=60, seed=0))
        res = trace.rel_residual
        assert len(trace) == 60
        for lo, hi in zip(res[1:], res[:-1]):
            assert lo <= hi + 1e-10 * (1.0 + hi)

    def test_hals_column_formula(self):
        # One k=1 half-sweep must reproduce the classic column update.
        rng = np.random.default_rng(15)
        a = DenseMatrix(rng.random((22, 17)))
        f = initialize(a, 5, seed=5, k=1)
        v_ref = f.V.data.copy()
        h = a.data.T @ f.U.data
        m = f.U.data.T @ f.U.data
        for j in range(5):
            new = (h[:, j] - v_ref @ m[:, j] + v_ref[:, j] * m[j, j]) / m[j, j]
            v_ref[:, j] = np.maximum(new, 0.0)
        sweep(a, f, "V")
        assert np.max(np.abs(f.V.data - v_ref)) <= 1e-12

    def test_deterministic(self):
        a = gen_dense(SynthSpec(m=20, n=15, true_rank=3, seed=2))
        cfg = SolverConfig(rank=3, k=2, max_sweeps=20, seed=9)
        f1, t1 = fit(a, cfg)
        f2, t2 = fit(a, cfg)
        assert np.array_equal(f1.U.data, f2.U.data)
        assert np.array_equal(f1.V.data, f2.V.data)
        assert t1.rel_residual == t2.rel_residual

    def test_residual_change_stopping(self):
        a = gen_dense(SynthSpec(m=20, n=16, true_rank=2, seed=3))
        cfg = SolverConfig(
            rank=2, k=2, max_sweeps=500, tol_residual_change=1e-8, seed=0
        )
        _, trace = fit(a, cfg)
        assert len(trace) < 500

    def test_time_limit_stops(self):
        a = gen_dense(SynthSpec(m=30, n=30, true_rank=3, seed=4))
        ticks = iter(np.arange(0.0, 1000.0, 0.4))
        cfg = SolverConfig(rank=3, k=3, max_sweeps=10_000, time_limit=1.0, seed=0)
        _, trace = fit(a, cfg, clock=lambda: next(ticks))
        # clock advances 0.4 "seconds" per call: start, then two reads per
        # sweep; the budget of 1.0 stops the loop long before 10k sweeps.
        assert len(trace) <= 3

    def test_stationarity_at_convergence(self):
        a = gen_dense(SynthSpec(m=30, n=20, true_rank=3, noise_std=0.0, seed=7))
        cfg = SolverConfig(rank=3, k=3, max_sweeps=3000, seed=1)
        f, _ = fit(a, cfg)
        u, v = f.U.data, f.V.data
        grad_u = 2.0 * (u @ (v.T @ v) - a.data @ v)
        grad_v = 2.0 * (v @ (u.T @ u) - a.data.T @ u)
        proj = max(
            np.max(np.abs(np.minimum(u, grad_u))),
            np.max(np.abs(np.minimum(v, grad_v))),
        )
        assert proj <= 1e-4

    def test_nonnegativity_all_paths(self):
        a = gen_dense(SynthSpec(m=18, n=13, true_rank=4, noise_std=0.05, seed=5))
        for k in (1, 2, 3):
            f, _ = fit(a, SolverConfig(rank=5, k=k, max_sweeps=30, seed=2))
            assert f.U.data.min() >= 0.0
            assert f.V.data.min() >= 0.0

    def test_sparse_input(self):
        s = gen_sparse(SynthSpec(m=60, n=45, true_rank=4, sparsity=0.3, seed=6))
        f, trace = fit(s, SolverConfig(rank=4, k=3, max_sweeps=40, seed=1))
        res = trace.rel_residual
        for lo, hi in zip(res[1:], res[:-1]):
            assert lo <= hi + 1e-10 * (1.0 + hi)
        assert trace.final_residual == pytest.approx(
            relative_residual(s, f.U, f.V), rel=1e-9
        )

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_dense_and_sparse_forms_agree(self, k):
        # Rank 4x the data's rank, so repairs fire on both forms.
        s = gen_sparse(
            SynthSpec(m=60, n=45, true_rank=3, noise_std=0.0, sparsity=0.3, seed=6)
        )
        cfg = SolverConfig(rank=12, k=k, max_sweeps=60, seed=1)
        _, t_sparse = fit(s, cfg)
        _, t_dense = fit(s.to_dense(), cfg)
        assert t_sparse.repair_events == t_dense.repair_events > 0
        np.testing.assert_allclose(
            t_sparse.rel_residual, t_dense.rel_residual, rtol=0, atol=1e-10
        )

    @pytest.mark.parametrize("form", ["dense", "sparse"])
    def test_fit_is_sweep_pairs(self, form):
        # fit runs the same half-sweep driver as sweep, V half first.
        s = gen_sparse(SynthSpec(m=40, n=30, true_rank=3, sparsity=0.5, seed=8))
        a = s if form == "sparse" else s.to_dense()
        f, trace = fit(a, SolverConfig(rank=5, k=2, max_sweeps=3, seed=4))
        g = initialize(a, 5, seed=4, k=2)
        for _ in range(3):
            sweep(a, g, "V")
            obj_u = sweep(a, g, "U")
        assert np.array_equal(f.U.data, g.U.data)
        assert np.array_equal(f.V.data, g.V.data)
        assert trace.final_residual == np.sqrt(obj_u) / frobenius_norm(a)

    @pytest.mark.parametrize("k, scale", [(3, 1e60), (2, 1e150)])
    def test_numerical_breakdown_raises(self, k, scale):
        a = gen_dense(SynthSpec(m=60, n=40, true_rank=5, noise_std=0.01, seed=1))
        big = DenseMatrix(a.data * scale)
        with np.errstate(all="ignore"), pytest.raises(FloatingPointError):
            fit(big, SolverConfig(rank=5, k=k, max_sweeps=50, seed=0))

    def test_zero_matrix_rejected(self):
        a = DenseMatrix(np.zeros((6, 5)))
        with pytest.raises(ValueError):
            fit(a, SolverConfig(rank=2, k=2))

    def test_negative_dense_rejected(self):
        a = gen_dense(SynthSpec(m=8, n=6, true_rank=2, seed=0))
        a.data[3, 2] = -1e-3
        with pytest.raises(ValueError, match="nonnegative"):
            fit(a, SolverConfig(rank=2, k=2))

    def test_repairs_fire_in_overparameterized_runs(self):
        # Asking for far more rank than the data has drives columns to
        # zero mid-iteration; the run must stay monotone through repairs.
        a = gen_dense(SynthSpec(m=60, n=40, true_rank=2, noise_std=0.0, seed=0))
        total = 0
        for k in (1, 2, 3):
            f, trace = fit(a, SolverConfig(rank=12, k=k, max_sweeps=300, seed=1))
            total += trace.repair_events
            assert f.U.data.min() >= 0.0 and f.V.data.min() >= 0.0
            res = trace.rel_residual
            for lo, hi in zip(res[1:], res[:-1]):
                assert lo <= hi + 1e-10 * (1.0 + hi)
        assert total > 0

    def test_config_validation(self):
        a = gen_dense(SynthSpec(m=10, n=8, true_rank=2, seed=0))
        with pytest.raises(ValueError):
            fit(a, SolverConfig(rank=3, k=4))
        with pytest.raises(ValueError):
            fit(a, SolverConfig(rank=0))
        with pytest.raises(ValueError):
            fit(a, SolverConfig(rank=2, k=3))  # rank below block width
        with pytest.raises(ValueError):
            fit(a, SolverConfig(rank=3, max_sweeps=0))
        with pytest.raises(ValueError):
            fit(a, SolverConfig(rank=20))  # above min(m, n)


class TestFlopsModel:
    def test_leading_term(self):
        m = n = 1000
        r = 30
        total = flops_per_sweep(m, n, r)
        assert abs(total - 4.0 * m * n * r) <= 0.1 * total

    def test_zero_rank(self):
        assert flops_per_sweep(100, 50, 0) == 0.0

    def test_doubling_n_doubles_half_sweep(self):
        base = _half_sweep_flops(1000, 1000, 30)
        doubled = _half_sweep_flops(1000, 2000, 30)
        assert doubled / base == pytest.approx(2.0, rel=5e-3)
