import numpy as np
import pytest

from arknls.nnls import (
    RankDeficiencyError,
    nnls_block,
    lift_work,
    rank_deficiency,
    solve_block,
)
from reference import _accepted_candidates, nnls_oracle, nnls_recursive


def well_conditioned(rng, m, k, boost=0.1):
    """Random nonnegative-ish matrix with a diagonal bump bounding the
    condition number away from blowup."""
    g = rng.random((m, k))
    g[:k, :k] += boost * np.eye(k)
    return g


class TestRank1:
    def test_unit_aligned(self):
        sol = nnls_block([1.0, 0.0], [2.0, 3.0])
        np.testing.assert_allclose(sol.y, [2.0])

    def test_negative_projection_clamps(self):
        sol = nnls_block([1.0, 1.0], [-1.0, -1.0])
        np.testing.assert_array_equal(sol.y, [0.0])

    def test_projection_value(self):
        sol = nnls_block([2.0, 1.0], [1.0, 3.0])
        np.testing.assert_allclose(sol.y, [1.0])
        oracle = nnls_oracle(np.array([[2.0], [1.0]]), np.array([1.0, 3.0]))
        np.testing.assert_allclose(sol.y, oracle.y)

    def test_zero_column_rejected(self):
        with pytest.raises(RankDeficiencyError):
            nnls_block([0.0, 0.0], [1.0, 1.0])


class TestRank2:
    def test_orthonormal_clamp(self):
        sol = nnls_block(np.eye(2), [3.0, -1.0])
        np.testing.assert_allclose(sol.y, [3.0, 0.0])

    def test_zero_rhs(self):
        sol = nnls_block(np.eye(2), [0.0, 0.0])
        np.testing.assert_array_equal(sol.y, [0.0, 0.0])

    def test_against_oracle_fixed(self):
        g = np.array([[1.0, 1.0], [0.0, 1.0]])
        b = np.array([1.0, 2.0])
        got = nnls_block(g, b).y
        want = nnls_oracle(g, b).y
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_rank_deficient_rejected(self):
        g = np.column_stack([np.ones(4), 2.0 * np.ones(4)])
        with pytest.raises(RankDeficiencyError):
            nnls_block(g, np.ones(4))


class TestRank3:
    def test_orthonormal_clamp(self):
        sol = nnls_block(np.eye(3), [1.0, -2.0, 3.0])
        np.testing.assert_allclose(sol.y, [1.0, 0.0, 3.0])

    def test_decoupled_scalar_problems(self):
        g = np.diag([2.0, 1.0, 1.0])
        b = np.array([4.0, 1.0, 1.0])
        sol = nnls_block(g, b)
        np.testing.assert_allclose(sol.y, [2.0, 1.0, 1.0])
        np.testing.assert_allclose(sol.y, nnls_oracle(g, b).y)

    def test_against_oracle_bulk(self):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            g = well_conditioned(rng, 10, 3)
            b = rng.uniform(-1.0, 1.0, 10)
            got = nnls_block(g, b).y
            want = nnls_oracle(g, b).y
            assert np.max(np.abs(got - want)) <= 1e-10

    def test_rank_deficient_rejected(self):
        g = np.column_stack([np.ones(5), np.arange(5.0), np.arange(5.0) + 1.0])
        with pytest.raises(RankDeficiencyError):
            nnls_block(g, np.ones(5))


class TestBlockWidths:
    def test_vector_is_one_column(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            g, b = rng.random(7), rng.uniform(-1.0, 1.0, 7)
            got = nnls_block(g, b)
            want = nnls_block(g[:, None], b)
            assert got.y.shape == (1,)
            assert np.array_equal(got.y, want.y)
            assert got.kkt_residual == want.kkt_residual
            np.testing.assert_allclose(got.y, [max(g @ b, 0.0) / (g @ g)], rtol=1e-14)

    @pytest.mark.parametrize("k", [0, 4])
    def test_width_outside_rejected(self, k):
        with pytest.raises(ValueError, match="G must be m x k with k 1, 2 or 3"):
            nnls_block(np.ones((6, k)), np.ones(6))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="b of length m"):
            nnls_block(np.eye(3), np.ones(4))
        with pytest.raises(ValueError, match="G must be m x k"):
            nnls_block(np.ones((2, 2, 2)), np.ones(2))

    def test_rank_test_knows_the_widths(self):
        gram4 = unit_gram(np.random.default_rng(8), 4)
        with pytest.raises(ValueError, match="column position j = 3"):
            rank_deficiency(gram4, 3)
        with pytest.raises(ValueError, match="column position j = 3"):
            solve_block(gram4, np.ones((5, 4)), np.zeros((5, 4)))


class TestRecursive:
    def test_matches_rank2_identity(self):
        got = nnls_recursive(np.eye(2), [3.0, -1.0], nnls_block).y
        np.testing.assert_allclose(got, [3.0, 0.0])

    def test_rank2_base_agrees_with_rank3(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            g = well_conditioned(rng, 12, 3)
            b = rng.uniform(-1.0, 1.0, 12)
            via_recursion = nnls_recursive(g, b, nnls_block).y
            direct = nnls_block(g, b).y
            assert np.max(np.abs(via_recursion - direct)) <= 1e-10

    def test_rank3_base_vs_subset_oracle(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            g = well_conditioned(rng, 15, 4)
            b = rng.uniform(-1.0, 1.0, 15)
            got = nnls_recursive(g, b, nnls_block).y
            want = nnls_oracle(g, b).y
            assert np.max(np.abs(got - want)) <= 1e-8

    def test_rank5_by_nesting(self):
        rng = np.random.default_rng(5)
        rank4 = lambda g, b: nnls_recursive(g, b, nnls_block)
        for _ in range(25):
            g = well_conditioned(rng, 18, 5)
            b = rng.uniform(-1.0, 1.0, 18)
            got = nnls_recursive(g, b, rank4).y
            want = nnls_oracle(g, b).y
            assert np.max(np.abs(got - want)) <= 1e-8

    def test_rank_deficient_rejected(self):
        g = np.column_stack([np.ones(6), np.ones(6)])
        with pytest.raises(RankDeficiencyError):
            nnls_recursive(g, np.ones(6), nnls_block)


class TestOracle:
    def test_empty_active_set(self):
        sol = nnls_oracle(np.eye(2), np.array([-1.0, -1.0]))
        np.testing.assert_array_equal(sol.y, [0.0, 0.0])

    def test_unique_active_set_statistics(self):
        # The accepted KKT subset should almost always be unique.
        rng = np.random.default_rng(123)
        unique = 0
        trials = 1000
        for _ in range(trials):
            g = well_conditioned(rng, 10, 3)
            b = rng.uniform(-1.0, 1.0, 10)
            if sum(1 for _ in _accepted_candidates(g, b)) == 1:
                unique += 1
        assert unique >= 0.99 * trials

    def test_k_limit(self):
        with pytest.raises(ValueError):
            nnls_oracle(np.ones((20, 13)), np.ones(20))


class TestSharedProperties:
    """Invariants every kernel must satisfy on full-rank input."""

    def solvers(self):
        return [
            (1, lambda g, b: nnls_block(g[:, 0], b)),
            (2, nnls_block),
            (3, nnls_block),
            (2, lambda g, b: nnls_recursive(g, b, nnls_block)),
            (3, lambda g, b: nnls_recursive(g, b, nnls_block)),
            (3, nnls_oracle),
        ]

    def test_nonnegativity_and_kkt(self):
        rng = np.random.default_rng(31)
        for k, solver in self.solvers():
            for _ in range(100):
                g = well_conditioned(rng, 9, k)
                b = rng.uniform(-2.0, 2.0, 9)
                sol = solver(g, b)
                assert np.all(sol.y >= 0.0)
                bound = 1e-8 * (1.0 + np.max(np.abs(g.T @ b)))
                assert sol.kkt_residual <= bound

    def test_permutation_uniqueness(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            g = well_conditioned(rng, 10, 3)
            b = rng.uniform(-1.0, 1.0, 10)
            base = nnls_block(g, b).y
            perm = rng.permutation(3)
            permuted = nnls_block(g[:, perm], b).y
            unpermuted = np.empty(3)
            unpermuted[perm] = permuted
            assert np.max(np.abs(base - unpermuted)) <= 1e-10

    def test_objective_optimality(self):
        rng = np.random.default_rng(17)
        for k in (2, 3):
            for _ in range(20):
                g = well_conditioned(rng, 10, k)
                b = rng.uniform(-1.0, 1.0, 10)
                y = nnls_block(g, b).y
                best = np.linalg.norm(g @ y - b)
                for _ in range(100):
                    other = rng.random(k) * 2.0
                    assert best <= np.linalg.norm(g @ other - b) + 1e-9


def unit_gram(rng, k):
    g = well_conditioned(rng, 12, k)
    return np.asfortranarray(g.T @ g)


def straddling_grams(rng, j):
    # Unit-scale 3 x 3 Gram matrices whose column j is dependent on the
    # columns before it up to delta, on a grid across the rank threshold:
    # column 0 scaled by delta, or column j a nonnegative mix of the
    # earlier ones plus delta times noise.
    base, noise = rng.random((12, 3)), rng.random(12)
    for delta in np.logspace(-9, -3, 25):
        g = base.copy()
        if j == 0:
            g[:, 0] *= delta
        else:
            g[:, j] = g[:, :j] @ rng.random(j) + delta * noise
        yield np.asfortranarray(g.T @ g)


class TestRankDeficiency:
    @pytest.mark.parametrize("j", [0, 1, 2])
    def test_decisions_are_scale_free(self, j):
        # Every position tests a ratio, so scaling the Gram by an even
        # power of two, which its square roots take exactly, changes no
        # decision.  Raw products of two or three Gram entries, as in
        # m11 m22 and m11 m22 m33, overflow or underflow at these scales.
        rng = np.random.default_rng(20 + j)
        decided = []
        for gram3 in straddling_grams(rng, j):
            want = rank_deficiency(gram3, j) is None
            for scale in (2.0**400, 2.0**-400, 2.0**600, 2.0**-600):
                assert (rank_deficiency(gram3 * scale, j) is None) == want
            decided.append(want)
        assert any(decided) and not all(decided)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_gram_raises(self, bad):
        # An infinite or NaN entry m_il raises at position max(i, l), the
        # first that reads it as a norm or a normalized entry; an infinite
        # squared norm at position 0 too, where it sets the threshold.
        gram3 = unit_gram(np.random.default_rng(5), 3)
        cells = [(i, l, max(i, l)) for l in range(3) for i in range(l + 1)]
        if bad == np.inf:
            cells += [(i, i, 0) for i in range(3)]
        for i, l, j in cells:
            broken = gram3.copy()
            broken[i, l] = broken[l, i] = bad
            with pytest.raises(FloatingPointError, match="^numerical breakdown"):
                rank_deficiency(broken, j)

    def test_finite_products_still_decide(self):
        gram3 = unit_gram(np.random.default_rng(5), 3)
        with np.errstate(all="ignore"):
            assert rank_deficiency(gram3 * 1e110, 1) is None


class TestSolveBlock:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("scale", [2.0**-100, 2.0**100])
    def test_scale_equivariant(self, k, scale):
        # Powers of two scale exactly, so scaling the Gram block and the
        # residual together must leave the written values bitwise equal.
        rng = np.random.default_rng(40 + k)
        gram_k = unit_gram(rng, k)
        R = np.asfortranarray(rng.standard_normal((200, k)))
        V0 = np.asfortranarray(rng.random((200, k)))
        want, got = V0.copy(order="F"), V0.copy(order="F")
        solve_block(gram_k, R, want)
        solve_block(scale * gram_k, scale * R, got)
        assert np.array_equal(got, want)
        assert 0 < np.count_nonzero(want == 0.0) < want.size

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_expression_form(self, k):
        # The lift written with numpy expressions, each allocating its
        # result.  The kernel runs the same operations in the same order
        # in scratch, so the two agree bit for bit.
        def lift(M, R, V):
            l = len(V) - 1
            m = M[l][l]
            if l == 0:
                np.maximum(V[0] + R[0] / m, 0.0, out=V[0])
                return
            head = range(l)
            ratio = [M[i][l] / m for i in head]
            shifted = [V[i].copy() for i in head]
            schur = [[M[i][j] - ratio[i] * M[j][l] for j in head] for i in head]
            lift(schur, [R[i] - ratio[i] * R[l] for i in head], shifted)
            r = R[l]
            for i in head:
                r = r - M[i][l] * (shifted[i] - V[i])
            before = V[l].copy()
            lift([[m]], [r], V[l:])
            step = V[l] - before
            lift(M, [R[i] - M[i][l] * step for i in head], V[:l])

        rng = np.random.default_rng(60 + k)
        gram_k = unit_gram(rng, k)
        R = np.asfortranarray(rng.standard_normal((500, k)))
        V0 = np.asfortranarray(rng.random((500, k)))
        want, got = V0.copy(order="F"), V0.copy(order="F")
        lift(gram_k.tolist(), R.T, want.T)
        solve_block(gram_k, R, got)
        assert np.array_equal(got, want)
        assert 0 < np.count_nonzero(want == 0.0) < want.size

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_reads_residual_only(self, k):
        # The solver forms R once per block and the lift runs in scratch,
        # so R must come back bitwise unchanged; scratch reused across
        # blocks, dirty from the last one, must not change the result.
        rng = np.random.default_rng(50 + k)
        gram_k = unit_gram(rng, k)
        R = np.asfortranarray(rng.standard_normal((300, k)))
        V0 = np.asfortranarray(rng.random((300, k)))
        R_before = R.copy(order="F")
        fresh, reused = V0.copy(order="F"), V0.copy(order="F")
        solve_block(gram_k, R, fresh)
        assert np.array_equal(R, R_before)
        work = lift_work(300, 3)
        work.fill(np.nan)
        solve_block(gram_k, R, reused, work=work)
        assert np.array_equal(R, R_before)
        assert np.array_equal(reused, fresh)
        assert 0 < np.count_nonzero(fresh == 0.0) < fresh.size
