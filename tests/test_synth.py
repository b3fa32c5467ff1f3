import numpy as np
import pytest

from arknls.synth import SynthSpec, gen_dense, gen_sparse


class TestDense:
    def test_noiseless_is_exact_low_rank(self):
        # Rank 5 exactly: five singular values well clear of zero, and the
        # rest at rounding level.
        spec = SynthSpec(m=40, n=30, true_rank=5, noise_std=0.0, seed=11)
        sigma = np.linalg.svd(gen_dense(spec).data, compute_uv=False)
        assert sigma[4] > 1e-3 * sigma[0]
        assert sigma[5] <= 1e-12 * sigma[0]

    def test_deterministic(self):
        spec = SynthSpec(m=25, n=20, true_rank=4, noise_std=0.03, seed=7)
        a1 = gen_dense(spec)
        a2 = gen_dense(spec)
        assert np.array_equal(a1.data, a2.data)

    def test_clamp_fraction_small(self):
        for seed in range(3):
            spec = SynthSpec(m=200, n=200, true_rank=10, noise_std=0.03, seed=seed)
            a = gen_dense(spec)
            clamped = np.mean(a.data == 0.0)
            assert clamped <= 0.05

    def test_nonnegative_and_finite(self):
        spec = SynthSpec(m=50, n=50, true_rank=6, noise_std=0.5, seed=3)
        a = gen_dense(spec)
        assert a.data.min() >= 0.0
        assert np.isfinite(a.data).all()

    def test_sparsity_rejected(self):
        with pytest.raises(ValueError):
            gen_dense(SynthSpec(m=10, n=10, true_rank=2, sparsity=0.5))


class TestSparse:
    def test_realized_density(self):
        spec = SynthSpec(m=500, n=500, true_rank=10, sparsity=0.10, seed=5)
        s = gen_sparse(spec)
        density = s.nnz / (spec.m * spec.n)
        assert 0.08 <= density <= 0.12

    def test_values_nonnegative(self):
        spec = SynthSpec(m=80, n=60, true_rank=4, sparsity=0.2, seed=1)
        s = gen_sparse(spec)
        assert s.values.min() >= 0.0

    def test_deterministic(self):
        spec = SynthSpec(m=60, n=45, true_rank=3, sparsity=0.15, seed=9)
        s1, s2 = gen_sparse(spec), gen_sparse(spec)
        assert np.array_equal(s1.row_offsets, s2.row_offsets)
        assert np.array_equal(s1.col_indices, s2.col_indices)
        assert np.array_equal(s1.values, s2.values)

    def test_dense_spec_rejected(self):
        with pytest.raises(ValueError):
            gen_sparse(SynthSpec(m=10, n=10, true_rank=2, sparsity=0.0))


def test_spec_validation():
    with pytest.raises(ValueError):
        gen_dense(SynthSpec(m=0, n=10, true_rank=1))
    with pytest.raises(ValueError):
        gen_dense(SynthSpec(m=10, n=10, true_rank=11))
    with pytest.raises(ValueError):
        gen_dense(SynthSpec(m=10, n=10, true_rank=2, noise_std=-0.1))
    with pytest.raises(ValueError):
        gen_sparse(SynthSpec(m=10, n=10, true_rank=2, sparsity=1.0))
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="noise_std must be finite"):
            gen_dense(SynthSpec(m=10, n=10, true_rank=2, noise_std=value))
        with pytest.raises(ValueError, match="sparsity must lie"):
            gen_sparse(SynthSpec(m=10, n=10, true_rank=2, sparsity=value))


@pytest.mark.parametrize("field", ["m", "n", "true_rank", "seed"])
@pytest.mark.parametrize("value", [2.0, True])
def test_spec_rejects_non_integer_sizes(field, value):
    fields = dict(m=30, n=20, true_rank=2, seed=0)
    fields[field] = value
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        gen_dense(SynthSpec(**fields))


@pytest.mark.parametrize("gen, sparsity", [(gen_dense, 0.0), (gen_sparse, 0.3)])
def test_spec_rejects_negative_seed(gen, sparsity):
    # numpy's own message for a negative seed names no field.
    spec = SynthSpec(m=30, n=20, true_rank=2, sparsity=sparsity, seed=-1)
    with pytest.raises(ValueError, match="^seed must be nonnegative"):
        gen(spec)


def test_spec_accepts_numpy_integers():
    spec = SynthSpec(m=np.int64(30), n=np.int32(20), true_rank=np.int64(2), seed=np.int64(4))
    want = gen_dense(SynthSpec(m=30, n=20, true_rank=2, seed=4))
    assert np.array_equal(gen_dense(spec).data, want.data)


@pytest.mark.parametrize("field", ["noise_std", "sparsity"])
@pytest.mark.parametrize("value", [True, "0.1", None], ids=["bool", "str", "none"])
def test_spec_rejects_non_real_values(field, value):
    # True would read as 1.0, and a string or None failed with a
    # TypeError that named no field.
    spec = SynthSpec(m=30, n=20, true_rank=2, **{field: value})
    with pytest.raises(ValueError) as caught:
        spec.validate()
    assert str(caught.value) == f"{field} must be a real number, got {value!r}"


def test_spec_accepts_integer_and_numpy_reals():
    spec = SynthSpec(
        m=30, n=20, true_rank=2, noise_std=np.float32(0.5), sparsity=0, seed=4
    )
    want = gen_dense(SynthSpec(m=30, n=20, true_rank=2, noise_std=0.5, seed=4))
    assert np.array_equal(gen_dense(spec).data, want.data)
