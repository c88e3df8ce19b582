"""Topology constructors against independent dense linear-algebra oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deepesn import (
    DegenerateMatrixError,
    operator_norm,
    parse_topology,
    random_stream,
    spectral_radius,
    Chain,
    Permutation,
    Ring,
    ScalingSpec,
    Sparse,
)
from deepesn.topology import (
    make_input_matrix,
    make_interlayer_matrix,
    make_sparse_recurrent,
)


def eig_radius(m):
    """Independent oracle: dense eigendecomposition."""
    return float(np.max(np.abs(np.linalg.eigvals(m))))


def svd_norm(m):
    """Independent oracle: largest singular value."""
    return float(np.linalg.svd(m, compute_uv=False)[0])


class TestSparseRecurrent:
    def test_one_by_one_forces_magnitude_and_keeps_sign(self):
        for seed in range(8):
            m = make_sparse_recurrent(1, 1, 0.5, random_stream(seed))
            # replay the draw: one column choice, then one uniform value
            replay = random_stream(seed)
            replay.choice(1, size=1, replace=False)
            raw = replay.uniform(-1.0, 1.0, size=1)[0]
            assert abs(m[0, 0]) == pytest.approx(0.5, abs=1e-12)
            assert np.sign(m[0, 0]) == np.sign(raw)

    def test_hits_target_radius_against_eig_oracle(self):
        m = make_sparse_recurrent(100, 5, 0.9, random_stream(7, 1))
        assert eig_radius(m) == pytest.approx(0.9, abs=1e-8)

    def test_every_row_has_exact_fan_in(self):
        m = make_sparse_recurrent(100, 5, 0.9, random_stream(2))
        assert (np.count_nonzero(m, axis=1) == 5).all()

    def test_determinism(self):
        a = make_sparse_recurrent(60, 5, 0.7, random_stream(11, 3))
        b = make_sparse_recurrent(60, 5, 0.7, random_stream(11, 3))
        assert np.array_equal(a, b)

    def test_zero_draw_raises(self):
        class ZeroDraws:
            """Duck-typed generator whose uniform values are all zero; counts its uniform calls."""

            def __init__(self, inner):
                self.inner = inner
                self.uniform_calls = 0

            def choice(self, *args, **kwargs):
                return self.inner.choice(*args, **kwargs)

            def uniform(self, low, high, size):
                self.uniform_calls += 1
                return np.zeros(size)

        rng = ZeroDraws(random_stream(5))
        with pytest.raises(DegenerateMatrixError):
            make_sparse_recurrent(4, 2, 0.6, rng)
        assert rng.uniform_calls == 4  # one draw of 4 rows, not redrawn
        with pytest.raises(DegenerateMatrixError):
            make_input_matrix(4, 0.6, rng)
        with pytest.raises(DegenerateMatrixError):
            make_interlayer_matrix(4, 4, 2, 0.6, rng)


class TestPermutationRecurrent:
    def test_orthogonal_up_to_scale(self):
        m = Permutation().recurrent(4, 0.9, random_stream(1))
        assert np.allclose(m.T @ m, 0.81 * np.eye(4), atol=1e-15)

    def test_radius_equals_weight_to_machine_precision(self):
        m = Permutation().recurrent(10, 0.9, random_stream(4))
        assert eig_radius(m) == pytest.approx(0.9, abs=1e-13)
        assert spectral_radius(m) == pytest.approx(0.9, abs=1e-13)

    def test_one_nonzero_per_row_and_column(self):
        m = Permutation().recurrent(25, 0.5, random_stream(8))
        assert (np.count_nonzero(m, axis=0) == 1).all()
        assert (np.count_nonzero(m, axis=1) == 1).all()
        assert np.all(m[m != 0] == 0.5)


class TestRingRecurrent:
    def test_exact_structure_at_size_four(self):
        expected = np.array(
            [
                [0.0, 0.0, 0.0, 1.0],
                [1.0, 0.0, 0.0, 0.0],
                [0.0, 1.0, 0.0, 0.0],
                [0.0, 0.0, 1.0, 0.0],
            ]
        )
        assert np.array_equal(Ring().recurrent(4, 1.0, None), expected)

    def test_cycling_returns_scaled_identity(self):
        m = Ring().recurrent(3, 0.5, None)
        assert np.array_equal(m @ m @ m, 0.125 * np.eye(3))

    def test_eigenvalues_are_scaled_roots_of_unity(self):
        m = Ring().recurrent(8, 0.9, None)
        got = np.sort_complex(np.linalg.eigvals(m))
        expected = np.sort_complex(0.9 * np.exp(2j * np.pi * np.arange(8) / 8))
        assert np.allclose(got, expected, atol=1e-10)

    def test_is_single_cycle_permutation(self):
        n = 9
        cycle = np.zeros((n, n))
        cycle[(np.arange(n) + 1) % n, np.arange(n)] = 0.4  # column i feeds row i+1 mod n
        assert np.array_equal(Ring().recurrent(n, 0.4, None), cycle)


class TestChainRecurrent:
    def test_exact_structure_and_nilpotency(self):
        m = Chain().recurrent(3, 1.0, None)
        assert np.array_equal(m, np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        assert np.array_equal(m @ m @ m, np.zeros((3, 3)))

    def test_spectral_radius_is_zero(self):
        m = Chain().recurrent(3, 0.5, None)
        assert np.max(np.abs(np.linalg.eigvals(m))) <= 1e-12
        assert spectral_radius(m) == 0.0

    def test_operator_norm_equals_weight(self):
        m = Chain().recurrent(5, 0.8, None)
        assert svd_norm(m) == pytest.approx(0.8, abs=1e-12)
        assert operator_norm(m) == pytest.approx(0.8, abs=1e-8)


class TestInputMatrix:
    def test_one_by_one(self):
        m = make_input_matrix(1, 1.3, random_stream(3))
        assert abs(m[0, 0]) == pytest.approx(1.3, abs=1e-12)

    def test_column_vector_norm(self):
        m = make_input_matrix(500, 0.6, random_stream(1, 9))
        assert np.linalg.norm(m) == pytest.approx(0.6, abs=1e-8)

    def test_svd_oracle(self):
        m = make_input_matrix(10, 0.7, random_stream(12))
        assert svd_norm(m) == pytest.approx(0.7, abs=1e-8)

    def test_dense(self):
        m = make_input_matrix(20, 1.0, random_stream(2))
        assert np.count_nonzero(m) == m.size


class TestInterlayerMatrix:
    def test_dense_row_when_fan_in_covers_source(self):
        m = make_interlayer_matrix(1, 5, 5, 1.0, random_stream(6))
        assert m.shape == (1, 5)
        assert np.count_nonzero(m) == 5
        assert np.linalg.norm(m) == pytest.approx(1.0, abs=1e-12)

    def test_fan_in_per_row(self):
        m = make_interlayer_matrix(167, 167, 5, 1.0, random_stream(3))
        assert (np.count_nonzero(m, axis=1) == 5).all()

    def test_svd_oracle(self):
        m = make_interlayer_matrix(50, 50, 5, 1.5, random_stream(9, 2))
        assert svd_norm(m) == pytest.approx(1.5, abs=1e-8)


class TestSpectralRadius:
    def test_symmetric_permutation(self):
        assert spectral_radius(np.array([[0.0, 1.0], [1.0, 0.0]])) == pytest.approx(1.0, abs=1e-12)

    def test_scaled_permutation(self):
        m = Permutation().recurrent(40, 0.85, random_stream(17))
        assert spectral_radius(m) == pytest.approx(0.85, abs=1e-12)

    def test_random_dense_against_eig_oracle(self):
        m = random_stream(23).uniform(-1.0, 1.0, size=(50, 50))
        oracle = eig_radius(m)
        assert spectral_radius(m) == pytest.approx(oracle, rel=1e-8)

    def test_complex_dominant_pair_goes_dense(self):
        m = np.array([[0.0, 2.0], [-0.5, 0.0]])  # eigenvalues +-i, norm ratio oscillates
        assert spectral_radius(m) == pytest.approx(1.0, rel=1e-10)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            spectral_radius(np.ones((2, 3)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            spectral_radius(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(np.eye(6)) == pytest.approx(1.0, rel=1e-10)

    def test_diagonal(self):
        assert operator_norm(np.diag([3.0, 1.0, 0.5])) == pytest.approx(3.0, rel=1e-10)

    def test_rectangular_against_svd_oracle(self):
        m = random_stream(31).standard_normal((20, 7))
        assert operator_norm(m) == pytest.approx(svd_norm(m), rel=1e-8)

    def test_vector_shapes(self):
        row = random_stream(5).standard_normal((1, 9))
        assert operator_norm(row) == pytest.approx(svd_norm(row), rel=1e-12)


class TestSharedProperties:
    """Cross-constructor invariants over a batch of seeds."""

    SIZES = (2, 10, 60)

    @pytest.mark.parametrize("seed", range(10))
    def test_permutation_and_ring_orthogonality(self, seed):
        for n in self.SIZES:
            lam = 0.3 + 0.1 * (seed % 5)
            p = Permutation().recurrent(n, lam, random_stream(seed, n))
            assert np.allclose(p.T @ p, lam * lam * np.eye(n), atol=1e-12)
            r = Ring().recurrent(n, lam, None)
            assert np.allclose(r.T @ r, lam * lam * np.eye(n), atol=1e-12)

    def test_chain_nilpotency_exact(self):
        for n in self.SIZES:
            m = Chain().recurrent(n, 0.9, None)
            assert np.array_equal(np.linalg.matrix_power(m, n), np.zeros((n, n)))

    @pytest.mark.parametrize("seed", range(6))
    def test_sparse_rescale_measures_back(self, seed):
        m = make_sparse_recurrent(40, 5, 0.95, random_stream(seed, 40))
        assert eig_radius(m) == pytest.approx(0.95, abs=1e-8)

    @pytest.mark.parametrize("seed", range(6))
    def test_norm_rescale_measures_back(self, seed):
        w = make_interlayer_matrix(30, 30, 5, 1.25, random_stream(seed, 77))
        assert svd_norm(w) == pytest.approx(1.25, abs=1e-8)

    def test_distinct_columns_within_rows(self):
        m = make_interlayer_matrix(80, 90, 5, 1.0, random_stream(13))
        assert (np.count_nonzero(m, axis=1) == 5).all()


@st.composite
def scaling_cases(draw):
    """Size, fan-in, and a (target, seed) pair for each of the two rescaled matrices."""
    n = draw(st.integers(1, 300))
    fan_in = draw(st.integers(1, min(n, 8)))
    targets = [draw(st.floats(0.05, 2.0)) for _ in range(2)]
    seeds = [draw(st.integers(0, 2**32 - 1)) for _ in range(2)]
    return n, fan_in, targets, seeds


@settings(max_examples=30, deadline=None)
@given(scaling_cases())
def test_rescaled_matrices_measure_back_exactly(case):
    n, fan_in, (rho, omega_il), (seed_r, seed_il) = case
    try:
        m = make_sparse_recurrent(n, fan_in, rho, random_stream(seed_r))
    except DegenerateMatrixError:
        pass
    else:
        assert (np.count_nonzero(m, axis=1) == fan_in).all()
        assert abs(eig_radius(m) - rho) <= 1e-8
    w = make_interlayer_matrix(n, n, fan_in, omega_il, random_stream(seed_il))
    # the norm from the Gram matrix's spectrum shares no SVD with operator_norm
    assert abs(np.sqrt(np.linalg.eigvalsh(w.T @ w)[-1]) - omega_il) <= 1e-8


class TestNamesAndSpecs:
    def test_round_trip_names(self):
        for kind in (Sparse(), Permutation(), Ring(), Chain()):
            assert parse_topology(kind.name) == kind

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            parse_topology("smallworld")

    def test_scaling_spec_validation(self):
        with pytest.raises(ValueError):
            ScalingSpec(rho=0.0, omega_in=1.0, omega_il=1.0)
        with pytest.raises(ValueError):
            ScalingSpec(rho=0.9, omega_in=-1.0, omega_il=1.0)
        with pytest.raises(ValueError):
            ScalingSpec(rho=0.9, omega_in=1.0, omega_il=float("inf"))

    def test_random_stream_is_keyed(self):
        a = random_stream(1, 2, 3).uniform(size=4)
        b = random_stream(1, 2, 3).uniform(size=4)
        c = random_stream(1, 2, 4).uniform(size=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
