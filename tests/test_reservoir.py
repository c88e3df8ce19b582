"""Deep reservoir construction and dynamics."""

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from deepesn import (
    Chain,
    DeepReservoir,
    INTERLAYER_FAN_IN,
    DegenerateMatrixError,
    LayerWeights,
    Permutation,
    ReservoirSpec,
    Ring,
    ScalingSpec,
    Sparse,
    build_reservoir,
    parse_topology,
    run,
)
from deepesn.reservoir import layer_sizes

SCALING = ScalingSpec(rho=0.9, omega_in=0.8, omega_il=1.1)


def small_spec(**overrides):
    base = dict(
        total_units=24,
        num_layers=3,
        topology=Sparse(fan_in=3),
        scaling=SCALING,
        seed=5,
    )
    base.update(overrides)
    return ReservoirSpec(**base)


class TestLayerSizes:
    def test_benchmark_scale_split(self):
        assert layer_sizes(500, 3) == (167, 167, 166)
        assert layer_sizes(500, 1) == (500,)
        assert layer_sizes(500, 5) == (100,) * 5

    def test_remainder_goes_to_early_layers(self):
        assert layer_sizes(7, 3) == (3, 2, 2)

    def test_errors(self):
        with pytest.raises(ValueError):
            layer_sizes(2, 3)
        with pytest.raises(ValueError):
            layer_sizes(5, 0)


class TestBuildReservoir:
    def test_shapes_and_structure(self):
        res = build_reservoir(small_spec())
        assert res.layer_sizes == (8, 8, 8)
        assert res.input_weights.shape == (8, 1)
        assert res.layers[0].inbound is None
        for index in (1, 2):
            assert res.layers[index].inbound.shape == (8, 8)
        for lw in res.layers:
            assert lw.recurrent.shape == (8, 8)

    def test_single_layer_has_no_interlayer(self):
        res = build_reservoir(small_spec(num_layers=1))
        assert res.num_layers == 1
        assert res.layers[0].inbound is None
        assert res.layers[0].recurrent.shape == (24, 24)

    def test_scaling_applied(self):
        res = build_reservoir(small_spec(num_layers=2))
        assert np.linalg.norm(res.input_weights) == pytest.approx(SCALING.omega_in, abs=1e-8)
        for lw in res.layers:
            radius = np.max(np.abs(np.linalg.eigvals(lw.recurrent)))
            assert radius == pytest.approx(SCALING.rho, abs=1e-8)
        top = np.linalg.svd(res.layers[1].inbound, compute_uv=False)[0]
        assert top == pytest.approx(SCALING.omega_il, abs=1e-8)

    def test_topology_dispatch(self):
        ring = build_reservoir(small_spec(topology=Ring())).layers[0].recurrent
        assert np.count_nonzero(ring) == 8
        assert ring[0, 7] == SCALING.rho
        chain = build_reservoir(small_spec(topology=Chain())).layers[1].recurrent
        assert np.array_equal(np.linalg.matrix_power(chain, 8), np.zeros((8, 8)))
        perm = build_reservoir(small_spec(topology=Permutation())).layers[2].recurrent
        assert np.allclose(perm.T @ perm, SCALING.rho ** 2 * np.eye(8), atol=1e-14)

    def test_determinism_bit_identical(self):
        a = build_reservoir(small_spec())
        b = build_reservoir(small_spec())
        assert np.array_equal(a.input_weights, b.input_weights)
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.recurrent, lb.recurrent)
            if la.inbound is not None:
                assert np.array_equal(la.inbound, lb.inbound)

    def test_layers_draw_independent_streams(self):
        res = build_reservoir(small_spec(topology=Permutation()))
        assert not np.array_equal(res.layers[0].recurrent, res.layers[1].recurrent)

    def test_matrices_are_read_only(self):
        res = build_reservoir(small_spec())
        with pytest.raises(ValueError):
            res.input_weights[0, 0] = 1.0

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            small_spec(total_units=2, num_layers=3)
        with pytest.raises(ValueError):
            small_spec(seed=-1)
        with pytest.raises(ValueError, match="at least 2 units"):
            small_spec(total_units=1, num_layers=1, topology=Ring())


def manual_two_layer():
    """1-unit-per-layer reservoir with hand-picked weights."""
    first = LayerWeights(recurrent=np.array([[0.5]]))
    second = LayerWeights(recurrent=np.array([[0.5]]), inbound=np.array([[1.0]]))
    return DeepReservoir(
        input_weights=np.array([[1.0]]), layers=(first, second), layer_sizes=(1, 1)
    )


@st.composite
def reference_cases(draw):
    """A small deep reservoir, an input run (possibly shorter than the stack) and an optional start state."""
    num_layers = draw(st.integers(1, 5))
    # a layer that feeds another needs room for the inter-layer fan-in
    smallest = draw(st.integers(2 if num_layers == 1 else INTERLAYER_FAN_IN, 8))
    total_units = num_layers * smallest + draw(st.integers(0, num_layers - 1))
    topology = parse_topology(draw(st.sampled_from(["sparse", "permutation", "ring", "chain"])),
                              fan_in=draw(st.integers(1, smallest)))
    spec = ReservoirSpec(
        total_units=total_units,
        num_layers=num_layers,
        topology=topology,
        scaling=ScalingSpec(rho=draw(st.floats(0.1, 1.5)), omega_in=draw(st.floats(0.1, 2.0)),
                            omega_il=draw(st.floats(0.1, 2.0))),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    inputs = rng.uniform(-1.0, 1.0, size=draw(st.integers(1, 30)))
    start = rng.uniform(-0.9, 0.9, size=total_units) if draw(st.booleans()) else None
    return spec, inputs, start


class TestRun:
    def test_zero_input_zero_state_is_identically_zero(self):
        res = build_reservoir(small_spec())
        states = run(res, np.zeros(50))
        assert np.array_equal(states, np.zeros((50, 24)))

    def test_single_unit_without_recurrence_decouples(self):
        res = DeepReservoir(
            input_weights=np.array([[1.0]]),
            layers=(LayerWeights(recurrent=np.array([[0.0]])),),
            layer_sizes=(1,),
        )
        states = run(res, [0.5, -0.5])
        assert np.array_equal(states, np.tanh([[0.5], [-0.5]]))

    def test_two_layer_hand_evaluation(self):
        # first layer sees the input, second sees the first layer's current state
        states = run(manual_two_layer(), [1.0, 1.0])
        x1_1 = np.tanh(1.0)
        x2_1 = np.tanh(x1_1)
        x1_2 = np.tanh(1.0 + 0.5 * x1_1)
        x2_2 = np.tanh(x1_2 + 0.5 * x2_1)
        assert np.array_equal(states, np.array([[x1_1, x2_1], [x1_2, x2_2]]))

    def test_states_strictly_inside_unit_interval(self):
        res = build_reservoir(small_spec(topology=Permutation()))
        inputs = np.sin(np.arange(200) * 0.7) * 3.0
        states = run(res, inputs)
        assert np.all(np.abs(states) < 1.0)

    def test_causality_prefix_bit_exact(self):
        res = build_reservoir(small_spec())
        inputs = np.cos(np.arange(120) * 0.3)
        full = run(res, inputs)
        prefix = run(res, inputs[:40])
        assert np.array_equal(full[:40], prefix)

    @pytest.mark.parametrize("num_layers", [1, 3])
    def test_empty_series_has_no_rows(self, num_layers):
        res = build_reservoir(small_spec(num_layers=num_layers))
        assert run(res, np.zeros(0)).shape == (0, 24)
        assert run(res, np.zeros((0, 1)), initial_state=np.full(24, 0.5)).shape == (0, 24)

    @settings(max_examples=100, deadline=None)
    @given(reference_cases(), st.integers(1, 30))
    def test_causal_bit_for_bit(self, case, split):
        # a prefix run is the full run's prefix, and a run resumed from any state continues it exactly
        spec, inputs, start = case
        try:
            res = build_reservoir(spec)
        except DegenerateMatrixError:
            reject()
        k = min(split, len(inputs))
        full = run(res, inputs, initial_state=start)
        assert np.array_equal(run(res, inputs[:k], initial_state=start), full[:k])
        assert np.array_equal(run(res, inputs[k:], initial_state=full[k - 1]), full[k:])

    def test_input_shape_errors(self):
        res = build_reservoir(small_spec())
        with pytest.raises(ValueError):
            run(res, np.ones((5, 2)))
        with pytest.raises(ValueError):
            run(res, np.array([1.0, np.nan]))

    @settings(max_examples=100, deadline=None)
    @given(reference_cases())
    def test_matches_plain_reference_recurrence(self, case):
        # independent oracle: direct dense evaluation of the update equations,
        # layer after layer within each step, from the same initial state
        spec, inputs, start = case
        try:
            res = build_reservoir(spec)
        except DegenerateMatrixError:
            reject()
        states = run(res, inputs, initial_state=start)
        offsets = np.cumsum((0,) + res.layer_sizes)
        start = np.zeros(res.total_units) if start is None else start
        x = [start[offsets[l]:offsets[l + 1]] for l in range(res.num_layers)]
        expected = []
        for u in inputs:
            for l, lw in enumerate(res.layers):
                drive = res.input_weights @ np.array([u]) if l == 0 else lw.inbound @ x[l - 1]
                x[l] = np.tanh(drive + lw.recurrent @ x[l])
            expected.append(np.concatenate(x))
        assert states.shape == (len(inputs), res.total_units)
        assert np.allclose(states, np.reshape(expected, states.shape), rtol=0.0, atol=1e-12)


class TestRunFromState:
    """Runs that start from a caller-supplied initial state."""

    def test_zero_initial_state_matches_run(self):
        res = build_reservoir(small_spec())
        inputs = np.sin(np.arange(30) * 0.5)
        assert np.array_equal(
            run(res, inputs), run(res, inputs, initial_state=np.zeros(24))
        )

    def test_initial_state_length_checked(self):
        res = build_reservoir(small_spec())
        with pytest.raises(ValueError):
            run(res, np.ones(4), initial_state=np.zeros(7))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_initial_state_must_be_finite(self, bad):
        # unchecked, NaN propagates to every state and inf saturates its units to exactly +-1
        res = build_reservoir(small_spec())
        start = np.zeros(24)
        start[5] = bad
        with pytest.raises(ValueError, match="finite"):
            run(res, np.ones(4), initial_state=start)

    def test_permutation_contraction_per_step(self):
        # single layer, weight 0.9: the state gap must shrink by at least 0.9 per step
        spec = small_spec(num_layers=1, total_units=40, topology=Permutation())
        res = build_reservoir(spec)
        inputs = np.sin(np.arange(300) * 0.17)
        rng = np.random.default_rng(3)
        start = np.clip(rng.uniform(-0.9, 0.9, size=40), -0.9, 0.9)
        a = run(res, inputs, initial_state=np.zeros(40))
        b = run(res, inputs, initial_state=start)
        gaps = np.linalg.norm(a - b, axis=1)
        previous = np.linalg.norm(start)
        for gap in gaps:
            if previous < 1e-4:
                break
            assert gap <= 0.9 * previous + 1e-12
            previous = gap

    def test_first_layer_contracts_inside_deep_stack(self):
        spec = small_spec(num_layers=2, total_units=40, topology=Ring())
        res = build_reservoir(spec)
        inputs = np.cos(np.arange(200) * 0.4)
        start = np.zeros(40)
        start[:20] = 0.5
        a = run(res, inputs, initial_state=np.zeros(40))
        b = run(res, inputs, initial_state=start)
        gaps = np.linalg.norm(a[:, :20] - b[:, :20], axis=1)
        previous = np.linalg.norm(start[:20])
        for gap in gaps:
            if previous < 1e-4:
                break
            assert gap <= SCALING.rho * previous + 1e-12
            previous = gap

    def test_chain_flushes_memory_after_input_stops(self):
        spec = small_spec(num_layers=1, total_units=12, topology=Chain())
        res = build_reservoir(spec)
        inputs = np.concatenate([np.ones(5), np.zeros(14)])
        states = run(res, inputs)
        # zero input plus nilpotent recurrence: state is exactly zero after
        # at most layer-size further steps
        assert np.array_equal(states[5 + 12:], np.zeros((2, 12)))
        assert np.any(states[5] != 0.0)
