"""Deep reservoir construction and dynamics."""

import hashlib
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import deepesn
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


# sha256 of the float64 bytes of the weights drawn for a 3-layer, 24-unit reservoir with seed 5
WEIGHT_DIGESTS = {
    "sparse": "946c8a7bdb189058a2f797025607786e2f06a038e5dff5b3a0b48bbd353133fe",
    "permutation": "6114e5f2bb94a8ab9f7bb9d3a81cf1b9029deb8fd925bc658410b52c118b58d0",
    "ring": "6cd654ded10102a9b6540915908818339e962cbf712f8f4b19bf39478e81d816",
    "chain": "dc30c34904bd929df2701e6c35f6b6cb703bcdbb90c4b40c36016d46025a6bcf",
}

# sha256 of the float64 bytes of run's states for a 24-unit reservoir with seed 5 over 100 seeded inputs, then of a
# run over 30 more resumed from the last state, per topology and layer count
STATE_DIGESTS = {
    ("sparse", 1): "a7c4a4b0b0ec50a1441b758c3ab230baf49fbc13bcd874d14971947cbdc13023",
    ("sparse", 3): "4bcfeadd2d1d32fc4e836913edc7df0f09a1df7423303b8774819067cb6cc2a5",
    ("permutation", 1): "03bf2df7a2c59c404441c659907cf6a9c0cb3bfb261378e19933ae3e7cc2d5c1",
    ("permutation", 3): "69e3bbbaa11a19e8c339c7e37b76a276eaffab64d05095932ee8d3122b3d5d4a",
    ("ring", 1): "5078f67eea7b370083bf50015a0abbcd528066c34cdb2da171587148c1b901c4",
    ("ring", 3): "65227900f4fa46f7bb4f9c9be55784ae1658767057f6184969ceae75805984bf",
    ("chain", 1): "f861933076944e55d8d6d176385327b0fdbd3e123f0786bab739f75cb2fb0b94",
    ("chain", 3): "de3f4587739d5f82340ca2f74be91226a214a2117be0c1eb2725d7b9a6576585",
}


def small_spec(**overrides):
    base = dict(
        total_units=24,
        num_layers=3,
        topology=Sparse(),
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
        assert res.layers[0].inbound is res.input_weights
        assert res.input_weights.shape == (8, 1)
        for index in (1, 2):
            assert res.layers[index].inbound.shape == (8, 8)
        for lw in res.layers:
            assert lw.recurrent.shape == (8, 8)

    def test_single_layer_has_no_interlayer(self):
        res = build_reservoir(small_spec(num_layers=1))
        assert res.num_layers == 1
        assert res.layers[0].inbound is res.input_weights
        assert res.input_weights.shape == (24, 1)
        assert res.layers[0].recurrent.shape == (24, 24)

    def test_scaling_applied(self):
        res = build_reservoir(small_spec(num_layers=2))
        assert np.linalg.norm(res.input_weights.toarray()) == pytest.approx(SCALING.omega_in, abs=1e-8)
        for lw in res.layers:
            radius = np.max(np.abs(np.linalg.eigvals(lw.recurrent.toarray())))
            assert radius == pytest.approx(SCALING.rho, abs=1e-8)
        top = np.linalg.svd(res.layers[1].inbound.toarray(), compute_uv=False)[0]
        assert top == pytest.approx(SCALING.omega_il, abs=1e-8)

    def test_topology_dispatch(self):
        ring = build_reservoir(small_spec(topology=Ring())).layers[0].recurrent.toarray()
        assert np.count_nonzero(ring) == 8
        assert ring[0, 7] == SCALING.rho
        chain = build_reservoir(small_spec(topology=Chain())).layers[1].recurrent.toarray()
        assert np.array_equal(np.linalg.matrix_power(chain, 8), np.zeros((8, 8)))
        perm = build_reservoir(small_spec(topology=Permutation())).layers[2].recurrent.toarray()
        assert np.allclose(perm.T @ perm, SCALING.rho ** 2 * np.eye(8), atol=1e-14)

    def test_determinism_bit_identical(self):
        a = build_reservoir(small_spec())
        b = build_reservoir(small_spec())
        assert np.array_equal(a.input_weights.toarray(), b.input_weights.toarray())
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.recurrent.toarray(), lb.recurrent.toarray())
            assert np.array_equal(la.inbound.toarray(), lb.inbound.toarray())

    @pytest.mark.parametrize("kind", WEIGHT_DIGESTS)
    def test_drawn_weights_are_pinned(self, kind):
        # every matrix comes from its own seeded stream; a change to a stream, its key or the order a
        # builder consumes it in changes these digests, and with them every published number
        res = build_reservoir(ReservoirSpec(total_units=24, num_layers=3, topology=parse_topology(kind),
                                            scaling=ScalingSpec(0.9, 0.8, 1.1), seed=5))
        h = hashlib.sha256(res.input_weights.toarray().tobytes())
        for index, lw in enumerate(res.layers):  # each layer's recurrent matrix, then its inter-layer one
            h.update(lw.recurrent.toarray().tobytes())
            if index > 0:
                h.update(lw.inbound.toarray().tobytes())
        assert h.hexdigest() == WEIGHT_DIGESTS[kind]

    def test_layers_draw_independent_streams(self):
        res = build_reservoir(small_spec(topology=Permutation()))
        assert not np.array_equal(res.layers[0].recurrent.toarray(), res.layers[1].recurrent.toarray())

    def test_matrices_are_read_only(self):
        res = build_reservoir(small_spec())
        with pytest.raises(ValueError):
            res.input_weights[0, 0] = 1.0
        for block in (res.layers[1].recurrent, res.layers[1].inbound):
            for array in (block.data, block.indices, block.indptr):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = array[0]
        # a hand-built layer holds copies, so the caller's own arrays stay writable
        mine = scipy.sparse.csr_array(np.array([[0.5]]))
        LayerWeights(mine, mine)
        mine.data[0] = 0.25

    def test_paper_size_sparse_layer_holds_only_csr_blocks(self):
        # the 500x500 recurrent matrix is drawn dense (2 MB) to measure its spectral radius; none of that
        # outlives the build, and the stack is the one assembled from CSR copies of the dense draws
        spec = ReservoirSpec(total_units=500, num_layers=1, topology=Sparse(), scaling=SCALING, seed=5)
        build_reservoir(spec)  # imports and caches outside the measurement
        tracemalloc.start()
        try:
            res = build_reservoir(spec)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 100_000
        blocks = [res.layers[0].recurrent, res.layers[0].inbound]
        for block in blocks:
            assert type(block) is scipy.sparse.csr_array
            assert not any(array.flags.writeable for array in (block.data, block.indices, block.indptr))
        dense_path = scipy.sparse.block_array([[scipy.sparse.csr_array(block.toarray()) for block in blocks]],
                                              format="csr")
        for name in ("indptr", "indices", "data"):
            ours, theirs = getattr(res.stack, name), getattr(dense_path, name)
            assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes()

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            small_spec(total_units=2, num_layers=3)
        with pytest.raises(ValueError):
            small_spec(seed=-1)
        with pytest.raises(ValueError, match="at least 2 units"):
            small_spec(total_units=1, num_layers=1, topology=Ring())

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 6), st.sampled_from(["sparse", "permutation", "ring", "chain"]),
           st.integers(0, 2**32 - 1))
    def test_spec_check_covers_every_builder_precondition(self, total_units, num_layers, kind, seed):
        # the builders trust their arguments, so the spec must reject exactly what they cannot draw
        def unbuildable():
            if total_units < num_layers:
                return True
            sizes = layer_sizes(total_units, num_layers)
            return (
                (kind == "sparse" and min(sizes) < Sparse.fan_in)
                or (kind in ("ring", "chain") and min(sizes) < 2)
                or (num_layers > 1 and min(sizes[:-1]) < INTERLAYER_FAN_IN)
            )

        layout = dict(total_units=total_units, num_layers=num_layers, topology=parse_topology(kind))
        if unbuildable():
            with pytest.raises(ValueError):
                small_spec(**layout, seed=seed)
            return
        res = build_reservoir(small_spec(**layout, seed=seed))
        for index, lw in enumerate(res.layers):
            if kind == "sparse":
                assert (np.count_nonzero(lw.recurrent.toarray(), axis=1) == Sparse.fan_in).all()
            if index > 0:
                assert (np.count_nonzero(lw.inbound.toarray(), axis=1) == INTERLAYER_FAN_IN).all()


def manual_two_layer():
    """1-unit-per-layer reservoir with hand-picked weights."""
    first = LayerWeights(recurrent=np.array([[0.5]]), inbound=np.array([[1.0]]))
    second = LayerWeights(recurrent=np.array([[0.5]]), inbound=np.array([[1.0]]))
    return DeepReservoir(layers=(first, second))


@st.composite
def reference_cases(draw, max_layers=5):
    """A small deep reservoir, an input run (possibly shorter than the stack) and an optional start state."""
    num_layers = draw(st.integers(1, max_layers))
    # a layer that feeds another needs room for the inter-layer fan-in
    smallest = draw(st.integers(2 if num_layers == 1 else INTERLAYER_FAN_IN, 8))
    total_units = num_layers * smallest + draw(st.integers(0, num_layers - 1))
    kinds = ["permutation", "ring", "chain"] + (["sparse"] if smallest >= Sparse.fan_in else [])
    topology = parse_topology(draw(st.sampled_from(kinds)))
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


NON_SQUARE_RUN = """
import numpy as np
from deepesn import DeepReservoir, LayerWeights, run

layer = LayerWeights(recurrent=np.array([[0.5, 0.25, 0.125]]), inbound=np.array([[1.0]]))
print(run(DeepReservoir(layers=(layer,)), [0.5, -0.5]))
"""


class TestRun:
    def test_zero_input_zero_state_is_identically_zero(self):
        res = build_reservoir(small_spec())
        states = run(res, np.zeros(50))
        assert np.array_equal(states, np.zeros((50, 24)))

    def test_single_unit_without_recurrence_decouples(self):
        res = DeepReservoir(layers=(LayerWeights(recurrent=np.array([[0.0]]), inbound=np.array([[1.0]])),))
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

    def test_weights_that_do_not_fit_the_layers_raise(self):
        # a 1x3 recurrent matrix makes a (1, 4) stack for one unit; run's kernel trusts the stack's shape,
        # so a child process keeps a crash, should the check be missing, from ending the test session
        src = str(Path(deepesn.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", NON_SQUARE_RUN], capture_output=True, text=True, env=env,
                              timeout=120)
        assert done.returncode == 1, done.stdout + done.stderr
        assert done.stderr.splitlines()[-1] == "ValueError: weights of shape (1, 4) do not fit layers of (1,) units"

    def test_misfit_inbound_matrix_raises(self):
        # every layer has an inbound matrix, and one that does not fit its layers fails the stack's assembly
        one = np.array([[1.0]])
        with pytest.raises(TypeError):
            LayerWeights(one)
        # a block that is not 2-D, or holds a non-finite entry, is refused before it can reach a run
        with pytest.raises(ValueError, match=r"^the inbound matrix must be 2-D, got shape \(1,\)$"):
            LayerWeights(one, np.ones(1))
        with pytest.raises(ValueError, match=r"^the recurrent matrix must be 2-D, got shape \(1, 1, 1\)$"):
            LayerWeights(np.ones((1, 1, 1)), one)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="^the inbound matrix must have finite entries$"):
                LayerWeights(np.array([[0.5]]), np.array([[bad]]))
            with pytest.raises(ValueError, match="^the recurrent matrix must have finite entries$"):
                LayerWeights(scipy.sparse.csr_array(np.array([[bad]])), one)
        two_inputs = DeepReservoir(layers=(LayerWeights(one, np.ones((1, 2))),))
        with pytest.raises(ValueError, match=r"^weights of shape \(1, 3\) do not fit layers of \(1,\) units$"):
            two_inputs.stack
        too_wide = DeepReservoir(layers=(LayerWeights(one, one), LayerWeights(one, np.ones((1, 2)))))
        with pytest.raises(ValueError, match="incompatible column dimensions"):
            too_wide.stack

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

    def test_skew_undo_copies_no_whole_layer_block(self):
        # each layer's block moves up in bounded pieces; a copy of one 50-unit block would be 1.2 MB here
        res = build_reservoir(small_spec(total_units=200, num_layers=4, topology=Ring()))
        inputs = np.sin(np.arange(3000) * 0.1)
        run(res, inputs[:10])  # the stack is assembled outside the measurement
        tracemalloc.start()
        try:
            states = run(res, inputs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - states.base.nbytes < 3000 * 50 * 8 / 2

    @pytest.mark.parametrize("kind, num_layers", STATE_DIGESTS,
                             ids=[f"{kind}-L{num_layers}" for kind, num_layers in STATE_DIGESTS])
    def test_run_states_are_pinned(self, kind, num_layers):
        # a change to the step loop that moves any bit of any state, from the null state or a resumed one,
        # changes these digests, and with them every published number
        res = build_reservoir(ReservoirSpec(total_units=24, num_layers=num_layers, topology=parse_topology(kind),
                                            scaling=ScalingSpec(0.9, 0.8, 1.1), seed=5))
        inputs = np.random.default_rng(5).uniform(0.0, 0.5, 130)
        states = run(res, inputs[:100])
        h = hashlib.sha256(states.tobytes())
        h.update(run(res, inputs[100:], initial_state=states[-1]).tobytes())
        assert h.hexdigest() == STATE_DIGESTS[kind, num_layers]

    @pytest.mark.parametrize("num_layers", [1, 3])
    def test_empty_series_has_no_rows(self, num_layers):
        res = build_reservoir(small_spec(num_layers=num_layers))
        assert run(res, np.zeros(0)).shape == (0, 24)
        assert run(res, np.zeros(0), initial_state=np.full(24, 0.5)).shape == (0, 24)

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

    @settings(max_examples=100, deadline=None)
    @given(reference_cases(max_layers=4), st.data())
    def test_a_run_cut_anywhere_equals_one_run(self, case, data):
        # evaluate_trial runs a guess in pieces, each resumed from a copy of the last row of the one before;
        # the pieces may be shorter than the deepest layer's lag
        spec, inputs, start = case
        try:
            res = build_reservoir(spec)
        except DegenerateMatrixError:
            reject()
        cut = data.draw(st.lists(st.booleans(), min_size=len(inputs) - 1, max_size=len(inputs) - 1))
        ends = [end for end, here in enumerate(cut, start=1) if here] + [len(inputs)]
        pieces, last, begin = [], start, 0
        for end in ends:
            pieces.append(run(res, inputs[begin:end], initial_state=last))
            last, begin = pieces[-1][-1].copy(), end
        assert np.array_equal(np.concatenate(pieces), run(res, inputs, initial_state=start))

    def test_stack_is_assembled_once_per_reservoir(self, monkeypatch):
        calls = []
        assemble = scipy.sparse.block_array
        monkeypatch.setattr(scipy.sparse, "block_array", lambda *args, **kwargs: calls.append(1) or assemble(*args, **kwargs))
        res = build_reservoir(small_spec())
        inputs = np.cos(np.arange(60) * 0.3)
        first = run(res, inputs[:20])
        assert np.array_equal(run(res, inputs[20:], initial_state=first[-1]), run(res, inputs)[20:])
        assert len(calls) == 1

    def test_input_shape_errors(self):
        res = build_reservoir(small_spec())
        for shape in ((5, 2), (5, 1)):
            with pytest.raises(ValueError, match="^inputs must be a 1-D series"):
                run(res, np.ones(shape))
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
                x[l] = np.tanh(lw.inbound @ (np.array([u]) if l == 0 else x[l - 1]) + lw.recurrent @ x[l])
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
