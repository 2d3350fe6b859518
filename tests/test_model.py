import base64
import json
import struct
import tracemalloc

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

import marginleak as ml
from kkt_constructions import from_neurons, params_from_vector, scaled
from marginleak.model import _B64_CHUNK, _block_rows, _forward_arrays


def pl_value(pl, xs):
    """The piecewise-linear form at ``xs``, from the segment each point lies in."""
    idx = np.searchsorted(pl.breakpoints, xs, side="right")
    return pl.slopes[idx] * xs + pl.intercepts[idx]


def random_network(rng, d, k, scale=1.0):
    return ml.NetworkParams(
        rng.normal(0, scale, (k, d)), rng.normal(0, scale, k), rng.normal(0, scale, k)
    )


class TestForward:
    def test_zero_out_weights_give_zero(self):
        net = from_neurons([([1.0], 0.5, 0.0), ([2.0], -1.0, 0.0)])
        assert ml.forward_batch(net, [[3.0]]).tolist() == [0.0]

    def test_single_neuron(self):
        net = from_neurons([([1.0], 0.0, 1.0)])
        assert ml.forward_batch(net, [[2.0]]).tolist() == [2.0]

    def test_two_neurons(self):
        net = from_neurons([([1.0], 0.0, 1.0), ([1.0], -1.0, -1.0)])
        # max(0, 2) - max(0, 1) = 1
        assert ml.forward_batch(net, [[2.0]]).tolist() == [1.0]

    def test_dimension_mismatch_rejected(self):
        net = from_neurons([([1.0], 0.0, 1.0)])
        for xs in ([1.0, 2.0], [[1.0, 2.0]], np.zeros((3, 2))):
            with pytest.raises(ml.DimensionMismatchError):
                ml.forward_batch(net, xs)

    def test_batch_matches_scalar(self):
        # Oracle: the neuron sum at each point on its own.
        rng = np.random.default_rng(0)
        net = random_network(rng, 3, 5)
        xs = rng.normal(size=(10, 3))
        batch = ml.forward_batch(net, xs)
        for i, x in enumerate(xs):
            want = sum(v * max(0.0, float(w @ x) + b)
                       for w, b, v in zip(net.weights, net.biases, net.out_weights))
            assert batch[i] == pytest.approx(want, rel=1e-12)

    def test_block_rows(self):
        assert [_block_rows(k) for k in (1000, 256, 1 << 17, 1 << 20)] == [128, 512, 16, 16]

    @pytest.mark.parametrize("k", [256, 1000])
    def test_blocks_agree_with_one_product(self, k):
        # A tolerance, not bits: whether blocked and one-call products share
        # bits depends on the BLAS, its thread count and the shape.
        rng = np.random.default_rng(k)
        net = random_network(rng, 50, k)
        b = _block_rows(k)
        for n in (0, 1, b - 1, b, b + 1, 2 * b + 1, 1000):
            xs = rng.normal(size=(n, 50))
            got = ml.forward_batch(net, xs)
            want = _forward_arrays(xs @ net.weights.T, net.biases, net.out_weights)[2]
            assert got.shape == (n,)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    def test_memory_does_not_grow_with_rows(self):
        # One (4000, 1000) activation matrix would take 32 MB; a 128-row
        # block takes 1 MiB.
        rng = np.random.default_rng(3)
        net = random_network(rng, 10, 1000)
        xs = rng.normal(size=(4000, 10))
        tracemalloc.start()
        try:
            ml.forward_batch(net, xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20, f"peak {peak / 2**20:.1f} MiB"


class TestValidation:
    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            ml.NetworkParams(np.array([[np.nan]]), np.zeros(1), np.ones(1))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ml.NetworkParams(np.ones((2, 3)), np.zeros(3), np.ones(2))

    def test_immutable_arrays(self):
        net = from_neurons([([1.0], 0.0, 1.0)])
        with pytest.raises(ValueError):
            net.weights[0, 0] = 2.0

    def test_labels_must_be_signs(self):
        with pytest.raises(ValueError):
            ml.LabeledDataset(np.zeros((2, 1)), np.array([1.0, 0.5]))


class TestBreakpoints:
    def test_single_neuron_ratio(self):
        net = from_neurons([([2.0], -4.0, 1.0)])
        assert ml.to_piecewise_linear(net).breakpoints.tolist() == [2.0]

    def test_zero_weight_excluded(self):
        net = from_neurons([([0.0], 1.0, 1.0), ([1.0], -1.0, 1.0)])
        assert ml.to_piecewise_linear(net).breakpoints.tolist() == [1.0]

    def test_two_neurons_sorted(self):
        net = from_neurons([([1.0], -1.0, 1.0), ([-1.0], -3.0, 1.0)])
        assert ml.to_piecewise_linear(net).breakpoints.tolist() == [-3.0, 1.0]

    def test_requires_univariate(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ml.DimensionMismatchError):
            ml.to_piecewise_linear(random_network(rng, 2, 3))

    def test_locations_zero_some_preactivation(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            net = random_network(rng, 1, 6)
            locs = ml.to_piecewise_linear(net).breakpoints
            assert locs.size > 0
            pre = np.outer(locs, net.weights[:, 0]) + net.biases
            assert np.all(np.min(np.abs(pre), axis=1) <= 1e-12)


class TestPiecewiseLinear:
    def test_single_relu(self):
        pl = ml.to_piecewise_linear(from_neurons([([1.0], 0.0, 1.0)]))
        assert pl.breakpoints.tolist() == [0.0]
        assert pl.slopes.tolist() == [0.0, 1.0]
        assert pl.intercepts.tolist() == [0.0, 0.0]

    def test_all_zero_out_weights(self):
        pl = ml.to_piecewise_linear(from_neurons([([1.0], 0.5, 0.0), ([2.0], -1.0, 0.0)]))
        assert pl.breakpoints.size == 0
        assert pl.slopes.tolist() == [0.0]
        assert pl.intercepts.tolist() == [0.0]

    def test_matches_forward_on_random_network(self):
        # Oracle: direct evaluation of the network itself.
        rng = np.random.default_rng(3)
        net = random_network(rng, 1, 5)
        pl = ml.to_piecewise_linear(net)
        xs = rng.uniform(-5, 5, 1000)
        want = ml.forward_batch(net, xs.reshape(-1, 1))
        np.testing.assert_allclose(pl_value(pl, xs), want, rtol=1e-9, atol=1e-12)

    def test_dead_weight_constant_neuron_folds_into_intercept(self):
        net = from_neurons([([0.0], 1.0, 2.0), ([1.0], 0.0, 1.0)])
        pl = ml.to_piecewise_linear(net)
        assert pl.breakpoints.tolist() == [0.0]
        assert pl.intercepts.tolist() == [2.0, 2.0]

    def test_continuity_validated(self):
        with pytest.raises(ValueError):
            ml.PiecewiseLinear(np.array([0.0]), np.array([0.0, 0.0]), np.array([0.0, 1.0]))

    def test_segment_count_validated(self):
        with pytest.raises(ValueError):
            ml.PiecewiseLinear(np.array([0.0, 1.0]), np.array([0.0, 0.0]), np.array([0.0, 0.0]))

    def test_coinciding_breakpoints_merge(self):
        net = from_neurons([([1.0], -1.0, 1.0), ([2.0], -2.0, 1.0), ([1.0], 1.0, 1.0)])
        pl = ml.to_piecewise_linear(net)
        assert pl.breakpoints.tolist() == [-1.0, 1.0]


@hypothesis.settings(deadline=None, max_examples=40)
@hypothesis.given(
    seed=st.integers(0, 10_000),
    k=st.integers(1, 8),
    factor=st.sampled_from([0.5, 2.0, 10.0]),
)
def test_scaling_parameters_squares_the_output(seed, k, factor):
    rng = np.random.default_rng(seed)
    net = random_network(rng, int(rng.integers(1, 4)), k)
    x = rng.normal(size=(1, net.input_dim))
    base = ml.forward_batch(net, x)[0]
    out = ml.forward_batch(scaled(net, factor), x)[0]
    assert out == pytest.approx(factor**2 * base, rel=1e-9, abs=1e-12)


@hypothesis.settings(deadline=None, max_examples=25)
@hypothesis.given(seed=st.integers(0, 10_000), k=st.integers(1, 10))
def test_piecewise_linear_equivalence_property(seed, k):
    rng = np.random.default_rng(seed)
    net = random_network(rng, 1, k, scale=float(rng.uniform(0.1, 3.0)))
    pl = ml.to_piecewise_linear(net)
    xs = rng.uniform(-10, 10, 50)
    want = ml.forward_batch(net, xs.reshape(-1, 1))
    got = pl_value(pl, xs)
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)


KINK_KINDS = ("exact", "near", "dead", "silent")


@hypothesis.settings(deadline=None, max_examples=60)
@hypothesis.given(seed=st.integers(0, 10_000), n_locs=st.integers(1, 4),
                  kinds=st.lists(st.sampled_from(KINK_KINDS), min_size=1, max_size=12))
def test_piecewise_form_with_coincident_and_dead_kinks(seed, n_locs, kinds):
    # Neurons share a few kink locations: "exact" ones to the bit (a shared
    # (w, b) scaled by +-2^p), "near" ones off by a relative 1e-13 to 1e-11;
    # "dead" neurons have a zero input weight and "silent" ones a zero output
    # weight.  The form must give the network's values everywhere, kinks
    # included.
    rng = np.random.default_rng(seed)
    locs = rng.uniform(-5.0, 5.0, n_locs)
    neurons = []
    for kind in kinds:
        loc = locs[rng.integers(n_locs)]
        w = float(rng.choice([-1.0, 1.0]) * 2.0 ** rng.integers(-3, 4))
        b = -w * loc
        if kind == "near":
            b *= 1.0 + float(rng.choice([1e-13, -1e-12, 1e-11]))
        elif kind == "dead":
            w, b = 0.0, float(rng.normal())
        v = 0.0 if kind == "silent" else float(rng.normal())
        neurons.append(([w], b, v))
    net = from_neurons(neurons)
    pl = ml.to_piecewise_linear(net)
    assert np.all(np.diff(pl.breakpoints) > 0.0)
    xs = np.concatenate([rng.uniform(-10.0, 10.0, 200), locs, locs * (1.0 + 1e-12)])
    want = ml.forward_batch(net, xs.reshape(-1, 1))
    w, b, v = net.weights[:, 0], net.biases, net.out_weights
    scale = float(np.sum(np.abs(v) * (10.0 * np.abs(w) + np.abs(b))))
    np.testing.assert_allclose(pl_value(pl, xs), want, rtol=1e-9, atol=1e-9 * scale)


class TestModelFile:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(4)
        net = random_network(rng, 3, 4, scale=1.7)
        path = tmp_path / "model.json"
        ml.save_network(net, path)
        back = ml.load_network(path)
        np.testing.assert_array_equal(back.weights, net.weights)
        np.testing.assert_array_equal(back.biases, net.biases)
        np.testing.assert_array_equal(back.out_weights, net.out_weights)

    def test_document_keys(self, tmp_path):
        net = ml.NetworkParams(np.array([[0.5, -1.0], [2.0, 3.0]]), np.array([0.1, 0.2]),
                               np.array([-2.0, 4.0]))
        path = tmp_path / "model.json"
        ml.save_network(net, path)
        doc = json.loads(path.read_text())
        assert set(doc) == {"format_version", "input_dim", "width", "weights", "biases",
                            "out_weights"}
        assert doc["format_version"] == 2
        assert doc["input_dim"] == 2 and doc["width"] == 2
        # README's one-line decode; the weights are in C order.
        weights = np.frombuffer(base64.b64decode(doc["weights"]), "<f8").reshape(2, 2)
        assert weights.tolist() == [[0.5, -1.0], [2.0, 3.0]]
        assert np.frombuffer(base64.b64decode(doc["biases"]), "<f8").tolist() == [0.1, 0.2]
        assert np.frombuffer(base64.b64decode(doc["out_weights"]), "<f8").tolist() == [-2.0, 4.0]

    def test_malformed_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ml.FileFormatError):
            ml.load_network(path)
        path.write_text(json.dumps({"format_version": 99, "input_dim": 1, "width": 0, "neurons": []}))
        with pytest.raises(ml.FileFormatError):
            ml.load_network(path)

    def test_format_1_rejected(self, tmp_path):
        path = tmp_path / "v1.json"
        path.write_text(
            json.dumps(
                {"format_version": 1, "input_dim": 1, "width": 1,
                 "neurons": [{"w": [1.0], "b": 0.0, "v": 1.0}]}
            )
        )
        with pytest.raises(ml.FileFormatError, match="unsupported model format_version 1"):
            ml.load_network(path)

    def test_declared_shape_must_match(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {"format_version": 2, "input_dim": 2, "width": 1, "weights": encode([1.0]),
                 "biases": encode([0.0]), "out_weights": encode([1.0])}
            )
        )
        with pytest.raises(ml.FileFormatError, match="weights holds 8 bytes, expected 16"):
            ml.load_network(path)

    # At k = d = 1000 the weights take 8 MB and their base64 text 10.7 MB.
    def test_save_forms_no_copy_of_the_document(self, tmp_path):
        net = random_network(np.random.default_rng(5), 1000, 1000)
        tracemalloc.start()
        try:
            ml.save_network(net, tmp_path / "model.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_load_peaks_below_three_networks(self, tmp_path):
        # Parsing holds the file's text beside the document; each array's
        # text is freed once decoded, before the network copies the arrays.
        path = tmp_path / "model.json"
        ml.save_network(random_network(np.random.default_rng(5), 1000, 1000), path)
        tracemalloc.start()
        try:
            net = ml.load_network(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = net.weights.nbytes + net.biases.nbytes + net.out_weights.nbytes
        assert peak <= 3 * size, f"peak {peak / size:.2f} networks"


def encode(values) -> str:
    """Base64 of little-endian float64 ``values``, packed by ``struct``."""
    return base64.b64encode(struct.pack(f"<{len(values)}d", *values)).decode("ascii")


# Exact-bits cases for the model and dataset file round trips: the smallest
# subnormal, a negative zero, the largest magnitudes, and reprs with and
# without exponents.
SPECIAL_FLOATS = [-0.0, 5e-324, 1e-300, 1e308, 1e16, 3.0, 0.1]
FILE_FLOATS = st.one_of(
    st.sampled_from(SPECIAL_FLOATS), st.floats(allow_nan=False, allow_infinity=False)
)


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@hypothesis.settings(
    deadline=None, max_examples=60,
    suppress_health_check=[hypothesis.HealthCheck.function_scoped_fixture],
)
@hypothesis.given(
    d=st.integers(1, 4), k=st.integers(1, 4),
    values=st.lists(FILE_FLOATS, min_size=24, max_size=24),
)
@hypothesis.example(d=1, k=1, values=(SPECIAL_FLOATS * 4)[:24])
@hypothesis.example(d=4, k=4, values=(SPECIAL_FLOATS * 4)[:24])
def test_model_file_matches_json_module_and_round_trips(tmp_path, d, k, values):
    check_model_file(tmp_path, params_from_vector(np.array(values[: k * (d + 2)]), d, k))


def check_model_file(tmp_path, net):
    """The file of ``net`` has the json module's bytes and loads to the same bits."""
    path = tmp_path / "model.json"
    ml.save_network(net, path)
    doc = {
        "format_version": 2, "input_dim": net.input_dim, "width": net.width,
        "weights": encode(net.weights.ravel().tolist()),
        "biases": encode(net.biases.tolist()),
        "out_weights": encode(net.out_weights.tolist()),
    }
    assert path.read_bytes() == (json.dumps(doc, indent=1) + "\n").encode()
    back = ml.load_network(path)
    assert same_bits(back.weights, net.weights)
    assert same_bits(back.biases, net.biases)
    assert same_bits(back.out_weights, net.out_weights)


# Arrays are encoded in chunks of _B64_CHUNK bytes.  The weights take less
# than one chunk, exactly one, and two chunks and 8 bytes; at d = 1 the
# biases and out_weights take one chunk and 8 bytes too.
CHUNK_FLOATS = _B64_CHUNK // 8


@pytest.mark.parametrize("k, d", [
    (2, CHUNK_FLOATS // 2 - 1), (24, CHUNK_FLOATS // 24), (1, 2 * CHUNK_FLOATS + 1),
    (CHUNK_FLOATS + 1, 1),
], ids=["below-one-chunk", "one-chunk", "two-chunks-and-8-bytes", "vectors-over-one-chunk"])
def test_model_file_bytes_across_encoding_chunks(tmp_path, k, d):
    check_model_file(tmp_path, random_network(np.random.default_rng(k + d), d, k))
