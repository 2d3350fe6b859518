import math

import numpy as np
import pytest

import marginleak as ml
from marginleak.model import params_from_vector
from marginleak.training import TRACE_CSV_COLUMNS, loss_values
from train_reference import reference_train


def dataset(points, labels):
    return ml.LabeledDataset(np.asarray(points, dtype=float), np.asarray(labels, dtype=float))


def zero_network(d=2, k=3):
    return ml.NetworkParams(np.zeros((k, d)), np.zeros(k), np.zeros(k))


class TestLoss:
    def test_zero_network_exponential(self):
        data = dataset([[1.0, 0.0], [0.0, 2.0]], [1, -1])
        assert ml.loss(zero_network(), data, "exponential") == pytest.approx(1.0)

    def test_zero_network_logistic(self):
        data = dataset([[1.0, 0.0]], [1])
        assert ml.loss(zero_network(), data, "logistic") == pytest.approx(math.log(2.0))

    def test_unit_margin_exponential(self):
        net = ml.NetworkParams.from_neurons([([1.0], 0.0, 1.0)])
        data = dataset([[1.0]], [1])  # y * Phi = 1
        assert ml.loss(net, data, "exponential") == pytest.approx(math.exp(-1.0))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ml.loss(zero_network(), dataset([[0.0, 0.0]], [1]), "hinge")


class TestGradient:
    def test_inactive_network_has_zero_weight_gradients(self):
        # All pre-activations negative: sigma' = 0 everywhere.
        net = ml.NetworkParams(np.zeros((2, 1)), np.array([-1.0, -2.0]), np.array([1.0, -1.0]))
        data = dataset([[0.0], [0.5]], [1, -1])
        g = ml.gradient(net, data, "exponential")
        np.testing.assert_array_equal(g.weights, 0.0)
        np.testing.assert_array_equal(g.biases, 0.0)
        np.testing.assert_array_equal(g.out_weights, 0.0)

    def test_single_active_neuron_hand_formula(self):
        w, b, v = 1.5, 0.5, 2.0
        x, y = 1.0, 1.0
        net = ml.NetworkParams.from_neurons([([w], b, v)])
        data = dataset([[x]], [y])
        g = ml.gradient(net, data, "exponential")
        z = y * v * (w * x + b)
        lprime = -math.exp(-z)
        assert g.weights[0, 0] == pytest.approx(lprime * y * v * x)
        assert g.biases[0] == pytest.approx(lprime * y * v)
        assert g.out_weights[0] == pytest.approx(lprime * y * (w * x + b))

    @pytest.mark.parametrize("kind", ["exponential", "logistic"])
    def test_matches_central_finite_differences(self, kind):
        # Independent oracle: central differences of the loss itself,
        # on instances regenerated until no point is near a kink.
        rng = np.random.default_rng(42)
        d, k, n = 3, 4, 5
        checked = 0
        attempt = 0
        while checked < 5:
            attempt += 1
            assert attempt < 200
            w = rng.normal(0, 0.8, (k, d))
            b = rng.normal(0, 0.8, k)
            v = rng.normal(0, 0.8, k)
            xs = rng.normal(0, 1.0, (n, d))
            ys = rng.choice([-1.0, 1.0], n)
            pre = xs @ w.T + b
            if np.min(np.abs(pre)) < 1e-2:
                continue
            net = ml.NetworkParams(w, b, v)
            data = dataset(xs, ys)
            analytic = ml.gradient(net, data, kind).flat()
            fd = finite_difference_gradient(net, data, kind)
            np.testing.assert_allclose(analytic, fd, rtol=1e-5, atol=1e-9)
            checked += 1


def finite_difference_gradient(net, data, kind, h=1e-5):
    theta = net.parameter_vector()
    grad = np.empty_like(theta)
    for i in range(theta.size):
        plus = theta.copy()
        plus[i] += h
        minus = theta.copy()
        minus[i] -= h
        lp = ml.loss(params_from_vector(plus, net.input_dim, net.width), data, kind)
        lm = ml.loss(params_from_vector(minus, net.input_dim, net.width), data, kind)
        grad[i] = (lp - lm) / (2.0 * h)
    return grad


class TestInitSmall:
    def test_deterministic(self):
        a = ml.init_small(2, 3, 1e-4, seed=7)
        b = ml.init_small(2, 3, 1e-4, seed=7)
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.biases, b.biases)
        np.testing.assert_array_equal(a.out_weights, b.out_weights)

    def test_scale_bounds_parameters(self):
        # Direct sampling check over 100 seeds.
        for seed in range(100):
            net = ml.init_small(3, 5, 1e-4, seed=seed)
            biggest = max(
                np.max(np.abs(net.weights)),
                np.max(np.abs(net.biases)),
                np.max(np.abs(net.out_weights)),
            )
            assert biggest < 1e-2

    def test_weight_rows_use_reduced_scale(self):
        nets = [ml.init_small(100, 200, 1.0, seed=s) for s in range(3)]
        w_std = np.std(np.concatenate([n.weights.ravel() for n in nets]))
        b_std = np.std(np.concatenate([n.biases for n in nets]))
        assert w_std == pytest.approx(0.1, rel=0.05)
        assert b_std == pytest.approx(1.0, rel=0.1)

    def test_zero_scale_rejected(self):
        with pytest.raises(ValueError):
            ml.init_small(2, 3, 0.0, seed=0)


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ml.TrainConfig(width=0)
        with pytest.raises(ValueError):
            ml.TrainConfig(width=4, lr_growth=0.9)
        with pytest.raises(ValueError):
            ml.TrainConfig(width=4, loss_kind="hinge")
        with pytest.raises(ValueError):
            ml.TrainConfig(width=4, loss_target=0.0)


class TestTrain:
    def test_symmetric_pair_classifies_with_margin(self, symmetric_pair_run):
        data, cfg, net, trace = symmetric_pair_run
        z = data.labels * ml.forward_batch(net, data.points)
        assert np.all(z > 0)
        assert trace.final().min_margin > 0
        assert trace.reached_loss_below_1_over_n

    def test_normalized_margin_non_decreasing_late(self, symmetric_pair_run):
        _, _, _, trace = symmetric_pair_run
        nm = [r.normalized_margin for r in trace.records]
        tail = nm[len(nm) // 2 :]
        slack = 1e-3 * max(1.0, abs(tail[-1]))
        assert all(b >= a - slack for a, b in zip(tail, tail[1:]))

    def test_trace_final_matches_returned_network(self, symmetric_pair_run):
        data, _, net, trace = symmetric_pair_run
        z = data.labels * ml.forward_batch(net, data.points)
        assert trace.final().min_margin == pytest.approx(float(np.min(z)), rel=1e-12)

    def test_single_point_lands_on_margin(self):
        data = dataset([[0.7]], [1])
        cfg = ml.TrainConfig(width=1, max_steps=800, loss_target=1e-4,
                             kkt_residual_target=0.5, rng_seed=3, checkpoint_every=50)
        net, trace, _ = ml.train_non_degenerate(data, cfg)
        out = abs(ml.forward(net, [0.7]))
        assert out == pytest.approx(abs(trace.final().min_margin), rel=1e-12)

    def test_loss_monotone_with_fixed_small_rate(self):
        data = dataset([[-1.0], [1.0]], [-1, 1])
        cfg = ml.TrainConfig(width=8, learning_rate=1e-3, lr_growth=1.0,
                             init_scale=1e-2, max_steps=600, loss_target=1e-12,
                             kkt_residual_target=1e-12, rng_seed=1, checkpoint_every=50)
        _, trace = ml.train(data, cfg)
        losses = trace.losses()
        assert np.all(np.diff(losses) <= 1e-12)

    def test_bitwise_deterministic(self):
        data = dataset([[-1.0], [0.4], [1.0]], [-1, 1, 1])
        cfg = ml.TrainConfig(width=6, max_steps=400, rng_seed=5, init_scale=1e-2,
                             checkpoint_every=40)
        _, t1 = ml.train(data, cfg)
        _, t2 = ml.train(data, cfg)
        assert t1.losses().tolist() == t2.losses().tolist()

    def test_divergence_reported_with_trace(self):
        # Seed 6 puts the initial output at +3467 on this point, so the
        # exponential loss of the mislabeled point overflows immediately.
        data = dataset([[1000.0]], [-1])
        cfg = ml.TrainConfig(width=2, init_scale=1.0, learning_rate=1e-3,
                             max_steps=50, rng_seed=6)
        big = ml.init_small(1, 2, 1.0, 6)
        z = -ml.forward_batch(big, data.points)
        assert not np.isfinite(np.mean(loss_values(z, "exponential")))
        with pytest.raises(ml.TrainingDivergedError) as exc_info:
            ml.train(data, cfg)
        assert isinstance(exc_info.value.trace, ml.TrainTrace)

    def test_steps_strictly_increasing(self, symmetric_pair_run):
        _, _, _, trace = symmetric_pair_run
        steps = [r.step for r in trace.records]
        assert steps == sorted(set(steps))

    def test_ensure_active_neuron_rescues_dead_side(self):
        # Seed 0 starts with every neuron inactive on x = -1.
        data = dataset([[-1.0], [1.0]], [-1, 1])
        cfg = ml.TrainConfig(width=8, max_steps=3000, loss_target=1e-6,
                             kkt_residual_target=0.5, rng_seed=0, init_scale=1e-4,
                             learning_rate=1e-2, ensure_active_neuron=True)
        net, trace = ml.train(data, cfg)
        assert trace.reached_loss_below_1_over_n

    def test_trace_records_residual_method(self, symmetric_pair_run):
        data, _, net, trace = symmetric_pair_run
        report = ml.estimate_lambdas(net, data)
        assert trace.final().residual_method == report.residual_method
        assert trace.final().kkt_residual == report.stationarity_residual

    def test_dead_init_trace_says_degenerate(self):
        # Seed 0 leaves the single neuron inactive on x = 0.7 for good.
        data = dataset([[0.7]], [1])
        cfg = ml.TrainConfig(width=1, max_steps=100, rng_seed=0, checkpoint_every=50)
        _, trace = ml.train(data, cfg)
        assert [(r.kkt_residual, r.residual_method) for r in trace.records] == [
            (1.0, "degenerate")] * 3

    def test_retry_skips_dead_inits(self):
        data = dataset([[0.7]], [1])
        cfg = ml.TrainConfig(width=1, max_steps=400, loss_target=1e-4,
                             kkt_residual_target=0.5, rng_seed=0, checkpoint_every=50)
        net, trace, retries = ml.train_non_degenerate(data, cfg)
        assert trace.reached_loss_below_1_over_n
        assert abs(ml.forward(net, [0.7])) > 0


def mixture(n, d, seed):
    """n points in d dimensions; labels alternate, cluster means are +-1/sqrt(d) per coordinate."""
    rng = np.random.default_rng(seed)
    ys = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    xs = rng.normal(size=(n, d)) / np.sqrt(d) + ys[:, None] / np.sqrt(d)
    return dataset(xs, ys)


# Row-space training equals weight-space training in exact arithmetic; only
# the summation order differs.  The largest relative deviation seen over
# these cases is 6.1e-14 in the trace floats and 3.2e-15 in the parameters
# (relative to each block's largest entry).
ROW_SPACE_RTOL = 1e-10

ROW_SPACE_CASES = {
    "n20-d200": (mixture(20, 200, 3),
                 dict(width=64, init_scale=1e-2, learning_rate=1e-2, max_steps=800,
                      loss_target=1e-8, rng_seed=1)),
    "n6-d1": (mixture(6, 1, 2),
              dict(width=64, init_scale=1e-4, learning_rate=5e-2, max_steps=3000,
                   loss_target=1e-9, kkt_residual_target=1e-3, checkpoint_every=500,
                   rng_seed=2)),
    "n10-d10": (mixture(10, 10, 4),
                dict(width=32, init_scale=1e-2, learning_rate=1e-2, max_steps=1500,
                     loss_target=1e-8, rng_seed=0)),
}


class TestRowSpaceMatchesWeightSpace:
    def check(self, data, cfg):
        net, trace = ml.train(data, cfg)
        ref_net, ref_trace, refused = reference_train(data, cfg)
        assert trace.stop_reason == ref_trace.stop_reason
        assert [(r.step, r.residual_method) for r in trace.records] == [
            (r.step, r.residual_method) for r in ref_trace.records]
        assert trace.first_step_below_1_over_n == ref_trace.first_step_below_1_over_n
        for name in ("loss", "min_margin", "param_norm", "normalized_margin", "kkt_residual"):
            np.testing.assert_allclose(
                [getattr(r, name) for r in trace.records],
                [getattr(r, name) for r in ref_trace.records],
                rtol=ROW_SPACE_RTOL, atol=0.0, err_msg=name)
        for got, want in ((net.weights, ref_net.weights), (net.biases, ref_net.biases),
                          (net.out_weights, ref_net.out_weights)):
            np.testing.assert_allclose(got, want, rtol=0.0,
                                       atol=ROW_SPACE_RTOL * np.max(np.abs(want)))
        return ref_trace, refused

    @pytest.mark.parametrize("kind", ["exponential", "logistic"])
    @pytest.mark.parametrize("case", sorted(ROW_SPACE_CASES))
    def test_shapes_and_losses(self, case, kind):
        data, kwargs = ROW_SPACE_CASES[case]
        self.check(data, ml.TrainConfig(loss_kind=kind, **kwargs))

    def test_ensure_active_neuron(self):
        data = dataset([[-1.0], [1.0]], [-1, 1])
        cfg = ml.TrainConfig(width=8, max_steps=3000, loss_target=1e-6,
                             kkt_residual_target=0.5, rng_seed=0, init_scale=1e-4,
                             learning_rate=1e-2, ensure_active_neuron=True)
        trace, _ = self.check(data, cfg)
        assert trace.stop_reason == "targets-met"

    def test_refused_overflow_steps(self):
        # With a step size this large, two steps would overflow the
        # exponential loss; both are refused and the run still fits the data.
        data = dataset([[0.12], [-25.7]], [1, -1])
        cfg = ml.TrainConfig(width=5, init_scale=0.2, learning_rate=3.0, max_steps=200,
                             checkpoint_every=50, rng_seed=81)
        trace, refused = self.check(data, cfg)
        assert refused == 2
        assert trace.reached_loss_below_1_over_n


class TestTraceCsv:
    def test_columns_and_round_trip_values(self, tmp_path, symmetric_pair_run):
        _, _, _, trace = symmetric_pair_run
        path = tmp_path / "trace.csv"
        ml.write_trace_csv(trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(TRACE_CSV_COLUMNS)
        first = lines[1].split(",")
        assert int(first[0]) == trace.records[0].step
        assert float(first[1]) == trace.records[0].loss
