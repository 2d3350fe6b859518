import math
from dataclasses import astuple, replace

import numpy as np
import pytest

import marginleak as ml
from marginleak import training
from marginleak.experiment import _cell_seeds, _sample_labeled, _uniform_1d_dataset
from marginleak.training import (
    LR_GROWTH_FREEZE_LOSS,
    TRACE_CSV_COLUMNS,
    _gradient_arrays,
    _loss_derivative,
    loss_values,
    train,
)
from kkt_constructions import from_neurons, parameter_vector, params_from_vector
from train_reference import gradient, reference_train


def dataset(points, labels):
    return ml.LabeledDataset(np.asarray(points, dtype=float), np.asarray(labels, dtype=float))


def zero_network(d=2, k=3):
    return ml.NetworkParams(np.zeros((k, d)), np.zeros(k), np.zeros(k))


def same_params(a, b):
    return all(np.array_equal(getattr(a, f), getattr(b, f))
               for f in ("weights", "biases", "out_weights"))


def warmup_seed8_attempt4():
    """Attempt 4 of the acceptance warm-up's seed 8 (x = -0.679, y = +1).

    Its neuron goes inactive at step 10; from then on the output is zero and
    the gradient exactly zero.
    """
    data_seed, _, init_seed = _cell_seeds(8)
    cfg = ml.TrainConfig(width=1, init_scale=1e-4, learning_rate=5e-2, max_steps=6000,
                         loss_target=1e-9, kkt_residual_target=1e-6, checkpoint_every=200,
                         rng_seed=init_seed + 1_000_003 * 4)
    return _uniform_1d_dataset(1, data_seed), cfg


class TestLoss:
    def test_zero_network_exponential(self):
        data = dataset([[1.0, 0.0], [0.0, 2.0]], [1, -1])
        assert ml.loss(zero_network(), data, "exponential") == pytest.approx(1.0)

    def test_zero_network_logistic(self):
        data = dataset([[1.0, 0.0]], [1])
        assert ml.loss(zero_network(), data, "logistic") == pytest.approx(math.log(2.0))

    def test_unit_margin_exponential(self):
        net = from_neurons([([1.0], 0.0, 1.0)])
        data = dataset([[1.0]], [1])  # y * Phi = 1
        assert ml.loss(net, data, "exponential") == pytest.approx(math.exp(-1.0))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ml.loss(zero_network(), dataset([[0.0, 0.0]], [1]), "hinge")


class TestGradient:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            gradient(zero_network(), dataset([[0.0, 0.0]], [1]), "hinge")

    def test_inactive_network_has_zero_weight_gradients(self):
        # All pre-activations negative: sigma' = 0 everywhere.
        net = ml.NetworkParams(np.zeros((2, 1)), np.array([-1.0, -2.0]), np.array([1.0, -1.0]))
        data = dataset([[0.0], [0.5]], [1, -1])
        g = gradient(net, data, "exponential")
        np.testing.assert_array_equal(g.weights, 0.0)
        np.testing.assert_array_equal(g.biases, 0.0)
        np.testing.assert_array_equal(g.out_weights, 0.0)

    def test_single_active_neuron_hand_formula(self):
        w, b, v = 1.5, 0.5, 2.0
        x, y = 1.0, 1.0
        net = from_neurons([([w], b, v)])
        data = dataset([[x]], [y])
        g = gradient(net, data, "exponential")
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
            analytic = parameter_vector(gradient(net, data, kind))
            fd = finite_difference_gradient(net, data, kind)
            np.testing.assert_allclose(analytic, fd, rtol=1e-5, atol=1e-9)
            checked += 1


def finite_difference_gradient(net, data, kind, h=1e-5):
    theta = parameter_vector(net)
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
        for name in ("init_scale", "learning_rate", "lr_growth", "loss_target",
                     "kkt_residual_target"):
            for bad in (math.inf, math.nan):
                with pytest.raises(ValueError, match=name):
                    ml.TrainConfig(width=4, **{name: bad})


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
        out = abs(ml.forward_batch(net, [[0.7]])[0])
        assert out == pytest.approx(abs(trace.final().min_margin), rel=1e-12)

    def test_loss_monotone_with_fixed_small_rate(self):
        data = dataset([[-1.0], [1.0]], [-1, 1])
        cfg = ml.TrainConfig(width=8, learning_rate=1e-3, lr_growth=1.0,
                             init_scale=1e-2, max_steps=600, loss_target=1e-12,
                             kkt_residual_target=1e-12, rng_seed=1, checkpoint_every=50)
        _, trace = ml.train(data, cfg)
        losses = [r.loss for r in trace.records]
        assert np.all(np.diff(losses) <= 1e-12)

    def test_bitwise_deterministic(self):
        data = dataset([[-1.0], [0.4], [1.0]], [-1, 1, 1])
        cfg = ml.TrainConfig(width=6, max_steps=400, rng_seed=5, init_scale=1e-2,
                             checkpoint_every=40)
        _, t1 = ml.train(data, cfg)
        _, t2 = ml.train(data, cfg)
        assert [r.loss for r in t1.records] == [r.loss for r in t2.records]

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

    def test_trace_records_residual_method(self, symmetric_pair_run):
        # The trace estimates from training's row-space state, estimate_lambdas
        # from the returned network: the method is the same, the residual the
        # same up to summation order.
        data, _, net, trace = symmetric_pair_run
        report = ml.estimate_lambdas(net, data)
        assert trace.final().residual_method == report.residual_method
        assert trace.final().kkt_residual == pytest.approx(report.stationarity_residual,
                                                           rel=ROW_SPACE_RTOL, abs=0.0)

    def test_dead_init_trace_says_degenerate(self):
        # Seed 0 leaves the single neuron inactive on x = 0.7 for good, so
        # the run stops at its first checkpoint.
        data = dataset([[0.7]], [1])
        cfg = ml.TrainConfig(width=1, max_steps=100, rng_seed=0, checkpoint_every=50)
        net, trace = ml.train(data, cfg)
        assert trace.stop_reason == "zero-gradient"
        assert [(r.step, r.kkt_residual, r.residual_method) for r in trace.records] == [
            (0, 1.0, "degenerate")]
        # Both gradient blocks are exactly zero, so each step of a full-length
        # run subtracts lr * 0 and leaves the init as it is.
        assert not parameter_vector(gradient(net, data)).any()
        assert same_params(net, ml.init_small(1, 1, cfg.init_scale, 0))

    def test_logistic_fit_flag_needs_every_point_classified(self):
        # The dead run above with the logistic loss: its loss stays at
        # log 2 < 1/n = 1, but its output on the one point is 0.
        data = dataset([[0.7]], [1])
        cfg = ml.TrainConfig(width=1, loss_kind="logistic", max_steps=100, rng_seed=0,
                             checkpoint_every=50)
        _, trace = ml.train(data, cfg)
        assert (trace.stop_reason, trace.final().loss) == ("zero-gradient", math.log(2.0))
        assert trace.final().min_margin == 0.0
        assert not trace.reached_loss_below_1_over_n
        assert trace.first_step_below_1_over_n is None

    def test_neuron_dying_mid_run_stops_at_the_next_checkpoint(self):
        data, cfg = warmup_seed8_attempt4()
        net, trace = ml.train(data, cfg)
        assert trace.stop_reason == "zero-gradient"
        assert [r.step for r in trace.records] == [0, 200]
        assert trace.final().residual_method == "degenerate"
        _, every_step = ml.train(data, replace(cfg, checkpoint_every=1))
        assert every_step.stop_reason == "zero-gradient"
        assert every_step.final().step == 10
        # With checkpoints only at steps 0 and 6000 the run takes every step.
        full_net, full = ml.train(data, replace(cfg, checkpoint_every=6000))
        assert [r.step for r in full.records] == [0, 6000]
        assert same_params(net, full_net)

    def test_live_run_that_does_not_fit_gets_one_attempt(self, monkeypatch):
        # Cell 3 of the acceptance sweep at d=5: its two classes overlap, and
        # the run stays live but never gets its loss below 1/n.
        data_seed, _, init_seed = _cell_seeds(3)
        data = _sample_labeled(5, 20, 1.0, data_seed)
        cfg = ml.TrainConfig(width=1000, init_scale=1e-2, learning_rate=1e-2, max_steps=2500,
                             loss_target=1e-8, kkt_residual_target=5e-3, rng_seed=init_seed)
        attempts = []

        def counted(data, cfg):
            net, trace = train(data, cfg)
            attempts.append((cfg.rng_seed, trace.stop_reason, trace.reached_loss_below_1_over_n))
            return net, trace

        monkeypatch.setattr(training, "train", counted)
        with pytest.raises(ml.DegenerateNetworkError, match="max-steps"):
            ml.train_non_degenerate(data, cfg)
        assert attempts == [(init_seed, "max-steps", False)]

    def test_fitted_run_with_underflowed_gradient_is_not_reseeded(self):
        # Seed 6 puts the initial output at +3467 on this point (see
        # test_divergence_reported_with_trace).  exp(-3467) underflows, so the
        # loss and both gradient blocks are exactly zero, yet the point is
        # classified and the network is live.
        data = dataset([[1000.0]], [1])
        cfg = ml.TrainConfig(width=2, init_scale=1.0, learning_rate=1e-3,
                             max_steps=50, rng_seed=6)
        _, trace, retries = ml.train_non_degenerate(data, cfg)
        assert (trace.stop_reason, trace.final().step, retries) == ("zero-gradient", 0, 0)
        assert trace.final().loss == 0.0
        assert trace.final().residual_method != "degenerate"

    def test_retry_skips_dead_inits(self):
        # Seed 0 is dead at init; the first re-seed is live and fits.  At the
        # default step size of 1e-3 it would need 420 steps to get its loss
        # below 1/n, and a live run gets no second init.
        data = dataset([[0.7]], [1])
        cfg = ml.TrainConfig(width=1, learning_rate=5e-2, max_steps=400, loss_target=1e-4,
                             kkt_residual_target=0.5, rng_seed=0, checkpoint_every=50)
        net, trace, retries = ml.train_non_degenerate(data, cfg)
        assert retries == 1
        assert trace.reached_loss_below_1_over_n
        assert abs(ml.forward_batch(net, [[0.7]])[0]) > 0


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
        assert [(r.step, r.residual_method, r.learning_rate, r.refused_steps)
                for r in trace.records] == [
            (r.step, r.residual_method, r.learning_rate, r.refused_steps)
            for r in ref_trace.records]
        assert trace.final().refused_steps == refused
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

    @pytest.mark.parametrize("stalled", ["dead-init", "dies-at-step-10"])
    def test_stalled_runs_stop_alike(self, stalled):
        if stalled == "dead-init":
            data = dataset([[0.7]], [1])
            cfg = ml.TrainConfig(width=1, max_steps=100, rng_seed=0, checkpoint_every=50)
        else:
            data, cfg = warmup_seed8_attempt4()
        ref_trace, _ = self.check(data, cfg)
        assert ref_trace.stop_reason == "zero-gradient"

    def test_quadratic_form_at_every_checkpoint(self, monkeypatch):
        # With the gate at 0 every support takes the quadratic form, whose
        # ||theta||^2 training takes from its row-space view; at d=200 the
        # init has a part outside the span of the 20 rows.
        monkeypatch.setattr(ml.kkt, "_MATERIALIZE_LIMIT", 0)
        data, kwargs = ROW_SPACE_CASES["n20-d200"]
        cfg = ml.TrainConfig(**kwargs)
        init = ml.init_small(data.dim, cfg.width, cfg.init_scale, cfg.rng_seed)
        assert ml.kkt._row_span(data.points, init.weights, init.biases)[2] > 0.0
        ref_trace, _ = self.check(data, cfg)
        assert {r.residual_method for r in ref_trace.records[1:]} == {"quadratic-form"}

    def test_warm_start_from_the_last_checkpoint_changes_no_bits(self, monkeypatch):
        # Each checkpoint's first NNLS starts from the positive duals of the
        # one before; starting it cold gives the same records bit for bit.
        data, kwargs = ROW_SPACE_CASES["n20-d200"]
        cfg = ml.TrainConfig(**kwargs)
        estimate = ml.kkt.estimate_from_row_space
        starts = []

        def cold(*args, start=None, **kw):
            starts.append(start)
            return estimate(*args, **kw)

        _, warm = ml.train(data, cfg)
        monkeypatch.setattr(ml.kkt, "estimate_from_row_space", cold)
        _, trace = ml.train(data, cfg)
        assert sum(s is not None and s.any() for s in starts) >= 5
        assert [repr(astuple(r)) for r in trace.records] == [
            repr(astuple(r)) for r in warm.records]

    def test_refused_overflow_steps(self):
        # With a step size this large, two steps would overflow the
        # exponential loss; both are refused and the run still fits the data.
        data = dataset([[0.12], [-25.7]], [1, -1])
        cfg = ml.TrainConfig(width=5, init_scale=0.2, learning_rate=3.0, max_steps=200,
                             checkpoint_every=50, rng_seed=81)
        trace, refused = self.check(data, cfg)
        assert refused == 2
        assert trace.reached_loss_below_1_over_n


class TestOverflowSteps:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_output_overflow_is_refused(self):
        # The sixth proposed step would leave a neuron's input weight at
        # -inf, its output weight at 1.5e308 and one output at +inf, while
        # the loss stays finite (0.8).  It is refused like a loss overflow,
        # and so is every later step: at the loss of 5e305 reached by then,
        # each step is large enough to overflow too.
        data = dataset([[77.35], [53.19], [178.53], [-223.22], [66.01]], [-1, 1, -1, 1, 1])
        cfg = ml.TrainConfig(width=2, init_scale=0.019728046885258074,
                             learning_rate=24.81566359639942, max_steps=200,
                             checkpoint_every=50, rng_seed=48)
        net, trace = ml.train(data, cfg)
        assert trace.stop_reason == "max-steps"
        assert np.all(np.isfinite([r.loss for r in trace.records]))
        with np.errstate(all="ignore"):
            _, ref_trace, refused = reference_train(data, cfg)
        assert [r.refused_steps for r in trace.records] == [
            r.refused_steps for r in ref_trace.records]
        assert trace.final().refused_steps == refused == 199

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("kind", ["exponential", "logistic"])
    def test_frozen_step_size_keeps_parameters_finite(self, kind):
        # lr_growth 1.5 drives the loss below LR_GROWTH_FREEZE_LOSS (a
        # margin near 230) by step 700; the step size then stays put.
        data = dataset([[-1.0], [0.5], [1.0]], [-1, 1, 1])
        cfg = ml.TrainConfig(width=4, loss_kind=kind, init_scale=1e-2, learning_rate=0.2,
                             lr_growth=1.5, max_steps=1000, loss_target=1e-300,
                             kkt_residual_target=1e-300, rng_seed=1)
        net, trace = ml.train(data, cfg)
        assert trace.final().loss < LR_GROWTH_FREEZE_LOSS
        frozen = [r.learning_rate for r in trace.records if r.step >= 700]
        assert len(frozen) == 4 and len(set(frozen)) == 1
        assert trace.final().refused_steps == 0
        z = data.labels * ml.forward_batch(net, data.points)
        assert np.all(np.isfinite(z)) and np.min(z) > 200.0


# The exp edge: exp(-z) overflows for z below about -709.78, is subnormal
# for z from about 708.4 to 745.1, and underflows to 0 above.
EDGE_Z = (-746.0, -745.0, 744.0, 745.0, 746.0)


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestExpEdge:
    @pytest.mark.parametrize("kind", ["exponential", "logistic"])
    def test_loss_and_derivative(self, kind):
        z = np.array(EDGE_Z)
        per = loss_values(z, kind)
        deriv = _loss_derivative(z, kind)
        if kind == "exponential":
            assert per[0] == per[1] == math.inf
            assert 0.0 < per[3] < per[2] < 1e-320 and per[4] == 0.0
            np.testing.assert_array_equal(bits(deriv), bits(-per))
        else:
            assert per.tolist()[:2] == [746.0, 745.0]
            assert 0.0 < per[3] < per[2] < 1e-320 and per[4] == 0.0
            assert deriv.tolist()[:2] == [-1.0, -1.0]
            # The gradient vanishes no earlier than the loss: e^z overflows
            # near z = 709.78, but the derivative keeps the subnormal tail.
            assert np.all(0.0 < -deriv[2:4]) and np.all(-deriv[2:4] <= per[2:4])
            assert deriv[4] == 0.0

    @pytest.mark.parametrize("kind", ["exponential", "logistic"])
    @pytest.mark.parametrize("z", EDGE_Z)
    def test_gradient_matches_hand_formula(self, kind, z):
        # One neuron x -> max(0, x) on the point x = |z| labeled sign(z).
        y = math.copysign(1.0, z)
        net = from_neurons([([1.0], 0.0, 1.0)])
        g = gradient(net, dataset([[abs(z)]], [y]), kind)
        coeff = float(_loss_derivative(np.array([z]), kind)[0]) * y
        assert g.biases[0] == coeff
        assert g.weights[0, 0] == g.out_weights[0] == coeff * abs(z)
        assert not np.any(np.isnan(parameter_vector(g)))

    def test_shared_exp_gives_the_same_bits(self):
        # The GD loop keeps nz = out * -y (-z, as labels are +-1) and its
        # losses exp(nz); the exponential's coefficient per * -y / n must have
        # the bits of a fresh -exp(-z) * y / n, and the logistic loss and
        # derivative from nz those from z.
        rng = np.random.default_rng(0)
        z = np.concatenate([EDGE_Z, rng.normal(0.0, 300.0, 200)])
        n = z.size
        ys = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        nz = (ys * z) * -ys  # the output ys * z times -y
        np.testing.assert_array_equal(bits(nz), bits(-z))
        act = np.maximum(rng.normal(size=(n, 7)), 0.0)
        v = rng.normal(size=7)
        with np.errstate(over="ignore"):
            fresh = {"exponential": -np.exp(-z), "logistic": _loss_derivative(z, "logistic")}
        for kind, deriv in fresh.items():
            with np.errstate(over="ignore"):
                per = training._losses(nz, kind)
            np.testing.assert_array_equal(bits(per), bits(loss_values(z, kind)))
            coeff = deriv * ys / n
            if kind == "exponential":
                np.testing.assert_array_equal(bits(per * -ys / n), bits(coeff))
            out = np.full((n + 1, 7), np.nan)
            with np.errstate(invalid="ignore"):  # 0 * inf at inactive overflowed entries
                g, g_v = _gradient_arrays(out, -ys, act, nz, per, v, kind)
                want = np.sign(act) * coeff[:, None] * v, act.T @ coeff
            np.testing.assert_array_equal(bits(out[:n]), bits(want[0]))
            np.testing.assert_array_equal(bits(out[n]), bits(want[1]))
            assert np.shares_memory(g, out) and np.shares_memory(g_v, out)


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
