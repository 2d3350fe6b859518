import json
import math
from dataclasses import replace

import numpy as np
import pytest

import marginleak as ml
from marginleak.experiment import _sample_labeled, _two_cluster_1d_dataset
from kkt_constructions import (
    construction_suite,
    from_neurons,
    margin_values,
    opposite_pair_network,
    reference_estimate_lambdas,
    scaled,
    shared_pattern_network,
    single_point_network,
    verify_stationarity,
)


def identity_1d_network():
    # relu(x) - relu(-x) = x
    return from_neurons([([1.0], 0.0, 1.0), ([-1.0], 0.0, -1.0)])


class TestMargin:
    def test_min_absolute_output(self):
        net = identity_1d_network()
        data = ml.LabeledDataset(np.array([[1.0], [-2.0], [1.5]]), np.array([1.0, -1.0, 1.0]))
        m, idx = ml.margin(net, data)
        assert m == 1.0
        assert idx == (0,)

    def test_single_point(self):
        net = identity_1d_network()
        data = ml.LabeledDataset(np.array([[-0.3]]), np.array([-1.0]))
        m, idx = ml.margin(net, data)
        assert m == pytest.approx(0.3)
        assert idx == (0,)

    def test_all_zero_outputs_degenerate(self):
        net = ml.NetworkParams(np.ones((2, 1)), np.zeros(2), np.zeros(2))
        data = ml.LabeledDataset(np.array([[1.0]]), np.array([1.0]))
        with pytest.raises(ml.DegenerateNetworkError):
            ml.margin(net, data)

    def test_matches_trace_min_margin(self, symmetric_pair_run):
        data, _, net, trace = symmetric_pair_run
        m, _ = ml.margin(net, data)
        assert m == pytest.approx(abs(trace.final().min_margin), rel=1e-12)


class TestEstimateLambdas:
    def test_recovers_constructed_duals(self):
        net, data, lam, m = opposite_pair_network([1.0], k_pos=2, k_neg=2)
        assert verify_stationarity(net, data, lam) < 1e-12
        report = ml.estimate_lambdas(net, data)
        assert report.stationarity_residual < 1e-8
        np.testing.assert_allclose(report.lambdas, lam, atol=1e-6)

    def test_exact_feasibility_gives_zero_residual(self):
        net, data, lam, m = single_point_network([0.8, -0.4], 1.0, [1.2])
        report = ml.estimate_lambdas(net, data)
        assert report.stationarity_residual < 1e-12

    def test_empty_support_reports_residual_one(self):
        # The closest point to the margin is misclassified, so no point is
        # within the slack band around +m.
        net = identity_1d_network()
        data = ml.LabeledDataset(np.array([[1.0]]), np.array([-1.0]))
        report = ml.estimate_lambdas(net, data)
        assert report.support_indices == ()
        assert report.stationarity_residual == 1.0
        np.testing.assert_array_equal(report.lambdas, 0.0)

    def test_dimension_mismatch_rejected(self):
        net, _, _, _ = opposite_pair_network([1.0], k_pos=2, k_neg=2)
        data = ml.LabeledDataset(np.ones((2, 3)), np.array([1.0, -1.0]))
        with pytest.raises(ml.DimensionMismatchError):
            ml.estimate_lambdas(net, data)

    @pytest.mark.parametrize("slack", [-1.0, math.nan, math.inf])
    def test_bad_support_slack_rejected(self, slack):
        net, data, _, _ = opposite_pair_network([1.0], k_pos=2, k_neg=2)
        with pytest.raises(ValueError):
            ml.estimate_lambdas(net, data, support_slack=slack)

    def test_complementary_slackness(self, symmetric_pair_run):
        data, _, net, _ = symmetric_pair_run
        slack = 0.1
        report = ml.estimate_lambdas(net, data, support_slack=slack)
        z = np.abs(data.labels * ml.forward_batch(net, data.points))
        for i in range(data.size):
            assert report.lambdas[i] * (z[i] - report.margin) <= slack * report.margin * report.lambdas[i] + 1e-12

    def test_scaling_behavior(self):
        net, data, lam, m = shared_pattern_network(
            np.random.default_rng(0).normal(size=(3, 40)), [1.0, 0.7]
        )
        base = ml.estimate_lambdas(net, data)
        rescaled = ml.estimate_lambdas(scaled(net, 2.0), data)
        assert rescaled.margin == pytest.approx(4.0 * base.margin, rel=1e-9)
        assert rescaled.support_indices == base.support_indices
        np.testing.assert_allclose(rescaled.lambdas, base.lambdas, rtol=1e-6)

    def test_sigma_primes_strict_convention(self):
        net, data, _, _ = single_point_network([1.0], 1.0, [1.0])
        report = ml.estimate_lambdas(net, data)
        pre = data.points @ net.weights.T + net.biases
        np.testing.assert_array_equal(report.sigma_primes, (pre > 0).astype(np.int8))

    def test_trained_pair_close_to_stationary(self, symmetric_pair_run):
        data, _, net, _ = symmetric_pair_run
        report = ml.estimate_lambdas(net, data)
        assert report.stationarity_residual < 1e-2
        # The limit duals for the symmetric pair are 1/sqrt(2) each.
        np.testing.assert_allclose(report.lambdas, 1.0 / math.sqrt(2.0), atol=5e-3)


class TestConstructionSuite:
    def test_twenty_networks_verify_and_recover(self):
        for net, data, lam, m in construction_suite(20, seed=3):
            assert verify_stationarity(net, data, lam) < 1e-12
            np.testing.assert_allclose(margin_values(net, data), m, rtol=1e-9)
            report = ml.estimate_lambdas(net, data)
            assert report.stationarity_residual < 1e-8
            assert np.max(np.abs(report.lambdas - lam)) < 1e-6


def _trained(data, width, checkpoint_every=500, **overrides):
    cfg = ml.TrainConfig(
        width=width, loss_kind="exponential", init_scale=1e-2, learning_rate=1e-2,
        lr_growth=1.02, max_steps=2500, loss_target=1e-8, kkt_residual_target=5e-3,
        rng_seed=0, checkpoint_every=checkpoint_every,
    )
    return ml.train(data, replace(cfg, **overrides))[0]


def _kink_rows(net, data):
    # (point, neuron) pairs at a kink, with the estimator's tolerance.
    pre = data.points @ net.weights.T + net.biases
    return np.abs(pre) <= ml.kkt.KINK_REL_TOL * np.max(np.abs(pre), axis=0)


def _kink_counts(net, data):
    # Kink rows per neuron over the whole dataset.
    return np.sum(_kink_rows(net, data), axis=0)


def _support_kink_counts(net, data, report):
    # Kink rows per kinked neuron over the support, as one refinement call sees them.
    counts = _kink_rows(net, data)[list(report.support_indices)].sum(axis=0)
    return counts[(counts > 0) & (net.out_weights != 0.0)]


def _with_extra_point(data, point):
    return ml.LabeledDataset(
        np.vstack([data.points, point]), np.append(data.labels, data.labels[0])
    )


class TestBatchedKinkRefinement:
    """The batched refinement against the per-neuron, materialized-matrix reference."""

    def assert_matches_reference(self, net, data):
        lam_ref, res_ref, refined = reference_estimate_lambdas(net, data)
        report = ml.estimate_lambdas(net, data)
        np.testing.assert_allclose(
            report.lambdas, lam_ref, rtol=1e-12, atol=1e-12 * np.max(np.abs(lam_ref))
        )
        # The residual is already relative to ||theta||; near zero, compare absolutely.
        assert report.stationarity_residual == pytest.approx(res_ref, rel=1e-12, abs=1e-14)
        expected = "direct+kink-refinement" if refined else "direct"
        assert report.residual_method == expected
        return report

    def test_trained_univariate_run(self):
        data = _two_cluster_1d_dataset(6, seed=0)
        net = _trained(data, 64)
        report = self.assert_matches_reference(net, data)
        assert report.residual_method == "direct+kink-refinement"

    def test_trained_d20_run(self):
        data = _sample_labeled(20, 20, 1.0, seed=0)
        net = _trained(data, 64)
        report = self.assert_matches_reference(net, data)
        assert report.residual_method == "direct+kink-refinement"

    def test_construction_suite_with_kinks_on_support_points(self):
        refined = 0
        for net, data, _, _ in construction_suite(20, seed=3):
            report = self.assert_matches_reference(net, data)
            refined += report.residual_method == "direct+kink-refinement"
        assert refined >= 5

    def test_kink_row_with_zero_dual(self):
        # A duplicate of the negative point: NNLS puts its whole dual on one
        # copy, so the positive neurons' kink basis has a zero column.
        net, data, _, _ = opposite_pair_network([1.0], k_pos=2, k_neg=2)
        dup = _with_extra_point(data, data.points[:1])
        report = self.assert_matches_reference(net, dup)
        assert report.lambdas[2] == 0.0 and report.lambdas[0] > 0.0
        assert report.residual_method == "direct+kink-refinement"

    def test_univariate_neuron_with_two_kink_rows(self):
        net, data, _, _ = opposite_pair_network([1.0], k_pos=2, k_neg=2)
        near = _with_extra_point(data, data.points[:1] * (1.0 + 1e-6))
        assert np.max(_kink_counts(net, near)) >= 2
        report = self.assert_matches_reference(net, near)
        assert np.count_nonzero(report.lambdas) == 2

    def test_one_call_spans_several_kink_row_counts(self):
        data = _sample_labeled(20, 20, 1.0, seed=1)
        net = _trained(data, 64)
        report = self.assert_matches_reference(net, data)
        assert report.residual_method == "direct+kink-refinement"
        assert np.unique(_support_kink_counts(net, data, report)).size >= 3

    def test_best_pass_reported_when_the_last_is_worse(self, monkeypatch):
        # The margin_desk d=100 cell for seed 0 at step 600.  Clipping the
        # kink solves to [0, 1] makes the third solve slightly worse than the
        # second.
        data = _sample_labeled(100, 20, 1.0, seed=0)
        net = _trained(data, 1000, checkpoint_every=600, rng_seed=2, max_steps=600)
        solves = []
        direct = ml.kkt._span_residual

        def recorded(*args):
            solves.append(direct(*args))
            return solves[-1]

        monkeypatch.setattr(ml.kkt, "_span_residual", recorded)
        report = self.assert_matches_reference(net, data)
        assert report.residual_method == "direct+kink-refinement"
        assert solves[-1] > min(solves)
        assert report.stationarity_residual == min(solves)

    @pytest.mark.parametrize("gain, first_wins", [
        (lambda r: np.nextafter(r, 0.0), True),
        (lambda r: r * (1.0 - 1e-6), False),
    ], ids=["one-ulp", "1e-6"])
    def test_later_pass_wins_only_by_more_than_a_tie(self, gain, first_wins):
        # One neuron whose kink row is the single support point.  The stub
        # solve is the second pass: fresh duals and a residual `gain` below
        # the first pass's, so the third pass is never tried.
        first = np.array([1.0]), 0.5
        second = np.array([2.0]), gain(0.5)

        def solve(sigma, passive):
            return second

        lam, residual = ml.kkt._refine_kink_subgradients(
            np.ones(1), np.zeros((1, 1)), np.ones(1), np.ones((1, 1)),
            np.ones((1, 1), dtype=bool), solve, *first)
        want = first if first_wins else second
        assert lam is want[0] and residual == want[1]

    def test_trained_d1000_cli_shape(self):
        # The cli-io workload's shape and schedule: d=1000, k=256, 100 steps
        # from init 1e-4, with a three-point support.
        data = _sample_labeled(1000, 20, 1.0, seed=2)
        net = _trained(data, 256, checkpoint_every=100, init_scale=1e-4, max_steps=100,
                       rng_seed=2)
        report = self.assert_matches_reference(net, data)
        assert report.residual_method == "direct+kink-refinement"
        assert 1 <= len(report.support_indices) <= 5

    def test_duplicate_support_points_on_a_shared_kink(self):
        # Both copies of point 3 keep a positive dual, so the two-row kink
        # basis of every neuron with its kink there has two parallel nonzero
        # columns: rank 1, and only the minimum-norm split matches lstsq.
        data = _two_cluster_1d_dataset(6, seed=0)
        net = _trained(data, 64)
        dup = ml.LabeledDataset(np.vstack([data.points, data.points[3]]),
                                np.append(data.labels, data.labels[3]))
        assert np.count_nonzero(_kink_rows(net, dup)[[3, 6]].all(axis=0)) >= 2
        report = self.assert_matches_reference(net, dup)
        assert report.residual_method == "direct+kink-refinement"
        assert report.lambdas[3] > 0.0 and report.lambdas[6] > 0.0

    def test_trained_recon_1d_run_with_a_spanning_support(self):
        # The recon-1d workload's schedule.  Three support points span all of
        # the (x, 1) space, so no part of the residual lies outside their span.
        data = _two_cluster_1d_dataset(6, seed=0)
        net = _trained(data, 64, init_scale=1e-4, learning_rate=5e-2, max_steps=30_000,
                       loss_target=1e-9, kkt_residual_target=1e-3, checkpoint_every=2000)
        report = self.assert_matches_reference(net, data)
        assert report.residual_method == "direct+kink-refinement"
        assert len(report.support_indices) > net.input_dim + 1

    def test_exactly_duplicated_support_point(self):
        # Six support points in d=20, two of them equal: the support points
        # with a one appended have rank 5, and both copies keep a positive dual.
        data = _sample_labeled(20, 5, 1.0, seed=0)
        dup = _with_extra_point(data, data.points[:1])
        net = _trained(dup, 64)
        report = self.assert_matches_reference(net, dup)
        assert report.support_indices == tuple(range(6))
        assert report.lambdas[0] > 0.0 and report.lambdas[5] > 0.0

    @pytest.mark.parametrize("train_with_copy", [False, True])
    def test_duplicated_point_split_does_not_depend_on_warm_starts(self, monkeypatch,
                                                                   train_with_copy):
        # Only the sum of two copies' duals is determined.  Warm-starting the
        # refinement's NNLS solves must leave the split of cold starts.
        data = _sample_labeled(20, 5, 1.0, seed=0)
        dup = _with_extra_point(data, data.points[:1])
        net = _trained(dup if train_with_copy else data, 64)
        warm = ml.estimate_lambdas(net, dup)
        nnls_normal = ml.kkt.nnls_normal
        monkeypatch.setattr(ml.kkt, "nnls_normal",
                            lambda gram, rhs, passive=None: nnls_normal(gram, rhs))
        cold = ml.estimate_lambdas(net, dup)
        assert warm.residual_method == "direct+kink-refinement"
        np.testing.assert_array_equal(warm.lambdas, cold.lambdas)
        assert warm.stationarity_residual == cold.stationarity_residual
        split = (0.12336817, 0.03011945) if train_with_copy else (0.14790011, 0.00381321)
        assert warm.lambdas[[0, 5]] == pytest.approx(split, rel=1e-6)

    def test_trained_d100_checkpoint(self):
        # The margin-d100 cell's shape and schedule at width 256.
        data = _sample_labeled(100, 20, 1.0, seed=0)
        net = _trained(data, 256, checkpoint_every=100)
        report = self.assert_matches_reference(net, data)
        assert report.residual_method == "direct+kink-refinement"
        assert np.unique(_support_kink_counts(net, data, report)).size >= 3

    def test_many_points_above_the_margin(self, monkeypatch):
        # Hundreds of points well above the margin, in more dimensions than
        # the support has rows: the span is taken over the support rows only,
        # and the estimate still matches the reference.
        data = _sample_labeled(20, 20, 1.0, seed=0)
        net = _trained(data, 64)
        fresh = _sample_labeled(20, 4000, 1.0, seed=5).points
        out = ml.forward_batch(net, fresh)
        far = np.abs(out) > 1.2 * ml.margin(net, data)[0]
        many = ml.LabeledDataset(np.vstack([data.points, fresh[far]]),
                                 np.append(data.labels, np.sign(out[far])))
        assert many.size > 500
        row_span, rows = ml.kkt._row_span, []
        monkeypatch.setattr(ml.kkt, "_row_span",
                            lambda xs, *wb: rows.append(len(xs)) or row_span(xs, *wb))
        report = self.assert_matches_reference(net, many)
        assert report.support_indices == ml.estimate_lambdas(net, data).support_indices
        assert rows == [len(report.support_indices)] * 2
        assert rows[0] < many.dim + 1

    def test_single_kink_rows_match_the_hermitian_pinv_bit_for_bit(self):
        # One kink row per neuron: every Gram is 1 x 1 and is inverted
        # without np.linalg.pinv.  The first pass's subgradients must have the
        # bits of the hermitian pinv path, at g = 0 (zero duals) and where
        # (1/g) * rhs underflows to a signed zero too.
        rng = np.random.default_rng(7)
        s, k = 6, 4000
        s_y = np.where(rng.random(s) < 0.5, -1.0, 1.0)
        xs = rng.normal(size=(s, 3))
        inner_x = xs @ xs.T + 1.0
        lam = rng.uniform(0.5, 2.0, size=s) * 10.0 ** rng.integers(-40, 1, size=s)
        lam[[1, 4]] = 0.0
        v = rng.normal(size=k) * 10.0 ** rng.integers(-5, 5, size=k)
        kink = np.zeros((s, k), dtype=bool)
        cols = np.arange(k)
        rows = rng.integers(s, size=k)
        kink[rows, cols] = True
        s_pre = rng.normal(size=(s, k))
        s_pre[:, ::2] = -np.abs(s_pre[:, ::2])  # no active fixed rows: rhs = c s_pre / v
        s_pre[rows, cols] *= 10.0 ** rng.integers(-320, -280, size=k)
        seen = []

        def solve(sigma, passive):
            seen.append(sigma.copy())
            return lam, 0.5  # no gain: one pass

        ml.kkt._refine_kink_subgradients(v, s_pre, s_y, inner_x, kink, solve, lam, 0.5)
        c = lam * s_y
        fixed = np.where(kink, 0.0, (s_pre > 0.0).astype(float))
        rhs = (c[:, None] * (s_pre / v - inner_x @ (fixed * c[:, None])))[rows, cols]
        g = (np.outer(c, c) * inner_x)[rows, rows]
        pinv = np.linalg.pinv(g[:, None, None], rcond=np.finfo(float).eps, hermitian=True)
        want = np.clip((pinv @ rhs[:, None, None])[:, 0, 0], 0.0, 1.0)
        assert len(seen) == 1
        np.testing.assert_array_equal(seen[0][rows, cols].view(np.int64), want.view(np.int64))
        assert np.any(g == 0.0) and np.any((g > 0.0) & (rhs == 0.0) & np.signbit(rhs))
        assert np.any((want > 0.0) & (want < 1.0))


class TestResidualMethod:
    def test_quadratic_form_above_the_size_gate(self, monkeypatch):
        net, data, _, _ = opposite_pair_network([0.6, -0.8], k_pos=2, k_neg=3)
        direct = ml.estimate_lambdas(net, data)
        monkeypatch.setattr(ml.kkt, "_MATERIALIZE_LIMIT", 0)
        quad = ml.estimate_lambdas(net, data)
        assert quad.residual_method == "quadratic-form"
        assert direct.residual_method != "quadratic-form"
        assert quad.stationarity_residual < 1e-6

    def test_empty_support_has_its_own_method(self):
        net = identity_1d_network()
        data = ml.LabeledDataset(np.array([[1.0]]), np.array([-1.0]))
        report = ml.estimate_lambdas(net, data)
        assert report.residual_method == "empty-support"
        assert report.stationarity_residual == 1.0

    def test_zero_margin_has_its_own_method(self):
        # README's quick start at rng_seed=0: no neuron ever activates at
        # x = -1, so that point stays at output 0 and the margin is 0.
        data = ml.LabeledDataset(np.array([[-1.0], [1.0]]), np.array([-1.0, 1.0]))
        cfg = ml.TrainConfig(width=8, init_scale=1e-2, learning_rate=1e-2, max_steps=4000,
                             loss_target=1e-8, kkt_residual_target=1e-3, rng_seed=0)
        net, trace = ml.train(data, cfg)
        assert trace.stop_reason == "max-steps"
        assert {(r.residual_method, r.kkt_residual) for r in trace.records} == {
            ("zero-margin", 1.0)}
        report = ml.analyze(net, data)
        assert report.margin == 0.0
        assert report.support_indices == ()
        assert report.stationarity_residual == 1.0
        assert report.residual_method == "zero-margin"
        np.testing.assert_array_equal(report.lambdas, 0.0)


class TestDiagnosticBounds:
    def test_zero_duals_trivially_respect_upper_bound(self):
        net = identity_1d_network()
        data = ml.LabeledDataset(np.array([[1.0], [2.0]]), np.array([-1.0, -1.0]))
        report = ml.estimate_lambdas(net, data)  # both misclassified: empty support
        diag = ml.diagnostic_bounds(report, net, data)
        np.testing.assert_array_equal(diag.pos_sums, 0.0)
        np.testing.assert_array_equal(diag.neg_sums, 0.0)
        assert diag.upper_bound_ok

    def test_near_orthogonal_construction_satisfies_both_bounds(self):
        rng = np.random.default_rng(11)
        net, data, lam, m = shared_pattern_network(
            rng.normal(size=(5, 2000)), rng.uniform(0.5, 1.5, 4)
        )
        report = ml.estimate_lambdas(net, data)
        diag = ml.diagnostic_bounds(report, net, data)
        assert diag.bound_denominator_positive
        assert diag.upper_bound_ok
        assert diag.lower_bound_ok
        # Direct evaluation of both sides.
        assert np.max(diag.pos_sums) <= diag.upper_bound * (1 + 1e-9)
        for i in report.support_indices:
            assert diag.pos_sums[i] >= diag.lower_bound * (1 - 1e-9)

    def test_single_point_delta_flagged_undefined(self):
        net, data, _, _ = single_point_network([1.0], 1.0, [1.0])
        report = ml.estimate_lambdas(net, data)
        diag = ml.diagnostic_bounds(report, net, data)
        assert not diag.delta_defined
        assert diag.max_abs_inner == 0.0

    def test_margin_lower_check_on_trained_run(self, symmetric_pair_run):
        data, cfg, net, _ = symmetric_pair_run
        report = ml.estimate_lambdas(net, data)
        diag = ml.diagnostic_bounds(report, net, data, loss_kind=cfg.loss_kind)
        assert diag.loss_value < 1.0 / (2.0 * math.e)
        assert report.margin > 1.0 / math.e
        assert diag.margin_lower_ok

    def test_correlated_data_flags_vacuous_bounds(self):
        net = identity_1d_network()
        points = np.array([[1.0], [1.0], [1.0], [-1.0]])
        data = ml.LabeledDataset(points, np.array([1.0, 1.0, 1.0, -1.0]))
        report = ml.estimate_lambdas(net, data)
        diag = ml.diagnostic_bounds(report, net, data)
        assert not diag.bound_denominator_positive
        assert diag.upper_bound == math.inf


class TestReportFile:
    def test_versioned_document(self, tmp_path):
        net, data, _, _ = opposite_pair_network([1.0])
        report = ml.analyze(net, data)
        path = tmp_path / "report.json"
        ml.write_report(report, path)
        doc = json.loads(path.read_text())
        assert doc["format_version"] == 1
        assert doc["margin"] == report.margin
        assert doc["support_indices"] == [0, 1]
        assert doc["residual_method"] == report.residual_method
        assert "diagnostics" in doc
        assert doc["diagnostics"]["margin_lower_ok"] == report.diagnostics.margin_lower_ok
