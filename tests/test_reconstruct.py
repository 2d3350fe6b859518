import math

import numpy as np
import pytest

import marginleak as ml
from kkt_constructions import opposite_pair_network


def v_shape_network():
    """|Phi| = 0.5 exactly four times inside the breakpoints -1, 0, 1.

    Piecewise values: 1 for x < -1, down to -1 at x = 0, back to 1 at x = 1,
    then constant.  The constant +1 outside comes from a dead-weight neuron.
    """
    return ml.NetworkParams.from_neurons(
        [([1.0], 1.0, -2.0), ([1.0], 0.0, 4.0), ([1.0], -1.0, -2.0), ([0.0], 1.0, 1.0)]
    )


def flat_alternation_network():
    """Flat at +1 on [0, 1], ramp down, flat at -1 on [2, 3]."""
    return ml.NetworkParams.from_neurons(
        [([-1.0], 0.0, -1.0), ([0.0], 1.0, 1.0), ([1.0], -1.0, -2.0),
         ([1.0], -2.0, 2.0), ([1.0], -3.0, -1.0)]
    )


class TestRecoverSingle:
    def test_positive_slope(self):
        net = ml.NetworkParams.from_neurons([([1.0], 0.0, 1.0)])
        assert ml.recover_single(net, 1.0) == pytest.approx(1.0)

    def test_negative_out_weight(self):
        net = ml.NetworkParams.from_neurons([([1.0], -3.0, -2.0)])
        # -2 (x - 3) = -4 on the active side x > 3 -> x = 5
        assert ml.recover_single(net, 4.0) == pytest.approx(5.0)

    def test_negative_weight_active_side(self):
        net = ml.NetworkParams.from_neurons([([-1.0], 0.0, 1.0)])
        assert ml.recover_single(net, 2.0) == pytest.approx(-2.0)

    def test_recovered_point_is_on_margin(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            w, b, v = rng.normal(size=3)
            if abs(w) < 1e-3 or abs(v) < 1e-3:
                continue
            net = ml.NetworkParams.from_neurons([([w], b, v)])
            m = float(rng.uniform(0.5, 3.0))
            x = ml.recover_single(net, m)
            assert abs(ml.forward_batch(net, [[x]])[0]) == pytest.approx(m, rel=1e-9)

    def test_degenerate_rejected(self):
        with pytest.raises(ml.DegenerateNetworkError):
            ml.recover_single(ml.NetworkParams.from_neurons([([0.0], 1.0, 1.0)]), 1.0)
        with pytest.raises(ml.DegenerateNetworkError):
            ml.recover_single(ml.NetworkParams.from_neurons([([1.0], 1.0, 0.0)]), 1.0)

    def test_wrong_shape_rejected(self):
        two = ml.NetworkParams.from_neurons([([1.0], 0.0, 1.0), ([1.0], 1.0, 1.0)])
        with pytest.raises(ml.DimensionMismatchError):
            ml.recover_single(two, 1.0)


class TestAnalyzeIntervals:
    def test_flat_segment_on_margin(self):
        pl = ml.PiecewiseLinear(
            np.array([0.0, 1.0]), np.array([1.0, 0.0, 1.0]), np.array([1.0, 1.0, 0.0])
        )
        segs = ml.analyze_intervals(pl, 1.0)
        assert segs[1].is_on_margin
        assert segs[1].crossings == ()

    def test_crossing_inside_segment_only(self):
        pl = ml.PiecewiseLinear(
            np.array([0.0, 3.0]), np.array([0.0, 2.0, 0.0]), np.array([0.0, 0.0, 6.0])
        )
        segs = ml.analyze_intervals(pl, 2.0)
        assert segs[1].crossings == (1.0,)  # -1 falls outside [0, 3]

    def test_both_margin_signs_checked(self):
        pl = ml.PiecewiseLinear(
            np.array([-3.0, 3.0]), np.array([0.0, 1.0, 0.0]), np.array([-3.0, 0.0, 3.0])
        )
        segs = ml.analyze_intervals(pl, 2.0)
        assert segs[1].crossings == (-2.0, 2.0)

    def test_margin_must_be_positive(self):
        pl = ml.PiecewiseLinear(np.empty(0), np.array([1.0]), np.array([0.0]))
        with pytest.raises(ValueError):
            ml.analyze_intervals(pl, 0.0)


class TestBuildCandidateSet:
    def test_no_breakpoints_is_degenerate(self):
        pl = ml.PiecewiseLinear(np.empty(0), np.array([0.0]), np.array([0.0]))
        cs = ml.build_candidate_set(pl, 1.0)
        assert cs.degenerate
        assert cs.points == ()

    def test_v_shape_yields_four_crossings(self):
        # Hand solution: |Phi| = 0.5 at -0.75, -0.25, 0.25, 0.75.
        pl = ml.to_piecewise_linear(v_shape_network())
        cs = ml.build_candidate_set(pl, 0.5)
        np.testing.assert_allclose(cs.points, [-0.75, -0.25, 0.25, 0.75], atol=1e-12)
        assert all(p == "crossing" for p in cs.provenance)
        assert max(cs.window_crossing_counts) <= 4

    def test_crossing_candidates_sit_on_margin(self):
        net = v_shape_network()
        pl = ml.to_piecewise_linear(net)
        m = 0.5
        cs = ml.build_candidate_set(pl, m)
        for p, prov in zip(cs.points, cs.provenance):
            if prov == "crossing":
                assert abs(abs(ml.forward_batch(net, [[p]])[0]) - m) <= 1e-3 * m

    def test_flat_alternation_adds_boundaries(self):
        pl = ml.to_piecewise_linear(flat_alternation_network())
        cs = ml.build_candidate_set(pl, 1.0)
        np.testing.assert_allclose(cs.points, [1.0, 2.0], atol=1e-12)
        assert all(p == "flat-boundary" for p in cs.provenance)
        assert cs.ambiguous_windows == ()

    def test_rescaling_leaves_candidates_unchanged(self):
        net = v_shape_network()
        factor = 2.0
        base = ml.build_candidate_set(ml.to_piecewise_linear(net), 0.5)
        scaled = ml.build_candidate_set(
            ml.to_piecewise_linear(net.scaled(factor)), 0.5 * factor**2
        )
        np.testing.assert_allclose(scaled.points, base.points, atol=1e-12)

    def test_guaranteed_fraction_constant(self):
        pl = ml.to_piecewise_linear(v_shape_network())
        assert ml.build_candidate_set(pl, 0.5).guaranteed_fraction == 0.25

    def test_ambiguous_window_recorded(self):
        # Three adjacent flat-at-margin segments: the look-ahead rule fires
        # although the strictly alternating reading would not.
        pl = ml.PiecewiseLinear(
            np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0]),
            np.array([2.0, 0.0, 0.0, 0.0, 3.0, -2.0, 1.0]),
            np.array([1.0, 1.0, 1.0, 1.0, -8.0, 12.0, -3.0]),
        )
        cs = ml.build_candidate_set(pl, 1.0)
        assert cs.ambiguous_windows == (0,)
        assert 1.0 in cs.points and 2.0 in cs.points


class TestIntervalLemmaAudit:
    def fabricate_report(self, margin, support):
        return ml.KktReport(
            margin=margin,
            support_indices=support,
            lambdas=np.zeros(len(support)),
            stationarity_residual=0.0,
            sigma_primes=np.zeros((len(support), 1), dtype=np.int8),
        )

    def test_single_breakpoint_in_gap_passes(self):
        pl = ml.PiecewiseLinear(
            np.array([0.5]), np.array([0.0, 2.0]), np.array([1.0, 0.0])
        )
        data = ml.LabeledDataset(np.array([[0.0], [1.0]]), np.array([1.0, 1.0]))
        audit = ml.interval_lemma_audit(pl, data, self.fabricate_report(1.0, (0, 1)))
        assert audit.gap_counts == (1,)
        assert audit.gaps_ok

    def test_three_breakpoints_in_gap_flagged(self):
        pl = ml.PiecewiseLinear(
            np.array([0.2, 0.4, 0.6]),
            np.array([0.0, 1.0, -1.0, 0.0]),
            np.array([1.0, 0.8, 1.6, 1.0]),
        )
        data = ml.LabeledDataset(np.array([[0.0], [1.0]]), np.array([1.0, 1.0]))
        audit = ml.interval_lemma_audit(pl, data, self.fabricate_report(1.0, (0, 1)))
        assert audit.gap_counts == (3,)
        assert not audit.gaps_ok

    def test_constructed_stationary_network_passes(self):
        net, data, lam, m = opposite_pair_network([1.0], k_pos=2, k_neg=1)
        report = ml.estimate_lambdas(net, data)
        pl = ml.to_piecewise_linear(net)
        audit = ml.interval_lemma_audit(pl, data, report)
        assert audit.gaps_ok
        assert audit.crossings_ok
        assert audit.crossing_bound == 6 * len(audit.support_points)

    def test_crossing_count_matches_candidate_merge(self):
        # Level 1 is crossed at eps/2, 3 eps/2 and 5 eps/2 and once more near
        # x = 1/6.  The merge radius (1e-6 of the breakpoint range 2) lies
        # between eps and 2 eps: the first crossing absorbs the second but
        # not the third, which a chain-merge would also have absorbed.
        eps = 1.5e-6
        xs = np.array([-1.0, 0.0, eps, 2 * eps, 3 * eps, 1.0])
        ys = np.array([0.5, 0.9, 1.1, 0.9, 1.1, 0.5])
        slopes = np.concatenate([[0.0], np.diff(ys) / np.diff(xs), [0.0]])
        intercepts = np.concatenate(
            [[0.5], ys[:-1] - slopes[1:-1] * xs[:-1], [0.5]]
        )
        pl = ml.PiecewiseLinear(xs, slopes, intercepts)
        data = ml.LabeledDataset(np.array([[-1.0], [1.0]]), np.array([1.0, 1.0]))
        audit = ml.interval_lemma_audit(pl, data, self.fabricate_report(1.0, (0, 1)))
        candidates = ml.build_candidate_set(pl, 1.0)
        assert candidates.provenance == ("crossing",) * 3
        assert audit.crossing_count == len(candidates) == 3

    def test_needs_univariate_data(self):
        pl = ml.PiecewiseLinear(np.empty(0), np.array([0.0]), np.array([0.0]))
        data = ml.LabeledDataset(np.zeros((2, 2)), np.array([1.0, -1.0]))
        with pytest.raises(ml.DimensionMismatchError):
            ml.interval_lemma_audit(pl, data, self.fabricate_report(1.0, ()))


def test_candidates_csv(tmp_path):
    pl = ml.to_piecewise_linear(v_shape_network())
    cs = ml.build_candidate_set(pl, 0.5)
    path = tmp_path / "candidates.csv"
    ml.write_candidates_csv(cs, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,provenance"
    assert len(lines) == 1 + len(cs.points)
    assert lines[1].split(",") == ["-0.75", "crossing"]


@pytest.mark.parametrize("m", [-1.0, math.nan, math.inf])
def test_margin_must_be_positive_and_finite(m):
    pl = ml.to_piecewise_linear(v_shape_network())
    with pytest.raises(ValueError):
        ml.analyze_intervals(pl, m)
    with pytest.raises(ValueError):
        ml.recover_single(ml.NetworkParams.from_neurons([([1.0], 0.0, 1.0)]), m)
