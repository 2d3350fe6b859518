import math

import numpy as np
import pytest

import marginleak as ml
from marginleak.membership import EvaluationRow, score_auc
from kkt_constructions import from_neurons, scaled, shared_pattern_network


def zero_network(d=2):
    return ml.NetworkParams(np.zeros((1, d)), np.zeros(1), np.zeros(1))


class TestMembershipScore:
    def test_zero_network_scores_zero(self):
        assert ml.membership_scores(zero_network(), [[1.0, -3.0]]).tolist() == [0.0]

    def test_orthogonal_input_scores_zero(self):
        net = ml.NetworkParams(np.array([[1.0, 0.0], [2.0, 0.0]]), np.zeros(2), np.ones(2))
        assert ml.membership_scores(net, [[0.0, 5.0]]).tolist() == [0.0]

    def test_training_point_scores_exactly_the_margin(self):
        rng = np.random.default_rng(1)
        net, data, _, m = shared_pattern_network(rng.normal(size=(4, 60)), [1.0, 0.5])
        np.testing.assert_allclose(ml.membership_scores(net, data.points), m, rtol=1e-9)

    def test_invariant_under_neuron_permutation(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=(5, 3))
        b = rng.normal(size=5)
        v = rng.normal(size=5)
        xs = rng.normal(size=(4, 3))
        perm = rng.permutation(5)
        a = ml.membership_scores(ml.NetworkParams(w, b, v), xs)
        bscore = ml.membership_scores(ml.NetworkParams(w[perm], b[perm], v[perm]), xs)
        np.testing.assert_allclose(a, bscore, rtol=1e-12)


def scoring_network():
    # relu(x) - relu(-x) = x: score is |x|.
    return from_neurons([([1.0], 0.0, 1.0), ([-1.0], 0.0, -1.0)])


def verdicts(rule, xs, net=None, **bound):
    """(threshold, verdicts) of ``rule`` on the scores of the 1-d points ``xs``."""
    scores = ml.membership_scores(net or scoring_network(), np.reshape(xs, (-1, 1)))
    return ml.membership_verdicts(rule, scores, **bound)


class TestKnownMargin:
    def test_score_at_margin_is_member(self):
        assert verdicts("known-margin", [1.0], margin=1.0)[1].tolist() == [True]

    def test_low_score_is_not_member(self):
        assert verdicts("known-margin", [0.1], margin=1.0)[1].tolist() == [False]

    def test_tie_at_half_margin_is_member(self):
        threshold, members = verdicts("known-margin", [0.5, -0.5], margin=1.0)
        assert threshold == 0.5
        assert members.tolist() == [True, True]

    def test_rescaled_network_same_verdicts(self):
        net = scoring_network()
        factor = 3.0
        xs = [0.3, 0.5, 0.9]
        _, a = verdicts("known-margin", xs, net, margin=1.0)
        _, b = verdicts("known-margin", xs, scaled(net, factor), margin=factor**2 * 1.0)
        assert a.tolist() == b.tolist() == [False, True, True]


class TestLeakedPoints:
    def test_leaked_training_point_flagged(self):
        rng = np.random.default_rng(3)
        net, data, _, m = shared_pattern_network(rng.normal(size=(3, 50)), [1.0])
        scores = ml.membership_scores(net, data.points[:1])
        assert scores[0] == pytest.approx(m, rel=1e-9)
        assert ml.membership_verdicts("leaked-points", scores)[1].tolist() == [True]

    def test_threshold_is_half_of_max(self):
        threshold, members = verdicts("leaked-points", [1.0, 0.05, 0.5])
        assert threshold == 0.5
        assert members.tolist() == [True, False, True]

    def test_identical_scores_all_members(self):
        assert verdicts("leaked-points", [0.7, -0.7, 0.7])[1].all()

    def test_all_zero_scores_degenerate(self):
        with pytest.raises(ml.DegenerateNetworkError):
            verdicts("leaked-points", [1.0, 2.0], zero_network(1))

    def test_verdicts_invariant_under_permutation(self):
        rng = np.random.default_rng(4)
        zs = rng.normal(size=6)
        _, base = verdicts("leaked-points", zs)
        perm = rng.permutation(6)
        _, shuffled = verdicts("leaked-points", zs[perm])
        assert shuffled.tolist() == base[perm].tolist()


class TestBoundedMargin:
    def test_above_bound_is_member(self):
        assert verdicts("bounded-margin", [1.0], threshold=0.5)[1].tolist() == [True]

    def test_small_score_is_not(self):
        assert verdicts("bounded-margin", [0.01], threshold=1.0 / np.e)[1].tolist() == [False]

    def test_exactly_at_bound_is_not_member(self):
        threshold, members = verdicts("bounded-margin", [0.7, -0.7], threshold=0.7)
        assert threshold == 0.7
        assert members.tolist() == [False, False]

    def test_bound_must_be_positive(self):
        with pytest.raises(ValueError):
            verdicts("bounded-margin", [1.0], threshold=0.0)


class TestEvaluateAttack:
    def test_perfect_separation(self):
        members = np.array([[1.0], [-1.0]])
        fresh = np.array([[0.0], [0.0], [0.0]])
        ev = ml.evaluate_attack(scoring_network(), members, fresh, "known-margin", margin=1.0)
        assert ev.accuracy == 1.0
        assert ev.auc == 1.0
        assert ev.true_positive_rate == 1.0
        assert ev.false_positive_rate == 0.0
        assert ev.true_positives + ev.false_negatives == 2
        assert ev.true_negatives + ev.false_positives == 3

    def test_identical_scores_give_half_auc(self):
        const = from_neurons([([0.0], 1.0, 1.0)])
        ev = ml.evaluate_attack(
            const, np.array([[1.0]]), np.array([[2.0], [3.0]]), "known-margin", margin=1.0
        )
        assert ev.auc == 0.5

    def test_leaked_points_rule_uses_pooled_maximum(self):
        members = np.array([[1.0]])
        fresh = np.array([[0.3], [0.6]])
        ev = ml.evaluate_attack(scoring_network(), members, fresh, "leaked-points")
        # alpha = 1.0, threshold 0.5: the 0.6 fresh point is a false positive.
        assert ev.false_positives == 1
        assert ev.true_positives == 1

    def test_bounded_margin_needs_threshold(self):
        with pytest.raises(ValueError):
            ml.evaluate_attack(
                scoring_network(), np.ones((1, 1)), np.ones((1, 1)), "bounded-margin"
            )

    def test_counts_sum_to_sample_size(self):
        rng = np.random.default_rng(5)
        members = rng.normal(size=(4, 1))
        fresh = rng.normal(size=(7, 1))
        ev = ml.evaluate_attack(scoring_network(), members, fresh, "known-margin", margin=1.0)
        total = ev.true_positives + ev.false_positives + ev.true_negatives + ev.false_negatives
        assert total == 11


def pair_count_auc(m_scores, f_scores):
    """Brute-force AUC: a point per (member, fresh) pair ranked right, a half per tie."""
    above = np.count_nonzero(m_scores[:, None] > f_scores[None, :])
    ties = np.count_nonzero(m_scores[:, None] == f_scores[None, :])
    return (above + 0.5 * ties) / (m_scores.size * f_scores.size)


class TestAuc:
    def test_matches_brute_force_pair_counting(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            m_scores = rng.integers(0, 5, size=6).astype(float)
            f_scores = rng.integers(0, 5, size=9).astype(float)
            assert score_auc(m_scores, f_scores) == pair_count_auc(m_scores, f_scores)

    def test_continuous_scores_match_brute_force_exactly(self):
        # Overlapping continuous scores, 1,000 points on each side.
        rng = np.random.default_rng(7)
        m_scores = rng.exponential(size=1000) + 0.5
        f_scores = rng.exponential(size=1000)
        auc = score_auc(m_scores, f_scores)
        assert 0.5 < auc < 1.0
        assert auc == pair_count_auc(m_scores, f_scores)


class TestDecide:
    @pytest.mark.parametrize("rule, bound, want", [
        ("known-margin", {"margin": 1.5}, [True, False, True, True]),
        ("leaked-points", {}, [True, False, True, True]),
        ("bounded-margin", {"threshold": 0.75}, [True, False, True, False]),
    ])
    def test_threshold_and_bool_verdicts(self, rule, bound, want):
        scores = np.array([1.5, 0.74, 0.76, 0.75])
        threshold, verdicts = ml.membership_verdicts(rule, scores, **bound)
        assert threshold == 0.75
        assert verdicts.dtype == bool and verdicts.tolist() == want

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError):
            ml.membership_verdicts("no-such-rule", np.ones(2))


def test_evaluation_rows():
    ev = ml.evaluate_attack(
        scoring_network(), np.array([[1.0], [0.2]]), np.array([[0.0], [0.7]]),
        "known-margin", margin=1.0,
    )
    assert ev.rows == (
        EvaluationRow("member-0", 1.0, True, True),
        EvaluationRow("member-1", 0.2, True, False),
        EvaluationRow("fresh-0", 0.0, False, False),
        EvaluationRow("fresh-1", 0.7, False, True),
    )


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
def test_margin_and_threshold_must_be_positive_and_finite(value):
    net = scoring_network()
    points = np.array([[1.0], [0.0]])
    with pytest.raises(ValueError):
        verdicts("known-margin", [1.0], net, margin=value)
    with pytest.raises(ValueError):
        verdicts("bounded-margin", [1.0], net, threshold=value)
    with pytest.raises(ValueError):
        ml.evaluate_attack(net, points, points, "known-margin", margin=value)
    with pytest.raises(ValueError):
        ml.evaluate_attack(net, points, points, "bounded-margin", threshold=value)
