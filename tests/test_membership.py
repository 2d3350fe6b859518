import math

import numpy as np
import pytest

import marginleak as ml
from kkt_constructions import shared_pattern_network


def zero_network(d=2):
    return ml.NetworkParams(np.zeros((1, d)), np.zeros(1), np.zeros(1))


class TestMembershipScore:
    def test_zero_network_scores_zero(self):
        assert ml.membership_score(zero_network(), [1.0, -3.0]) == 0.0

    def test_orthogonal_input_scores_zero(self):
        net = ml.NetworkParams(np.array([[1.0, 0.0], [2.0, 0.0]]), np.zeros(2), np.ones(2))
        assert ml.membership_score(net, [0.0, 5.0]) == 0.0

    def test_training_point_scores_exactly_the_margin(self):
        rng = np.random.default_rng(1)
        net, data, _, m = shared_pattern_network(rng.normal(size=(4, 60)), [1.0, 0.5])
        for x in data.points:
            assert ml.membership_score(net, x) == pytest.approx(m, rel=1e-9)

    def test_invariant_under_neuron_permutation(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=(5, 3))
        b = rng.normal(size=5)
        v = rng.normal(size=5)
        x = rng.normal(size=3)
        perm = rng.permutation(5)
        a = ml.membership_score(ml.NetworkParams(w, b, v), x)
        bscore = ml.membership_score(ml.NetworkParams(w[perm], b[perm], v[perm]), x)
        assert a == pytest.approx(bscore, rel=1e-12)


def scoring_network():
    # relu(x) - relu(-x) = x: score is |x|.
    return ml.NetworkParams.from_neurons([([1.0], 0.0, 1.0), ([-1.0], 0.0, -1.0)])


class TestKnownMargin:
    def test_score_at_margin_is_member(self):
        v = ml.attack_known_margin(scoring_network(), 1.0, [1.0])
        assert v.is_member and v.rule == "known-margin"

    def test_low_score_is_not_member(self):
        v = ml.attack_known_margin(scoring_network(), 1.0, [0.1])
        assert not v.is_member

    def test_tie_at_half_margin_is_member(self):
        v = ml.attack_known_margin(scoring_network(), 1.0, [0.5])
        assert v.is_member
        assert v.comparison == "ge"
        assert v.threshold_used == 0.5

    def test_rescaled_network_same_verdicts(self):
        net = scoring_network()
        factor = 3.0
        for x in ([0.3], [0.5], [0.9]):
            a = ml.attack_known_margin(net, 1.0, x)
            b = ml.attack_known_margin(net.scaled(factor), factor**2 * 1.0, x)
            assert a.is_member == b.is_member


class TestLeakedPoints:
    def test_leaked_training_point_flagged(self):
        rng = np.random.default_rng(3)
        net, data, _, m = shared_pattern_network(rng.normal(size=(3, 50)), [1.0])
        verdicts = ml.attack_leaked_points(net, data.points[:1])
        assert verdicts[0].score == pytest.approx(m, rel=1e-9)
        assert verdicts[0].is_member

    def test_threshold_is_half_of_max(self):
        zs = np.array([[1.0], [0.05]])
        verdicts = ml.attack_leaked_points(scoring_network(), zs)
        assert [v.is_member for v in verdicts] == [True, False]
        assert verdicts[0].threshold_used == 0.5

    def test_identical_scores_all_members(self):
        zs = np.array([[0.7], [-0.7], [0.7]])
        verdicts = ml.attack_leaked_points(scoring_network(), zs)
        assert all(v.is_member for v in verdicts)

    def test_all_zero_scores_degenerate(self):
        with pytest.raises(ml.DegenerateNetworkError):
            ml.attack_leaked_points(zero_network(1), np.array([[1.0], [2.0]]))

    def test_verdicts_invariant_under_permutation(self):
        rng = np.random.default_rng(4)
        zs = rng.normal(size=(6, 1))
        base = ml.attack_leaked_points(scoring_network(), zs)
        perm = rng.permutation(6)
        shuffled = ml.attack_leaked_points(scoring_network(), zs[perm])
        assert [v.is_member for v in shuffled] == [base[i].is_member for i in perm]


class TestBoundedMargin:
    def test_above_bound_is_member(self):
        v = ml.attack_bounded_margin(scoring_network(), 0.5, [1.0])
        assert v.is_member

    def test_small_score_is_not(self):
        v = ml.attack_bounded_margin(scoring_network(), 1.0 / np.e, [0.01])
        assert not v.is_member

    def test_exactly_at_bound_is_not_member(self):
        v = ml.attack_bounded_margin(scoring_network(), 0.7, [0.7])
        assert not v.is_member
        assert v.comparison == "gt"

    def test_bound_must_be_positive(self):
        with pytest.raises(ValueError):
            ml.attack_bounded_margin(scoring_network(), 0.0, [1.0])


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
        const = ml.NetworkParams.from_neurons([([0.0], 1.0, 1.0)])
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


class TestAuc:
    def test_matches_brute_force_pair_counting(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            m_scores = rng.integers(0, 5, size=6).astype(float)
            f_scores = rng.integers(0, 5, size=9).astype(float)
            want = 0.0
            for a in m_scores:
                for b in f_scores:
                    want += 1.0 if a > b else (0.5 if a == b else 0.0)
            want /= m_scores.size * f_scores.size
            from marginleak.membership import score_auc

            assert score_auc(m_scores, f_scores) == pytest.approx(want)


def test_evaluation_csv(tmp_path):
    ev = ml.evaluate_attack(
        scoring_network(), np.array([[1.0]]), np.array([[0.0]]), "known-margin", margin=1.0
    )
    path = tmp_path / "eval.csv"
    ml.write_evaluation_csv(ev, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "point_id,score,truth,verdict,rule"
    assert lines[1] == "member-0,1.0,1,1,known-margin"
    assert lines[2] == "fresh-0,0.0,0,0,known-margin"


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
def test_margin_and_threshold_must_be_positive_and_finite(value):
    net = scoring_network()
    points = np.array([[1.0], [0.0]])
    with pytest.raises(ValueError):
        ml.attack_known_margin(net, value, [1.0])
    with pytest.raises(ValueError):
        ml.attack_bounded_margin(net, value, [1.0])
    with pytest.raises(ValueError):
        ml.evaluate_attack(net, points, points, "known-margin", margin=value)
    with pytest.raises(ValueError):
        ml.evaluate_attack(net, points, points, "bounded-margin", threshold=value)
