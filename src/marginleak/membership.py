"""Membership inference from output magnitude.

Near a max-margin stationary point trained on nearly orthogonal data, every
training point sits at |Phi| = m while a fresh draw from the same
distribution lands far below the margin, so thresholding |Phi(x)| answers
membership queries.  Scoring uses only network evaluations, so the attacks
work black-box.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateNetworkError
from .model import NetworkParams, _write_csv, forward, forward_batch

RULES = ("known-margin", "leaked-points", "bounded-margin")


@dataclass(frozen=True)
class MembershipVerdict:
    """Score, decision and the threshold/comparison that produced it."""

    score: float
    is_member: bool
    rule: str
    threshold_used: float
    comparison: str  # "ge": member iff score >= threshold; "gt": strictly above

    def __post_init__(self):
        if self.comparison not in ("ge", "gt"):
            raise ValueError("comparison must be 'ge' or 'gt'")


@dataclass(frozen=True)
class EvaluationRow:
    point_id: str
    score: float
    truth: bool
    verdict: bool


@dataclass(frozen=True)
class AttackEvaluation:
    """Confusion counts, rates and rank AUC of an attack over labeled points."""

    true_positives: int
    false_positives: int
    true_negatives: int
    false_negatives: int
    accuracy: float
    true_positive_rate: float
    false_positive_rate: float
    auc: float
    rule: str
    rows: tuple[EvaluationRow, ...]


def membership_score(net: NetworkParams, x) -> float:
    """|Phi(x)|, the black-box attack statistic."""
    return abs(forward(net, x))


def membership_scores(net: NetworkParams, xs: np.ndarray) -> np.ndarray:
    return np.abs(forward_batch(net, xs))


def _decide(score: float, threshold: float, comparison: str) -> bool:
    return score >= threshold if comparison == "ge" else score > threshold


def _rule_threshold(
    rule: str, *, margin=None, threshold=None, scores=None
) -> tuple[float, str]:
    """(threshold, comparison) of a rule; a margin or threshold must be positive
    and finite.  leaked-points thresholds at half the maximum of ``scores``.
    """
    if rule == "known-margin":
        if margin is None or not 0.0 < margin < math.inf:
            raise ValueError("known-margin rule needs a positive, finite margin")
        return margin / 2.0, "ge"
    if rule == "bounded-margin":
        if threshold is None or not 0.0 < threshold < math.inf:
            raise ValueError("bounded-margin rule needs a positive, finite threshold")
        return threshold, "gt"
    if rule == "leaked-points":
        alpha = float(np.max(scores))
        if alpha == 0.0:
            raise DegenerateNetworkError(
                "all leaked-point scores are zero; the membership promise cannot hold"
            )
        return alpha / 2.0, "ge"
    raise ValueError(f"rule must be one of {RULES}")


def _verdict(score: float, rule: str, threshold: float, comparison: str) -> MembershipVerdict:
    return MembershipVerdict(score, _decide(score, threshold, comparison), rule,
                             threshold, comparison)


def attack_known_margin(net: NetworkParams, m: float, x) -> MembershipVerdict:
    """Member iff |Phi(x)| >= m / 2 (a fresh point falls below m/2 w.h.p.).

    The tie at exactly m/2 counts as a member.
    """
    cut = _rule_threshold("known-margin", margin=m)
    return _verdict(membership_score(net, x), "known-margin", *cut)


def attack_leaked_points(net: NetworkParams, zs: np.ndarray) -> list[MembershipVerdict]:
    """Verdicts for a batch known to contain at least one training point.

    The maximum score alpha over the batch estimates the margin; each point
    is then thresholded at alpha / 2.
    """
    zs = np.asarray(zs, dtype=float)
    if zs.ndim != 2 or zs.shape[0] < 1:
        raise ValueError("zs must be a nonempty (k, d) array")
    scores = membership_scores(net, zs)
    cut = _rule_threshold("leaked-points", scores=scores)
    return [_verdict(float(s), "leaked-points", *cut) for s in scores]


def attack_bounded_margin(net: NetworkParams, c: float, x) -> MembershipVerdict:
    """Member iff |Phi(x)| > C, strictly, for a known lower bound C < m."""
    cut = _rule_threshold("bounded-margin", threshold=c)
    return _verdict(membership_score(net, x), "bounded-margin", *cut)


def _averaged_ranks(values: np.ndarray) -> np.ndarray:
    """One-based ranks with ties replaced by the group mean."""
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(values.shape[0], dtype=float)
    i = 0
    while i < values.shape[0]:
        j = i
        while j + 1 < values.shape[0] and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def score_auc(member_scores: np.ndarray, fresh_scores: np.ndarray) -> float:
    """AUC of ranking members above fresh points, ties averaged."""
    member_scores = np.asarray(member_scores, dtype=float)
    fresh_scores = np.asarray(fresh_scores, dtype=float)
    n_m, n_f = member_scores.shape[0], fresh_scores.shape[0]
    ranks = _averaged_ranks(np.concatenate([member_scores, fresh_scores]))
    rank_sum = float(np.sum(ranks[:n_m]))
    return (rank_sum - n_m * (n_m + 1) / 2.0) / (n_m * n_f)


def evaluate_attack(
    net: NetworkParams,
    members: np.ndarray,
    fresh: np.ndarray,
    rule: str,
    *,
    margin: float | None = None,
    threshold: float | None = None,
) -> AttackEvaluation:
    """Score and judge every point with known ground truth.

    ``members`` and ``fresh`` are (n, d) point arrays.  known-margin needs
    ``margin``; bounded-margin needs ``threshold``; leaked-points derives its
    threshold from the pooled maximum score (the members supply the promise).
    """
    members = np.asarray(members, dtype=float)
    fresh = np.asarray(fresh, dtype=float)
    if members.ndim != 2 or fresh.ndim != 2 or members.shape[0] < 1 or fresh.shape[0] < 1:
        raise ValueError("members and fresh must be nonempty (n, d) arrays")

    m_scores = membership_scores(net, members)
    f_scores = membership_scores(net, fresh)
    thr, cmp = _rule_threshold(
        rule, margin=margin, threshold=threshold,
        scores=np.concatenate([m_scores, f_scores]),
    )

    rows = []
    tp = fp = tn = fn = 0
    for prefix, scores, truth in (("member", m_scores, True), ("fresh", f_scores, False)):
        for i, s in enumerate(scores):
            verdict = _decide(float(s), thr, cmp)
            rows.append(EvaluationRow(f"{prefix}-{i}", float(s), truth, verdict))
            if truth and verdict:
                tp += 1
            elif truth:
                fn += 1
            elif verdict:
                fp += 1
            else:
                tn += 1

    total = tp + fp + tn + fn
    return AttackEvaluation(
        true_positives=tp,
        false_positives=fp,
        true_negatives=tn,
        false_negatives=fn,
        accuracy=(tp + tn) / total,
        true_positive_rate=tp / (tp + fn),
        false_positive_rate=fp / (fp + tn),
        auc=score_auc(m_scores, f_scores),
        rule=rule,
        rows=tuple(rows),
    )


def write_evaluation_csv(evaluation: AttackEvaluation, path) -> None:
    """Write per-point results as CSV: point_id,score,truth,verdict,rule."""
    _write_csv(
        path,
        ["point_id", "score", "truth", "verdict", "rule"],
        ([row.point_id, row.score, int(row.truth), int(row.verdict), evaluation.rule]
         for row in evaluation.rows),
    )
