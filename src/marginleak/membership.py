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
from .model import NetworkParams, forward_batch

RULES = ("known-margin", "leaked-points", "bounded-margin")


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


def membership_scores(net: NetworkParams, xs: np.ndarray) -> np.ndarray:
    """|Phi(x)| at every row of ``xs``, the black-box attack statistic."""
    return np.abs(forward_batch(net, xs))


def membership_verdicts(
    rule: str, scores, *, margin=None, threshold=None
) -> tuple[float, np.ndarray]:
    """(threshold, verdicts) of a rule over ``scores``; verdicts is a bool
    array, True for a member.  known-margin thresholds at ``margin / 2`` and
    bounded-margin strictly above ``threshold`` (each positive and finite);
    leaked-points thresholds at half the maximum score.
    """
    scores = np.asarray(scores, dtype=float)
    if rule == "known-margin":
        if margin is None or not 0.0 < margin < math.inf:
            raise ValueError("known-margin rule needs a positive, finite margin")
        thr = margin / 2.0
    elif rule == "bounded-margin":
        if threshold is None or not 0.0 < threshold < math.inf:
            raise ValueError("bounded-margin rule needs a positive, finite threshold")
        thr = threshold
    elif rule == "leaked-points":
        alpha = float(np.max(scores))
        if alpha == 0.0:
            raise DegenerateNetworkError(
                "all leaked-point scores are zero; the membership promise cannot hold"
            )
        thr = alpha / 2.0
    else:
        raise ValueError(f"rule must be one of {RULES}")
    return thr, scores > thr if rule == "bounded-margin" else scores >= thr


def score_auc(member_scores: np.ndarray, fresh_scores: np.ndarray) -> float:
    """AUC of ranking members above fresh points, ties counted as half: the
    Mann-Whitney count over n_m * n_f.  A member's left and right insertion
    indices into the sorted fresh scores sum to twice its count."""
    member_scores = np.asarray(member_scores, dtype=float)
    fresh_scores = np.sort(np.asarray(fresh_scores, dtype=float))
    twice_count = int((np.searchsorted(fresh_scores, member_scores, "left")
                       + np.searchsorted(fresh_scores, member_scores, "right")).sum())
    return twice_count / 2.0 / (member_scores.shape[0] * fresh_scores.shape[0])


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
    scores = np.concatenate([m_scores, f_scores])
    _, verdicts = membership_verdicts(rule, scores, margin=margin, threshold=threshold)
    n_m, n_f = m_scores.shape[0], f_scores.shape[0]
    tp = int(np.count_nonzero(verdicts[:n_m]))
    fp = int(np.count_nonzero(verdicts[n_m:]))
    tn, fn = n_f - fp, n_m - tp
    point_ids = [f"member-{i}" for i in range(n_m)] + [f"fresh-{i}" for i in range(n_f)]
    return AttackEvaluation(
        true_positives=tp,
        false_positives=fp,
        true_negatives=tn,
        false_negatives=fn,
        accuracy=(tp + tn) / (n_m + n_f),
        true_positive_rate=tp / n_m,
        false_positive_rate=fp / n_f,
        auc=score_auc(m_scores, f_scores),
        rule=rule,
        rows=tuple(map(EvaluationRow, point_ids, scores.tolist(),
                       [True] * n_m + [False] * n_f, verdicts.tolist())),
    )
