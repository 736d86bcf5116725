"""Span-level evaluation: strict/lenient micro P/R/F1, bootstrap CIs,
and the two-sample rank-sum significance test.

Matching is one-to-one: each gold span can satisfy at most one prediction
and vice versa, computed as a maximum bipartite matching so counts never
inflate.  Precision with zero predictions is defined as 0 (conservative).
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np


class Scheme(enum.Enum):
    STRICT = "strict"
    LENIENT = "lenient"


@dataclass(frozen=True)
class Span:
    start: int  # inclusive token index
    end: int  # exclusive
    entity_type: int

    def __post_init__(self):
        if self.start >= self.end:
            raise ValueError(f"empty span [{self.start}, {self.end})")

    def overlaps(self, other: "Span") -> bool:
        return self.start < other.end and other.start < self.end


@dataclass(frozen=True)
class RelationInstance:
    head: Span
    tail: Span
    relation_type: int


def precision_recall_f1(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    """Micro precision, recall and F1 of pooled counts; a zero denominator
    scores 0 (conservative)."""
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


@dataclass(frozen=True)
class EvalReport:
    task: str
    scheme: Scheme
    tp: int
    fp: int
    fn: int
    ci: tuple[float, float] | None = None

    @property
    def precision(self) -> float:
        return precision_recall_f1(self.tp, self.fp, self.fn)[0]

    @property
    def recall(self) -> float:
        return precision_recall_f1(self.tp, self.fp, self.fn)[1]

    @property
    def f1(self) -> float:
        return precision_recall_f1(self.tp, self.fp, self.fn)[2]


# ---------------------------------------------------------------------------
# BIO decoding.  Tag ids follow the layout 0 = outside, 1 + 2*(k-1) + role
# for entity type k (role 0 opens, role 1 continues).  A continuation tag
# without a live matching span opens a new one (lenient decoding).
# ---------------------------------------------------------------------------


def tag_entity_type(tag: int) -> int:
    return 0 if tag == 0 else (tag - 1) // 2 + 1


def tag_opens(tag: int) -> bool:
    return tag != 0 and (tag - 1) % 2 == 0


def decode_bio(tags) -> list[Span]:
    tags = [int(t) for t in tags]
    spans: list[Span] = []
    open_start = None
    open_type = None
    for i, tag in enumerate(tags):
        etype = tag_entity_type(tag)
        if etype == 0:
            if open_start is not None:
                spans.append(Span(open_start, i, open_type))
                open_start = None
            continue
        if tag_opens(tag) or open_start is None or open_type != etype:
            if open_start is not None:
                spans.append(Span(open_start, i, open_type))
            open_start, open_type = i, etype
    if open_start is not None:
        spans.append(Span(open_start, len(tags), open_type))
    return spans


# ---------------------------------------------------------------------------
# One-to-one matching.
# ---------------------------------------------------------------------------


def _max_matching(n_gold: int, n_pred: int, compatible) -> int:
    """Maximum bipartite matching size (augmenting-path search)."""
    adj = [[j for j in range(n_pred) if compatible(i, j)] for i in range(n_gold)]
    match_of_pred = [-1] * n_pred

    def augment(i: int, seen: list[bool]) -> bool:
        for j in adj[i]:
            if not seen[j]:
                seen[j] = True
                if match_of_pred[j] == -1 or augment(match_of_pred[j], seen):
                    match_of_pred[j] = i
                    return True
        return False

    size = 0
    for i in range(n_gold):
        if augment(i, [False] * n_pred):
            size += 1
    return size


def _span_compatible(gold: Span, pred: Span, scheme: Scheme) -> bool:
    if scheme is Scheme.STRICT:
        return gold == pred
    return gold.entity_type == pred.entity_type and gold.overlaps(pred)


def _relation_compatible(gold: RelationInstance, pred: RelationInstance, scheme: Scheme) -> bool:
    if gold.relation_type != pred.relation_type:
        return False
    return _span_compatible(gold.head, pred.head, scheme) and _span_compatible(
        gold.tail, pred.tail, scheme
    )


def span_counts(gold: list[Span], pred: list[Span], scheme: Scheme) -> tuple[int, int, int]:
    tp = _max_matching(len(gold), len(pred), lambda i, j: _span_compatible(gold[i], pred[j], scheme))
    return tp, len(pred) - tp, len(gold) - tp


def relation_counts(
    gold: list[RelationInstance], pred: list[RelationInstance], scheme: Scheme
) -> tuple[int, int, int]:
    tp = _max_matching(
        len(gold), len(pred), lambda i, j: _relation_compatible(gold[i], pred[j], scheme)
    )
    return tp, len(pred) - tp, len(gold) - tp


# ---------------------------------------------------------------------------
# Bootstrap confidence interval.
# ---------------------------------------------------------------------------


def bootstrap_metric_ci(
    counts: np.ndarray,
    sample_size: int = 200,
    reps: int = 30,
    level: float = 0.95,
    seed: int = 0,
) -> tuple[float, float]:
    """Percentile CI of micro F1 over ``reps`` resamples, with replacement,
    of the rows of a per-document (tp, fp, fn) count table."""
    if not len(counts):
        raise ValueError("need at least one instance")
    rng = np.random.default_rng(seed)
    values = []
    for _ in range(reps):
        idx = rng.integers(0, len(counts), size=sample_size)
        values.append(precision_recall_f1(*counts[idx].sum(axis=0).tolist())[2])
    lo_q = 100 * (1 - level) / 2
    return (
        float(np.percentile(values, lo_q)),
        float(np.percentile(values, 100 - lo_q)),
    )


# ---------------------------------------------------------------------------
# Two-sample rank-sum test (two-tailed).
#
# Small samples use the exact permutation distribution of the rank-sum
# statistic; beyond that, the normal approximation with midranks,
# tie-corrected variance and continuity correction.  The normal
# approximation alone is off by more than 0.05 against the exact test for
# group sizes of one or two, which is why the exact branch exists.
# ---------------------------------------------------------------------------

_EXACT_LIMIT = 25_000


def _midranks(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(len(values))
    sorted_vals = values[order]
    i = 0
    while i < len(values):
        j = i
        while j + 1 < len(values) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2 + 1
        i = j + 1
    return ranks


def wilcoxon_rank_sum(a, b) -> float:
    """Two-tailed p-value for samples a vs b; p = 1 when indistinguishable."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if len(a) < 1 or len(b) < 1:
        raise ValueError("both samples must be non-empty")
    if np.isnan(a).any() or np.isnan(b).any():
        raise ValueError("samples contain NaN")
    n_a, n_b = len(a), len(b)
    n = n_a + n_b
    combined = np.concatenate([a, b])
    ranks = _midranks(combined)
    w = float(ranks[:n_a].sum())
    mu = n_a * (n + 1) / 2

    if math.comb(n, min(n_a, n_b)) <= _EXACT_LIMIT:
        observed = abs(w - mu)
        hits = 0
        total = 0
        for subset in itertools.combinations(range(n), n_a):
            total += 1
            if abs(ranks[list(subset)].sum() - mu) >= observed - 1e-9:
                hits += 1
        return hits / total

    _, tie_counts = np.unique(combined, return_counts=True)
    tie_term = float(((tie_counts**3 - tie_counts)).sum()) / (n * (n - 1))
    var = n_a * n_b / 12 * ((n + 1) - tie_term)
    if var <= 0:
        return 1.0
    diff = w - mu
    if diff > 0:
        z = (diff - 0.5) / math.sqrt(var)
    elif diff < 0:
        z = (diff + 0.5) / math.sqrt(var)
    else:
        return 1.0
    p = math.erfc(abs(z) / math.sqrt(2))
    return min(1.0, max(p, 5e-324))
