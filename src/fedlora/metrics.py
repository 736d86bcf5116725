"""Span-level evaluation: strict/lenient micro P/R/F1, bootstrap CIs,
and the two-sample rank-sum significance test.

A split is scored as arrays.  ``decode_bio`` decodes the flat tags of all
its documents at once into ``Spans``, flat arrays with one entry per span,
and ``span_counts`` matches gold against predicted spans for every
document at once, returning one (tp, fp, fn) row per document.  The
bootstrap resamples rows of such tables, stacked for several models,
drawing every replicate's row indexes in one call for all of them.

Matching is one-to-one: each gold span can satisfy at most one prediction
and vice versa, so counts never inflate.  Strict matching pairs exact
(document, start, end, type) keys, copy for copy.  Lenient matching pairs
overlapping spans of one type in one document greedily: gold spans, taken
by increasing end, each claim the unmatched overlapping prediction of
smallest end.  The greedy is a maximum matching on any span lists.  If the
gold span g of smallest end and its claim p* sit in a maximum matching as
g-p and g'-p*, then g'-p overlaps too (p.start < g.end <= g'.end and
g'.start < p*.end <= p.end), so swapping to g-p* and g'-p keeps the size,
and if g or p* is unmatched there, re-pairing g with p* keeps it too;
decoded spans, disjoint on each side, are the convex case of F. Glover,
"Maximum matching in a convex bipartite graph" (1967).  Relation instances
use a general maximum bipartite matching.  Precision with zero predictions
is defined as 0 (conservative).
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

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


class Spans(NamedTuple):
    """The spans of ``docs`` documents as flat ``int64`` arrays, one entry
    per span: its document, its start and end token within the document
    (end exclusive) and its entity type."""

    doc: np.ndarray
    start: np.ndarray
    end: np.ndarray
    type: np.ndarray
    docs: int


def _share(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den elementwise, 0 where den is 0."""
    return np.divide(num, den, out=np.zeros(np.shape(den)), where=den != 0)


def precision_recall_f1(tp, fp, fn):
    """Micro precision, recall and F1 of pooled counts, elementwise over
    arrays of counts; a zero denominator scores 0 (conservative)."""
    tp, fp, fn = (np.asarray(c, dtype=np.float64) for c in (tp, fp, fn))
    precision = _share(tp, tp + fp)
    recall = _share(tp, tp + fn)
    return precision, recall, _share(2 * precision * recall, precision + recall)


# ---------------------------------------------------------------------------
# BIO decoding.  Tag ids follow the layout 0 = outside, 1 + 2*(k-1) + role
# for entity type k (role 0 opens, role 1 continues).  A continuation tag
# without a live span of its type opens a new one (lenient decoding).
# ---------------------------------------------------------------------------


def decode_bio(tags: np.ndarray, starts: np.ndarray) -> Spans:
    """The spans of documents laid back to back in ``tags``, document i
    holding ``tags[starts[i]:starts[i + 1]]``, in order of their start.

    A span opens on an opening tag, on a change of entity type and on the
    first token of a document, and runs until the next span opens, an
    outside tag or the end of its document."""
    tags, starts = np.asarray(tags, dtype=np.int64), np.asarray(starts, dtype=np.int64)
    etype = (tags + 1) // 2
    first = np.zeros(len(tags) + 1, dtype=bool)
    first[starts[:-1]] = True
    changed = first[:-1] | (tags % 2 == 1)
    changed[1:] |= etype[1:] != etype[:-1]
    opens = changed & (etype > 0)
    stops = np.flatnonzero(np.append(opens | (etype == 0), True))
    begin = np.flatnonzero(opens)
    end = stops[np.searchsorted(stops, begin) + 1]
    doc = np.searchsorted(starts, begin, side="right") - 1
    return Spans(doc, begin - starts[doc], end - starts[doc], etype[begin], len(starts) - 1)


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


def _pooled(gold: Spans, pred: Spans) -> Spans:
    """Gold spans followed by predicted ones."""
    return Spans(*(np.concatenate([g, p]) for g, p in zip(gold[:4], pred[:4])), gold.docs)


def _strict_hits(gold: Spans, pred: Spans) -> np.ndarray:
    """The document of each matched pair: every (doc, start, end, type) key
    pairs min(gold copies, predicted copies) times."""
    both, n_gold = _pooled(gold, pred), len(gold.doc)
    width, types = int(both.end.max(initial=0)) + 1, int(both.type.max(initial=0)) + 1
    keys, key_of = np.unique(
        ((both.doc * width + both.start) * width + both.end) * types + both.type,
        return_inverse=True,
    )
    pairs = np.minimum(np.bincount(key_of[:n_gold], minlength=len(keys)),
                       np.bincount(key_of[n_gold:], minlength=len(keys)))
    return np.repeat(keys // (width * width * types), pairs)


def _lenient_hits(gold: Spans, pred: Spans) -> np.ndarray:
    """The document of each matched pair under the end-ordered greedy (see
    the module docstring), run for all (doc, type) groups at once: step k
    lets each group's k-th gold span by end claim its unmatched overlapping
    prediction of smallest end."""
    both, n_gold = _pooled(gold, pred), len(gold.doc)
    types, ends = int(both.type.max(initial=0)) + 1, int(both.end.max(initial=0)) + 1
    key = both.doc * types + both.type
    order = np.argsort(key * ends + both.end, kind="stable")
    key = key[order]
    first = np.diff(key, prepend=-1) != 0
    group, groups = np.cumsum(first) - 1, key[first]

    def padded(side: np.ndarray):
        """(start, end) of the sorted spans where ``side`` holds, one row per
        group in order of end; padding overlaps nothing.  Token positions
        fit 32 bits, which halves tables that may span many splits."""
        row, at = group[side], order[side]
        column = np.arange(len(row)) - np.searchsorted(row, row)
        shape = (len(groups), int(column.max(initial=0)) + 1)
        start = np.full(shape, np.iinfo(np.int32).max, dtype=np.int32)
        end = np.full(shape, np.iinfo(np.int32).min, dtype=np.int32)
        start[row, column], end[row, column] = both.start[at], both.end[at]
        return start, end

    is_gold = order < n_gold
    gold_start, gold_end = padded(is_gold)
    pred_start, pred_end = padded(~is_gold)
    matched = np.zeros(pred_start.shape, dtype=bool)
    rows = np.arange(len(matched))
    for k in range(gold_start.shape[1]):
        free = ~matched & (pred_start < gold_end[:, k, None]) & (pred_end > gold_start[:, k, None])
        hit = free.any(axis=1)
        matched[rows[hit], free[hit].argmax(axis=1)] = True
    return np.repeat(groups // types, matched.sum(axis=1))


def span_counts(gold: Spans, pred: Spans, scheme: Scheme) -> np.ndarray:
    """The ``int64`` (docs, 3) table of (tp, fp, fn) per document, gold
    matched one-to-one against predicted spans under ``scheme``."""
    if gold.docs != pred.docs:
        raise ValueError(f"gold spans cover {gold.docs} documents, predicted {pred.docs}")
    hits = (_strict_hits if scheme is Scheme.STRICT else _lenient_hits)(gold, pred)
    tp = np.bincount(hits, minlength=gold.docs)
    return np.stack([tp, np.bincount(pred.doc, minlength=pred.docs) - tp,
                     np.bincount(gold.doc, minlength=gold.docs) - tp], axis=1).astype(np.int64)


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


def _percentile(ranked: np.ndarray, q: float) -> np.ndarray:
    """``np.percentile(values, q)`` along the last axis of ``ranked``, the
    values sorted along it, by numpy's ``linear`` rule step for step: the
    virtual index (n - 1) * q / 100, its floor clipped to the last value,
    and the two-sided interpolation of ``numpy.lib._function_base_impl._lerp``."""
    n = ranked.shape[-1]
    virtual = (n - 1) * (q / 100)
    if virtual >= n - 1:
        return ranked[..., -1]
    below = math.floor(virtual)
    t = virtual - below
    a, b = ranked[..., below], ranked[..., below + 1]
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def bootstrap_metric_ci(
    counts: np.ndarray,
    sample_size: int = 200,
    reps: int = 30,
    level: float = 0.95,
    seed: int = 0,
):
    """Percentile CI of micro F1 over ``reps`` resamples, with replacement,
    of the rows of per-document (tp, fp, fn) count tables of shape
    (..., n, 3): ``(lo, hi)`` as floats for one (n, 3) table, else as
    nested lists of shape ``counts.shape[:-2]``.

    One (reps, sample_size) index table is drawn for all the tables, each
    row of it one resample.  A resample's sums are its row's multiplicity
    of each document times the table, in float64, exact because every
    partial sum is an integer below 2**53."""
    n = counts.shape[-2]
    if not n:
        raise ValueError("need at least one instance")
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, n, size=(reps, sample_size))
    picks = np.bincount((idx + n * np.arange(reps)[:, None]).ravel(), minlength=reps * n)
    sums = picks.reshape(reps, n).astype(np.float64) @ counts.astype(np.float64)
    ranked = np.sort(precision_recall_f1(*np.moveaxis(sums, -1, 0))[2], axis=-1)
    lo_q = 100 * (1 - level) / 2
    return _percentile(ranked, lo_q).tolist(), _percentile(ranked, 100 - lo_q).tolist()


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
    _, group, counts = np.unique(values, return_inverse=True, return_counts=True)
    last = np.cumsum(counts)  # 1-based rank of the last value in each tie group
    first = last - counts + 1
    return ((first + last) / 2)[group]


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
