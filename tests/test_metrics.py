import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedlora.datasim import PlantedRule, SiteSpec
from fedlora.evaluate import evaluate_model, make_test_split
from fedlora.metrics import (
    RelationInstance,
    Scheme,
    Span,
    _percentile,
    bootstrap_metric_ci,
    decode_bio,
    precision_recall_f1,
    relation_counts,
    span_counts,
    wilcoxon_rank_sum,
)
from fedlora.model import ModelConfig, Task, ToyModel, forward
from span_oracle import decode_bio as list_decode_bio
from span_oracle import span_counts as list_span_counts
from span_oracle import to_lists, to_spans


def scores(counts) -> tuple[float, float, float]:
    """Micro precision, recall and F1 of one (tp, fp, fn) row."""
    return tuple(float(x) for x in precision_recall_f1(*counts))


def decode_doc(tags) -> list[Span]:
    """``decode_bio`` on one document, as a span list."""
    return to_lists(decode_bio(np.asarray(tags, dtype=np.int64), [0, len(tags)]))[0]


def doc_counts(gold: list[Span], pred: list[Span], scheme: Scheme) -> tuple[int, int, int]:
    """``span_counts`` on one document's span lists."""
    return tuple(span_counts(to_spans([gold]), to_spans([pred]), scheme)[0].tolist())


def encode_spans(spans: list[Span], length: int) -> list[int]:
    """Inverse of decode_doc for well-formed span lists (no overlaps)."""
    tags = [0] * length
    for span in spans:
        tags[span.start] = 1 + 2 * (span.entity_type - 1)
        for i in range(span.start + 1, span.end):
            tags[i] = 2 + 2 * (span.entity_type - 1)
    return tags


def exhaustive_matching(gold, pred, compatible):
    """Try every injective assignment; the brute-force matching oracle."""
    best = 0
    indices = range(len(pred))
    for size in range(min(len(gold), len(pred)), best, -1):
        for gold_subset in itertools.combinations(range(len(gold)), size):
            for perm in itertools.permutations(indices, size):
                if all(compatible(g, p) for g, p in zip(gold_subset, perm)):
                    return size
    return best


def exact_rank_sum_p(a, b):
    """Exact two-tailed permutation p-value of the rank-sum statistic."""
    combined = np.concatenate([np.asarray(a, float), np.asarray(b, float)])
    n = len(combined)
    order = np.argsort(combined, kind="mergesort")
    ranks = np.empty(n)
    sorted_vals = combined[order]
    i = 0
    while i < n:
        j = i
        while j + 1 < n and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2 + 1
        i = j + 1
    n_a = len(a)
    mu = n_a * (n + 1) / 2
    observed = abs(ranks[:n_a].sum() - mu)
    hits = total = 0
    for subset in itertools.combinations(range(n), n_a):
        total += 1
        if abs(ranks[list(subset)].sum() - mu) >= observed - 1e-9:
            hits += 1
    return hits / total


class TestDecodeBio:
    def test_all_outside(self):
        assert decode_doc([0, 0, 0]) == []

    def test_definition_case(self):
        # [B-1, I-1, O, B-2] -> (0,2,type1), (3,4,type2)
        spans = decode_doc([1, 2, 0, 3])
        assert spans == [Span(0, 2, 1), Span(3, 4, 2)]

    def test_dangling_continuation_opens_span(self):
        assert decode_doc([0, 2, 2]) == [Span(1, 3, 1)]

    def test_adjacent_b_tags_split(self):
        assert decode_doc([1, 1, 2]) == [Span(0, 1, 1), Span(1, 3, 1)]

    def test_type_change_splits(self):
        assert decode_doc([1, 4, 0]) == [Span(0, 1, 1), Span(1, 2, 2)]

    def test_round_trip_on_random_sequences(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            tags = rng.integers(0, 9, size=rng.integers(1, 15)).tolist()
            spans = decode_doc(tags)
            re_encoded = encode_spans(spans, len(tags))
            assert decode_doc(re_encoded) == spans

    def test_documents_split_spans_and_open_on_continuation(self):
        # [B-1, I-1 | I-1, I-1 | I-1, O, B-2]: each document opens its own
        # span, on a continuation tag too, and no span crosses a boundary
        spans = decode_bio(np.array([1, 2, 2, 2, 2, 0, 3]), np.array([0, 2, 4, 7]))
        assert spans.docs == 3
        assert all(column.dtype == np.int64 for column in spans[:4])
        assert to_lists(spans) == [[Span(0, 2, 1)], [Span(0, 2, 1)], [Span(0, 1, 1), Span(2, 3, 2)]]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 8), max_size=10), min_size=1, max_size=6))
    def test_equals_list_decoder_per_document(self, docs):
        tags = np.array([tag for doc in docs for tag in doc], dtype=np.int64)
        starts = np.cumsum([0] + [len(doc) for doc in docs])
        assert to_lists(decode_bio(tags, starts)) == [list_decode_bio(doc) for doc in docs]


def random_spans(rng, max_spans=6, max_pos=10, n_types=3):
    spans = []
    for _ in range(rng.integers(0, max_spans + 1)):
        start = int(rng.integers(0, max_pos))
        end = int(rng.integers(start + 1, max_pos + 2))
        spans.append(Span(start, end, int(rng.integers(1, n_types + 1))))
    return spans


class TestSpanF1:
    def test_perfect_prediction(self):
        gold = [Span(0, 2, 1), Span(4, 6, 2)]
        assert scores(doc_counts(gold, list(gold), Scheme.STRICT)) == (1.0, 1.0, 1.0)

    def test_empty_prediction(self):
        assert scores(doc_counts([Span(0, 2, 1)], [], Scheme.STRICT)) == (0.0, 0.0, 0.0)

    def test_hand_scored_instance(self):
        gold = [Span(0, 2, 1), Span(5, 7, 2)]
        pred = [Span(0, 2, 1), Span(5, 6, 2), Span(8, 9, 1)]
        counts = doc_counts(gold, pred, Scheme.STRICT)
        assert counts == (1, 2, 1)
        assert scores(counts) == pytest.approx((1 / 3, 1 / 2, 0.4))

    def test_lenient_overlap_counts(self):
        assert scores(doc_counts([Span(0, 3, 1)], [Span(1, 2, 1)], Scheme.LENIENT))[2] == 1.0

    def test_lenient_requires_matching_type(self):
        assert doc_counts([Span(0, 3, 1)], [Span(1, 2, 2)], Scheme.LENIENT)[0] == 0

    def test_crossing_overlaps_match_exhaustive_oracle(self):
        gold = [Span(0, 4, 1), Span(2, 6, 1), Span(5, 8, 1), Span(7, 9, 1)]
        pred = [Span(3, 5, 1), Span(1, 3, 1), Span(6, 8, 1), Span(8, 9, 1)]
        tp, _, _ = doc_counts(gold, pred, Scheme.LENIENT)
        oracle = exhaustive_matching(
            gold, pred, lambda i, j: gold[i].overlaps(pred[j])
            and gold[i].entity_type == pred[j].entity_type
        )
        assert tp == oracle

    def test_matches_exhaustive_oracle_on_random_instances(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            gold = random_spans(rng)
            pred = random_spans(rng)
            for scheme in Scheme:
                tp, fp, fn = doc_counts(gold, pred, scheme)
                oracle = exhaustive_matching(
                    gold,
                    pred,
                    lambda i, j, s=scheme: (
                        gold[i] == pred[j]
                        if s is Scheme.STRICT
                        else gold[i].overlaps(pred[j])
                        and gold[i].entity_type == pred[j].entity_type
                    ),
                )
                assert tp == oracle
                assert fp == len(pred) - tp
                assert fn == len(gold) - tp

    def test_lenient_dominates_strict(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            gold = random_spans(rng)
            pred = random_spans(rng)
            lenient = scores(doc_counts(gold, pred, Scheme.LENIENT))[2]
            assert lenient >= scores(doc_counts(gold, pred, Scheme.STRICT))[2]

    def test_micro_pooling_is_exact_integer_identity(self):
        rule = PlantedRule(vocab_size=60)
        model = ToyModel.build(ModelConfig(60, 16, 9, 16, rank=4, alpha=8.0, seed=2))
        test = make_test_split(SiteSpec("a", 30, seed=3), 30, rule)
        scores = evaluate_model([model], [test])
        pack = test.packed
        docs = [pack.take([row]) for row in np.flatnonzero(pack.tagging)]
        for scheme in Scheme:
            counts = []
            for doc in docs:  # each document forwarded and decoded on its own
                tag_probs, _ = forward(model, doc)
                pred = list_decode_bio(tag_probs.argmax(axis=1))
                counts.append(list_span_counts(list_decode_bio(doc.tags), pred, scheme))
            pooled = tuple(scores[(Task.TAGGING, scheme)].counts[0, 0].tolist())
            assert pooled == tuple(map(sum, zip(*counts)))
            assert sum(pooled) > 0


def span_compatible(gold: list[Span], pred: list[Span], scheme: Scheme):
    """The exhaustive oracle's compatibility test on two span lists."""
    if scheme is Scheme.STRICT:
        return lambda i, j: gold[i] == pred[j]
    return lambda i, j: gold[i].overlaps(pred[j]) and gold[i].entity_type == pred[j].entity_type


# overlapping spans from a small space, so copies of one span are common
spans_of_a_doc = st.lists(
    st.builds(lambda start, length, etype: Span(start, start + length, etype),
              st.integers(0, 5), st.integers(1, 3), st.integers(1, 2)),
    max_size=5,
)


class TestSpanCounts:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(spans_of_a_doc, spans_of_a_doc), min_size=1, max_size=4))
    def test_rows_equal_exhaustive_matching_per_document(self, docs):
        gold, pred = to_spans([g for g, _ in docs]), to_spans([p for _, p in docs])
        for scheme in Scheme:
            table = span_counts(gold, pred, scheme)
            assert table.dtype == np.int64 and table.shape == (len(docs), 3)
            for row, (g, p) in zip(table.tolist(), docs):
                tp = exhaustive_matching(g, p, span_compatible(g, p, scheme))
                assert row == [tp, len(p) - tp, len(g) - tp]

    def test_lenient_greedy_beats_per_component_minimum(self):
        # one overlap component of 3 gold and 3 predicted spans, but the
        # first two gold spans overlap only the first prediction
        gold = [Span(2, 3, 1), Span(3, 4, 1), Span(5, 9, 1)]
        pred = [Span(2, 6, 1), Span(6, 7, 1), Span(8, 9, 1)]
        assert doc_counts(gold, pred, Scheme.LENIENT) == (2, 1, 1)

    def test_strict_duplicates_match_copy_for_copy(self):
        a, b = Span(0, 2, 1), Span(3, 4, 2)
        assert doc_counts([a, a, b], [a, a, a], Scheme.STRICT) == (2, 1, 1)
        assert doc_counts([a, a, b], [a, a, a], Scheme.LENIENT) == (2, 1, 1)

    def test_document_counts_must_agree(self):
        with pytest.raises(ValueError, match="2 documents, predicted 1"):
            span_counts(to_spans([[], []]), to_spans([[]]), Scheme.STRICT)


class TestRelationF1:
    def make_rel(self, s1, e1, s2, e2, rtype, t1=1, t2=2):
        return RelationInstance(Span(s1, e1, t1), Span(s2, e2, t2), rtype)

    def test_perfect(self):
        gold = [self.make_rel(0, 2, 4, 6, 3)]
        assert scores(relation_counts(gold, list(gold), Scheme.STRICT))[2] == 1.0

    def test_wrong_type_is_miss(self):
        gold = [self.make_rel(0, 2, 4, 6, 3)]
        pred = [self.make_rel(0, 2, 4, 6, 5)]
        assert relation_counts(gold, pred, Scheme.STRICT)[0] == 0

    def test_hand_scored_three_relation_instance(self):
        gold = [
            self.make_rel(0, 2, 4, 6, 1),
            self.make_rel(2, 3, 7, 8, 2),
            self.make_rel(0, 1, 9, 10, 3),
        ]
        pred = [
            self.make_rel(0, 2, 4, 6, 1),  # exact match -> tp
            self.make_rel(2, 3, 7, 8, 4),  # wrong relation type -> fp
            self.make_rel(5, 6, 9, 10, 3),  # wrong head span -> fp
        ]
        assert relation_counts(gold, pred, Scheme.STRICT) == (1, 2, 2)

    def test_lenient_overlapping_heads(self):
        gold = [self.make_rel(0, 3, 5, 8, 1)]
        pred = [self.make_rel(1, 2, 6, 7, 1)]
        assert scores(relation_counts(gold, pred, Scheme.LENIENT))[2] == 1.0
        assert scores(relation_counts(gold, pred, Scheme.STRICT))[2] == 0.0

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            def rand_rels():
                rels = []
                for _ in range(rng.integers(0, 5)):
                    s1 = int(rng.integers(0, 6))
                    s2 = int(rng.integers(0, 6))
                    rels.append(
                        RelationInstance(
                            Span(s1, s1 + int(rng.integers(1, 3)), int(rng.integers(1, 3))),
                            Span(s2, s2 + int(rng.integers(1, 3)), int(rng.integers(1, 3))),
                            int(rng.integers(1, 3)),
                        )
                    )
                return rels

            gold, pred = rand_rels(), rand_rels()
            for scheme in Scheme:
                tp, _, _ = relation_counts(gold, pred, scheme)

                def compat(i, j, s=scheme):
                    g, p = gold[i], pred[j]
                    if g.relation_type != p.relation_type:
                        return False
                    if s is Scheme.STRICT:
                        return g.head == p.head and g.tail == p.tail
                    return (
                        g.head.overlaps(p.head)
                        and g.head.entity_type == p.head.entity_type
                        and g.tail.overlaps(p.tail)
                        and g.tail.entity_type == p.tail.entity_type
                    )

                assert tp == exhaustive_matching(gold, pred, compat)


class TestPrecisionRecallF1:
    def test_zero_denominators(self):
        assert scores((0, 0, 0)) == (0.0, 0.0, 0.0)


def oracle_bootstrap_ci(rows, sample_size, reps, level, seed):
    """The list-based bootstrap the count table replaced: each replicate
    lists the picked (tp, fp, fn) tuples, pools them with three sums and
    takes micro F1 of the pooled counts."""
    rng = np.random.default_rng(seed)
    values = []
    for _ in range(reps):
        idx = rng.integers(0, len(rows), size=sample_size)
        picked = [rows[i] for i in idx]
        tp = sum(c[0] for c in picked)
        fp = sum(c[1] for c in picked)
        fn = sum(c[2] for c in picked)
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        values.append(2 * p * r / (p + r) if p + r else 0.0)
    lo_q = 100 * (1 - level) / 2
    return float(np.percentile(values, lo_q)), float(np.percentile(values, 100 - lo_q))


def table(rows):
    return np.array(rows, dtype=np.int64).reshape(-1, 3)


class TestBootstrap:
    def test_constant_scores_give_degenerate_interval(self):
        lo, hi = bootstrap_metric_ci(table([(3, 1, 2)] * 50), seed=0)
        assert lo == hi == scores((3, 1, 2))[2]

    def test_single_rep(self):
        counts = table([(0, 1, 1), (1, 0, 0), (1, 0, 0)])
        lo, hi = bootstrap_metric_ci(counts, reps=1, sample_size=10, seed=1)
        assert lo == hi

    def test_deterministic_under_seed(self):
        counts = np.random.default_rng(2).integers(0, 5, size=(100, 3))
        assert bootstrap_metric_ci(counts, seed=3) == bootstrap_metric_ci(counts, seed=3)
        assert bootstrap_metric_ci(counts, seed=3) != bootstrap_metric_ci(counts, seed=4)

    def test_coverage_on_known_bernoulli_population(self):
        # a correct document is (1, 0, 0), a wrong one (0, 1, 1): the micro F1
        # of a resample is its share of correct documents, 0.8 in the population
        rng = np.random.default_rng(5)
        correct = rng.random(10_000) < 0.8
        counts = np.where(correct[:, None], [1, 0, 0], [0, 1, 1])
        covered = 0
        for trial in range(30):
            lo, hi = bootstrap_metric_ci(counts, sample_size=200, reps=30, seed=trial)
            if lo <= 0.8 <= hi:
                covered += 1
        assert covered >= 27

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            bootstrap_metric_ci(table([]))

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(st.tuples(*[st.integers(0, 30)] * 3), min_size=1, max_size=50),
        sample_size=st.integers(1, 300),
        reps=st.integers(1, 20),
        level=st.floats(0.01, 0.99),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_list_based_oracle_bit_for_bit(self, rows, sample_size, reps, level, seed):
        got = bootstrap_metric_ci(
            table(rows), sample_size=sample_size, reps=reps, level=level, seed=seed
        )
        assert got == oracle_bootstrap_ci(rows, sample_size, reps, level, seed)

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 40),
        models=st.integers(1, 4),
        sample_size=st.integers(1, 300),
        reps=st.integers(1, 20),
        level=st.floats(0.01, 0.99),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_stacked_tables_match_the_oracle_table_by_table(
        self, n, models, sample_size, reps, level, seed, data
    ):
        stacked = [
            data.draw(st.lists(st.tuples(*[st.integers(0, 30)] * 3), min_size=n, max_size=n))
            for _ in range(models)
        ]
        lo, hi = bootstrap_metric_ci(
            np.array(stacked, dtype=np.int64), sample_size=sample_size, reps=reps,
            level=level, seed=seed,
        )
        assert len(lo) == len(hi) == models
        for rows, got in zip(stacked, zip(lo, hi)):
            assert got == oracle_bootstrap_ci(rows, sample_size, reps, level, seed)

    def test_stacked_tables_keep_their_leading_shape(self):
        counts = np.random.default_rng(6).integers(0, 5, size=(2, 3, 30, 3))
        lo, hi = bootstrap_metric_ci(counts, sample_size=40, reps=7, seed=1)
        assert np.shape(lo) == np.shape(hi) == (2, 3)
        assert lo[1][2] == bootstrap_metric_ci(counts[1, 2], sample_size=40, reps=7, seed=1)[0]


class TestPercentile:
    """``_percentile`` on sorted (M, reps) arrays against ``np.percentile``."""

    @settings(max_examples=300, deadline=None)
    @given(
        models=st.integers(1, 4),
        reps=st.integers(1, 40),
        level=st.floats(0.01, 0.99),
        data=st.data(),
    )
    def test_matches_numpy_with_ties(self, models, reps, level, data):
        # few distinct values, so neighbouring order statistics often tie
        value = st.sampled_from([0.0, 0.25, 1 / 3, 0.5, 2 / 3, 1.0])
        values = [data.draw(st.lists(value, min_size=reps, max_size=reps))
                  for _ in range(models)]
        ranked = np.sort(np.array(values), axis=-1)
        lo_q = 100 * (1 - level) / 2
        for q in (lo_q, 100 - lo_q):
            assert _percentile(ranked, q).tolist() == [float(np.percentile(row, q))
                                                       for row in values]

    @settings(max_examples=300, deadline=None)
    @given(
        models=st.integers(1, 4),
        reps=st.integers(1, 200),
        level=st.floats(0.01, 0.99),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_numpy_on_f1_like_values(self, models, reps, level, seed):
        values = np.random.default_rng(seed).random((models, reps))
        ranked = np.sort(values, axis=-1)
        lo_q = 100 * (1 - level) / 2
        for q in (lo_q, 100 - lo_q):
            assert _percentile(ranked, q).tolist() == np.percentile(values, q, axis=-1).tolist()

    def test_halfway_index_interpolates_down_from_the_upper_value(self):
        # at 21 reps the 2.5th percentile's virtual index is 0.5; there
        # numpy computes b - (b - a) * 0.5, which for 0.1 and 0.7 differs
        # in the last bit from a + (b - a) * 0.5
        ranked = np.array([[0.1] + [0.7] * 20])
        expected = float(np.percentile(ranked[0], 2.5))
        assert expected != 0.1 + (0.7 - 0.1) * 0.5
        assert _percentile(ranked, 2.5).tolist() == [expected]

    @pytest.mark.parametrize("level", [0.01, 0.5, 0.9, 0.95, 0.99])
    def test_single_rep_is_that_rep(self, level):
        ranked = np.array([[0.25], [0.75]])
        lo_q = 100 * (1 - level) / 2
        for q in (lo_q, 100 - lo_q):
            assert _percentile(ranked, q).tolist() == [0.25, 0.75]


class TestWilcoxon:
    def test_identical_samples_give_p_one(self):
        assert wilcoxon_rank_sum([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == pytest.approx(1.0)

    def test_all_constant_gives_p_one(self):
        assert wilcoxon_rank_sum([5.0] * 4, [5.0] * 6) == 1.0

    def test_textbook_separated_case(self):
        p = wilcoxon_rank_sum([1, 2, 3], [4, 5, 6])
        assert abs(p - 0.1) < 0.05

    def test_symmetry(self):
        a = [0.3, 0.5, 0.9, 0.2]
        b = [0.6, 0.7, 0.4]
        assert wilcoxon_rank_sum(a, b) == pytest.approx(wilcoxon_rank_sum(b, a))

    def test_matches_exact_permutation_for_small_samples(self):
        rng = np.random.default_rng(6)
        for n_a in range(1, 9):
            for n_b in range(1, 9):
                a = rng.normal(size=n_a)
                b = rng.normal(loc=rng.choice([0.0, 1.5]), size=n_b)
                p = wilcoxon_rank_sum(a, b)
                assert abs(p - exact_rank_sum_p(a, b)) < 0.05

    def test_handles_ties_against_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = rng.integers(0, 4, size=int(rng.integers(2, 7))).astype(float)
            b = rng.integers(0, 4, size=int(rng.integers(2, 7))).astype(float)
            assert abs(wilcoxon_rank_sum(a, b) - exact_rank_sum_p(a, b)) < 0.05

    def test_normal_branch_tracks_exact_at_moderate_n(self):
        # sizes chosen so the combination count exceeds the exact-branch limit
        rng = np.random.default_rng(8)
        for _ in range(10):
            a = rng.normal(size=14)
            b = rng.normal(loc=0.8, size=14)
            p = wilcoxon_rank_sum(a, b)
            assert 0.0 < p <= 1.0
            try:
                from scipy import stats
            except ImportError:
                continue
            ref = stats.mannwhitneyu(a, b, alternative="two-sided").pvalue
            assert abs(p - ref) < 0.02

    def test_p_in_unit_interval(self):
        p = wilcoxon_rank_sum(list(range(20)), [x + 30 for x in range(20)])
        assert 0.0 < p <= 1.0

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            wilcoxon_rank_sum([1.0, float("nan")], [2.0])


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(0, 8), min_size=1, max_size=12),
    st.lists(st.integers(0, 8), min_size=1, max_size=12),
)
def test_lenient_ge_strict_property(gold_tags, pred_tags):
    gold = decode_doc(gold_tags)
    pred = decode_doc(pred_tags)
    lenient = scores(doc_counts(gold, pred, Scheme.LENIENT))[2]
    assert lenient >= scores(doc_counts(gold, pred, Scheme.STRICT))[2]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 8), min_size=1, max_size=15))
def test_decode_encode_round_trip_property(tags):
    spans = decode_doc(tags)
    assert decode_doc(encode_spans(spans, len(tags))) == spans
