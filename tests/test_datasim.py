from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from fedlora.datasim import (
    PlantedRule,
    SiteDataset,
    SiteSpec,
    generate_site,
    make_validation_set,
    shard,
)
from fedlora.model import Task

RULE = PlantedRule(vocab_size=60)


def example_key(ex):
    if ex.task is Task.TAGGING:
        return ("t", tuple(ex.tokens), tuple(ex.tags))
    return ("r", tuple(ex.tokens), ex.head, ex.tail, ex.relation)


def label(ex):
    return ex.tags if ex.task is Task.TAGGING else ex.relation


def gold_label(ex):
    """The planted rule's label for ex's tokens (and marked pair), before noise."""
    if ex.task is Task.TAGGING:
        return RULE.tags_of(ex.tokens)
    parity = (ex.tail - ex.head) % 2
    return RULE.relation_of(
        RULE.group(int(ex.tokens[ex.head])), RULE.group(int(ex.tokens[ex.tail])), parity
    )


class TestPlantedRule:
    def test_tag_structure(self):
        assert RULE.num_tags == 9
        assert RULE.num_relations == 16
        assert RULE.tag_of(0) == 0  # group 0 is outside
        assert RULE.tag_of(1) == 1  # entity type 1, opening role
        assert RULE.tag_of(6) == 2  # same type, continuation role
        assert RULE.tag_of(2) == 3

    def test_relation_rule_uses_parity_only_on_last_cell(self):
        assert RULE.relation_of(1, 1, 0) == RULE.relation_of(1, 1, 1) == 0
        assert RULE.relation_of(2, 3, 0) == 4 * 1 + 2
        assert RULE.relation_of(4, 4, 0) == 15
        assert RULE.relation_of(4, 4, 1) == 14

    def test_vocab_must_align_with_groups(self):
        with pytest.raises(ValueError):
            PlantedRule(vocab_size=61)


class TestGenerateSite:
    def test_zero_noise_means_clean_equals_noisy(self):
        spec = SiteSpec("a", 200, noise_rate=0.0, seed=1)
        data = generate_site(spec, RULE)
        for ex in data.examples:
            assert np.array_equal(label(ex), gold_label(ex))

    def test_huge_alpha_approaches_uniform_group_frequencies(self):
        spec = SiteSpec("a", 1500, dirichlet_alpha=1e6, seed=2, tasks=(Task.TAGGING,))
        data = generate_site(spec, RULE)
        groups = Counter()
        total = 0
        for ex in data.examples:
            for t in ex.tokens:
                groups[RULE.group(int(t))] += 1
                total += 1
        assert total >= 10_000
        for g in range(RULE.num_groups):
            assert abs(groups[g] / total - 1 / RULE.num_groups) < 0.02

    def test_seed_changes_data_but_not_label_marginals(self):
        base = SiteSpec("a", 5000, dirichlet_alpha=2000.0, seed=3, tasks=(Task.TAGGING,))
        one = generate_site(base, RULE)
        two = generate_site(replace(base, seed=4), RULE)
        assert [example_key(e) for e in one.examples] != [
            example_key(e) for e in two.examples
        ]

        def tag_marginal(data):
            counts = Counter()
            total = 0
            for ex in data.examples:
                for t in ex.tags:
                    counts[int(t)] += 1
                    total += 1
            return {t: c / total for t, c in counts.items()}

        m1, m2 = tag_marginal(one), tag_marginal(two)
        for tag in range(RULE.num_tags):
            assert abs(m1.get(tag, 0.0) - m2.get(tag, 0.0)) < 0.03

    def test_deterministic_under_seed(self):
        spec = SiteSpec("a", 300, dirichlet_alpha=0.5, noise_rate=0.2, seed=5)
        one = generate_site(spec, RULE)
        two = generate_site(spec, RULE)
        assert [example_key(e) for e in one.examples] == [
            example_key(e) for e in two.examples
        ]

    def test_noise_rate_measured_within_three_points(self):
        for rate in (0.1, 0.4):
            spec = SiteSpec(
                "a", 2500, noise_rate=rate, seed=6, tasks=(Task.TAGGING,)
            )
            data = generate_site(spec, RULE)
            flipped = 0
            total = 0
            for ex in data.examples:
                flipped += int((ex.tags != RULE.tags_of(ex.tokens)).sum())
                total += len(ex.tags)
            assert abs(flipped / total - rate) < 0.03

    def test_relation_noise_flips_labels(self):
        spec = SiteSpec("a", 2000, noise_rate=0.3, seed=7, tasks=(Task.RELATION,))
        data = generate_site(spec, RULE)
        flipped = sum(ex.relation != gold_label(ex) for ex in data.examples)
        assert abs(flipped / len(data) - 0.3) < 0.03

    def test_task_filter_is_exhaustive(self):
        spec = SiteSpec("a", 500, seed=8, tasks=(Task.TAGGING,))
        data = generate_site(spec, RULE)
        assert all(ex.task is Task.TAGGING for ex in data.examples)

    def test_gold_labels_follow_rule_before_noise(self):
        # noise draws come after every example is drawn, so the same site
        # without noise holds the same inputs with the pre-noise labels
        spec = SiteSpec("a", 200, noise_rate=0.5, seed=9)
        noisy = generate_site(spec, RULE)
        clean = generate_site(replace(spec, noise_rate=0.0), RULE)
        flipped = 0
        for n, c in zip(noisy.examples, clean.examples):
            inputs = (n.task, tuple(n.tokens), n.head, n.tail)
            assert inputs == (c.task, tuple(c.tokens), c.head, c.tail)
            assert np.array_equal(label(c), gold_label(c))
            flipped += not np.array_equal(label(n), gold_label(n))
        assert flipped > 0

    def test_token_shift_changes_vocabulary_slice(self):
        one = generate_site(SiteSpec("a", 400, seed=10, token_shift=0), RULE)
        two = generate_site(SiteSpec("a", 400, seed=10, token_shift=3), RULE)

        def vocab(data):
            seen = set()
            for ex in data.examples:
                seen.update(int(t) for t in ex.tokens)
            return seen

        assert vocab(one) != vocab(two)


class TestValidationSet:
    def test_five_records(self):
        val = make_validation_set(RULE, 5, seed=11)
        assert len(val) == 5
        assert {ex.task for ex in val.examples} == {Task.TAGGING, Task.RELATION}

    def test_noise_free(self):
        val = make_validation_set(RULE, 20, seed=12)
        for ex in val.examples:
            assert np.array_equal(label(ex), gold_label(ex))

    def test_every_class_appears_for_large_enough_set(self):
        n_v = 4 * RULE.num_tags
        val = make_validation_set(RULE, n_v, seed=13)
        tags_seen = set()
        rels_seen = set()
        for ex in val.examples:
            if ex.task is Task.TAGGING:
                tags_seen.update(int(t) for t in ex.tags)
            else:
                rels_seen.add(ex.relation)
        assert tags_seen == set(range(RULE.num_tags))
        assert rels_seen == set(range(RULE.num_relations))


class TestShard:
    def make_pool(self, n=1000) -> SiteDataset:
        return generate_site(SiteSpec("pool", n, seed=14), RULE)

    def test_single_shard_is_permuted_pool(self):
        pool = self.make_pool(50)
        shards = shard(pool, 1, seed=15)
        assert len(shards) == 1
        assert Counter(map(example_key, shards[0].examples)) == Counter(
            map(example_key, pool.examples)
        )

    def test_ten_even_shards(self):
        pool = self.make_pool(1000)
        shards = shard(pool, 10, seed=16)
        assert [len(s) for s in shards] == [100] * 10

    def test_sizes_differ_by_at_most_one(self):
        pool = self.make_pool(103)
        sizes = [len(s) for s in shard(pool, 7, seed=17)]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 103

    def test_multiset_union_equals_pool(self):
        pool = self.make_pool(333)
        shards = shard(pool, 4, seed=18)
        union = Counter()
        for s in shards:
            union.update(map(example_key, s.examples))
        assert union == Counter(map(example_key, pool.examples))

    def test_too_many_shards_rejected(self):
        pool = self.make_pool(5)
        with pytest.raises(ValueError):
            shard(pool, 6, seed=19)

    def test_deterministic(self):
        pool = self.make_pool(100)
        one = shard(pool, 3, seed=20)
        two = shard(pool, 3, seed=20)
        for s1, s2 in zip(one, two):
            assert list(map(example_key, s1.examples)) == list(
                map(example_key, s2.examples)
            )
