import itertools
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedlora.datasim import (
    MAX_LEN,
    MIN_LEN,
    PlantedRule,
    SiteDataset,
    SiteSpec,
    generate_site,
    make_validation_set,
    shard,
)
from fedlora.model import FieldError, Task
from packing import packed

RULE = PlantedRule(vocab_size=60)
FIELDS = ("tokens", "tags", "shares", "heads", "tails", "relations", "tagging", "starts")


def pack_key(pack):
    return tuple(getattr(pack, name).tobytes() for name in FIELDS)


def example_keys(pack):
    """Each example of ``pack`` as a hashable key, in example order."""
    cuts = pack.starts[1:-1]
    docs = iter(zip(np.split(pack.tokens, cuts), np.split(pack.tags, cuts)))
    pairs = iter(zip(pack.heads, pack.tails, pack.relations))
    return [("t", *map(tuple, next(docs))) if tagged else ("r", *map(int, next(pairs)))
            for tagged in pack.tagging]


def gold_pair_labels(pack):
    """The two labels the rule allows each pair, one per parity of its
    marked distance (the pack keeps the marked tokens, not their places)."""
    groups = RULE.group(pack.heads), RULE.group(pack.tails)
    return RULE.relation_of(*groups, 0), RULE.relation_of(*groups, 1)


def follows_rule(pack):
    even, odd = gold_pair_labels(pack)
    return (np.array_equal(pack.tags, RULE.tags_of(pack.tokens))
            and bool(((pack.relations == even) | (pack.relations == odd)).all()))


def oracle_relation(rule, head_group, tail_group, parity):
    e = rule.num_entity_types
    if head_group == e and tail_group == e:
        return e * e - 1 - parity
    return e * (head_group - 1) + (tail_group - 1)


class TestPlantedRule:
    def test_tag_structure(self):
        assert RULE.num_tags == 9
        assert RULE.num_relations == 16
        # token 0 is outside (group 0); 1 opens entity type 1, 6 continues it
        assert RULE.tags_of(np.array([0, 1, 6, 2])).tolist() == [0, 1, 2, 3]

    def test_relation_rule_uses_parity_only_on_last_cell(self):
        assert RULE.relation_of(1, 1, 0) == RULE.relation_of(1, 1, 1) == 0
        assert RULE.relation_of(2, 3, 0) == 4 * 1 + 2
        assert RULE.relation_of(4, 4, 0) == 15
        assert RULE.relation_of(4, 4, 1) == 14

    def test_array_rule_matches_scalar_rule_everywhere(self):
        e = RULE.num_entity_types
        cells = np.array(list(itertools.product(range(1, e + 1), range(1, e + 1), (0, 1))))
        got = RULE.relation_of(cells[:, 0], cells[:, 1], cells[:, 2])
        assert got.dtype == np.int64
        assert got.tolist() == [oracle_relation(RULE, *map(int, cell)) for cell in cells]

    def test_vocab_must_align_with_groups(self):
        with pytest.raises(ValueError):
            PlantedRule(vocab_size=61)


class TestGenerateSite:
    def test_zero_noise_means_clean_equals_noisy(self):
        spec = SiteSpec("a", 200, noise_rate=0.0, seed=1)
        assert follows_rule(generate_site(spec, RULE).packed)

    def test_huge_alpha_approaches_uniform_group_frequencies(self):
        spec = SiteSpec("a", 1500, dirichlet_alpha=1e6, seed=2, tasks=(Task.TAGGING,))
        tokens = generate_site(spec, RULE).packed.tokens
        assert len(tokens) >= 10_000
        shares = np.bincount(RULE.group(tokens), minlength=RULE.num_groups) / len(tokens)
        assert (abs(shares - 1 / RULE.num_groups) < 0.02).all()

    def test_seed_changes_data_but_not_label_marginals(self):
        base = SiteSpec("a", 5000, dirichlet_alpha=2000.0, seed=3, tasks=(Task.TAGGING,))
        one = generate_site(base, RULE).packed
        two = generate_site(replace(base, seed=4), RULE).packed
        assert example_keys(one) != example_keys(two)

        def tag_marginal(pack):
            return np.bincount(pack.tags, minlength=RULE.num_tags) / len(pack.tags)

        assert (abs(tag_marginal(one) - tag_marginal(two)) < 0.03).all()

    def test_deterministic_under_seed(self):
        spec = SiteSpec("a", 300, dirichlet_alpha=0.5, noise_rate=0.2, seed=5)
        one, two = generate_site(spec, RULE).packed, generate_site(spec, RULE).packed
        assert pack_key(one) == pack_key(two)

    def test_noise_rate_measured_within_three_points(self):
        for rate in (0.1, 0.4):
            spec = SiteSpec(
                "a", 2500, noise_rate=rate, seed=6, tasks=(Task.TAGGING,)
            )
            pack = generate_site(spec, RULE).packed
            flipped = (pack.tags != RULE.tags_of(pack.tokens)).mean()
            assert abs(flipped - rate) < 0.03

    def test_relation_noise_flips_labels(self):
        # noise draws come last, so the noise-free site holds the gold labels
        spec = SiteSpec("a", 2000, noise_rate=0.3, seed=7, tasks=(Task.RELATION,))
        noisy = generate_site(spec, RULE).packed
        clean = generate_site(replace(spec, noise_rate=0.0), RULE).packed
        assert abs((noisy.relations != clean.relations).mean() - 0.3) < 0.03

    def test_task_filter_is_exhaustive(self):
        spec = SiteSpec("a", 500, seed=8, tasks=(Task.TAGGING,))
        pack = generate_site(spec, RULE).packed
        assert pack.tagging.all() and len(pack.heads) == 0

    def test_gold_labels_follow_rule_before_noise(self):
        # noise draws come after every input is drawn, so the same site
        # without noise holds the same inputs with the pre-noise labels
        spec = SiteSpec("a", 200, noise_rate=0.5, seed=9)
        noisy = generate_site(spec, RULE).packed
        clean = generate_site(replace(spec, noise_rate=0.0), RULE).packed
        for name in ("tokens", "heads", "tails", "tagging", "starts"):
            assert np.array_equal(getattr(noisy, name), getattr(clean, name))
        assert follows_rule(clean)
        assert (noisy.tags != clean.tags).any() and (noisy.relations != clean.relations).any()

    def test_token_shift_changes_vocabulary_slice(self):
        one = generate_site(SiteSpec("a", 400, seed=10, token_shift=0), RULE).packed
        two = generate_site(SiteSpec("a", 400, seed=10, token_shift=3), RULE).packed

        def vocab(pack):
            return set(np.concatenate([pack.tokens, pack.heads, pack.tails]).tolist())

        assert vocab(one) != vocab(two)

    def test_marked_tokens_are_entities(self):
        pack = generate_site(SiteSpec("a", 400, dirichlet_alpha=0.3, seed=11), RULE).packed
        assert (RULE.group(pack.heads) > 0).all() and (RULE.group(pack.tails) > 0).all()


def oracle_pick(probs, u):
    """The group whose slice of [0, 1) holds ``u``, the slices laid out by
    cumulative sums normalized by their total."""
    total, edges = 0.0, []
    for p in probs:
        total += float(p)
        edges.append(total)
    return next(g for g, edge in enumerate(edges) if u < edge / total)


def oracle_tag(rule, token):
    group = rule.group(token)
    role = (token // rule.num_groups) % 2
    return 0 if group == 0 else 1 + 2 * (group - 1) + role


def oracle_tags(rule, tokens):
    return np.array([oracle_tag(rule, int(t)) for t in tokens], dtype=np.int64)


def oracle_noise(rng, labels, classes, rate):
    """Per-label noise, one label at a time: every uniform, then every offset."""
    if rate <= 0.0:
        return labels
    flips = [rng.random() < rate for _ in labels]
    offsets = [int(rng.integers(1, classes)) for _ in labels]
    return [(y + o) % classes if f else y for y, f, o in zip(labels, flips, offsets)]


def oracle_site(spec, rule):
    """The site drawn one example at a time with scalar draws, in the
    generator's order: group mix, lengths, tagging groups, tagging window
    indices, marked positions, marked groups, marked window indices, tag
    noise, relation noise."""
    rng = np.random.default_rng(spec.seed)
    probs = rng.dirichlet([spec.dirichlet_alpha] * rule.num_groups)
    per_group = rule.tokens_per_group
    window = max(2, per_group // 2)

    def token(group):
        return rule.token_id(group, (int(rng.integers(0, window)) + spec.token_shift) % per_group)

    tasks = [spec.tasks[i % len(spec.tasks)] for i in range(spec.n_examples)]
    lengths = [int(rng.integers(MIN_LEN, MAX_LEN + 1)) for _ in tasks]
    tagged = [n for n, task in zip(lengths, tasks) if task is Task.TAGGING]
    sizes = [n for n, task in zip(lengths, tasks) if task is Task.RELATION]
    groups = [[oracle_pick(probs, rng.random()) for _ in range(n)] for n in tagged]
    docs = [[token(g) for g in doc] for doc in groups]
    first = [int(rng.integers(0, n)) for n in sizes]
    second = [int(rng.integers(0, n - 1)) for n in sizes]
    places = [sorted((f, s + (s >= f))) for f, s in zip(first, second)]
    marked_groups = [[1 + oracle_pick(probs[1:], rng.random()) for _ in range(2)] for _ in sizes]
    marked = [[token(g) for g in pair] for pair in marked_groups]
    labels = [oracle_relation(rule, rule.group(h), rule.group(t), (tail - head) % 2)
              for (h, t), (head, tail) in zip(marked, places)]
    tags = oracle_noise(rng, [oracle_tag(rule, t) for doc in docs for t in doc],
                        rule.num_tags, spec.noise_rate)
    labels = oracle_noise(rng, labels, rule.num_relations, spec.noise_rate)
    tag_rows, pairs = iter(docs), iter((h, t, label) for (h, t), label in zip(marked, labels))
    examples, t = [], 0
    for task in tasks:
        if task is Task.TAGGING:
            doc = next(tag_rows)
            examples.append((doc, tags[t:t + len(doc)]))
            t += len(doc)
        else:
            examples.append(next(pairs))
    return packed(examples)


def oracle_validation_set(rule, n_v, seed):
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet([1e6] * rule.num_groups)
    e = rule.num_entity_types
    lengths = [int(rng.integers(MIN_LEN, MAX_LEN + 1)) for _ in range(0, n_v, 2)]
    groups = [[oracle_pick(probs, rng.random()) for _ in range(n)] for n in lengths]
    docs = [[rule.token_id(g, int(rng.integers(0, rule.tokens_per_group))) for g in doc]
            for doc in groups]
    examples = []
    for i in range(n_v):
        k = i // 2
        if i % 2 == 0:
            tag = k % rule.num_tags
            docs[k][0] = next(v for v in range(rule.vocab_size) if oracle_tag(rule, v) == tag)
            examples.append((docs[k], oracle_tags(rule, docs[k])))
        else:
            head_group, tail_group = (k // e) % e + 1, k % e + 1
            head, tail = rule.token_id(head_group, 0), rule.token_id(tail_group, 0)
            label = oracle_relation(rule, head_group, tail_group, 0)
            examples.append((head, tail, label))
    return packed(examples)


def assert_packs_equal(got, want):
    for name in FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


class TestPerExampleOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        groups_of_five=st.integers(2, 24),
        n_examples=st.integers(1, 60),
        alpha=st.floats(0.05, 1e6),
        noise_rate=st.floats(0.0, 1.0),
        token_shift=st.integers(0, 20),
        tasks=st.lists(st.sampled_from(list(Task)), min_size=1, max_size=2, unique=True),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_whole_site_draws_match_per_example_loop(
        self, groups_of_five, n_examples, alpha, noise_rate, token_shift, tasks, seed
    ):
        rule = PlantedRule(vocab_size=5 * groups_of_five)
        spec = SiteSpec("a", n_examples, alpha, noise_rate, tuple(tasks), token_shift, seed)
        assert_packs_equal(generate_site(spec, rule).packed, oracle_site(spec, rule))
        assert_packs_equal(
            make_validation_set(rule, n_examples, seed).packed,
            oracle_validation_set(rule, n_examples, seed),
        )

    def test_site_without_entity_mass_cannot_mark_a_pair(self):
        # at alpha 0.01, seed 31 draws all group mass onto group 0, outside
        spec = SiteSpec("a", 5, dirichlet_alpha=0.01, tasks=(Task.TAGGING,), seed=31)
        assert not generate_site(spec, RULE).packed.tags.any()
        with pytest.raises(FieldError, match="dirichlet_alpha"):
            generate_site(replace(spec, tasks=(Task.RELATION,)), RULE)


class TestValidationSet:
    def test_five_records(self):
        val = make_validation_set(RULE, 5, seed=11)
        assert len(val) == 5
        assert val.packed.tagging.tolist() == [True, False, True, False, True]

    def test_noise_free(self):
        pack = make_validation_set(RULE, 20, seed=12).packed
        even, _ = gold_pair_labels(pack)
        assert np.array_equal(pack.tags, RULE.tags_of(pack.tokens))
        assert np.array_equal(pack.relations, even)

    def test_every_class_appears_for_large_enough_set(self):
        n_v = 4 * RULE.num_tags
        pack = make_validation_set(RULE, n_v, seed=13).packed
        assert set(pack.tags.tolist()) == set(range(RULE.num_tags))
        assert set(pack.relations.tolist()) == set(range(RULE.num_relations))


class TestShard:
    def make_pool(self, n=1000) -> SiteDataset:
        return generate_site(SiteSpec("pool", n, seed=14), RULE)

    def test_single_shard_is_permuted_pool(self):
        pool = self.make_pool(50)
        shards = shard(pool, 1, seed=15)
        assert len(shards) == 1
        assert Counter(example_keys(shards[0].packed)) == Counter(example_keys(pool.packed))

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
            union.update(example_keys(s.packed))
        assert union == Counter(example_keys(pool.packed))

    def test_too_many_shards_rejected(self):
        pool = self.make_pool(5)
        with pytest.raises(ValueError):
            shard(pool, 6, seed=19)

    def test_deterministic(self):
        pool = self.make_pool(100)
        one = shard(pool, 3, seed=20)
        two = shard(pool, 3, seed=20)
        for s1, s2 in zip(one, two):
            assert pack_key(s1.packed) == pack_key(s2.packed)
