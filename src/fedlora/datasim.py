"""Synthetic multi-site data with controllable heterogeneity.

A single global planted rule maps token ids to gold tags and marked token
pairs to gold relation labels, so pooled training has a well-defined target.
Sites differ only in their input distribution, through four orthogonal knobs:

* ``dirichlet_alpha`` — label skew: token-group frequencies are drawn once
  per site from Dirichlet(alpha); small alpha means strong skew.
* ``n_examples`` — site size.
* ``noise_rate`` — fraction of gold labels flipped uniformly at random
  (training-annotation quality; the gold label stays a pure function of
  the tokens through the rule).
* ``token_shift`` — each site samples from a rotated half-window of every
  token group, modeling site-specific vocabulary/documentation style.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .model import Example, FieldError, Pack, Task

MIN_LEN = 6
MAX_LEN = 12


@dataclass(frozen=True)
class PlantedRule:
    """Global deterministic labeling rule.

    Token ids are grouped modulo ``num_entity_types + 1``; group 0 is
    non-entity.  Within an entity group, alternate tokens carry the
    span-opening role and the span-continuation role, so the gold tag is a
    pure function of the token id:

        tag 0 = outside;  tag 1 + 2*(k-1) + role = B/I of entity type k.

    The relation label of a marked pair is the 4x4 product code of the two
    entity groups; only the (last, last) cell is perturbed by the parity of
    the marked distance, which keeps the task learnable by an additive
    two-token classifier while parity remains a genuine input of the rule.
    """

    vocab_size: int
    num_entity_types: int = 4

    def __post_init__(self):
        groups = self.num_entity_types + 1
        if self.vocab_size < 2 * groups:
            raise FieldError("vocab_size", "too small for the planted rule")
        if self.vocab_size % groups != 0:
            raise FieldError("vocab_size", f"must be a multiple of {groups}")

    @property
    def num_groups(self) -> int:
        return self.num_entity_types + 1

    @property
    def num_tags(self) -> int:
        return 1 + 2 * self.num_entity_types

    @property
    def num_relations(self) -> int:
        return self.num_entity_types * self.num_entity_types

    @property
    def tokens_per_group(self) -> int:
        return self.vocab_size // self.num_groups

    def group(self, token: int) -> int:
        return token % self.num_groups

    def token_id(self, group: int, index: int) -> int:
        return index * self.num_groups + group

    def tags_of(self, tokens: np.ndarray) -> np.ndarray:
        g = tokens % self.num_groups
        role = (tokens // self.num_groups) % 2  # 0 opens a span, 1 continues
        return np.where(g == 0, 0, 1 + 2 * (g - 1) + role).astype(np.int64)

    def relation_of(self, head_group: int, tail_group: int, parity: int) -> int:
        e = self.num_entity_types
        if head_group == e and tail_group == e:
            return e * e - 1 - parity
        return e * (head_group - 1) + (tail_group - 1)


@dataclass(frozen=True)
class SiteSpec:
    site_id: str
    n_examples: int
    dirichlet_alpha: float = 1e6
    noise_rate: float = 0.0
    tasks: tuple[Task, ...] = (Task.TAGGING, Task.RELATION)
    token_shift: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.n_examples < 1:
            raise FieldError("n_examples", "must be >= 1")
        if not self.tasks:
            raise FieldError("tasks", "must be non-empty")
        if not 0.0 <= self.noise_rate <= 1.0:
            raise FieldError("noise_rate", "must lie in [0, 1]")
        if self.dirichlet_alpha <= 0:
            raise FieldError("dirichlet_alpha", "must be positive")
        object.__setattr__(self, "tasks", tuple(self.tasks))


@dataclass(frozen=True)
class SiteDataset:
    spec: SiteSpec
    examples: list[Example]

    def __post_init__(self):
        if len(self.examples) != self.spec.n_examples:
            raise ValueError("example count does not match spec")
        for ex in self.examples:
            if ex.task not in self.spec.tasks:
                raise ValueError(f"task {ex.task} not declared by site {self.spec.site_id}")

    def __len__(self) -> int:
        return len(self.examples)

    @cached_property
    def packed(self) -> Pack:
        """The examples as flat arrays, packed on first use; the pack lives
        and dies with the dataset."""
        return Pack.of(self.examples)

    @cached_property
    def first_updates(self) -> dict:
        """Round-0 local updates trained on this site, filled by the round
        loop; like the pack, the memo lives and dies with the dataset."""
        return {}


class _SiteSampler:
    """Seeded token sampler for one site's tilted distribution.

    It consumes the generator exactly as per-token ``Generator.choice``
    calls would: one double per group, searched in the normalized CDF, and
    one bounded integer per window index.
    """

    def __init__(self, rule: PlantedRule, spec: SiteSpec, rng: np.random.Generator,
                 full_window: bool = False):
        self.rule = rule
        self.rng = rng
        self.probs = rng.dirichlet([spec.dirichlet_alpha] * rule.num_groups)
        self.cdf = self.probs.cumsum()
        self.cdf /= self.cdf[-1]
        self.window = rule.tokens_per_group if full_window else max(2, rule.tokens_per_group // 2)
        self.shift = spec.token_shift

    @cached_property
    def entity_cdf(self) -> np.ndarray:
        if not self.probs[1:].any():  # a tiny alpha can put all mass on group 0
            raise FieldError("dirichlet_alpha", "left no entity group to mark a relation pair")
        cdf = (self.probs[1:] / self.probs[1:].sum()).cumsum()
        return cdf / cdf[-1]

    def draw_groups(self, n: int, entity_only: bool = False) -> np.ndarray:
        if entity_only:
            return self.entity_cdf.searchsorted(self.rng.random(n), side="right") + 1
        return self.cdf.searchsorted(self.rng.random(n), side="right")

    def draw_tokens(self, groups: np.ndarray) -> np.ndarray:
        """One token of each group, from the site's shifted window."""
        index = self.rng.integers(0, self.window, size=len(groups)) + self.shift
        return self.rule.token_id(groups, index % self.rule.tokens_per_group)

    def draw_sequence(self) -> np.ndarray:
        length = int(self.rng.integers(MIN_LEN, MAX_LEN + 1))
        return self.draw_tokens(self.draw_groups(length))


def _make_example(rule: PlantedRule, sampler: _SiteSampler, rng, task: Task) -> Example:
    tokens = sampler.draw_sequence()
    if task is Task.TAGGING:
        return Example(Task.TAGGING, tokens, tags=rule.tags_of(tokens))
    head, tail = sorted(int(i) for i in rng.choice(len(tokens), size=2, replace=False))
    for pos in (head, tail):  # one at a time: a batch would reorder the stream
        tokens[pos] = sampler.draw_tokens(sampler.draw_groups(1, entity_only=True))[0]
    parity = (tail - head) % 2
    label = rule.relation_of(
        rule.group(int(tokens[head])), rule.group(int(tokens[tail])), parity
    )
    return Example(
        Task.RELATION, tokens, head=head, tail=tail, relation=label
    )


def _flip_labels(rule: PlantedRule, example: Example, noise_rate: float, rng) -> Example:
    if noise_rate <= 0.0:
        return example
    if example.task is Task.TAGGING:
        tags = example.tags.copy()
        flips = np.nonzero(rng.random(len(tags)) < noise_rate)[0]
        offsets = rng.integers(1, rule.num_tags, size=len(flips))
        tags[flips] = (tags[flips] + offsets) % rule.num_tags
        return replace(example, tags=tags)
    if rng.random() < noise_rate:
        offset = int(rng.integers(1, rule.num_relations))
        return replace(example, relation=(example.relation + offset) % rule.num_relations)
    return example


def generate_site(spec: SiteSpec, rule: PlantedRule) -> SiteDataset:
    """One site's local dataset, deterministic given spec.seed."""
    rng = np.random.default_rng(spec.seed)
    sampler = _SiteSampler(rule, spec, rng)
    gold = [_make_example(rule, sampler, rng, spec.tasks[i % len(spec.tasks)])
            for i in range(spec.n_examples)]
    return SiteDataset(spec, [_flip_labels(rule, ex, spec.noise_rate, rng) for ex in gold])


def make_validation_set(rule: PlantedRule, n_v: int, seed: int) -> SiteDataset:
    """Small noise-free, unskewed server-side validation set covering every task.

    Stratified construction: tagging examples force one token of a cycling
    target tag class, relation examples cycle through the group-pair table,
    so every class appears once the set is large enough.
    """
    spec = SiteSpec(
        site_id="validation", n_examples=n_v, dirichlet_alpha=1e6, noise_rate=0.0,
        tasks=(Task.TAGGING, Task.RELATION), seed=seed,
    )
    rng = np.random.default_rng(seed)
    sampler = _SiteSampler(rule, spec, rng, full_window=True)
    examples: list[Example] = []
    e = rule.num_entity_types
    for i in range(n_v):
        tokens = sampler.draw_sequence()
        cycle = i // 2  # the example's place among those of its task
        if i % 2 == 0:
            tokens[0] = _token_with_tag(rule, cycle % rule.num_tags)
            examples.append(Example(Task.TAGGING, tokens, tags=rule.tags_of(tokens)))
        else:
            head_group = (cycle // e) % e + 1
            tail_group = cycle % e + 1
            head, tail = 0, 2  # even distance so the parity cell stays canonical
            tokens[head] = rule.token_id(head_group, 0)
            tokens[tail] = rule.token_id(tail_group, 0)
            label = rule.relation_of(head_group, tail_group, 0)
            examples.append(
                Example(Task.RELATION, tokens, head=head, tail=tail, relation=label)
            )
    return SiteDataset(spec, examples)


def _token_with_tag(rule: PlantedRule, tag: int) -> int:
    if tag == 0:
        return rule.token_id(0, 0)
    group = (tag - 1) // 2 + 1
    role = (tag - 1) % 2
    return rule.token_id(group, role)  # index 0 opens, index 1 continues


def shard(pool: SiteDataset, k: int, seed: int) -> list[SiteDataset]:
    """Split a pooled dataset into k near-equal random shards."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > len(pool):
        raise ValueError(f"cannot cut {len(pool)} examples into {k} shards")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(pool))
    parts = np.array_split(order, k)
    shards = []
    for i, idx in enumerate(parts):
        spec = replace(pool.spec, site_id=f"{pool.spec.site_id}_shard{i}", n_examples=len(idx))
        shards.append(SiteDataset(spec, [pool.examples[j] for j in idx]))
    return shards
