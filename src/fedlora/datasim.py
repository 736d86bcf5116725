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

A site is its id and one ``Pack``, drawn by ``generate_site`` from its
``SiteSpec``, the config schema.  It and ``make_validation_set`` draw the
pack's arrays directly, each draw one numpy call for the whole site, so no
per-example object is ever built.  ``shard`` takes a pack's rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import FieldError, Pack, Task

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

    def relation_of(self, head_group: np.ndarray, tail_group: np.ndarray,
                    parity: np.ndarray) -> np.ndarray:
        """The label of each marked pair, from its groups and the parity of
        its marked distance."""
        e = self.num_entity_types
        last = (head_group == e) & (tail_group == e)
        return np.where(last, e * e - 1 - parity, e * (head_group - 1) + (tail_group - 1))


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
    """One site's data: its id and its examples as one pack."""

    site_id: str
    packed: Pack

    def __len__(self) -> int:
        return len(self.packed)


def _tokens(rule: PlantedRule, rng: np.random.Generator, probs: np.ndarray, n: int,
            window: int, shift: int) -> np.ndarray:
    """``n`` tokens of a site's law: one uniform per token picks its group
    in the normalized CDF of ``probs``, then one index per token picks it
    from the group's first ``window`` ids, rotated by ``shift``."""
    if not n:  # a site's entity groups may hold no mass when it marks no pair
        return np.zeros(0, dtype=np.int64)
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    groups = cdf.searchsorted(rng.random(n), side="right")
    index = rng.integers(0, window, size=n) + shift
    return rule.token_id(groups, index % rule.tokens_per_group)


def _with_noise(labels: np.ndarray, classes: int, rate: float,
                rng: np.random.Generator) -> np.ndarray:
    """``labels`` with each moved, at ``rate``, by a uniform nonzero offset
    modulo ``classes``: one uniform and one offset per label."""
    if rate <= 0.0:
        return labels
    flip = rng.random(len(labels)) < rate
    offset = rng.integers(1, classes, size=len(labels))
    return np.where(flip, (labels + offset) % classes, labels)


def generate_site(spec: SiteSpec, rule: PlantedRule) -> SiteDataset:
    """One site's local dataset, deterministic given spec.seed; the
    examples cycle through ``spec.tasks``.  Each draw is one call for the
    whole site, in order: group mix, every length, the tagging tokens, two
    distinct marked positions per pair (the second skips the first), two
    entity tokens per pair, tag noise, relation noise.  Unmarked tokens of a
    pair are never read, so never drawn; only the positions' parity is."""
    rng = np.random.default_rng(spec.seed)
    probs = rng.dirichlet([spec.dirichlet_alpha] * rule.num_groups)
    window = max(2, rule.tokens_per_group // 2)
    cycle = np.arange(spec.n_examples) % len(spec.tasks)
    tagging = np.array([task is Task.TAGGING for task in spec.tasks])[cycle]
    lengths = rng.integers(MIN_LEN, MAX_LEN + 1, size=spec.n_examples)
    counts = lengths[tagging]
    tokens = _tokens(rule, rng, probs, int(counts.sum()), window, spec.token_shift)
    sizes = lengths[~tagging]
    first = rng.integers(0, sizes)
    second = rng.integers(0, sizes - 1)
    second += second >= first
    entity = np.concatenate([[0.0], probs[1:]])
    if len(sizes) and not entity.any():  # a tiny alpha can put all mass on group 0
        raise FieldError("dirichlet_alpha", "left no entity group to mark a relation pair")
    marked = _tokens(rule, rng, entity, 2 * len(sizes), window, spec.token_shift).reshape(-1, 2)
    relations = rule.relation_of(*rule.group(marked).T, (second - first) % 2)
    tags = _with_noise(rule.tags_of(tokens), rule.num_tags, spec.noise_rate, rng)
    relations = _with_noise(relations, rule.num_relations, spec.noise_rate, rng)
    return SiteDataset(spec.site_id, Pack.build(tagging, tokens, counts, tags, marked[:, 0],
                                                marked[:, 1], relations))


def make_validation_set(rule: PlantedRule, n_v: int, seed: int) -> SiteDataset:
    """Small noise-free, unskewed server-side validation set covering every task.

    Examples alternate tagging and relation, stratified so every class
    appears once the set is large enough: a tagging example's first token
    carries a cycling tag, and a pair cycles through the group-pair table at
    an even distance.  Only tagging examples draw (full window): group mix,
    lengths, tokens.
    """
    rng = np.random.default_rng(seed)
    probs = rng.dirichlet([1e6] * rule.num_groups)
    tagging = np.arange(n_v) % 2 == 0
    counts = rng.integers(MIN_LEN, MAX_LEN + 1, size=int(tagging.sum()))
    tokens = _tokens(rule, rng, probs, int(counts.sum()), rule.tokens_per_group, 0)
    # each tag's carrier is the smallest token id with that tag
    carriers = np.unique(rule.tags_of(np.arange(rule.vocab_size)), return_index=True)[1]
    tokens[np.cumsum(counts) - counts] = carriers[np.arange(len(counts)) % rule.num_tags]
    cycle = np.arange(n_v - len(counts))
    e = rule.num_entity_types
    head_groups, tail_groups = (cycle // e) % e + 1, cycle % e + 1
    return SiteDataset("validation", Pack.build(
        tagging, tokens, counts, rule.tags_of(tokens), rule.token_id(head_groups, 0),
        rule.token_id(tail_groups, 0), rule.relation_of(head_groups, tail_groups, 0)))


def shard(pool: SiteDataset, k: int, seed: int) -> list[SiteDataset]:
    """Split a pooled dataset into k near-equal random shards."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > len(pool):
        raise ValueError(f"cannot cut {len(pool)} examples into {k} shards")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(pool))
    return [SiteDataset(f"{pool.site_id}_shard{i}", pool.packed.take(rows))
            for i, rows in enumerate(np.array_split(order, k))]
