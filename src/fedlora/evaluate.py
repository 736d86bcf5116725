"""From trained adapters to evaluation rows.

Held-out test splits are generated per site with the site's input
distribution (skew, vocabulary window) but noise-free gold labels and the
full task set: annotation noise and missing task annotations model
training-data quality, while test measurement is against the truth.

Strategies carrying one global model are scored directly; strategies whose
output is one model per site (single-site training, the share-A baseline)
are scored per model and averaged at the metric level.  All models of a
seed are scored together on all of its test splits at once: each model
makes one forward pass and one span match per scheme over the joined
splits, and each split's bootstrap resamples are drawn once for all the
models.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .datasim import PlantedRule, SiteDataset, SiteSpec, generate_site
from .federation import FederationResult
from .metrics import (Scheme, Spans, bootstrap_metric_ci, decode_bio, precision_recall_f1,
                      span_counts)
from .model import Backbone, FieldError, Pack, Task, ToyModel, forward
from .seeding import derive_seed


@dataclass(frozen=True)
class BootstrapConfig:
    sample_size: int = 200
    reps: int = 30
    level: float = 0.95

    def __post_init__(self):
        for name in ("sample_size", "reps"):
            if getattr(self, name) < 1:
                raise FieldError(name, "must be >= 1")
        if not 0 < self.level < 1:
            raise FieldError("level", "must lie in (0, 1)")


@dataclass(frozen=True)
class MetricRow:
    strategy: str
    testset: str
    task: str
    scheme: str
    precision: float
    recall: float
    f1: float
    ci_lo: float | None = None
    ci_hi: float | None = None


def make_test_split(spec: SiteSpec, test_size: int, rule: PlantedRule) -> SiteDataset:
    """Noise-free, all-task held-out split with the site's input distribution."""
    test_spec = replace(
        spec,
        n_examples=test_size,
        noise_rate=0.0,
        tasks=(Task.TAGGING, Task.RELATION),
        seed=derive_seed(spec.seed, "heldout"),
    )
    return generate_site(test_spec, rule)


class Scores(NamedTuple):
    """One (task, scheme)'s micro scores of every model on each split that
    holds the task, ``splits`` naming those splits by their place in the
    test list.  ``counts`` (splits, models, 3) pools each model's (tp, fp,
    fn) on each split; ``metrics`` (3 or 5, splits, models) holds the
    ``MetricRow`` scores in field order: precision, recall and F1, then the
    CI's bounds when bootstrapped."""

    splits: list[int]
    counts: np.ndarray
    metrics: np.ndarray


def _model_counts(
    model: ToyModel, pack: Pack, gold: Spans | None
) -> tuple[list[np.ndarray], np.ndarray]:
    """``model``'s per-document tagging table (docs, 3) under each scheme,
    matched against ``gold`` (none without tagging documents), and its
    predicted label per pair.  Its probabilities and spans die here, so a
    caller holds one model's at a time."""
    tag_probs, rel_probs = forward(model, pack)
    tags, relations = tag_probs.argmax(axis=1), rel_probs.argmax(axis=1)
    del tag_probs, rel_probs
    tables = []
    if gold is not None:
        pred = decode_bio(tags, pack.starts)
        tables = [span_counts(gold, pred, scheme) for scheme in Scheme]
    return tables, relations


def _doc_counts(
    models: list[ToyModel], tests: list[SiteDataset]
) -> dict[tuple[Task, Scheme], tuple[np.ndarray, list[int]]]:
    """Per-document (tp, fp, fn) count tables of every model over all the
    splits, shape (models, docs, 3), under every (task, scheme) they hold,
    each with its split cuts: split i's documents of the task are
    ``cuts[i]:cuts[i + 1]``.

    The splits' packs are joined, so each model makes one forward pass,
    its predicted tags decode once and its spans match in one call per
    scheme, all over every split; the gold tags decode once.  Matching
    groups spans by (document, type) and no span crosses a document, so
    each split's rows are the ones it gets scored alone.  A relation
    document's gold and predicted instances share its marked head and
    tail, so under both schemes it is one true positive when the predicted
    label equals the gold one, else one false positive and one false
    negative; the general matcher ``relation_counts`` is not needed here."""
    packs = [test.packed for test in tests]
    pack = Pack.concat(packs)
    gold = decode_bio(pack.tags, pack.starts) if len(pack.tags) else None
    tag_tables, rel_preds = [], []
    for model in models:
        tables, relations = _model_counts(model, pack, gold)
        tag_tables.append(tables)
        rel_preds.append(relations)
    out = {}
    if gold is not None:
        cuts = np.cumsum([0] + [len(p.starts) - 1 for p in packs]).tolist()
        for scheme, tables in zip(Scheme, zip(*tag_tables)):
            out[(Task.TAGGING, scheme)] = np.stack(tables), cuts
    if len(pack.relations):
        cuts = np.cumsum([0] + [len(p.relations) for p in packs]).tolist()
        miss = (np.stack(rel_preds) != pack.relations).astype(np.int64)
        for scheme in Scheme:
            out[(Task.RELATION, scheme)] = np.stack([1 - miss, miss, miss], axis=-1), cuts
    return out


def evaluate_model(
    models: list[ToyModel],
    test: list[SiteDataset],
    bootstrap: BootstrapConfig | None = None,
    seed: int = 0,
) -> dict[tuple[Task, Scheme], Scores]:
    """Micro P/R/F1 per (task, scheme) of each model on each split of
    ``test``, with optional CI, all splits scored together
    (``_doc_counts``).  The scores of a (task, scheme) come from one
    ``precision_recall_f1`` call over splits and models.  The bootstrap of
    a (split, task, scheme) draws its resamples once for all the models,
    seeded by the split, task and scheme alone, so each model's CI is the
    one it gets scored alone on that split alone."""
    scores = {}
    for (task, scheme), (table, cuts) in _doc_counts(models, test).items():
        splits = [i for i in range(len(test)) if cuts[i + 1] > cuts[i]]
        # the held splits' documents tile the table, so each sum ends at the next start
        counts = np.add.reduceat(table, [cuts[i] for i in splits], axis=1).swapaxes(0, 1)
        metrics = [*precision_recall_f1(*np.moveaxis(counts, -1, 0))]
        if bootstrap is not None:
            cis = [bootstrap_metric_ci(
                table[:, cuts[i]:cuts[i + 1]],
                sample_size=bootstrap.sample_size,
                reps=bootstrap.reps,
                level=bootstrap.level,
                seed=derive_seed(seed, test[i].site_id, task.value, scheme.value),
            ) for i in splits]
            metrics.extend(np.array(cis).swapaxes(0, 1))
        scores[(task, scheme)] = Scores(splits, counts, np.stack(metrics))
    return scores


def evaluate_result(
    results: list[FederationResult],
    backbone: Backbone,
    test_sets: list[SiteDataset],
    bootstrap: BootstrapConfig | None = None,
    seed: int = 0,
) -> list[list[MetricRow]]:
    """Each result's rows for every (testset, task, scheme), the models of
    all results scored together on all the test sets by one
    ``evaluate_model`` call; a result with one model per site averages
    them."""
    # single_site and share_a: one model per site
    owned = [
        [result.client_adapters[cid] for cid in sorted(result.client_adapters)]
        or [result.adapters]
        for result in results
    ]
    models = [ToyModel(backbone, adapters) for sets in owned for adapters in sets]
    scores = evaluate_model(models, test_sets, bootstrap, seed)
    bounds = np.cumsum([0] + [len(sets) for sets in owned]).tolist()
    rows = []
    for result, lo, hi in zip(results, bounds, bounds[1:]):
        # per (task, scheme), the result's mean scores on each split holding the task
        means = {key: dict(zip(s.splits, zip(*s.metrics[..., lo:hi].mean(axis=-1).tolist())))
                 for key, s in scores.items()}
        rows.append([
            MetricRow(result.config.strategy.value, test.site_id, task.value,
                      scheme.value, *by_split[i])
            for i, test in enumerate(test_sets)
            for (task, scheme), by_split in means.items() if i in by_split
        ])
    return rows
