"""From trained adapters to evaluation rows.

Held-out test splits are generated per site with the site's input
distribution (skew, vocabulary window) but noise-free gold labels and the
full task set: annotation noise and missing task annotations model
training-data quality, while test measurement is against the truth.

Strategies carrying one global model are scored directly; strategies whose
output is one model per site (single-site training, the share-A baseline)
are scored per model and averaged at the metric level.  All models of a
seed are scored on a split together: each makes its own forward pass and
span match, and each bootstrap resample is drawn once for all of them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .datasim import PlantedRule, SiteDataset, SiteSpec, generate_site
from .federation import FederationResult
from .metrics import EvalReport, Scheme, bootstrap_metric_ci, decode_bio, span_counts
from .model import Backbone, FieldError, Task, ToyModel, forward
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
    ci_lo: float | None
    ci_hi: float | None


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


def _doc_counts(
    models: list[ToyModel], test: SiteDataset
) -> dict[tuple[Task, Scheme], np.ndarray]:
    """Per-document (tp, fp, fn) count tables of every model, shape
    (models, docs, 3), under every (task, scheme) the split holds.

    Each model makes one forward pass over the split's pack and keeps only
    its argmaxes.  The gold tags decode once, each model's predicted tags
    once, and each model's spans match in one call per scheme.  A relation
    document's gold and predicted instances share its marked head and
    tail, so under both schemes it is one true positive when the predicted
    label equals the gold one, else one false positive and one false
    negative; the general matcher ``relation_counts`` is not needed here."""
    pack = test.packed
    tag_preds, rel_preds = [], []
    for model in models:
        tag_probs, rel_probs = forward(model, pack)
        tag_preds.append(tag_probs.argmax(axis=1))
        rel_preds.append(rel_probs.argmax(axis=1))
    tables = {}
    if len(pack.tags):
        gold = decode_bio(pack.tags, pack.starts)
        preds = [decode_bio(tags, pack.starts) for tags in tag_preds]
        for scheme in Scheme:
            tables[(Task.TAGGING, scheme)] = np.stack(
                [span_counts(gold, pred, scheme) for pred in preds])
    if len(pack.relations):
        miss = (np.stack(rel_preds) != pack.relations).astype(np.int64)
        for scheme in Scheme:
            tables[(Task.RELATION, scheme)] = np.stack([1 - miss, miss, miss], axis=-1)
    return tables


def evaluate_model(
    models: list[ToyModel],
    test: SiteDataset,
    bootstrap: BootstrapConfig | None = None,
    seed: int = 0,
) -> list[dict[tuple[Task, Scheme], EvalReport]]:
    """Micro P/R/F1 per (task, scheme) of each model over one test set,
    with optional CI.  The bootstrap of a (task, scheme) draws its
    resamples once for all the models, seeded by the split, task and
    scheme alone, so each model's CI is the one it gets scored alone."""
    reports = [{} for _ in models]
    for (task, scheme), counts in _doc_counts(models, test).items():
        cis = [None] * len(models)
        if bootstrap is not None:
            cis = zip(*bootstrap_metric_ci(
                counts,
                sample_size=bootstrap.sample_size,
                reps=bootstrap.reps,
                level=bootstrap.level,
                seed=derive_seed(seed, test.spec.site_id, task.value, scheme.value),
            ))
        for report, (tp, fp, fn), ci in zip(reports, counts.sum(axis=1).tolist(), cis):
            report[(task, scheme)] = EvalReport(task.value, scheme, tp, fp, fn, ci)
    return reports


def evaluate_result(
    results: list[FederationResult],
    backbone: Backbone,
    test_sets: list[SiteDataset],
    bootstrap: BootstrapConfig | None = None,
    seed: int = 0,
) -> list[list[MetricRow]]:
    """Each result's rows for every (testset, task, scheme), the models of
    all results scored together by one ``evaluate_model`` call per test
    set; a result with one model per site averages them."""
    # single_site and share_a: one model per site
    owned = [
        [result.client_adapters[cid] for cid in sorted(result.client_adapters)]
        or [result.adapters]
        for result in results
    ]
    models = [ToyModel(backbone, adapters) for sets in owned for adapters in sets]
    rows = [[] for _ in results]
    mean = lambda xs: float(np.mean(xs))
    for test in test_sets:
        scored = iter(evaluate_model(models, test, bootstrap, seed))
        for result, sets, out in zip(results, owned, rows):
            per_model = [next(scored) for _ in sets]
            for key in per_model[0]:
                task, scheme = key
                reports = [m[key] for m in per_model]
                out.append(
                    MetricRow(
                        strategy=result.config.strategy.value,
                        testset=test.spec.site_id,
                        task=task.value,
                        scheme=scheme.value,
                        precision=mean([r.precision for r in reports]),
                        recall=mean([r.recall for r in reports]),
                        f1=mean([r.f1 for r in reports]),
                        ci_lo=mean([r.ci[0] for r in reports]) if bootstrap else None,
                        ci_hi=mean([r.ci[1] for r in reports]) if bootstrap else None,
                    )
                )
    return rows
