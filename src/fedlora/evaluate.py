"""From trained adapters to evaluation rows.

Held-out test splits are generated per site with the site's input
distribution (skew, vocabulary window) but noise-free gold labels and the
full task set: annotation noise and missing task annotations model
training-data quality, while test measurement is against the truth.

Strategies carrying one global model are scored directly; strategies whose
output is one model per site (single-site training, the share-A baseline)
are scored per model and averaged at the metric level.
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


def _doc_counts(model: ToyModel, test: SiteDataset) -> dict[tuple[Task, Scheme], np.ndarray]:
    """Per-document (tp, fp, fn) count tables, shape (docs, 3), under every
    (task, scheme) the split holds, from one forward pass over its pack.

    The split's gold and predicted tags decode once each, and the spans of
    all its tagging documents match in one call per scheme.  A relation
    document's gold and predicted instances share its marked head and
    tail, so under both schemes it is one true positive when the predicted
    label equals the gold one, else one false positive and one false
    negative; the general matcher ``relation_counts`` is not needed here."""
    pack = test.packed
    tag_probs, rel_probs = forward(model, pack)
    tag_pred, rel_pred = tag_probs.argmax(axis=1), rel_probs.argmax(axis=1)
    tables = {}
    if len(pack.tags):
        gold, pred = decode_bio(pack.tags, pack.starts), decode_bio(tag_pred, pack.starts)
        for scheme in Scheme:
            tables[(Task.TAGGING, scheme)] = span_counts(gold, pred, scheme)
    if len(pack.relations):
        miss = (rel_pred != pack.relations).astype(np.int64)
        for scheme in Scheme:
            tables[(Task.RELATION, scheme)] = np.stack([1 - miss, miss, miss], axis=1)
    return tables


def evaluate_model(
    model: ToyModel,
    test: SiteDataset,
    bootstrap: BootstrapConfig | None = None,
    seed: int = 0,
) -> dict[tuple[Task, Scheme], EvalReport]:
    """Micro P/R/F1 per (task, scheme) over one test set, with optional CI."""
    reports = {}
    for (task, scheme), counts in _doc_counts(model, test).items():
        ci = None
        if bootstrap is not None:
            ci = bootstrap_metric_ci(
                counts,
                sample_size=bootstrap.sample_size,
                reps=bootstrap.reps,
                level=bootstrap.level,
                seed=derive_seed(seed, test.spec.site_id, task.value, scheme.value),
            )
        tp, fp, fn = counts.sum(axis=0).tolist()
        reports[(task, scheme)] = EvalReport(task.value, scheme, tp, fp, fn, ci)
    return reports


def _models_for_result(result: FederationResult, backbone: Backbone) -> list[ToyModel]:
    if result.client_adapters:  # single_site and share_a: one model per site
        return [
            ToyModel(backbone, result.client_adapters[cid])
            for cid in sorted(result.client_adapters)
        ]
    return [ToyModel(backbone, result.adapters)]


def evaluate_result(
    result: FederationResult,
    backbone: Backbone,
    test_sets: list[SiteDataset],
    bootstrap: BootstrapConfig | None = None,
    seed: int = 0,
) -> list[MetricRow]:
    """Rows for every (testset, task, scheme); multi-model strategies average."""
    models = _models_for_result(result, backbone)
    rows = []
    for test in test_sets:
        per_model = [evaluate_model(model, test, bootstrap, seed) for model in models]
        for key in per_model[0]:
            task, scheme = key
            reports = [m[key] for m in per_model]
            mean = lambda xs: float(np.mean(xs))
            has_ci = all(r.ci is not None for r in reports)
            rows.append(
                MetricRow(
                    strategy=result.config.strategy.value,
                    testset=test.spec.site_id,
                    task=task.value,
                    scheme=scheme.value,
                    precision=mean([r.precision for r in reports]),
                    recall=mean([r.recall for r in reports]),
                    f1=mean([r.f1 for r in reports]),
                    ci_lo=mean([r.ci[0] for r in reports]) if has_ci else None,
                    ci_hi=mean([r.ci[1] for r in reports]) if has_ci else None,
                )
            )
    return rows
