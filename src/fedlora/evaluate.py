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
from .metrics import (
    EvalReport,
    RelationInstance,
    Scheme,
    Span,
    bootstrap_metric_ci,
    decode_bio,
    micro_report,
    relation_counts,
    span_counts,
)
from .model import Backbone, Task, ToyModel, forward
from .seeding import derive_seed


@dataclass(frozen=True)
class BootstrapConfig:
    sample_size: int = 200
    reps: int = 30
    level: float = 0.95

    def __post_init__(self):
        if self.sample_size < 1 or self.reps < 1:
            raise ValueError("sample_size and reps must be >= 1")
        if not 0 < self.level < 1:
            raise ValueError("level must lie in (0, 1)")


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


def _marked_span(rule: PlantedRule, tokens: np.ndarray, pos: int) -> Span:
    return Span(pos, pos + 1, rule.group(int(tokens[pos])))


def _doc_counts(model: ToyModel, rule: PlantedRule,
                test: SiteDataset) -> dict[tuple[Task, Scheme], list[tuple[int, int, int]]]:
    """Per-document match counts under every (task, scheme), from one
    forward pass and one decode per document."""
    counts = {(task, scheme): [] for task in Task for scheme in Scheme}
    for ex in test.examples:
        logits = forward(model, ex)
        if ex.task is Task.TAGGING:
            gold, pred = decode_bio(ex.tags), decode_bio(logits.argmax(axis=1))
            count = span_counts
        else:
            head = _marked_span(rule, ex.tokens, ex.head)
            tail = _marked_span(rule, ex.tokens, ex.tail)
            gold = [RelationInstance(head, tail, ex.relation)]
            pred = [RelationInstance(head, tail, int(logits.argmax()))]
            count = relation_counts
        for scheme in Scheme:
            counts[(ex.task, scheme)].append(count(gold, pred, scheme))
    return counts


def evaluate_model(
    model: ToyModel,
    rule: PlantedRule,
    test: SiteDataset,
    bootstrap: BootstrapConfig | None = None,
    seed: int = 0,
) -> dict[tuple[Task, Scheme], EvalReport]:
    """Micro P/R/F1 per (task, scheme) over one test set, with optional CI."""
    reports = {}
    for (task, scheme), counts in _doc_counts(model, rule, test).items():
        if not counts:
            continue
        report = micro_report(counts, task.value, scheme)
        if bootstrap is not None:
            ci = bootstrap_metric_ci(
                counts,
                lambda cs, t=task, s=scheme: micro_report(cs, t.value, s).f1,
                sample_size=bootstrap.sample_size,
                reps=bootstrap.reps,
                level=bootstrap.level,
                seed=derive_seed(seed, test.spec.site_id, task.value, scheme.value),
            )
            report = replace(report, ci=ci)
        reports[(task, scheme)] = report
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
    rule: PlantedRule,
    test_sets: list[SiteDataset],
    bootstrap: BootstrapConfig | None = None,
    seed: int = 0,
) -> list[MetricRow]:
    """Rows for every (testset, task, scheme); multi-model strategies average."""
    models = _models_for_result(result, backbone)
    rows = []
    for test in test_sets:
        per_model = [
            evaluate_model(model, rule, test, bootstrap, seed) for model in models
        ]
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
