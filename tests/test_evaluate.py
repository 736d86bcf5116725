import numpy as np
import pytest

from fedlora.datasim import PlantedRule, SiteSpec, generate_site
from fedlora.evaluate import (
    BootstrapConfig,
    evaluate_model,
    evaluate_result,
    make_test_split,
)
from fedlora.federation import FederationConfig, Strategy, run_federation
from fedlora.metrics import Scheme
from fedlora.model import Backbone, Example, ModelConfig, SgdConfig, Task, ToyModel, forward

RULE = PlantedRule(vocab_size=60)
CFG = ModelConfig(60, 16, 9, 16, rank=4, alpha=8.0, seed=2)


def gold_tagging_model():
    """Backbone wired so every token maps to its planted gold tag."""
    v = RULE.vocab_size
    tag_head = np.zeros((v, RULE.num_tags))
    tag_head[np.arange(v), RULE.tags_of(np.arange(v))] = 1.0
    cfg = ModelConfig(v, v, RULE.num_tags, RULE.num_relations, rank=2, alpha=2.0, seed=0)
    frozen = Backbone(
        cfg, np.eye(v), 50.0 * np.eye(v), tag_head, np.zeros((2 * v, RULE.num_relations))
    )
    return ToyModel(frozen, frozen.init_adapters(0))


class TestPredictions:
    def test_gold_model_predicts_gold_tags(self):
        model = gold_tagging_model()
        site = generate_site(SiteSpec("a", 50, seed=3, tasks=(Task.TAGGING,)), RULE)
        tag_probs, _ = forward(model, site.packed)
        gold = np.concatenate([ex.tags for ex in site.examples])
        assert np.array_equal(tag_probs.argmax(axis=1), gold)

    def test_predict_relation_returns_class_index(self):
        model = ToyModel.build(CFG)
        ex = Example(Task.RELATION, [0, 1, 2, 3], head=0, tail=2, relation=5)
        _, rel_probs = forward(model, [ex])
        assert 0 <= int(rel_probs.argmax()) < RULE.num_relations


class TestMakeTestSplit:
    def test_noise_free_and_all_tasks(self):
        spec = SiteSpec("a", 500, noise_rate=0.4, seed=4, tasks=(Task.TAGGING,))
        test = make_test_split(spec, 100, RULE)
        assert len(test) == 100
        assert {ex.task for ex in test.examples} == {Task.TAGGING, Task.RELATION}
        for ex in test.examples:
            if ex.task is Task.TAGGING:
                assert np.array_equal(ex.tags, RULE.tags_of(ex.tokens))
            else:
                parity = (ex.tail - ex.head) % 2
                groups = RULE.group(int(ex.tokens[ex.head])), RULE.group(int(ex.tokens[ex.tail]))
                assert ex.relation == RULE.relation_of(*groups, parity)

    def test_disjoint_from_training_seed(self):
        spec = SiteSpec("a", 100, seed=5)
        train = generate_site(spec, RULE)
        test = make_test_split(spec, 100, RULE)
        train_keys = {tuple(ex.tokens) for ex in train.examples}
        test_keys = {tuple(ex.tokens) for ex in test.examples}
        assert train_keys != test_keys


class TestEvaluateModel:
    def test_gold_model_scores_one(self):
        model = gold_tagging_model()
        test = make_test_split(SiteSpec("a", 80, seed=6), 80, RULE)
        reports = evaluate_model(model, RULE, test)
        tag_strict = reports[(Task.TAGGING, Scheme.STRICT)]
        assert tag_strict.f1 == 1.0
        assert tag_strict.fp == 0 and tag_strict.fn == 0

    def test_lenient_dominates_strict(self):
        model = ToyModel.build(CFG)
        test = make_test_split(SiteSpec("a", 60, seed=7), 60, RULE)
        reports = evaluate_model(model, RULE, test)
        assert (
            reports[(Task.TAGGING, Scheme.LENIENT)].f1
            >= reports[(Task.TAGGING, Scheme.STRICT)].f1
        )

    def test_bootstrap_ci_attached_and_deterministic(self):
        model = ToyModel.build(CFG)
        test = make_test_split(SiteSpec("a", 60, seed=8), 60, RULE)
        bs = BootstrapConfig(sample_size=50, reps=10)
        one = evaluate_model(model, RULE, test, bs, seed=9)
        two = evaluate_model(model, RULE, test, bs, seed=9)
        for key in one:
            assert one[key].ci == two[key].ci
            lo, hi = one[key].ci
            assert lo <= one[key].f1 + 1e-9
            assert hi >= one[key].f1 - 1e-9


    def test_one_forward_pass_per_split(self, monkeypatch):
        import fedlora.evaluate

        calls = []

        def counting_forward(model, data):
            calls.append(data)
            return forward(model, data)

        monkeypatch.setattr(fedlora.evaluate, "forward", counting_forward)
        test = make_test_split(SiteSpec("a", 40, seed=10), 40, RULE)
        reports = evaluate_model(ToyModel.build(CFG), RULE, test)
        assert len(reports) == 4
        assert calls == [test.packed]


class TestEvaluateResult:
    def make_sites(self):
        return [
            generate_site(SiteSpec(f"s{i}", 40, dirichlet_alpha=5.0, seed=20 + i), RULE)
            for i in range(2)
        ]

    def test_row_schema(self):
        sites = self.make_sites()
        backbone = Backbone.build(CFG)
        config = FederationConfig(Strategy.FEDAVG, 2, 1, SgdConfig(0.1, 1, 8), seed=1)
        result = run_federation(config, sites, None, backbone)
        tests = [make_test_split(s.spec, 40, RULE) for s in sites]
        rows = evaluate_result(result, backbone, RULE, tests)
        # 2 testsets x 2 tasks x 2 schemes
        assert len(rows) == 8
        keys = {(r.testset, r.task, r.scheme) for r in rows}
        assert len(keys) == 8
        for row in rows:
            assert row.strategy == "fedavg"
            assert 0.0 <= row.f1 <= 1.0

    def test_single_site_rows_average_client_models(self):
        sites = self.make_sites()
        backbone = Backbone.build(CFG)
        config = FederationConfig(Strategy.SINGLE_SITE, 2, 1, SgdConfig(0.1, 1, 8), seed=1)
        result = run_federation(config, sites, None, backbone)
        tests = [make_test_split(s.spec, 40, RULE) for s in sites]
        rows = evaluate_result(result, backbone, RULE, tests)
        assert len(rows) == 8

        # oracle: average the two client models' separate evaluations
        from fedlora.model import ToyModel

        per_model = []
        for cid in sorted(result.client_adapters):
            model = ToyModel(backbone, result.client_adapters[cid])
            per_model.append(evaluate_model(model, RULE, tests[0]))
        row = next(
            r for r in rows
            if r.testset == "s0" and r.task == "tagging" and r.scheme == "strict"
        )
        expected = np.mean(
            [m[(Task.TAGGING, Scheme.STRICT)].f1 for m in per_model]
        )
        assert row.f1 == pytest.approx(expected, abs=1e-12)

    def test_one_merge_per_scored_model(self, monkeypatch):
        # single_site scores one model per site; each merges its weights once,
        # however many test sets and documents it is scored on
        import fedlora.model

        sites = self.make_sites()
        backbone = Backbone.build(CFG)
        config = FederationConfig(Strategy.SINGLE_SITE, 2, 1, SgdConfig(0.1, 1, 8), seed=1)
        result = run_federation(config, sites, None, backbone)
        tests = [make_test_split(s.spec, 40, RULE) for s in sites]
        merges = []

        def counting_effective(*args):
            merges.append(args)
            return effective(*args)

        effective = fedlora.model._effective
        monkeypatch.setattr(fedlora.model, "_effective", counting_effective)
        rows = evaluate_result(result, backbone, RULE, tests)
        assert len(rows) == 8
        assert len(merges) == len(result.client_adapters) == 2

    def test_zero_shot_rows_have_low_f1(self):
        sites = self.make_sites()
        backbone = Backbone.build(CFG)
        config = FederationConfig(Strategy.ZERO_SHOT, 2, 1, SgdConfig(0.1, 1, 8), seed=1)
        result = run_federation(config, sites, None, backbone)
        tests = [make_test_split(s.spec, 40, RULE) for s in sites]
        rows = evaluate_result(result, backbone, RULE, tests)
        for row in rows:
            assert row.f1 < 0.6
