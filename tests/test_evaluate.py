import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fedlora.datasim import PlantedRule, SiteSpec, generate_site, make_validation_set, shard
from fedlora.evaluate import (
    BootstrapConfig,
    MetricRow,
    _doc_counts,
    evaluate_model,
    evaluate_result,
    make_test_split,
)
from fedlora.federation import FederationConfig, Strategy, run_federation
from fedlora.metrics import RelationInstance, Scheme, Span, precision_recall_f1, relation_counts
from fedlora.model import Backbone, ModelConfig, SgdConfig, Task, ToyModel, forward
from fedlora.seeding import derive_seed
from one_lane import run_alone
from packing import packed
from span_oracle import decode_bio, span_counts
from test_metrics import oracle_bootstrap_ci

RULE = PlantedRule(vocab_size=60)
# a metric's place in ``Scores.metrics``: precision, recall, F1, CI bounds
F1 = 2
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


def oracle_doc_counts(model, rule, test):
    """The count tables scored one example at a time: tagging documents by
    span matching, relation documents by general relation matching on
    instances whose arguments are the marked tokens typed by the rule."""
    pack = test.packed
    tables = {(task, scheme): [] for task in Task for scheme in Scheme}
    tag_probs, rel_probs = forward(model, pack)
    tag_pred, rel_pred = tag_probs.argmax(axis=1), rel_probs.argmax(axis=1)
    doc = pair = 0
    for tagged in pack.tagging:
        if tagged:
            start, end = pack.starts[doc], pack.starts[doc + 1]
            doc += 1
            gold, pred = decode_bio(pack.tags[start:end]), decode_bio(tag_pred[start:end])
            count, task = span_counts, Task.TAGGING
        else:
            # the pack keeps the marked tokens, not their places; any two
            # distinct one-token spans stand for them
            head = Span(0, 1, rule.group(int(pack.heads[pair])))
            tail = Span(1, 2, rule.group(int(pack.tails[pair])))
            gold = [RelationInstance(head, tail, int(pack.relations[pair]))]
            pred = [RelationInstance(head, tail, int(rel_pred[pair]))]
            pair += 1
            count, task = relation_counts, Task.RELATION
        for scheme in Scheme:
            tables[(task, scheme)].append(count(gold, pred, scheme))
    return {key: np.array(table, dtype=np.int64) for key, table in tables.items() if table}


def oracle_rows(result, backbone, tests, bootstrap, seed):
    """``result``'s rows with its models scored alone: each model's count
    tables by the per-example oracle and its CI by the list-based
    bootstrap, averaged over a result's per-site models."""
    sets = [result.client_adapters[cid] for cid in sorted(result.client_adapters)]
    models = [ToyModel(backbone, adapters) for adapters in sets or [result.adapters]]
    mean = lambda xs: float(np.mean(xs))
    rows = []
    for test in tests:
        per_model = [oracle_doc_counts(model, RULE, test) for model in models]
        for task, scheme in per_model[0]:
            draw = derive_seed(seed, test.site_id, task.value, scheme.value)
            # one (precision, recall, F1, CI low, CI high) row per model
            scores = []
            for tables in per_model:
                table = tables[(task, scheme)]
                ci = oracle_bootstrap_ci(table.tolist(), bootstrap.sample_size, bootstrap.reps,
                                         bootstrap.level, draw)
                prf = precision_recall_f1(*table.sum(axis=0).tolist())
                scores.append([float(x) for x in prf] + list(ci))
            rows.append(MetricRow(
                result.config.strategy.value, test.site_id, task.value, scheme.value,
                *(mean(column) for column in zip(*scores)),
            ))
    return rows


def random_b_model(seed: int, scale: float) -> ToyModel:
    """A model whose adapters have nonzero B, so its predictions vary."""
    model = ToyModel.build(CFG)
    rng = np.random.default_rng(seed)
    layers = {
        key: pair._replace(b=rng.normal(0, scale, pair.b.shape))
        for key, pair in model.adapters.layers.items()
    }
    return model.with_adapters(model.adapters.with_layers(layers))


class TestPredictions:
    def test_gold_model_predicts_gold_tags(self):
        model = gold_tagging_model()
        site = generate_site(SiteSpec("a", 50, seed=3, tasks=(Task.TAGGING,)), RULE)
        tag_probs, _ = forward(model, site.packed)
        assert np.array_equal(tag_probs.argmax(axis=1), site.packed.tags)

    def test_predict_relation_returns_class_index(self):
        model = ToyModel.build(CFG)
        _, rel_probs = forward(model, packed([(0, 2, 5)]))
        assert 0 <= int(rel_probs.argmax()) < RULE.num_relations


class TestMakeTestSplit:
    def test_noise_free_and_all_tasks(self):
        spec = SiteSpec("a", 500, noise_rate=0.4, seed=4, tasks=(Task.TAGGING,))
        test = make_test_split(spec, 100, RULE)
        assert len(test) == 100
        pack = test.packed
        assert pack.tagging.any() and not pack.tagging.all()
        assert np.array_equal(pack.tags, RULE.tags_of(pack.tokens))
        # the label of a pair is its group cell's, at one parity of its distance
        groups = RULE.group(pack.heads), RULE.group(pack.tails)
        allowed = RULE.relation_of(*groups, 0), RULE.relation_of(*groups, 1)
        assert ((pack.relations == allowed[0]) | (pack.relations == allowed[1])).all()

    def test_disjoint_from_training_seed(self):
        spec = SiteSpec("a", 100, seed=5)
        train = generate_site(spec, RULE)
        test = make_test_split(spec, 100, RULE)
        assert not np.array_equal(train.packed.tokens, test.packed.tokens)


class TestEvaluateModel:
    def test_gold_model_scores_one(self):
        model = gold_tagging_model()
        test = make_test_split(SiteSpec("a", 80, seed=6), 80, RULE)
        tag_strict = evaluate_model([model], [test])[(Task.TAGGING, Scheme.STRICT)]
        assert tag_strict.metrics[F1, 0, 0] == 1.0
        assert tag_strict.counts[0, 0, 1:].tolist() == [0, 0]

    def test_lenient_dominates_strict(self):
        model = ToyModel.build(CFG)
        test = make_test_split(SiteSpec("a", 60, seed=7), 60, RULE)
        scores = evaluate_model([model], [test])
        assert (
            scores[(Task.TAGGING, Scheme.LENIENT)].metrics[F1]
            >= scores[(Task.TAGGING, Scheme.STRICT)].metrics[F1]
        )

    def test_bootstrap_ci_attached_and_deterministic(self):
        model = ToyModel.build(CFG)
        test = make_test_split(SiteSpec("a", 60, seed=8), 60, RULE)
        bs = BootstrapConfig(sample_size=50, reps=10)
        one = evaluate_model([model], [test], bs, seed=9)
        two = evaluate_model([model], [test], bs, seed=9)
        for key in one:
            assert np.array_equal(one[key].metrics, two[key].metrics)
            f1, lo, hi = one[key].metrics[F1:, 0, 0]
            assert lo <= f1 + 1e-9
            assert hi >= f1 - 1e-9


    def test_one_forward_pass_per_split(self, monkeypatch):
        import fedlora.evaluate

        calls = []

        def counting_forward(model, data):
            calls.append(data)
            return forward(model, data)

        monkeypatch.setattr(fedlora.evaluate, "forward", counting_forward)
        test = make_test_split(SiteSpec("a", 40, seed=10), 40, RULE)
        scores = evaluate_model([ToyModel.build(CFG)], [test])
        assert len(scores) == 4
        assert calls == [test.packed]

    def test_one_span_match_per_scheme_per_split(self, monkeypatch):
        import fedlora.evaluate

        schemes = []

        def counting_span_counts(gold, pred, scheme):
            schemes.append(scheme)
            return span_counts_of_split(gold, pred, scheme)

        span_counts_of_split = fedlora.evaluate.span_counts
        monkeypatch.setattr(fedlora.evaluate, "span_counts", counting_span_counts)
        test = make_test_split(SiteSpec("a", 40, seed=10), 40, RULE)
        scores = evaluate_model([ToyModel.build(CFG)], [test], BootstrapConfig(10, 2))
        assert len(scores) == 4
        assert sorted(scheme.value for scheme in schemes) == ["lenient", "strict"]


class TestDocCounts:
    @settings(max_examples=60, deadline=None)
    @given(
        size=st.integers(1, 40),
        tasks=st.sampled_from([(Task.TAGGING,), (Task.RELATION,), (Task.TAGGING, Task.RELATION)]),
        data_seed=st.integers(0, 2**31),
        model_seed=st.integers(0, 2**31),
        scale=st.floats(0.05, 2.0),
    )
    def test_pack_scoring_equals_per_example_oracle(self, size, tasks, data_seed,
                                                    model_seed, scale):
        test = generate_site(SiteSpec("a", size, seed=data_seed, tasks=tasks), RULE)
        model = random_b_model(model_seed, scale)
        tables = _doc_counts([model], [test])
        expected = oracle_doc_counts(model, RULE, test)
        assert list(tables) == list(expected)
        for key, table in expected.items():
            assert tables[key][0].dtype == np.int64
            assert np.array_equal(tables[key][0], table[None])
            assert tables[key][1] == [0, len(table)]

    def test_relation_labels_both_hit_and_miss(self):
        # the property's models put some relation documents on each side
        test = generate_site(SiteSpec("a", 400, seed=1, tasks=(Task.RELATION,)), RULE)
        (table,), _ = _doc_counts([random_b_model(2, 1.0)], [test])[(Task.RELATION, Scheme.STRICT)]
        assert 0 < table[:, 0].sum() < len(table)


class TestEvaluateResult:
    SPECS = [SiteSpec(f"s{i}", 40, dirichlet_alpha=5.0, seed=20 + i) for i in range(2)]

    def make_sites(self):
        return [generate_site(spec, RULE) for spec in self.SPECS]

    def test_row_schema(self):
        sites = self.make_sites()
        backbone = Backbone.build(CFG)
        config = FederationConfig(Strategy.FEDAVG, 2, 1, SgdConfig(0.1, 1, 8), seed=1)
        result = run_alone(config, sites, None, backbone)
        tests = [make_test_split(spec, 40, RULE) for spec in self.SPECS]
        (rows,) = evaluate_result([result], backbone, tests)
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
        result = run_alone(config, sites, None, backbone)
        tests = [make_test_split(spec, 40, RULE) for spec in self.SPECS]
        (rows,) = evaluate_result([result], backbone, tests)
        assert len(rows) == 8

        # oracle: average the two client models' separate evaluations
        from fedlora.model import ToyModel

        per_model = []
        for cid in sorted(result.client_adapters):
            model = ToyModel(backbone, result.client_adapters[cid])
            per_model.append(evaluate_model([model], [tests[0]]))
        row = next(
            r for r in rows
            if r.testset == "s0" and r.task == "tagging" and r.scheme == "strict"
        )
        expected = np.mean(
            [m[(Task.TAGGING, Scheme.STRICT)].metrics[F1, 0, 0] for m in per_model]
        )
        assert row.f1 == expected

    def test_one_merge_per_scored_model(self, monkeypatch):
        # single_site scores one model per site; each merges its weights once,
        # however many test sets and documents it is scored on
        import fedlora.model

        sites = self.make_sites()
        backbone = Backbone.build(CFG)
        config = FederationConfig(Strategy.SINGLE_SITE, 2, 1, SgdConfig(0.1, 1, 8), seed=1)
        result = run_alone(config, sites, None, backbone)
        tests = [make_test_split(spec, 40, RULE) for spec in self.SPECS]
        merges = []

        def counting_effective(*args):
            merges.append(args)
            return effective(*args)

        effective = fedlora.model._effective
        monkeypatch.setattr(fedlora.model, "_effective", counting_effective)
        (rows,) = evaluate_result([result], backbone, tests)
        assert len(rows) == 8
        assert len(merges) == len(result.client_adapters) == 2

    def test_results_scored_together_equal_each_scored_alone(self):
        sites = self.make_sites()
        backbone = Backbone.build(CFG)
        val = make_validation_set(RULE, 10, seed=5).packed
        strategies = (Strategy.ZERO_SHOT, Strategy.SINGLE_SITE, Strategy.INFLUENCE,
                      Strategy.SHARE_A)
        configs = [FederationConfig(s, 2, 1, SgdConfig(0.1, 1, 8), seed=1) for s in strategies]
        results = run_federation(configs, sites, val, backbone)
        tests = [make_test_split(spec, 40, RULE) for spec in self.SPECS]
        bootstrap = BootstrapConfig(sample_size=30, reps=7, level=0.9)
        scored = evaluate_result(results, backbone, tests, bootstrap, seed=4)
        assert len(scored) == len(results)
        for result, rows in zip(results, scored):
            assert len(rows) == 8
            assert rows == oracle_rows(result, backbone, tests, bootstrap, seed=4)

    def uneven_splits(self):
        """Three test splits of 40, 1 and 17 examples; the one-example split
        holds one tagging document and no relation rows."""
        specs = self.SPECS + [SiteSpec("x", 40, dirichlet_alpha=5.0, seed=30)]
        tests = [make_test_split(spec, size, RULE) for spec, size in zip(specs, (40, 1, 17))]
        assert tests[1].packed.tagging.tolist() == [True] and not len(tests[1].packed.relations)
        return tests

    def test_splits_scored_together_equal_each_scored_alone(self):
        sites = self.make_sites()
        backbone = Backbone.build(CFG)
        configs = [FederationConfig(s, 2, 1, SgdConfig(0.1, 1, 8), seed=1)
                   for s in (Strategy.FEDAVG, Strategy.SINGLE_SITE)]
        results = run_federation(configs, sites, None, backbone)
        tests = self.uneven_splits()
        bootstrap = BootstrapConfig(sample_size=30, reps=7, level=0.9)
        scored = evaluate_result(results, backbone, tests, bootstrap, seed=4)
        alone = [evaluate_result(results, backbone, [test], bootstrap, seed=4) for test in tests]
        for n, (result, rows) in enumerate(zip(results, scored)):
            # 2 tasks x 2 schemes on the 40- and 17-example splits, tagging alone on the other
            assert [row.testset for row in rows] == ["s0"] * 4 + ["s1"] * 2 + ["x"] * 4
            assert rows == oracle_rows(result, backbone, tests, bootstrap, seed=4)
            assert rows == [row for split in alone for row in split[n]]

    def test_one_forward_and_span_match_per_model_however_many_splits(self, monkeypatch):
        import fedlora.evaluate

        calls = {"forward": 0, "span_counts": 0}
        for name in calls:
            def counting(*args, name=name, counted=getattr(fedlora.evaluate, name)):
                calls[name] += 1
                return counted(*args)

            monkeypatch.setattr(fedlora.evaluate, name, counting)
        sites = self.make_sites()
        backbone = Backbone.build(CFG)
        configs = [FederationConfig(s, 2, 1, SgdConfig(0.1, 1, 8), seed=1)
                   for s in (Strategy.FEDAVG, Strategy.SINGLE_SITE)]
        results = run_federation(configs, sites, None, backbone)
        evaluate_result(results, backbone, self.uneven_splits(), BootstrapConfig(10, 2))
        # fedavg's model and single_site's two, each matched under 2 schemes
        assert calls == {"forward": 3, "span_counts": 6}

    def test_nine_per_site_models_average_as_a_list_mean(self):
        # numpy's pairwise sum adds 8 or more values in another order than
        # fewer, so the mean over 9 models must be the mean of their list
        pool_spec = SiteSpec("pool", 90, dirichlet_alpha=5.0, seed=31)
        pool = generate_site(pool_spec, RULE)
        backbone = Backbone.build(CFG)
        config = FederationConfig(Strategy.SINGLE_SITE, 9, 1, SgdConfig(0.1, 1, 8), seed=1)
        result = run_alone(config, shard(pool, 9, seed=3), None, backbone)
        assert len(result.client_adapters) == 9
        tests = [make_test_split(pool_spec, 30, RULE)]
        bootstrap = BootstrapConfig(sample_size=30, reps=7, level=0.9)
        (rows,) = evaluate_result([result], backbone, tests, bootstrap, seed=4)
        assert len(rows) == 4
        assert rows == oracle_rows(result, backbone, tests, bootstrap, seed=4)

    def test_one_bootstrap_per_split_task_and_scheme(self, monkeypatch):
        import fedlora.evaluate

        shapes = []

        def counting_bootstrap(counts, **kwargs):
            shapes.append(counts.shape)
            return bootstrap_of_tables(counts, **kwargs)

        bootstrap_of_tables = fedlora.evaluate.bootstrap_metric_ci
        monkeypatch.setattr(fedlora.evaluate, "bootstrap_metric_ci", counting_bootstrap)
        sites = self.make_sites()
        backbone = Backbone.build(CFG)
        configs = [FederationConfig(s, 2, 1, SgdConfig(0.1, 1, 8), seed=1)
                   for s in (Strategy.FEDAVG, Strategy.SINGLE_SITE)]
        results = run_federation(configs, sites, None, backbone)
        tests = [make_test_split(spec, 40, RULE) for spec in self.SPECS]
        evaluate_result(results, backbone, tests, BootstrapConfig(10, 2))
        # 2 test sets x 2 tasks x 2 schemes, each over fedavg's model and
        # single_site's two
        assert len(shapes) == 8
        assert {shape[0] for shape in shapes} == {3}

    def test_zero_shot_rows_have_low_f1(self):
        sites = self.make_sites()
        backbone = Backbone.build(CFG)
        config = FederationConfig(Strategy.ZERO_SHOT, 2, 1, SgdConfig(0.1, 1, 8), seed=1)
        result = run_alone(config, sites, None, backbone)
        tests = [make_test_split(spec, 40, RULE) for spec in self.SPECS]
        (rows,) = evaluate_result([result], backbone, tests)
        for row in rows:
            assert row.f1 < 0.6
