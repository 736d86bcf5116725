import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedlora.aggregation import (
    IncompatibleAdapters,
    WeightMode,
    aggregate,
    data_aware_weights,
    influence_report,
    influence_scores,
    size_weights,
    validation_loss,
)
from fedlora.datasim import PlantedRule, make_validation_set
from fedlora.lora import AdapterPair, AdapterSet
from fedlora.model import Backbone, EmptyBatchError, ModelConfig, ToyModel, loss
from packing import packed

RULE = PlantedRule(vocab_size=60)
CFG = ModelConfig(
    vocab_size=60, hidden=16, tag_classes=9, relation_classes=16, rank=4, alpha=8.0, seed=1
)


def random_set(rng, shapes, rank=2, alpha=4.0):
    layers = {}
    for key, (d, l) in shapes.items():
        layers[key] = AdapterPair(rng.normal(size=(d, rank)), rng.normal(size=(rank, l)))
    return AdapterSet(rank, alpha, layers)


SHAPES = {"trunk": (6, 6), "tag_head": (6, 4)}


class TestValidationLoss:
    def test_matches_loss_on_merged_model(self):
        model = ToyModel.build(CFG)
        rng = np.random.default_rng(2)
        adapters = random_set(rng, model.frozen.adapter_shapes(), rank=CFG.rank, alpha=CFG.alpha)
        val = make_validation_set(RULE, 10, seed=3).packed
        direct = validation_loss(model, adapters, val)

        # oracle: fold the adapter deltas into a fresh backbone, keep adapters zero
        merged = {
            key: getattr(model.frozen, key) + adapters.scale * (b @ a)
            for key, (b, a) in adapters.layers.items()
        }
        folded = Backbone(
            CFG, model.frozen.embedding, merged["trunk"], merged["tag_head"], merged["rel_head"]
        )
        oracle_model = ToyModel(folded, folded.init_adapters(0))
        assert direct == pytest.approx(loss(oracle_model, val), abs=1e-12)
        assert direct >= 0.0

    def test_gold_revealing_adapters_give_zero_loss(self):
        v, c = 6, 4
        gold = [t % c for t in range(v)]
        cfg = ModelConfig(v, v, c, c, rank=c, alpha=c, seed=0)
        frozen = Backbone(cfg, np.eye(v), 50.0 * np.eye(v), np.zeros((v, c)), np.zeros((2 * v, c)))
        model = ToyModel(frozen, frozen.init_adapters(0))
        # rank = the tag-head width and scale 1, so A = identity and B = the needed delta
        target = np.zeros((v, c))
        for t in range(v):
            target[t, gold[t]] = 1.0
        adapters = AdapterSet(
            c,
            c,
            {
                "trunk": AdapterPair(np.zeros((v, c)), np.eye(c, v)),
                "tag_head": AdapterPair(target, np.eye(c)),
                "rel_head": AdapterPair(np.zeros((2 * v, c)), np.zeros((c, c))),
            },
        )
        val = packed([([t], [gold[t]]) for t in range(v)])
        assert validation_loss(model, adapters, val) < 1e-9

    def test_uniform_model_gives_log_c(self):
        cfg = ModelConfig(4, 3, 5, 7, rank=1, alpha=1.0, seed=0)
        frozen = Backbone(cfg, np.zeros((4, 3)), np.eye(3), np.zeros((3, 5)), np.zeros((6, 7)))
        model = ToyModel(frozen, frozen.init_adapters(0))
        val = packed([([0, 1], [2, 3])])
        assert validation_loss(model, model.adapters, val) == pytest.approx(
            math.log(5), abs=1e-12
        )

    def test_empty_validation_set_rejected(self):
        # an empty set fails to pack, so it never reaches validation_loss
        model = ToyModel.build(CFG)
        with pytest.raises(EmptyBatchError):
            validation_loss(model, model.adapters, packed([]))


class TestInfluenceScores:
    def test_equal_losses_give_uniform(self):
        for m in (1, 2, 5, 9):
            influences, _ = influence_scores([0.7] * m)
            assert influences == pytest.approx([1 / m] * m, abs=1e-15)

    def test_worked_pair(self):
        influences, _ = influence_scores([0.5, 1.0])
        assert influences[0] == pytest.approx(1 / (1 + math.exp(-0.5)), abs=1e-12)
        assert influences[1] == pytest.approx(math.exp(-0.5) / (1 + math.exp(-0.5)), abs=1e-12)
        assert influences[0] == pytest.approx(0.62246, abs=1e-4)
        assert influences[1] == pytest.approx(0.37754, abs=1e-4)

    def test_shift_invariance(self):
        rng = np.random.default_rng(4)
        losses = rng.random(6).tolist()
        base, _ = influence_scores(losses)
        shifted, _ = influence_scores([l + 17.5 for l in losses])
        assert base == pytest.approx(shifted, abs=1e-12)

    def test_strict_monotonicity(self):
        losses = [0.1, 0.5, 0.5000001, 2.0]
        influences, _ = influence_scores(losses)
        for i in range(len(losses)):
            for j in range(len(losses)):
                if losses[i] < losses[j]:
                    assert influences[i] > influences[j]

    def test_sums_to_one(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            influences, _ = influence_scores(rng.random(int(rng.integers(1, 10))) * 5)
            assert math.fsum(influences) == pytest.approx(1.0, abs=1e-12)

    def test_stability_shift_is_max_negated_loss(self):
        influences, shift = influence_scores([0.5, 1.0, 0.2])
        assert shift == -0.2
        # the lowest loss takes the exponent 0
        assert influences[2] == 1 / math.fsum(math.exp(-l - shift) for l in [0.5, 1.0, 0.2])

    @pytest.mark.parametrize("losses", [[1.0, 711.0], [711.0, 1.0], [0.0, 710.0, 5e3, 1e300]])
    def test_loss_gap_beyond_exp_range_gives_finite_weights(self, losses):
        # a gap above 709 overflows exp() when the highest loss sets the shift
        influences, shift = influence_scores(losses)
        assert shift == -min(losses)
        assert all(math.isfinite(i) for i in influences)
        assert math.fsum(influences) == 1.0
        assert influences == [math.exp(min(losses) - l) for l in losses]

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            influence_scores([0.5, float("nan")])


class TestDataAwareWeights:
    def test_equal_influences_reduce_to_size_weights_exactly(self):
        sizes = [17, 23, 60]
        weights = data_aware_weights(sizes, [1 / 3] * 3)
        expected = [n / math.fsum(sizes) for n in sizes]
        assert weights == expected  # bitwise, not approx

    def test_single_client(self):
        assert data_aware_weights([42], [1.0]) == [1.0]

    def test_worked_example(self):
        weights = data_aware_weights([100, 300], [0.75, 0.25])
        assert weights == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_sums_to_one(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            m = int(rng.integers(1, 8))
            sizes = rng.integers(1, 1000, size=m).tolist()
            influences, _ = influence_scores(rng.random(m) * 3)
            assert math.fsum(data_aware_weights(sizes, influences)) == pytest.approx(
                1.0, abs=1e-12
            )


class TestSizeWeights:
    def test_full_participation_equal_sizes_uniform(self):
        sizes = {"a": 10, "b": 10, "c": 10, "d": 10}
        weights = size_weights(sizes, list(sizes), mode=WeightMode.NORMALIZED)
        for c in sizes:
            assert weights[c] == pytest.approx(0.25, abs=1e-15)

    def test_literal_mode_reproduces_printed_formula(self):
        sizes = {"a": 1, "b": 1}
        weights = size_weights(sizes, ["a", "b"], mode=WeightMode.LITERAL)
        assert weights["a"] == pytest.approx(0.25)
        assert weights["b"] == pytest.approx(0.25)
        assert sum(weights.values()) == pytest.approx(0.5)

    def test_normalized_sums_to_one_for_random_configs(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            k = int(rng.integers(1, 10))
            sizes = {f"c{i}": int(rng.integers(1, 10_000)) for i in range(k)}
            m = int(rng.integers(1, k + 1))
            participants = list(rng.choice(sorted(sizes), size=m, replace=False))
            weights = size_weights(sizes, participants)
            assert math.fsum(weights.values()) == pytest.approx(1.0, abs=1e-12)

    def test_partial_participation_renormalizes(self):
        sizes = {"a": 100, "b": 300, "c": 600}
        weights = size_weights(sizes, ["a", "b"])
        assert weights["a"] == pytest.approx(0.25)
        assert weights["b"] == pytest.approx(0.75)


class TestAggregate:
    def test_identical_sets_are_a_fixed_point(self):
        rng = np.random.default_rng(8)
        base = random_set(rng, SHAPES)
        clients = {"a": base, "b": base, "c": base}
        out = aggregate(clients, {"a": 0.2, "b": 0.5, "c": 0.3})
        for key, pair in base.layers.items():
            np.testing.assert_allclose(out.layers[key].b, pair.b, atol=1e-12)
            np.testing.assert_allclose(out.layers[key].a, pair.a, atol=1e-12)

    def test_degenerate_weights_select_one_client(self):
        rng = np.random.default_rng(9)
        one = random_set(rng, SHAPES)
        two = random_set(rng, SHAPES)
        out = aggregate({"a": one, "b": two}, {"a": 1.0, "b": 0.0})
        for key, pair in one.layers.items():
            assert np.array_equal(out.layers[key].b, pair.b)
            assert np.array_equal(out.layers[key].a, pair.a)

    def test_matches_elementwise_oracle(self):
        rng = np.random.default_rng(10)
        sets = {f"c{i}": random_set(rng, SHAPES) for i in range(3)}
        weights = {"c0": 0.2, "c1": 0.3, "c2": 0.5}
        out = aggregate(sets, weights)
        for key in SHAPES:
            b_expected = np.zeros_like(out.layers[key].b)
            a_expected = np.zeros_like(out.layers[key].a)
            for cid in sorted(sets):
                for i in range(b_expected.shape[0]):
                    for j in range(b_expected.shape[1]):
                        b_expected[i, j] += weights[cid] * sets[cid].layers[key].b[i, j]
                for i in range(a_expected.shape[0]):
                    for j in range(a_expected.shape[1]):
                        a_expected[i, j] += weights[cid] * sets[cid].layers[key].a[i, j]
            np.testing.assert_allclose(out.layers[key].b, b_expected, atol=1e-12)
            np.testing.assert_allclose(out.layers[key].a, a_expected, atol=1e-12)

    def test_convexity_bounds(self):
        rng = np.random.default_rng(11)
        sets = {f"c{i}": random_set(rng, SHAPES) for i in range(4)}
        weights = size_weights({c: 1 for c in sets}, list(sets))
        out = aggregate(sets, weights)
        for key in SHAPES:
            for mat in ("b", "a"):
                stack = np.stack([getattr(sets[c].layers[key], mat) for c in sets])
                agg = getattr(out.layers[key], mat)
                assert (agg >= stack.min(axis=0) - 1e-12).all()
                assert (agg <= stack.max(axis=0) + 1e-12).all()

    @settings(max_examples=200, deadline=None)
    @given(
        m=st.integers(1, 5),
        data=st.data(),
        shared_loss=st.floats(0.0, 50.0),
        set_seed=st.integers(0, 2**32 - 1),
    )
    def test_fedavg_reduction_is_bit_identical(self, m, data, shared_loss, set_seed):
        # equal validation losses -> influence weights match normalized size
        # weights exactly, so both aggregation paths agree bitwise
        rng = np.random.default_rng(set_seed)
        sets = {f"c{i}": random_set(rng, SHAPES) for i in range(m)}
        drawn = data.draw(st.lists(st.integers(1, 2**40), min_size=m, max_size=m))
        sizes = dict(zip(sorted(sets), drawn))
        report = influence_report(
            sorted(sets), [sizes[c] for c in sorted(sets)], [shared_loss] * m
        )
        plus_weights = report.as_weight_map()
        plain_weights = size_weights(sizes, list(sets))
        assert plus_weights == plain_weights
        plus_agg = aggregate(sets, plus_weights)
        plain_agg = aggregate(sets, plain_weights)
        for key in SHAPES:
            assert np.array_equal(plus_agg.layers[key].b, plain_agg.layers[key].b)
            assert np.array_equal(plus_agg.layers[key].a, plain_agg.layers[key].a)

    def test_incompatible_sets_raise_with_layer_name(self):
        rng = np.random.default_rng(14)
        one = random_set(rng, SHAPES)
        two = random_set(rng, {"trunk": (6, 6), "tag_head": (6, 5)})
        with pytest.raises(IncompatibleAdapters) as err:
            aggregate({"a": one, "b": two}, {"a": 0.5, "b": 0.5})
        assert err.value.layer_key == "tag_head"

    @pytest.mark.parametrize(
        "shapes, layer, detail",
        [
            ({"trunk": (6, 6)}, "tag_head", "shape None vs (6, 4)"),
            ({**SHAPES, "extra": (3, 3)}, "extra", "shape (3, 3) vs None"),
            ({"trunk": (5, 6), "tag_head": (6, 4)}, "trunk", "shape (5, 6) vs (6, 6)"),
        ],
        ids=["missing", "extra", "shape"],
    )
    def test_layout_mismatch_names_client_and_layer(self, shapes, layer, detail):
        rng = np.random.default_rng(16)
        sets = {"a": random_set(rng, SHAPES), "b": random_set(rng, shapes)}
        with pytest.raises(IncompatibleAdapters) as err:
            aggregate(sets, {"a": 0.5, "b": 0.5})
        assert (err.value.client_id, err.value.layer_key) == ("b", layer)
        assert str(err.value) == f"client 'b', layer {layer!r}: {detail}"

    @pytest.mark.parametrize("rank, alpha", [(3, 4.0), (2, 6.0)])
    def test_sets_of_another_rank_or_alpha_raise_naming_client(self, rank, alpha):
        rng = np.random.default_rng(17)
        sets = {"a": random_set(rng, SHAPES), "b": random_set(rng, SHAPES, rank, alpha)}
        with pytest.raises(IncompatibleAdapters, match=f"r={rank}, alpha={alpha}") as err:
            aggregate(sets, {"a": 0.5, "b": 0.5})
        assert err.value.client_id == "b"

    def test_weight_coverage_must_match(self):
        rng = np.random.default_rng(15)
        sets = {"a": random_set(rng, SHAPES)}
        with pytest.raises(ValueError):
            aggregate(sets, {"a": 0.5, "b": 0.5})

    def test_negative_weight_rejected(self):
        rng = np.random.default_rng(16)
        sets = {"a": random_set(rng, SHAPES), "b": random_set(rng, SHAPES)}
        with pytest.raises(ValueError, match="non-negative"):
            aggregate(sets, {"a": 1.5, "b": -0.5})


class TestInfluenceReport:
    def test_report_fields_are_ordered_by_client_id(self):
        report = influence_report(["b", "a"], [10, 30], [1.0, 0.5])
        assert report.client_ids == ("a", "b")
        assert report.val_losses == (0.5, 1.0)
        assert report.influences[0] > report.influences[1]
        assert math.fsum(report.weights) == pytest.approx(1.0, abs=1e-12)
