import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedlora.lora import AdapterPair, AdapterSet, DimensionMismatch
from fedlora.model import (
    Backbone,
    EmptyBatchError,
    Example,
    FieldError,
    LabelRangeError,
    ModelConfig,
    SgdConfig,
    Task,
    TokenRangeError,
    ToyModel,
    forward,
    grad,
    local_update,
    loss,
)

SMALL = ModelConfig(
    vocab_size=20, hidden=8, tag_classes=9, relation_classes=16, rank=2, alpha=4.0, seed=3
)


def randomized_adapters(model: ToyModel, seed: int, scale=0.1) -> AdapterSet:
    """Adapters with nonzero B so the factored chain rule is exercised."""
    rng = np.random.default_rng(seed)
    layers = {}
    for key, (b, a) in model.adapters.layers.items():
        layers[key] = AdapterPair(rng.normal(0, scale, b.shape), rng.normal(0, scale, a.shape))
    return model.adapters.with_layers(layers)


def tagging_example(rng, vocab, tag_classes, length=6):
    tokens = rng.integers(0, vocab, size=length)
    return Example(Task.TAGGING, tokens, tags=tokens % tag_classes)


def relation_example(rng, vocab, rel_classes, length=6):
    tokens = rng.integers(0, vocab, size=length)
    head, tail = sorted(rng.choice(length, size=2, replace=False))
    rel = int((tokens[head] + tokens[tail]) % rel_classes)
    return Example(Task.RELATION, tokens, head=int(head), tail=int(tail), relation=rel)


def mixed_batch(seed, n=8, cfg=SMALL):
    rng = np.random.default_rng(seed)
    batch = []
    for i in range(n):
        if i % 2 == 0:
            batch.append(tagging_example(rng, cfg.vocab_size, cfg.tag_classes))
        else:
            batch.append(relation_example(rng, cfg.vocab_size, cfg.relation_classes))
    return batch


class TestToyModel:
    def test_adapter_shape_must_match_backbone_layer(self):
        # a trunk pair of the set's rank but one row short is a valid set,
        # so the model's own shape check is what rejects it
        model = ToyModel.build(SMALL)
        r, h = SMALL.rank, SMALL.hidden
        trunk = AdapterPair(np.zeros((h - 1, r)), np.ones((r, h)))
        adapters = model.adapters.with_layers({**model.adapters.layers, "trunk": trunk})
        with pytest.raises(DimensionMismatch) as err:
            ToyModel(model.frozen, adapters)
        assert err.value.layer_key == "trunk"
        assert err.value.expected == (h, h)
        assert err.value.actual == (h - 1, h)

    def test_adapter_for_unknown_layer_rejected(self):
        model = ToyModel.build(SMALL)
        extra = AdapterPair(np.zeros((3, 2)), np.ones((2, 3)))
        adapters = model.adapters.with_layers({**model.adapters.layers, "extra": extra})
        with pytest.raises(DimensionMismatch) as err:
            ToyModel(model.frozen, adapters)
        assert err.value.layer_key == "extra"

    @pytest.mark.parametrize(
        "layer, pair",
        [
            ("tag_head", None),
            ("extra", AdapterPair(np.zeros((3, 2)), np.ones((2, 3)))),
            ("rel_head", AdapterPair(np.zeros((SMALL.hidden, 2)), np.ones((2, 15)))),
        ],
        ids=["missing", "extra", "shape"],
    )
    def test_layout_mismatch_names_layer(self, layer, pair):
        model = ToyModel.build(SMALL)
        layers = {k: v for k, v in model.adapters.layers.items() if k != layer}
        if pair is not None:
            layers[layer] = pair
        with pytest.raises(DimensionMismatch) as err:
            ToyModel(model.frozen, model.adapters.with_layers(layers))
        assert err.value.layer_key == layer

    @pytest.mark.parametrize("tag_classes, relation_classes", [(4, 3), (3, 4)])
    def test_rank_capped_by_smallest_adapted_dimension(self, tag_classes, relation_classes):
        # rank 4 fits the 6-wide trunk but not a 3-class head
        with pytest.raises(FieldError, match="rank") as err:
            ModelConfig(6, 6, tag_classes, relation_classes, rank=4, alpha=1.0)
        assert err.value.field == "rank"
        ToyModel.build(ModelConfig(6, 6, 4, 4, rank=4, alpha=1.0))


class TestForward:
    def test_zero_adapters_zero_embedding_row_gives_uniform(self):
        cfg = ModelConfig(3, 2, 4, 5, rank=1, alpha=1.0, seed=0)
        frozen = Backbone(
            cfg,
            embedding=np.zeros((3, 2)),
            trunk=np.eye(2),
            tag_head=np.ones((2, 4)),
            rel_head=np.ones((4, 5)),
        )
        model = ToyModel(frozen, frozen.init_adapters(0))
        probs, rel = forward(model, [
            Example(Task.TAGGING, [0, 1], tags=[0, 0]),
            Example(Task.RELATION, [0, 1], head=0, tail=1, relation=0),
        ])
        np.testing.assert_allclose(probs, np.full((2, 4), 0.25), atol=1e-15)
        np.testing.assert_allclose(rel, np.full((1, 5), 0.2), atol=1e-15)

    def test_distributions_sum_to_one(self):
        model = ToyModel.build(SMALL)
        model = model.with_adapters(randomized_adapters(model, 1))
        rng = np.random.default_rng(2)
        for _ in range(100):
            ex = tagging_example(rng, SMALL.vocab_size, SMALL.tag_classes)
            rex = relation_example(rng, SMALL.vocab_size, SMALL.relation_classes)
            probs, rel = forward(model, [ex, rex])
            np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
            np.testing.assert_allclose(rel.sum(axis=1), 1.0, atol=1e-12)

    def test_hand_sized_instance_matches_scalar_recomputation(self):
        # V=3, h=2, 2 tokens: recompute every number with explicit loops.
        cfg = ModelConfig(3, 2, 3, 4, rank=1, alpha=2.0, seed=0)
        emb = np.array([[0.5, -1.0], [2.0, 0.25], [-0.75, 1.5]])
        trunk = np.array([[1.0, -0.5], [0.25, 2.0]])
        tag_head = np.array([[0.2, -0.4, 1.0], [0.9, 0.1, -0.3]])
        rel_head = np.arange(16, dtype=float).reshape(4, 4) / 10.0
        frozen = Backbone(cfg, emb, trunk, tag_head, rel_head)

        b_t = np.array([[0.3], [-0.2]])
        a_t = np.array([[0.5, 0.7]])
        b_g = np.array([[0.1], [0.6]])
        a_g = np.array([[-0.2, 0.4, 0.8]])
        b_r = np.array([[0.05], [-0.1], [0.2], [0.15]])
        a_r = np.array([[0.3, -0.3, 0.6, 0.9]])
        adapters = AdapterSet(
            1,
            2.0,
            {
                "trunk": AdapterPair(b_t, a_t),
                "tag_head": AdapterPair(b_g, a_g),
                "rel_head": AdapterPair(b_r, a_r),
            },
        )
        model = ToyModel(frozen, adapters)
        got, _ = forward(model, [Example(Task.TAGGING, [0, 2], tags=[0, 1])])

        # independent scalar recomputation (scale alpha/rank = 2)
        trunk_eff = [[0.0] * 2 for _ in range(2)]
        tag_eff = [[0.0] * 3 for _ in range(2)]
        for i in range(2):
            for j in range(2):
                trunk_eff[i][j] = trunk[i][j] + 2.0 * b_t[i][0] * a_t[0][j]
            for j in range(3):
                tag_eff[i][j] = tag_head[i][j] + 2.0 * b_g[i][0] * a_g[0][j]
        expected = []
        for token in (0, 2):
            x = emb[token]
            z = [max(0.0, sum(trunk_eff[i][j] * x[i] for i in range(2))) for j in range(2)]
            logits = [sum(tag_eff[i][c] * z[i] for i in range(2)) for c in range(3)]
            mx = max(logits)
            exps = [math.exp(v - mx) for v in logits]
            total = sum(exps)
            expected.append([e / total for e in exps])
        np.testing.assert_allclose(got, np.array(expected), atol=1e-12)

    def test_out_of_range_token_rejected(self):
        model = ToyModel.build(SMALL)
        with pytest.raises(TokenRangeError):
            forward(model, [Example(Task.TAGGING, [0, 99], tags=[0, 0])])

    @pytest.mark.parametrize(
        "kind,label", [("tag", -1), ("tag", 9), ("relation", -1), ("relation", 16)]
    )
    @pytest.mark.parametrize("call", ["forward", "loss", "grad", "local_update"])
    def test_out_of_range_label_rejected_by_name(self, kind, label, call):
        # a negative label would index from the last class, and a tag past
        # the last class would weigh the next token id's row
        model = ToyModel.build(SMALL)
        bad = (
            Example(Task.TAGGING, [0, 1], tags=[0, label])
            if kind == "tag"
            else Example(Task.RELATION, [0, 1], head=0, tail=1, relation=label)
        )
        run = {"forward": forward, "loss": loss, "grad": grad,
               "local_update": lambda m, d: local_update(m, d, SgdConfig(0.1, 1, 2), seed=0)}
        with pytest.raises(LabelRangeError, match=f"{kind} label {label} out of range"):
            run[call](model, [*mixed_batch(40, n=4), bad])


class TestLoss:
    def test_gold_revealing_model_has_zero_loss(self):
        # h = V, one-hot embeddings, strong trunk, head pointing at the gold
        # tag of each token: margin ~50 nats, loss below 1e-9.
        v, c = 6, 4
        gold = [t % c for t in range(v)]
        tag_head = np.zeros((v, c))
        for t in range(v):
            tag_head[t, gold[t]] = 1.0
        cfg = ModelConfig(v, v, c, 3, rank=1, alpha=1.0, seed=0)
        frozen = Backbone(cfg, np.eye(v), 50.0 * np.eye(v), tag_head, np.zeros((2 * v, 3)))
        model = ToyModel(frozen, frozen.init_adapters(0))
        batch = [Example(Task.TAGGING, [t], tags=[gold[t]]) for t in range(v)]
        assert loss(model, batch) < 1e-9

    def test_uniform_prediction_gives_log_c(self):
        cfg = ModelConfig(4, 3, 5, 7, rank=1, alpha=1.0, seed=0)
        frozen = Backbone(
            cfg, np.zeros((4, 3)), np.eye(3), np.zeros((3, 5)), np.zeros((6, 7))
        )
        model = ToyModel(frozen, frozen.init_adapters(0))
        tag_batch = [Example(Task.TAGGING, [0, 1, 2], tags=[0, 1, 2])]
        assert loss(model, tag_batch) == pytest.approx(math.log(5), abs=1e-12)
        rel_batch = [Example(Task.RELATION, [0, 1], head=0, tail=1, relation=3)]
        assert loss(model, rel_batch) == pytest.approx(math.log(7), abs=1e-12)

    def test_matches_independent_recomputation(self):
        model = ToyModel.build(SMALL)
        model = model.with_adapters(randomized_adapters(model, 5))
        batch = mixed_batch(6)
        expected = 0.0
        for ex in batch:
            tag_probs, rel_probs = forward(model, [ex])
            if ex.task is Task.TAGGING:
                expected += -np.mean(
                    [math.log(tag_probs[i, t]) for i, t in enumerate(ex.tags)]
                )
            else:
                expected += -math.log(rel_probs[0, ex.relation])
        expected /= len(batch)
        assert loss(model, batch) == pytest.approx(expected, abs=1e-10)

    def test_loss_non_negative(self):
        model = ToyModel.build(SMALL)
        assert loss(model, mixed_batch(7)) >= 0.0

    def test_empty_batch_raises(self):
        model = ToyModel.build(SMALL)
        with pytest.raises(EmptyBatchError):
            loss(model, [])


def finite_difference_grads(model: ToyModel, batch, step=1e-5):
    """Central-difference oracle over every adapter entry."""
    out = {}
    for key, pair in model.adapters.layers.items():
        db = np.zeros_like(pair.b)
        da = np.zeros_like(pair.a)
        for mat_name, target in (("b", db), ("a", da)):
            base = getattr(pair, mat_name)
            for idx in np.ndindex(base.shape):
                for sign in (+1, -1):
                    bumped = base.copy()
                    bumped[idx] += sign * step
                    layers = dict(model.adapters.layers)
                    layers[key] = pair._replace(**{mat_name: bumped})
                    val = loss(model.with_adapters(model.adapters.with_layers(layers)), batch)
                    target[idx] += sign * val
                target[idx] /= 2 * step
        out[key] = (db, da)
    return out


def max_relative_error(analytic, numeric):
    worst = 0.0
    for key in analytic:
        for a_mat, n_mat in zip(analytic[key], numeric[key]):
            denom = np.maximum(np.maximum(np.abs(a_mat), np.abs(n_mat)), 1e-8)
            worst = max(worst, float((np.abs(a_mat - n_mat) / denom).max()))
    return worst


class TestGrad:
    def test_matches_finite_differences(self):
        model = ToyModel.build(SMALL)
        model = model.with_adapters(randomized_adapters(model, 11))
        batch = mixed_batch(12, n=6)
        analytic = grad(model, batch)
        numeric = finite_difference_grads(model, batch)
        assert max_relative_error(analytic, numeric) < 1e-5

    def test_gradient_at_zero_b_matches_oracle(self):
        # At B = 0 the A-gradient vanishes analytically; the oracle must agree.
        model = ToyModel.build(SMALL)
        batch = mixed_batch(13, n=4)
        analytic = grad(model, batch)
        numeric = finite_difference_grads(model, batch)
        for key in analytic:
            assert np.allclose(analytic[key][1], 0.0)
        assert max_relative_error(analytic, numeric) < 1e-5

    def test_only_adapters_receive_gradients(self, fingerprint):
        model = ToyModel.build(SMALL)
        before = fingerprint(model.frozen)
        grad(model, mixed_batch(14))
        assert fingerprint(model.frozen) == before

    def test_empty_batch_raises(self):
        model = ToyModel.build(SMALL)
        with pytest.raises(EmptyBatchError):
            grad(model, [])


# ---------------------------------------------------------------------------
# Per-example oracle: the model run one example at a time, with the weight
# gradients accumulated example by example.  The batched kernel must agree.
# ---------------------------------------------------------------------------


def oracle_log_softmax(logits):
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def oracle_logits(model: ToyModel, ex: Example):
    eff = model.merged
    tagging = ex.task is Task.TAGGING
    tokens = ex.tokens if tagging else ex.tokens[[ex.head, ex.tail]]
    x = model.frozen.embedding[tokens]  # n x h, or 2 x h for a pair
    u = x @ eff["trunk"]
    z = np.maximum(u, 0.0)
    if tagging:
        return z @ eff["tag_head"], (x, u, z)
    return z.reshape(-1) @ eff["rel_head"], (x, u, z)  # [z_head ; z_tail]


def oracle_loss(model: ToyModel, batch) -> float:
    total = 0.0
    for ex in batch:
        logp = oracle_log_softmax(oracle_logits(model, ex)[0])
        if ex.task is Task.TAGGING:
            total += float(-logp[np.arange(len(ex.tags)), ex.tags].mean())
        else:
            total += float(-logp[ex.relation])
    return total / len(batch)


def oracle_grad(model: ToyModel, batch):
    eff = model.merged
    d_w = {key: np.zeros_like(w) for key, w in eff.items()}
    inv_b = 1.0 / len(batch)
    for ex in batch:
        logits, (x, u, z) = oracle_logits(model, ex)
        dlogits = np.exp(oracle_log_softmax(logits))
        if ex.task is Task.TAGGING:
            n = len(ex.tags)
            dlogits[np.arange(n), ex.tags] -= 1.0
            dlogits *= inv_b / n
            d_w["tag_head"] += z.T @ dlogits
            dz = dlogits @ eff["tag_head"].T
        else:
            dlogits[ex.relation] -= 1.0
            dlogits *= inv_b
            d_w["rel_head"] += np.outer(z.reshape(-1), dlogits)
            dz = (eff["rel_head"] @ dlogits).reshape(2, -1)
        d_w["trunk"] += x.T @ (dz * (u > 0))
    # chain rule through W = W0 + s * B A
    s = model.adapters.scale
    return {
        key: (s * (d_w[key] @ a.T), s * (b.T @ d_w[key]))
        for key, (b, a) in model.adapters.layers.items()
    }


def assert_close_relative(got, want, rtol=1e-12):
    """|got - want| within rtol of the largest |want| of the array (exact
    equality where the oracle is all zeros)."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.abs(got - want).max(initial=0.0) <= rtol * np.abs(want).max(initial=0.0)


class TestBatchedKernel:
    @settings(max_examples=150, deadline=None)
    @given(
        data_seed=st.integers(0, 2**32 - 1),
        adapter_seed=st.integers(0, 2**32 - 1),
        tasks=st.lists(st.sampled_from(list(Task)), min_size=1, max_size=12),
        length=st.integers(2, 9),
    )
    def test_grad_loss_and_forward_match_per_example_oracle(
        self, data_seed, adapter_seed, tasks, length
    ):
        model = ToyModel.build(SMALL)
        model = model.with_adapters(randomized_adapters(model, adapter_seed, scale=0.3))
        rng = np.random.default_rng(data_seed)
        batch = [
            tagging_example(rng, SMALL.vocab_size, SMALL.tag_classes, length)
            if task is Task.TAGGING
            else relation_example(rng, SMALL.vocab_size, SMALL.relation_classes, length)
            for task in tasks
        ]
        assert_close_relative(loss(model, batch), oracle_loss(model, batch))
        got, want = grad(model, batch), oracle_grad(model, batch)
        for key in want:
            for got_factor, want_factor in zip(got[key], want[key]):
                assert_close_relative(got_factor, want_factor)
        tag_probs, rel_probs = forward(model, batch)
        logits = [oracle_logits(model, ex)[0] for ex in batch]
        tagged = [np.exp(oracle_log_softmax(l)) for l, t in zip(logits, tasks) if t is Task.TAGGING]
        marked = [np.exp(oracle_log_softmax(l)) for l, t in zip(logits, tasks) if t is Task.RELATION]
        assert_close_relative(tag_probs, np.concatenate(tagged or [np.zeros((0, SMALL.tag_classes))]))
        assert_close_relative(rel_probs, np.array(marked).reshape(-1, SMALL.relation_classes))


class TestLocalUpdate:
    @settings(max_examples=50, deadline=None)
    @given(
        data_seed=st.integers(0, 2**32 - 1),
        adapter_seed=st.integers(0, 2**32 - 1),
        epochs=st.integers(1, 3),
        batch_size=st.integers(1, 10),
    )
    def test_zero_learning_rate_is_identity(self, data_seed, adapter_seed, epochs, batch_size):
        model = ToyModel.build(SMALL)
        model = model.with_adapters(randomized_adapters(model, adapter_seed))
        sgd = SgdConfig(0.0, epochs, batch_size)
        out = local_update(model, mixed_batch(data_seed), sgd, seed=1)
        # the serialized bytes compare bit for bit, the sign of zero included
        assert out.checksum() == model.adapters.checksum()

    def test_single_full_batch_step_equals_manual_step(self):
        model = ToyModel.build(SMALL)
        model = model.with_adapters(randomized_adapters(model, 23))
        data = mixed_batch(24, n=5)
        eta = 0.05
        out = local_update(model, data, SgdConfig(eta, 1, len(data)), seed=9)
        grads = grad(model, data)
        for key, pair in model.adapters.layers.items():
            db, da = grads[key]
            assert np.array_equal(out.layers[key].b, pair.b - eta * db)
            assert np.array_equal(out.layers[key].a, pair.a - eta * da)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 12),
        batch_size=st.integers(1, 14),
        epochs=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        mix=st.sampled_from([(Task.TAGGING,), (Task.RELATION,), tuple(Task)]),
    )
    def test_multi_batch_epochs_replay_the_shuffle_through_grad(
        self, n, batch_size, epochs, seed, mix
    ):
        # one permutation per epoch, batches cut in order and sorted: each
        # step is a grad() on those examples, bit for bit, whether the last
        # batch is partial or one batch holds every example
        rng = np.random.default_rng(seed)
        data = [
            tagging_example(rng, SMALL.vocab_size, SMALL.tag_classes, int(rng.integers(1, 9)))
            if mix[rng.integers(len(mix))] is Task.TAGGING
            else relation_example(rng, SMALL.vocab_size, SMALL.relation_classes,
                                  int(rng.integers(2, 9)))
            for _ in range(n)
        ]
        model = ToyModel.build(SMALL)
        model = model.with_adapters(randomized_adapters(model, seed))
        sgd = SgdConfig(0.05, epochs, batch_size)
        out = local_update(model, data, sgd, seed=seed)
        rng = np.random.default_rng(seed)
        steps = 0
        for _ in range(sgd.epochs):
            order = rng.permutation(len(data))
            for start in range(0, len(data), sgd.batch_size):
                idx = np.sort(order[start : start + sgd.batch_size])
                grads = grad(model, [data[i] for i in idx])
                layers = {
                    key: AdapterPair(
                        pair.b - sgd.learning_rate * grads[key][0],
                        pair.a - sgd.learning_rate * grads[key][1],
                    )
                    for key, pair in model.adapters.layers.items()
                }
                model = model.with_adapters(model.adapters.with_layers(layers))
                steps += 1
        assert steps == epochs * -(-n // batch_size)
        for key, pair in model.adapters.layers.items():
            assert np.array_equal(out.layers[key].b, pair.b)
            assert np.array_equal(out.layers[key].a, pair.a)

    def test_deterministic_under_seed(self):
        model = ToyModel.build(SMALL)
        data = mixed_batch(25, n=10)
        sgd = SgdConfig(0.1, 2, 3)
        one = local_update(model, data, sgd, seed=5)
        two = local_update(model, data, sgd, seed=5)
        other = local_update(model, data, sgd, seed=6)
        for key in one.layers:
            assert np.array_equal(one.layers[key].b, two.layers[key].b)
            assert np.array_equal(one.layers[key].a, two.layers[key].a)
        assert any(
            not np.array_equal(one.layers[key].b, other.layers[key].b) for key in one.layers
        )

    def test_input_model_unmodified_and_frozen_hash_stable(self, fingerprint):
        model = ToyModel.build(SMALL)
        snapshot = {k: (p.b.copy(), p.a.copy()) for k, p in model.adapters.layers.items()}
        before = fingerprint(model.frozen)
        local_update(model, mixed_batch(26), SgdConfig(0.1, 1, 4), seed=2)
        assert fingerprint(model.frozen) == before
        for key, (b, a) in snapshot.items():
            assert np.array_equal(model.adapters.layers[key].b, b)
            assert np.array_equal(model.adapters.layers[key].a, a)

    def test_training_reduces_loss_on_learnable_data(self):
        wins = 0
        for seed in range(10):
            model = ToyModel.build(SMALL, adapter_seed=seed)
            rng = np.random.default_rng(100 + seed)
            data = [
                tagging_example(rng, SMALL.vocab_size, SMALL.tag_classes)
                for _ in range(40)
            ]
            before = loss(model, data)
            trained = local_update(model, data, SgdConfig(0.3, 2, 8), seed=seed)
            after = loss(model.with_adapters(trained), data)
            if after <= before:
                wins += 1
        assert wins >= 9
