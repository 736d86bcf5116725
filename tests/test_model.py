import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedlora.model
from fedlora.lora import AdapterPair, AdapterSet, DimensionMismatch
from fedlora.model import (
    Backbone,
    Diverged,
    EmptyBatchError,
    FieldError,
    LabelRangeError,
    Lanes,
    ModelConfig,
    Pack,
    SgdConfig,
    Task,
    TokenRangeError,
    ToyModel,
    forward,
    grad,
    local_update,
    loss,
)
from one_lane import train_alone
from packing import packed

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
    return tokens, tokens % tag_classes


def relation_example(rng, vocab, rel_classes, length=6):
    """The pair of two distinct places of a drawn ``length``-token sequence."""
    tokens = rng.integers(0, vocab, size=length)
    head, tail = tokens[sorted(rng.choice(length, size=2, replace=False))]
    return int(head), int(tail), int((head + tail) % rel_classes)


def mixed_batch(seed, n=8, cfg=SMALL) -> Pack:
    rng = np.random.default_rng(seed)
    return packed([
        tagging_example(rng, cfg.vocab_size, cfg.tag_classes) if i % 2 == 0
        else relation_example(rng, cfg.vocab_size, cfg.relation_classes)
        for i in range(n)
    ])


@st.composite
def examples(draw):
    """A hand-built list of 1-6 examples, tagging or relation, whose tokens
    and labels may lie outside any model's range."""
    token, out = st.integers(-3, 40), []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            n = draw(st.integers(1, 5))
            tags = st.lists(st.integers(-2, 12), min_size=n, max_size=n)
            out.append((draw(st.lists(token, min_size=n, max_size=n)), draw(tags)))
        else:
            out.append((draw(token), draw(token), draw(st.integers(-2, 20))))
    return out


PACK_FIELDS = ("tokens", "tags", "shares", "heads", "tails", "relations", "tagging", "starts")


def assert_same_arrays(got: Pack, want: Pack):
    for name in PACK_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def assert_ranges_measure_own_arrays(pack: Pack):
    values = {"token": [*pack.tokens.tolist(), *pack.heads.tolist(), *pack.tails.tolist()],
              "tag": pack.tags.tolist(), "relation": pack.relations.tolist()}
    assert pack.ranges == {kind: (min(v), max(v)) for kind, v in values.items() if v}


# one tagging example of two tokens and one pair
TWO = dict(tagging=[True, False], tokens=[1, 2], counts=[2], tags=[0, 1], heads=[3], tails=[4],
           relations=[0])


class TestPack:
    @settings(max_examples=200, deadline=None)
    @given(a=examples(), b=examples())
    def test_concat_equals_packing_the_joined_list(self, a, b):
        got = Pack.concat([packed(a), packed(b)])
        assert_same_arrays(got, packed(a + b))
        for pack in (packed(a), got):
            assert_ranges_measure_own_arrays(pack)

    @settings(max_examples=200, deadline=None)
    @given(a=examples(), data=st.data())
    def test_take_equals_packing_the_picked_examples(self, a, data):
        rows = data.draw(st.lists(st.integers(0, len(a) - 1), min_size=1, max_size=8))
        got = packed(a).take(rows)
        assert_same_arrays(got, packed([a[i] for i in rows]))
        assert_ranges_measure_own_arrays(got)

    @pytest.mark.parametrize("change", [
        {"counts": [3]}, {"counts": [1, 1]}, {"tokens": [1, 2, 3]}, {"tags": [0]},
        {"heads": [], "tails": [], "relations": []}, {"tails": [4, 5]}, {"relations": []},
    ])
    def test_lengths_that_disagree_are_rejected(self, change):
        assert len(Pack.build(**TWO)) == 2
        with pytest.raises(ValueError, match="need one"):
            Pack.build(**{**TWO, **change})

    def test_no_examples_raise_empty_batch(self):
        with pytest.raises(EmptyBatchError):
            Pack.build([], [], [], [], [], [], [])


class Untouchable:
    """Stands in for a frozen array: comparing or hashing it fails."""

    def __eq__(self, other):
        raise AssertionError("compared a frozen array")

    __ne__ = __eq__

    def __hash__(self):
        raise AssertionError("hashed a frozen array")


class TestBackbone:
    def test_equality_is_identity_and_never_reads_the_arrays(self):
        one, two = Backbone.build(SMALL), Backbone.build(SMALL)
        # field-wise equality would compare the arrays and raise ValueError
        assert one != two and not one == two
        for backbone in (one, two):
            for name in ("embedding", "trunk", "tag_head", "rel_head", "base_hidden"):
                object.__setattr__(backbone, name, Untouchable())
        assert one == one and not one != one
        assert one != two and not one == two
        assert {one: 1}[one] == 1 and two not in {one: 1}


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
        probs, rel = forward(model, packed([([0, 1], [0, 0]), (0, 1, 0)]))
        np.testing.assert_allclose(probs, np.full((2, 4), 0.25), atol=1e-15)
        np.testing.assert_allclose(rel, np.full((1, 5), 0.2), atol=1e-15)

    def test_distributions_sum_to_one(self):
        model = ToyModel.build(SMALL)
        model = model.with_adapters(randomized_adapters(model, 1))
        rng = np.random.default_rng(2)
        for _ in range(100):
            ex = tagging_example(rng, SMALL.vocab_size, SMALL.tag_classes)
            rex = relation_example(rng, SMALL.vocab_size, SMALL.relation_classes)
            probs, rel = forward(model, packed([ex, rex]))
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
        got, _ = forward(model, packed([([0, 2], [0, 1])]))

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
            forward(model, packed([([0, 99], [0, 0])]))

    @pytest.mark.parametrize(
        "kind,label",
        [("tag", -1), ("tag", 9), ("relation", -1), ("relation", 16), ("token", 20)],
    )
    @pytest.mark.parametrize("call", ["forward", "loss", "grad", "local_update"])
    def test_out_of_range_label_rejected_by_name(self, kind, label, call):
        # a negative label would index from the last class, a tag past the
        # last class would weigh the next token id's row, and a marked token
        # past the vocabulary would read the next lane's row
        model = ToyModel.build(SMALL)
        bad = {"tag": ([0, 1], [0, label]), "relation": (0, 1, label), "token": (0, label, 0)}
        error, message = ((TokenRangeError, f"token id {label} out of range") if kind == "token"
                          else (LabelRangeError, f"{kind} label {label} out of range"))
        run = {"forward": forward, "loss": loss, "grad": grad,
               "local_update": lambda m, d: train_alone(m, d, SgdConfig(0.1, 1, 2), seed=0)}
        with pytest.raises(error, match=message):
            run[call](model, Pack.concat([mixed_batch(40, n=4), packed([bad[kind]])]))


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
        assert loss(model, packed([([t], [gold[t]]) for t in range(v)])) < 1e-9

    def test_uniform_prediction_gives_log_c(self):
        cfg = ModelConfig(4, 3, 5, 7, rank=1, alpha=1.0, seed=0)
        frozen = Backbone(
            cfg, np.zeros((4, 3)), np.eye(3), np.zeros((3, 5)), np.zeros((6, 7))
        )
        model = ToyModel(frozen, frozen.init_adapters(0))
        tag_batch = packed([([0, 1, 2], [0, 1, 2])])
        assert loss(model, tag_batch) == pytest.approx(math.log(5), abs=1e-12)
        assert loss(model, packed([(0, 1, 3)])) == pytest.approx(math.log(7), abs=1e-12)

    def test_matches_independent_recomputation(self):
        model = ToyModel.build(SMALL)
        model = model.with_adapters(randomized_adapters(model, 5))
        batch = mixed_batch(6)
        expected = 0.0
        for row in range(len(batch)):
            one = batch.take([row])
            tag_probs, rel_probs = forward(model, one)
            if one.tagging[0]:
                expected += -np.mean(
                    [math.log(tag_probs[i, t]) for i, t in enumerate(one.tags)]
                )
            else:
                expected += -math.log(rel_probs[0, one.relations[0]])
        expected /= len(batch)
        assert loss(model, batch) == pytest.approx(expected, abs=1e-10)

    def test_loss_non_negative(self):
        model = ToyModel.build(SMALL)
        assert loss(model, mixed_batch(7)) >= 0.0

    def test_empty_batch_raises(self):
        # no rows of a pack fail to pack, so an empty batch never reaches loss
        model = ToyModel.build(SMALL)
        with pytest.raises(EmptyBatchError):
            loss(model, mixed_batch(7).take([]))


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
        # no rows of a pack fail to pack, so an empty batch never reaches grad
        model = ToyModel.build(SMALL)
        with pytest.raises(EmptyBatchError):
            grad(model, mixed_batch(7).take([]))


# ---------------------------------------------------------------------------
# Per-example oracle: the model run one example at a time, with the weight
# gradients accumulated example by example.  The batched kernel must agree.
# ---------------------------------------------------------------------------


def oracle_log_softmax(logits):
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def oracle_logits(model: ToyModel, ex):
    eff = model.merged
    tagging = len(ex) == 2
    tokens = ex[0] if tagging else list(ex[:2])
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
        if len(ex) == 2:
            tags = ex[1]
            total += float(-logp[np.arange(len(tags)), tags].mean())
        else:
            total += float(-logp[ex[2]])
    return total / len(batch)


def oracle_grad(model: ToyModel, batch):
    eff = model.merged
    d_w = {key: np.zeros_like(w) for key, w in eff.items()}
    inv_b = 1.0 / len(batch)
    for ex in batch:
        logits, (x, u, z) = oracle_logits(model, ex)
        dlogits = np.exp(oracle_log_softmax(logits))
        if len(ex) == 2:
            n = len(ex[1])
            dlogits[np.arange(n), ex[1]] -= 1.0
            dlogits *= inv_b / n
            d_w["tag_head"] += z.T @ dlogits
            dz = dlogits @ eff["tag_head"].T
        else:
            dlogits[ex[2]] -= 1.0
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
        pack = packed(batch)
        assert_close_relative(loss(model, pack), oracle_loss(model, batch))
        got, want = grad(model, pack), oracle_grad(model, batch)
        for key in want:
            for got_factor, want_factor in zip(got[key], want[key]):
                assert_close_relative(got_factor, want_factor)
        tag_probs, rel_probs = forward(model, pack)
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
        k=st.integers(1, 4),
    )
    def test_zero_learning_rate_is_identity(self, data_seed, adapter_seed, epochs, batch_size, k):
        # every lane of the stack, lanes of unequal size from distinct starts
        model = ToyModel.build(SMALL)
        models = [model.with_adapters(randomized_adapters(model, adapter_seed + i))
                  for i in range(k)]
        data = [mixed_batch(data_seed + i, n=8 - i) for i in range(k)]
        sgd = SgdConfig(0.0, epochs, batch_size)
        outs = local_update(models, Lanes(tuple(data)), sgd, [1 + i for i in range(k)])
        assert len(outs) == k
        for out, start in zip(outs, models):
            # the serialized bytes compare bit for bit, the sign of zero included
            assert out.checksum() == start.adapters.checksum()

    def test_single_full_batch_step_equals_manual_step(self):
        model = ToyModel.build(SMALL)
        model = model.with_adapters(randomized_adapters(model, 23))
        data = mixed_batch(24, n=5)
        eta = 0.05
        out = train_alone(model, data, SgdConfig(eta, 1, len(data)), seed=9)
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
        data = lane_data(np.random.default_rng(seed), n, mix)
        model = ToyModel.build(SMALL)
        model = model.with_adapters(randomized_adapters(model, seed))
        sgd = SgdConfig(0.05, epochs, batch_size)
        out = train_alone(model, data, sgd, seed=seed)
        rng = np.random.default_rng(seed)
        steps = 0
        for _ in range(sgd.epochs):
            order = rng.permutation(len(data))
            for start in range(0, len(data), sgd.batch_size):
                idx = np.sort(order[start : start + sgd.batch_size])
                grads = grad(model, data.take(idx))
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

    def test_returned_sets_hold_their_own_read_only_rows(self):
        # lanes end at steps 2, 4, 4 and 6; two of them on the same step
        model = ToyModel.build(SMALL)
        models = [model.with_adapters(randomized_adapters(model, 30 + i)) for i in range(4)]
        data = [mixed_batch(30 + i, n=n) for i, n in enumerate((3, 7, 8, 12))]
        outs = local_update(models, Lanes(tuple(data)), SgdConfig(0.05, 1, 2), [1, 2, 3, 4])
        arrays = [(lane, f) for lane, out in enumerate(outs)
                  for pair in out.layers.values() for f in pair]
        for lane, f in arrays:
            assert not f.flags.writeable
            # the memory behind each array is one lane's factors, not the stack's
            owner = f if f.base is None else f.base
            assert owner.size == outs[lane].param_count()
        for i, (lane, f) in enumerate(arrays):
            for other, g in arrays[i + 1:]:
                assert lane == other or not np.shares_memory(f, g)

    def test_deterministic_under_seed(self):
        model = ToyModel.build(SMALL)
        data = mixed_batch(25, n=10)
        sgd = SgdConfig(0.1, 2, 3)
        one = train_alone(model, data, sgd, seed=5)
        two = train_alone(model, data, sgd, seed=5)
        other = train_alone(model, data, sgd, seed=6)
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
        train_alone(model, mixed_batch(26), SgdConfig(0.1, 1, 4), seed=2)
        assert fingerprint(model.frozen) == before
        ew0 = model.frozen.base_hidden
        assert not ew0.flags.writeable
        assert np.array_equal(ew0, model.frozen.embedding @ model.frozen.trunk)
        for key, (b, a) in snapshot.items():
            assert np.array_equal(model.adapters.layers[key].b, b)
            assert np.array_equal(model.adapters.layers[key].a, a)

    def test_training_reduces_loss_on_learnable_data(self):
        wins = 0
        for seed in range(10):
            model = ToyModel.build(SMALL, adapter_seed=seed)
            rng = np.random.default_rng(100 + seed)
            data = packed([
                tagging_example(rng, SMALL.vocab_size, SMALL.tag_classes) for _ in range(40)
            ])
            before = loss(model, data)
            trained = train_alone(model, data, SgdConfig(0.3, 2, 8), seed=seed)
            after = loss(model.with_adapters(trained), data)
            if after <= before:
                wins += 1
        assert wins >= 9


def lane_data(rng, n, mix) -> Pack:
    """``n`` examples of the tasks in ``mix``, of drawn lengths."""
    return packed([
        tagging_example(rng, SMALL.vocab_size, SMALL.tag_classes, int(rng.integers(1, 9)))
        if mix[rng.integers(len(mix))] is Task.TAGGING
        else relation_example(rng, SMALL.vocab_size, SMALL.relation_classes,
                              int(rng.integers(2, 9)))
        for _ in range(n)
    ])


def own_b(model: ToyModel, start: AdapterSet, seed: int) -> AdapterSet:
    """``start`` with its own drawn B factors, as a share-A client keeps."""
    own = randomized_adapters(model, seed)
    return start.with_layers({key: pair._replace(b=own.layers[key].b)
                              for key, pair in start.layers.items()})


MIXES = [(Task.TAGGING,), (Task.RELATION,), tuple(Task)]

# the dimensions of configs/two_site.yaml, where gemms block as at full size
HEADLINE = ModelConfig(
    vocab_size=60, hidden=64, tag_classes=9, relation_classes=16, rank=8, alpha=16.0, seed=5
)


def alphabet_data(rng, n, mix, width, cfg) -> Pack:
    """``n`` examples of the tasks in ``mix`` whose tokens all come from
    ``width`` token ids of ``cfg``'s vocabulary, drawn once."""
    alphabet = rng.choice(cfg.vocab_size, size=width, replace=False)
    examples = []
    for _ in range(n):
        if mix[rng.integers(len(mix))] is Task.TAGGING:
            tokens = rng.choice(alphabet, size=int(rng.integers(1, 9)))
            examples.append((tokens, rng.integers(0, cfg.tag_classes, size=len(tokens))))
        else:
            head, tail = rng.choice(alphabet, size=2)
            examples.append((int(head), int(tail), int(rng.integers(cfg.relation_classes))))
    return packed(examples)


class TestLanes:
    @settings(max_examples=60, deadline=None)
    @given(
        lanes=st.lists(
            st.tuples(st.integers(1, 14), st.sampled_from(MIXES), st.integers(0, 2**32 - 1),
                      st.integers(0, 2**32 - 1)),
            min_size=1, max_size=6,
        ),
        epochs=st.integers(1, 3),
        batch_size=st.integers(1, 6),
        shared_seed=st.integers(0, 2**32 - 1),
    )
    def test_lockstep_equals_each_lane_alone(self, lanes, epochs, batch_size, shared_seed):
        # unequal sizes give lanes different step counts and partial last
        # batches; every lane keeps the shared A with its own B
        model = ToyModel.build(SMALL)
        shared = randomized_adapters(model, shared_seed)
        models = [model.with_adapters(own_b(model, shared, seed)) for _, _, _, seed in lanes]
        data = [lane_data(np.random.default_rng(seed), n, mix) for n, mix, seed, _ in lanes]
        seeds = [seed for _, _, seed, _ in lanes]
        sgd = SgdConfig(0.05, epochs, batch_size)
        outs = local_update(models, Lanes(tuple(data)), sgd, seeds)
        for out, start, examples, seed in zip(outs, models, data, seeds):
            assert out.checksum() == train_alone(start, examples, sgd, seed).checksum()

    @settings(max_examples=40, deadline=None)
    @given(
        lanes=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2**32 - 1),
                                 st.integers(0, 3)), min_size=1, max_size=6),
        epochs=st.integers(1, 3),
        batch_size=st.integers(1, 4),
        table_steps=st.integers(1, 5),
        data_seed=st.integers(0, 2**32 - 1),
    )
    def test_shared_packs_and_table_chunks_leave_each_lane_alone(
        self, lanes, epochs, batch_size, table_steps, data_seed
    ):
        # several lanes train on one pack, from their own starts and seeds,
        # and the per-token tables are built a few steps at a time
        model = ToyModel.build(SMALL)
        rng = np.random.default_rng(data_seed)
        packs = [lane_data(rng, int(rng.integers(1, 14)), tuple(Task)) for _ in range(3)]
        models = [model.with_adapters(randomized_adapters(model, seed)) for _, seed, _ in lanes]
        data = [packs[p] for p, _, _ in lanes]
        seeds = [seed for _, _, seed in lanes]
        sgd = SgdConfig(0.05, epochs, batch_size)
        alone = [train_alone(m, pack, sgd, seed).checksum()
                 for m, pack, seed in zip(models, data, seeds)]
        with mock.patch.object(fedlora.model, "TABLE_STEPS", table_steps):
            outs = local_update(models, Lanes(tuple(data)), sgd, seeds)
        assert [out.checksum() for out in outs] == alone

    @settings(max_examples=20, deadline=None)
    @given(
        lanes=st.lists(
            st.tuples(st.integers(1, 12), st.sampled_from(MIXES), st.sampled_from([2, 5, 16, 60]),
                      st.integers(0, 2**32 - 1)),
            min_size=1, max_size=4,
        ),
        single=st.tuples(st.integers(1, 12), st.sampled_from(MIXES), st.just(1),
                         st.integers(0, 2**32 - 1)),
        position=st.integers(0, 4),
        epochs=st.integers(1, 2),
        batch_size=st.integers(1, 6),
        table_steps=st.sampled_from([1, 2, 5, 32]),
    )
    def test_lockstep_equals_each_lane_alone_at_headline_dimensions(
        self, lanes, single, position, epochs, batch_size, table_steps
    ):
        # lanes read from 1 to 60 token ids, so a lane alone runs over as
        # few as 2 rows (one read id and one padding row) and in lockstep
        # over up to 60, under h = 64 and r = 8 gemms
        lanes.insert(position, single)
        model = ToyModel.build(HEADLINE)
        models = [model.with_adapters(randomized_adapters(model, seed)) for *_, seed in lanes]
        data = [alphabet_data(np.random.default_rng(seed), n, mix, width, HEADLINE)
                for n, mix, width, seed in lanes]
        seeds = [seed for *_, seed in lanes]
        sgd = SgdConfig(0.05, epochs, batch_size)
        alone = [train_alone(m, pack, sgd, seed).checksum()
                 for m, pack, seed in zip(models, data, seeds)]
        with mock.patch.object(fedlora.model, "TABLE_STEPS", table_steps):
            outs = local_update(models, Lanes(tuple(data)), sgd, seeds)
        assert [out.checksum() for out in outs] == alone

    def test_sixteen_lanes_at_many_clients_dimensions_equal_each_lane_alone(self):
        # the headline model, batch 8 and one epoch as in many_clients, at
        # the stack size where a step's arrays cross the allocator's mmap
        # threshold; packs of 40 examples and fewer end lanes at steps 1-5
        model = ToyModel.build(HEADLINE)
        rng = np.random.default_rng(16)
        sizes = [40] * 8 + [36, 31, 25, 20, 16, 11, 6, 1]
        models = [model.with_adapters(randomized_adapters(model, 40 + i)) for i in range(16)]
        data = [alphabet_data(rng, n, tuple(Task), HEADLINE.vocab_size, HEADLINE) for n in sizes]
        seeds = list(range(16))
        sgd = SgdConfig(0.2, 1, 8)
        alone = [train_alone(m, pack, sgd, seed).checksum()
                 for m, pack, seed in zip(models, data, seeds)]
        outs = local_update(models, Lanes(tuple(data)), sgd, seeds)
        assert [out.checksum() for out in outs] == alone

    @settings(max_examples=40, deadline=None)
    @given(
        lanes=st.lists(st.tuples(st.integers(1, 14), st.sampled_from(MIXES),
                                 st.integers(0, 2**32 - 1)), min_size=1, max_size=5),
        batch_size=st.integers(1, 6),
        table_steps=st.integers(1, 4),
        epochs=st.integers(1, 3),
    )
    def test_compact_batches_run_each_lane_over_its_read_ids(
        self, lanes, batch_size, table_steps, epochs
    ):
        # on pass e, example j of an n-example lane joins step
        # j // batch_size + e * ceil(n / batch_size), so a step may hold
        # lanes on different passes, a later lane's before an earlier one's
        v, c, rel = SMALL.vocab_size, SMALL.tag_classes, SMALL.relation_classes
        data = [lane_data(np.random.default_rng(seed), n, mix) for n, mix, seed in lanes]
        step_of = np.array([
            np.concatenate([np.arange(len(pack)) // batch_size
                            + e * -(-len(pack) // batch_size) for pack in data])
            for e in range(epochs)])
        first = np.cumsum([0] + [len(pack) for pack in data])
        with mock.patch.object(fedlora.model, "TABLE_STEPS", table_steps):
            batches = list(Lanes(tuple(data)).batches(step_of, SMALL))
        read = [[np.zeros(0, dtype=np.int64)] * len(data) for _ in batches]
        for g, batch in enumerate(batches):
            u = batch.tokens.shape[1]
            # a lane past its last step is left out, and the rest keep lane order
            picks = [np.nonzero(step_of[:, first[lane]:first[lane + 1]] == g)[1]
                     for lane in range(len(data))]
            live = [lane for lane in range(len(data))
                    if step_of[:, first[lane]:first[lane + 1]].max() >= g]
            assert batch.lanes.tolist() == live
            assert batch.weights.shape == (len(live), u, c)
            assert batch.sizes.tolist() == [len(picks[lane]) for lane in live]
            # a pair's rows are slot * U + the rows of its tokens in its slot
            slots = batch.heads // u
            assert np.array_equal(batch.tails // u, slots)
            assert batch.scales.tobytes() == (1.0 / batch.sizes).tobytes()
            assert batch.pair_scales.tobytes() == (1.0 / batch.sizes)[slots].tobytes()
            for keys, rows in ((batch.head_keys, batch.heads), (batch.tail_keys, batch.tails)):
                assert np.array_equal(keys, (rows[:, None] * rel + np.arange(rel)).reshape(-1))
            assert np.isin(slots, np.arange(len(live))).all()
            for slot, lane in enumerate(live):
                # a step holds one pass of a lane, so its examples ascend
                step = data[lane].take(picks[lane])
                mine = slots == slot
                tokens, weights = batch.tokens[slot], batch.weights[slot]
                # every id once: the read ids ascending, then the unread ones
                ids = np.unique(np.concatenate([step.tokens, step.heads, step.tails]))
                want = np.bincount(step.tokens * c + step.tags, weights=step.shares,
                                   minlength=v * c).reshape(v, c)
                assert np.array_equal(tokens[batch.heads[mine] - slot * u], step.heads)
                assert np.array_equal(tokens[batch.tails[mine] - slot * u], step.tails)
                assert np.array_equal(batch.relations[mine], step.relations)
                read[g][lane] = ids
                unread = np.setdiff1d(np.arange(v), ids)
                assert np.array_equal(tokens, np.concatenate([ids, unread])[:u])
                assert not weights[len(ids):].any()
                scattered = np.zeros((v, c))
                scattered[tokens] = weights
                assert scattered.tobytes() == want.tobytes()
        # U is the most ids a lane reads in the steps of its table chunk, in
        # whole row blocks, at most V
        block = fedlora.model.ROW_BLOCK
        for g0 in range(0, len(batches), table_steps):
            chunk = range(g0, min(g0 + table_steps, len(batches)))
            most = max(len(ids) for g in chunk for ids in read[g])
            u = min(-(-most // block) * block, v)
            assert {batches[g].tokens.shape[1] for g in chunk} == {u}

    def test_length_counts_every_lane(self):
        lanes = Lanes((mixed_batch(1, n=3), mixed_batch(2, n=5)))
        assert len(lanes) == 8

    def test_lanes_share_one_backbone(self):
        one, two = ToyModel.build(SMALL), ToyModel.build(SMALL)
        with pytest.raises(ValueError, match="one backbone"):
            local_update([one, two], Lanes((mixed_batch(1), mixed_batch(2))),
                         SgdConfig(0.1, 1, 2), [0, 0])


# At learning rate 1, epochs 3 and batch 2 on 12 examples, each of these
# starts diverges alone at the step given, or not at all (None).  HUGE
# turns every layer non-finite in its first step, and alone names the first.
LATE, EARLY, STABLE, HUGE = (1, 0.1, 15), (0, 1.0, 5), (0, 1e-4, None), (2, 1e200, 0)
DIVERGING_SGD = SgdConfig(1.0, 3, 2)


def diverging_lane(model, seed, scale):
    return model.with_adapters(randomized_adapters(model, seed, scale)), mixed_batch(seed, n=12)


class TestLaneDivergence:
    @pytest.mark.parametrize("first, second, named",
                             [(LATE, EARLY, 1), (STABLE, EARLY, 1), (STABLE, HUGE, 1)])
    def test_names_the_lowest_lane_that_diverged(self, first, second, named):
        # the call stops at the first step where a lane diverges, so the
        # second lane's error is raised though the first would diverge later
        model = ToyModel.build(SMALL)
        lanes = [diverging_lane(model, seed, scale) for seed, scale, _ in (first, second)]
        alone = []
        for (start, data), (seed, _, step) in zip(lanes, (first, second)):
            try:
                train_alone(start, data, DIVERGING_SGD, seed)
                alone.append(None)
            except Diverged as err:
                alone.append((str(err), err.__notes__))
            # every layer goes non-finite in HUGE's first step: the first is named
            assert alone[-1] == (None if step is None else (
                "layer 'trunk' has non-finite adapter factors", [f"step {step}"]))
        with pytest.raises(Diverged) as raised:
            local_update([m for m, _ in lanes], Lanes(tuple(d for _, d in lanes)), DIVERGING_SGD,
                         [seed for seed, _, _ in (first, second)])
        assert raised.value.lane == named
        assert (str(raised.value), raised.value.__notes__) == alone[named]

    def test_names_the_lane_not_its_stack_slot(self):
        # lane 0 runs its 3 steps and leaves the stack, so lane 1, which
        # diverges at step 5 alone, is stack slot 0 when it does
        model = ToyModel.build(SMALL)
        short = model.with_adapters(randomized_adapters(model, 0, 1e-4))
        seed, scale, _ = EARLY
        start, data = diverging_lane(model, seed, scale)
        with pytest.raises(Diverged) as raised:
            local_update([short, start], Lanes((mixed_batch(0, n=2), data)), DIVERGING_SGD,
                         [0, seed])
        assert raised.value.lane == 1
        assert (str(raised.value), raised.value.__notes__) == (
            "layer 'trunk' has non-finite adapter factors", ["step 5"])
