import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedlora.lora import (
    LLAMA3_8B_FULL_PARAMS,
    AdapterPair,
    AdapterSet,
    DimensionMismatch,
    check_shapes,
    init_adapter_set,
    llama3_8b_lora_params,
    serialize_adapters,
    serialized_a_size,
    serialized_size,
)
from fedlora.model import Backbone, ModelConfig, ToyModel, forward
from packing import packed


def naive_matmul(x, y):
    """Triple-loop product, the independent oracle for the merged weights."""
    rows, inner = x.shape
    inner2, cols = y.shape
    assert inner == inner2
    out = np.zeros((rows, cols))
    for i in range(rows):
        for j in range(cols):
            s = 0.0
            for k in range(inner):
                s += x[i, k] * y[k, j]
            out[i, j] = s
    return out


def make_set(rng, shapes, rank, alpha):
    layers = {}
    for key, (d, l) in shapes.items():
        layers[key] = AdapterPair(rng.standard_normal((d, rank)), rng.standard_normal((rank, l)))
    return AdapterSet(rank, alpha, layers)


def pack_oracle(adapters, shapes, rank, alpha) -> tuple[bytes, bytes]:
    """The set's payload packed field by field with ``struct``, and the same
    without the B blocks (the A-only payload)."""
    full = a_only = b"ADPTSET1" + bytes([1]) + struct.pack("<Q", len(shapes))
    for key, (d, l) in shapes.items():
        raw = key.encode("utf-8")
        head = struct.pack("<Q", len(raw)) + raw + struct.pack("<3Qd", d, l, rank, alpha)
        pair = adapters.layers[key]
        b, a = (struct.pack(f"<{m.size}d", *m.ravel()) for m in (pair.b, pair.a))
        full += head + b + a
        a_only += head + a
    return full, a_only


def square_backbone(rng, hidden):
    """Random backbone whose trunk and tag head are hidden x hidden."""
    cfg = ModelConfig(
        vocab_size=10, hidden=hidden, tag_classes=hidden, relation_classes=hidden,
        rank=1, alpha=1.0,
    )
    return Backbone(
        cfg,
        rng.standard_normal((10, hidden)),
        rng.standard_normal((hidden, hidden)),
        rng.standard_normal((hidden, hidden)),
        rng.standard_normal((2 * hidden, hidden)),
    )


def merged_weights(backbone: Backbone, adapters: AdapterSet) -> dict[str, np.ndarray]:
    """Effective weights through the model's merge path, after its shape check."""
    return ToyModel(backbone, adapters).merged


class TestMerge:
    def test_zero_b_returns_backbone_exactly(self):
        backbone = square_backbone(np.random.default_rng(0), 4)
        adapters = init_adapter_set(backbone.adapter_shapes(), rank=2, alpha=4.0, seed=7)
        merged = merged_weights(backbone, adapters)
        for key in adapters.layers:
            assert np.array_equal(merged[key], getattr(backbone, key))

    def test_one_by_one(self):
        cfg = ModelConfig(10, 1, 1, 1, rank=1, alpha=1.0)
        backbone = Backbone(
            cfg, np.ones((10, 1)), np.array([[2.0]]), np.zeros((1, 1)), np.zeros((2, 1))
        )
        adapters = init_adapter_set(backbone.adapter_shapes(), rank=1, alpha=1.0, seed=0)
        pair = AdapterPair(np.array([[3.0]]), np.array([[4.0]]))
        merged = merged_weights(backbone, adapters.with_layers({**adapters.layers, "trunk": pair}))
        assert merged["trunk"][0, 0] == 14.0

    def test_random_4x4_rank2_alpha4_matches_naive_product(self):
        rng = np.random.default_rng(42)
        backbone = square_backbone(rng, 4)
        adapters = make_set(rng, backbone.adapter_shapes(), rank=2, alpha=4.0)
        merged = merged_weights(backbone, adapters)
        for key, pair in adapters.layers.items():
            expected = getattr(backbone, key) + 2.0 * naive_matmul(pair.b, pair.a)
            np.testing.assert_allclose(merged[key], expected, rtol=0, atol=1e-12)

    def test_non_adapted_layers_pass_through(self):
        # the embedding carries no adapter: the forward pass reads it unmerged
        rng = np.random.default_rng(1)
        backbone = square_backbone(rng, 3)
        adapters = make_set(rng, backbone.adapter_shapes(), rank=1, alpha=1.0)
        tokens = [1, 4, 9]
        merged = merged_weights(backbone, adapters)
        z = np.maximum(backbone.embedding[tokens] @ merged["trunk"], 0.0)
        logits = z @ merged["tag_head"]
        expected = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        probs, _ = forward(ToyModel(backbone, adapters), packed([(tokens, [0, 1, 2])]))
        np.testing.assert_allclose(probs, expected, rtol=1e-12, atol=0)

    def test_dimension_mismatch_names_layer_and_shapes(self):
        backbone = square_backbone(np.random.default_rng(2), 3)
        adapters = init_adapter_set(backbone.adapter_shapes(), rank=2, alpha=1.0, seed=0)
        pair = AdapterPair(np.zeros((4, 2)), np.zeros((2, 4)))
        with pytest.raises(DimensionMismatch) as err:
            ToyModel(backbone, adapters.with_layers({**adapters.layers, "trunk": pair}))
        assert err.value.layer_key == "trunk"
        assert err.value.expected == (3, 3)
        assert err.value.actual == (4, 4)

    def test_check_shapes_names_first_differing_layer_in_key_order(self):
        adapters = init_adapter_set({"w": (4, 4), "u": (3, 3), "v": (2, 2)}, 1, 1.0, 0)
        check_shapes({"u": (3, 3), "v": (2, 2), "w": (4, 4)}, adapters)
        # "u" is missing from the expected layout and "w" has another shape
        with pytest.raises(DimensionMismatch) as err:
            check_shapes({"v": (2, 2), "w": (4, 5)}, adapters)
        assert (err.value.layer_key, err.value.expected, err.value.actual) == ("u", None, (3, 3))

    def test_backbone_not_modified(self, fingerprint):
        rng = np.random.default_rng(2)
        backbone = square_backbone(rng, 3)
        before = fingerprint(backbone)
        merged_weights(backbone, make_set(rng, backbone.adapter_shapes(), rank=2, alpha=2.0))
        assert fingerprint(backbone) == before

    def test_weighted_factor_sum_expands_as_product_of_sums(self):
        # merging summed factors gives W0 + s * (sum w_i B_i) @ (sum w_j A_j),
        # checked against the brute-force double-sum expansion.
        rng = np.random.default_rng(3)
        backbone = square_backbone(rng, 3)
        shapes = backbone.adapter_shapes()
        weights = [0.2, 0.3, 0.5]
        sets = [make_set(rng, shapes, rank=2, alpha=2.0) for _ in weights]
        combined = sets[0].with_layers(
            {
                key: AdapterPair(
                    sum(w * s.layers[key].b for w, s in zip(weights, sets)),
                    sum(w * s.layers[key].a for w, s in zip(weights, sets)),
                )
                for key in shapes
            }
        )
        merged = merged_weights(backbone, combined)

        scale = 2.0 / 2
        for key in shapes:
            expansion = np.zeros(shapes[key])
            for wi, si in zip(weights, sets):
                for wj, sj in zip(weights, sets):
                    expansion += wi * wj * naive_matmul(si.layers[key].b, sj.layers[key].a)
            np.testing.assert_allclose(
                merged[key], getattr(backbone, key) + scale * expansion, atol=1e-12
            )

    def test_factor_average_is_not_product_average(self):
        # Averaging (B, A) factors is not the same as averaging B @ A products;
        # the discrepancy is real and demonstrated here, not hidden.
        rng = np.random.default_rng(4)
        sets = [make_set(rng, {"w": (2, 2)}, rank=1, alpha=1.0) for _ in range(2)]
        b_avg = 0.5 * (sets[0].layers["w"].b + sets[1].layers["w"].b)
        a_avg = 0.5 * (sets[0].layers["w"].a + sets[1].layers["w"].a)
        factor_merge = b_avg @ a_avg
        product_avg = 0.5 * sum(s.scale * (s.layers["w"].b @ s.layers["w"].a) for s in sets)
        assert not np.allclose(factor_merge, product_avg)


def lora_params(d, l, r):
    return init_adapter_set({"w": (d, l)}, r, 1.0, 0).param_count()


class TestParamCounts:
    def test_direct_arithmetic(self):
        assert lora_params(4096, 4096, 16) == 16 * (4096 + 4096) == 131_072

    def test_minimal(self):
        assert lora_params(1, 1, 1) == 2

    def test_llama3_preset_reproduces_published_total(self):
        assert llama3_8b_lora_params(rank=16) == 41_943_040
        assert LLAMA3_8B_FULL_PARAMS == 8_030_261_248

    def test_lora_smaller_than_full_for_modest_ranks(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            d = int(rng.integers(2, 500))
            l = int(rng.integers(2, 500))
            r = int(rng.integers(1, max(2, min(d, l) // 2 + 1)))
            full, lora = d * l, lora_params(d, l, r)
            assert lora == r * (d + l)
            if r < d * l / (d + l):
                assert lora < full


class TestSerialization:
    def test_empty_set_round_trips(self):
        # With no reader left, the empty set's payload is pinned as exactly
        # the header and a zero entry count, and its size as that length.
        adapters = AdapterSet(1, 1.0, {})
        payload = serialize_adapters(adapters)
        assert payload == b"ADPTSET1" + bytes([1]) + struct.pack("<Q", 0)
        assert len(payload) == serialized_size(adapters)
        assert serialized_a_size(adapters) == len(payload)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_single_adapter_payload_matches_hand_packed_bytes(self, data):
        # the payload of any set, layer for layer, against ``pack_oracle``
        keys = data.draw(st.lists(st.text(max_size=4), max_size=3, unique=True))
        shapes = {key: (data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6)))
                  for key in keys}
        rank = data.draw(st.integers(1, min((min(s) for s in shapes.values()), default=6)))
        alpha = data.draw(st.floats(1e-3, 1e6))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        adapters = make_set(rng, shapes, rank, alpha)
        payload, a_only = pack_oracle(adapters, shapes, rank, alpha)
        assert serialize_adapters(adapters) == payload
        assert serialized_size(adapters) == len(payload)
        assert serialized_a_size(adapters) == len(a_only)

    def test_byte_length_matches_format_definition(self):
        rng = np.random.default_rng(7)
        adapters = make_set(rng, {"trunk": (6, 6), "head": (6, 4)}, rank=2, alpha=4.0)
        for case in (adapters, AdapterSet(2, 4.0, {})):
            # header + per entry: key-length field, key bytes, three u64 dims,
            # one f64 alpha, then 8 bytes per B and A entry (A alone for share-A).
            expected = expected_a = 8 + 1 + 8
            for key, (d, l) in case.shapes().items():
                entry = 8 + len(key) + 24 + 8
                expected += entry + 8 * (d * case.rank + case.rank * l)
                expected_a += entry + 8 * case.rank * l
            assert len(serialize_adapters(case)) == expected
            assert serialized_size(case) == expected
            assert serialized_a_size(case) == expected_a


class TestAdapterSet:
    def test_init_b_zero_a_bounded_and_seeded(self):
        one = init_adapter_set({"w": (5, 3)}, rank=2, alpha=4.0, seed=11)
        two = init_adapter_set({"w": (5, 3)}, rank=2, alpha=4.0, seed=11)
        other = init_adapter_set({"w": (5, 3)}, rank=2, alpha=4.0, seed=12)
        assert np.array_equal(one.layers["w"].b, np.zeros((5, 2)))
        assert np.abs(one.layers["w"].a).max() <= 0.05
        assert np.array_equal(one.layers["w"].a, two.layers["w"].a)
        assert not np.array_equal(one.layers["w"].a, other.layers["w"].a)

    def test_rank_cannot_exceed_min_dim(self):
        with pytest.raises(ValueError):
            AdapterSet(3, 1.0, {"w": AdapterPair(np.zeros((2, 3)), np.zeros((3, 2)))})

    @pytest.mark.parametrize("b_cols, a_rows", [(3, 2), (2, 3)])
    def test_factor_of_another_rank_names_layer(self, b_cols, a_rows):
        good = AdapterPair(np.zeros((4, 2)), np.zeros((2, 4)))
        odd = AdapterPair(np.zeros((4, b_cols)), np.zeros((a_rows, 4)))
        with pytest.raises(DimensionMismatch) as err:
            AdapterSet(2, 1.0, {"v": good, "w": odd})
        assert err.value.layer_key == "w"
        assert err.value.actual == (4, b_cols, a_rows, 4)

    @pytest.mark.parametrize("rank, alpha", [(0, 1.0), (1, 0.0), (1, -2.0)])
    def test_rank_and_alpha_must_be_positive(self, rank, alpha):
        with pytest.raises(ValueError):
            AdapterSet(rank, alpha, {})

    def test_one_scale_for_every_layer(self):
        adapters = init_adapter_set({"w": (5, 3), "v": (4, 4)}, rank=2, alpha=5.0, seed=0)
        assert adapters.scale == 2.5
        assert adapters.shapes() == {"w": (5, 3), "v": (4, 4)}

    def test_equality_is_identity(self):
        one = init_adapter_set({"w": (3, 3)}, rank=2, alpha=1.0, seed=0)
        two = init_adapter_set({"w": (3, 3)}, rank=2, alpha=1.0, seed=0)
        assert one == one
        assert one != two
        assert one.checksum() == two.checksum()

    def test_pair_equality_is_identity(self):
        # tuple equality would compare the factor arrays and raise ValueError
        pair = init_adapter_set({"w": (3, 3)}, rank=2, alpha=1.0, seed=0).layers["w"]
        copy = AdapterPair(pair.b.copy(), pair.a.copy())
        assert pair == pair and not pair != pair
        assert pair != copy and not pair == copy
        assert pair != (pair.b.copy(), pair.a) and (pair.b.copy(), pair.a) != pair
        assert pair in [copy, pair] and copy not in [pair]
        assert {pair: 1}[pair] == 1

    def test_param_count(self):
        adapters = init_adapter_set({"w": (5, 3), "v": (4, 4)}, rank=2, alpha=1.0, seed=0)
        assert adapters.param_count() == (5 * 2 + 2 * 3) + (4 * 2 + 2 * 4)
        assert adapters.a_param_count() == 2 * 3 + 2 * 4

    def test_checksum_tracks_content(self):
        rng = np.random.default_rng(10)
        adapters = make_set(rng, {"w": (4, 4)}, rank=2, alpha=2.0)
        assert adapters.checksum() == adapters.checksum()
        zeroed = adapters.layers["w"]._replace(b=np.zeros((4, 2)))
        assert adapters.checksum() != adapters.with_layers({"w": zeroed}).checksum()

    def test_checksum_serializes_each_set_once(self, monkeypatch):
        import fedlora.lora

        rng = np.random.default_rng(11)
        adapters = make_set(rng, {"w": (4, 4), "v": (3, 5)}, rank=2, alpha=2.0)
        calls = []

        def counting(adapter_set):
            calls.append(adapter_set)
            return serialize_adapters(adapter_set)

        monkeypatch.setattr(fedlora.lora, "serialize_adapters", counting)
        first = adapters.checksum()
        assert adapters.checksum() == first and calls == [adapters]
        copy = adapters.with_layers({key: (b.copy(), a.copy())
                                     for key, (b, a) in adapters.layers.items()})
        assert copy.checksum() == first and calls == [adapters, copy]

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            AdapterSet(1, 1.0, {"w": AdapterPair(np.array([[np.nan]]), np.array([[1.0]]))})
