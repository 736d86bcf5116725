import struct

import numpy as np
import pytest

from fedlora.lora import (
    LLAMA3_8B_FULL_PARAMS,
    AdapterPair,
    AdapterSet,
    DimensionMismatch,
    init_adapter_set,
    llama3_8b_lora_params,
    param_counts,
    serialize_adapters,
    serialized_a_size,
    serialized_size,
)
from fedlora.model import (
    Backbone,
    Example,
    ModelConfig,
    Task,
    ToyModel,
    _example_logits,
)


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
        layers[key] = AdapterPair(
            key, rng.standard_normal((d, rank)), rng.standard_normal((rank, l)), rank, alpha
        )
    return AdapterSet(layers)


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
        for key in adapters.keys():
            assert np.array_equal(merged[key], getattr(backbone, key))

    def test_one_by_one(self):
        cfg = ModelConfig(10, 1, 1, 1, rank=1, alpha=1.0)
        backbone = Backbone(
            cfg, np.ones((10, 1)), np.array([[2.0]]), np.zeros((1, 1)), np.zeros((2, 1))
        )
        adapters = init_adapter_set(backbone.adapter_shapes(), rank=1, alpha=1.0, seed=0)
        pair = AdapterPair("trunk", np.array([[3.0]]), np.array([[4.0]]), 1, 1.0)
        merged = merged_weights(backbone, AdapterSet({**adapters.layers, "trunk": pair}))
        assert merged["trunk"][0, 0] == 14.0

    def test_random_4x4_rank2_alpha4_matches_naive_product(self):
        rng = np.random.default_rng(42)
        backbone = square_backbone(rng, 4)
        adapters = make_set(rng, backbone.adapter_shapes(), rank=2, alpha=4.0)
        merged = merged_weights(backbone, adapters)
        for key, pair in adapters.items():
            expected = getattr(backbone, key) + 2.0 * naive_matmul(pair.b, pair.a)
            np.testing.assert_allclose(merged[key], expected, rtol=0, atol=1e-12)

    def test_non_adapted_layers_pass_through(self):
        # the embedding carries no adapter: the forward pass reads it unmerged
        rng = np.random.default_rng(1)
        backbone = square_backbone(rng, 3)
        adapters = make_set(rng, backbone.adapter_shapes(), rank=1, alpha=1.0)
        example = Example(Task.TAGGING, [1, 4, 9], tags=[0, 1, 2])
        _, (x, _, _) = _example_logits(backbone, merged_weights(backbone, adapters), example)
        assert np.array_equal(x, backbone.embedding[example.tokens])

    def test_dimension_mismatch_names_layer_and_shapes(self):
        backbone = square_backbone(np.random.default_rng(2), 3)
        adapters = init_adapter_set(backbone.adapter_shapes(), rank=2, alpha=1.0, seed=0)
        pair = AdapterPair("trunk", np.zeros((4, 2)), np.zeros((2, 4)), 2, 1.0)
        with pytest.raises(DimensionMismatch) as err:
            ToyModel(backbone, AdapterSet({**adapters.layers, "trunk": pair}))
        assert err.value.layer_key == "trunk"
        assert err.value.expected == (3, 3)
        assert err.value.actual == (4, 4)

    def test_backbone_not_modified(self):
        rng = np.random.default_rng(2)
        backbone = square_backbone(rng, 3)
        before = backbone.fingerprint()
        merged_weights(backbone, make_set(rng, backbone.adapter_shapes(), rank=2, alpha=2.0))
        assert backbone.fingerprint() == before

    def test_weighted_factor_sum_expands_as_product_of_sums(self):
        # merging summed factors gives W0 + s * (sum w_i B_i) @ (sum w_j A_j),
        # checked against the brute-force double-sum expansion.
        rng = np.random.default_rng(3)
        backbone = square_backbone(rng, 3)
        shapes = backbone.adapter_shapes()
        weights = [0.2, 0.3, 0.5]
        sets = [make_set(rng, shapes, rank=2, alpha=2.0) for _ in weights]
        combined = AdapterSet(
            {
                key: sets[0][key].with_factors(
                    sum(w * s[key].b for w, s in zip(weights, sets)),
                    sum(w * s[key].a for w, s in zip(weights, sets)),
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
                    expansion += wi * wj * naive_matmul(si[key].b, sj[key].a)
            np.testing.assert_allclose(
                merged[key], getattr(backbone, key) + scale * expansion, atol=1e-12
            )

    def test_factor_average_is_not_product_average(self):
        # Averaging (B, A) factors is not the same as averaging B @ A products;
        # the discrepancy is real and demonstrated here, not hidden.
        rng = np.random.default_rng(4)
        sets = [make_set(rng, {"w": (2, 2)}, rank=1, alpha=1.0) for _ in range(2)]
        b_avg = 0.5 * (sets[0]["w"].b + sets[1]["w"].b)
        a_avg = 0.5 * (sets[0]["w"].a + sets[1]["w"].a)
        factor_merge = b_avg @ a_avg
        product_avg = 0.5 * (sets[0]["w"].delta() + sets[1]["w"].delta())
        assert not np.allclose(factor_merge, product_avg)


class TestParamCounts:
    def test_direct_arithmetic(self):
        full, lora = param_counts(4096, 4096, 16)
        assert full == 16_777_216
        assert lora == 131_072

    def test_minimal(self):
        assert param_counts(1, 1, 1) == (1, 2)

    def test_llama3_preset_reproduces_published_total(self):
        assert llama3_8b_lora_params(rank=16) == 41_943_040
        assert LLAMA3_8B_FULL_PARAMS == 8_030_261_248

    def test_lora_smaller_than_full_for_modest_ranks(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            d = int(rng.integers(2, 500))
            l = int(rng.integers(2, 500))
            r = int(rng.integers(1, max(2, min(d, l) // 2 + 1)))
            full, lora = param_counts(d, l, r)
            if r < d * l / (d + l):
                assert lora < full


class TestSerialization:
    def test_empty_set_round_trips(self):
        # With no reader left, the empty set's payload is pinned as exactly
        # the header and a zero entry count, and its size as that length.
        adapters = AdapterSet({})
        payload = serialize_adapters(adapters)
        assert payload == b"ADPTSET1" + bytes([1]) + struct.pack("<Q", 0)
        assert len(payload) == serialized_size(adapters)
        assert serialized_a_size(adapters) == len(payload)

    def test_single_adapter_payload_matches_hand_packed_bytes(self):
        pair = AdapterPair(
            "w", np.array([[1.5], [-2.25]]), np.array([[0.125, 3.0]]), 1, 64.0
        )
        expected = (
            b"ADPTSET1" + bytes([1]) + struct.pack("<Q", 1)
            + struct.pack("<Q", 1) + b"w" + struct.pack("<3Q", 2, 2, 1)
            + struct.pack("<d", 64.0)
            + struct.pack("<2d", 1.5, -2.25) + struct.pack("<2d", 0.125, 3.0)
        )
        assert serialize_adapters(AdapterSet({"w": pair})) == expected

    def test_byte_length_matches_format_definition(self):
        rng = np.random.default_rng(7)
        adapters = make_set(rng, {"trunk": (6, 6), "head": (6, 4)}, rank=2, alpha=4.0)
        for case in (adapters, AdapterSet({})):
            # header + per entry: key-length field, key bytes, three u64 dims,
            # one f64 alpha, then 8 bytes per B and A entry (A alone for share-A).
            expected = expected_a = 8 + 1 + 8
            for key, pair in case.items():
                entry = 8 + len(key) + 24 + 8
                expected += entry + 8 * (pair.d * pair.rank + pair.rank * pair.l)
                expected_a += entry + 8 * pair.rank * pair.l
            assert len(serialize_adapters(case)) == expected
            assert serialized_size(case) == expected
            assert serialized_a_size(case) == expected_a


class TestAdapterSet:
    def test_init_b_zero_a_bounded_and_seeded(self):
        one = init_adapter_set({"w": (5, 3)}, rank=2, alpha=4.0, seed=11)
        two = init_adapter_set({"w": (5, 3)}, rank=2, alpha=4.0, seed=11)
        other = init_adapter_set({"w": (5, 3)}, rank=2, alpha=4.0, seed=12)
        assert np.array_equal(one["w"].b, np.zeros((5, 2)))
        assert np.abs(one["w"].a).max() <= 0.05
        assert np.array_equal(one["w"].a, two["w"].a)
        assert not np.array_equal(one["w"].a, other["w"].a)

    def test_rank_cannot_exceed_min_dim(self):
        with pytest.raises(ValueError):
            AdapterPair("w", np.zeros((2, 3)), np.zeros((3, 2)), 3, 1.0)

    def test_param_count(self):
        adapters = init_adapter_set({"w": (5, 3), "v": (4, 4)}, rank=2, alpha=1.0, seed=0)
        assert adapters.param_count() == (5 * 2 + 2 * 3) + (4 * 2 + 2 * 4)
        assert adapters.a_param_count() == 2 * 3 + 2 * 4

    def test_checksum_tracks_content(self):
        rng = np.random.default_rng(10)
        adapters = make_set(rng, {"w": (4, 4)}, rank=2, alpha=2.0)
        assert adapters.checksum() == adapters.checksum()
        zeroed = adapters["w"].with_factors(np.zeros((4, 2)), adapters["w"].a)
        assert adapters.checksum() != AdapterSet({"w": zeroed}).checksum()

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            AdapterPair("w", np.array([[np.nan]]), np.array([[1.0]]), 1, 1.0)
