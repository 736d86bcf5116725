from dataclasses import replace

import numpy as np
import pytest

from fedlora.aggregation import WeightMode
from fedlora.datasim import (
    PlantedRule,
    SiteDataset,
    SiteSpec,
    generate_site,
    make_validation_set,
)
from fedlora.federation import (
    FederationConfig,
    Strategy,
    run_federation,
    sample_clients,
)
from fedlora import federation
from fedlora.lora import AdapterPair, serialize_adapters, serialized_a_size
from fedlora.model import (
    Backbone,
    ModelConfig,
    SgdConfig,
    Task,
    ToyModel,
    local_update,
)
from fedlora.seeding import derive_seed

RULE = PlantedRule(vocab_size=60)
MODEL_CFG = ModelConfig(
    vocab_size=60, hidden=16, tag_classes=9, relation_classes=16, rank=3, alpha=6.0, seed=7
)
SGD = SgdConfig(learning_rate=0.2, epochs=1, batch_size=8)


def make_sites(n_sites, n_examples=40, seed=100, **spec_kw):
    sites = []
    for i in range(n_sites):
        spec = SiteSpec(
            f"site{i}", n_examples, dirichlet_alpha=5.0, seed=seed + i, **spec_kw
        )
        sites.append(generate_site(spec, RULE))
    return sites


def fed_config(strategy, k, rounds=2, seed=11):
    return FederationConfig(
        strategy=strategy,
        clients_per_round=k,
        rounds=rounds,
        sgd=SGD,
        seed=seed,
    )


def adapters_equal(one, two):
    if one.layers.keys() != two.layers.keys():
        return False
    return all(
        np.array_equal(b, two.layers[k].b) and np.array_equal(a, two.layers[k].a)
        for k, (b, a) in one.layers.items()
    )


class TestSampleClients:
    def test_full_participation(self):
        assert sample_clients(5, 5, seed=1, round_index=0) == [0, 1, 2, 3, 4]

    def test_deterministic(self):
        one = sample_clients(10, 3, seed=2, round_index=4)
        two = sample_clients(10, 3, seed=2, round_index=4)
        assert one == two
        assert one != sample_clients(10, 3, seed=2, round_index=5)

    def test_selection_frequency_is_uniform(self):
        counts = np.zeros(10)
        draws = 10_000
        for t in range(draws):
            for i in sample_clients(10, 3, seed=3, round_index=t):
                counts[i] += 1
        freqs = counts / draws
        assert np.abs(freqs - 0.3).max() < 0.02

    def test_oversampling_rejected(self):
        with pytest.raises(ValueError):
            sample_clients(3, 4, seed=0, round_index=0)


class TestDegeneracies:
    def test_single_client_federation_collapses_to_local_update(self):
        sites = make_sites(1)
        config = fed_config(Strategy.FEDAVG, 1, rounds=1)
        backbone = Backbone.build(MODEL_CFG)
        result = run_federation(config, sites, None, backbone)

        initial = backbone.init_adapters(derive_seed(config.seed, "adapter_init"))
        expected = local_update(
            ToyModel(backbone, initial),
            sites[0].examples,
            SGD,
            derive_seed(config.seed, "local", 0),
        )
        assert adapters_equal(result.adapters, expected)

    def test_two_rounds_two_clients_transcript_shape(self):
        sites = make_sites(2)
        config = fed_config(Strategy.FEDAVG, 2, rounds=2)
        result = run_federation(config, sites, None, Backbone.build(MODEL_CFG))
        assert len(result.transcripts) == 2
        for transcript in result.transcripts:
            assert transcript.sampled == ("site0", "site1")

    def test_zero_shot_merged_model_equals_backbone(self):
        sites = make_sites(2)
        config = fed_config(Strategy.ZERO_SHOT, 2)
        backbone = Backbone.build(MODEL_CFG)
        result = run_federation(config, sites, None, backbone)
        merged = ToyModel(backbone, result.adapters).merged
        for key in result.adapters.layers:
            assert np.array_equal(merged[key], getattr(backbone, key))
        assert result.transcripts == []

    def test_centralized_equals_single_shard_federation(self):
        sites = make_sites(1, n_examples=60)
        backbone = Backbone.build(MODEL_CFG)
        fed = run_federation(fed_config(Strategy.FEDAVG, 1), sites, None, backbone)
        cen = run_federation(fed_config(Strategy.CENTRALIZED, 1), sites, None, backbone)
        assert adapters_equal(fed.adapters, cen.adapters)


class TestInfluenceReduction:
    def test_equal_sites_make_influence_equal_fedavg_bitwise(self):
        # two clients with literally identical data produce identical local
        # updates (the shuffle seed is shared per round), hence equal
        # validation losses, hence the exact FedAvg reduction
        site = make_sites(1, n_examples=30)[0]
        from fedlora.datasim import SiteDataset
        from dataclasses import replace

        twin_spec = replace(site.spec, site_id="site1")
        twin = SiteDataset(twin_spec, site.examples)
        base_spec = replace(site.spec, site_id="site0")
        base = SiteDataset(base_spec, site.examples)

        backbone = Backbone.build(MODEL_CFG)
        val = make_validation_set(RULE, 10, seed=5).examples
        plain = run_federation(fed_config(Strategy.FEDAVG, 2), [base, twin], val, backbone)
        plus = run_federation(fed_config(Strategy.INFLUENCE, 2), [base, twin], val, backbone)
        assert adapters_equal(plain.adapters, plus.adapters)
        report = plus.transcripts[0].influence
        assert report.influences[0] == report.influences[1]

    def test_influence_weights_recorded_in_transcript(self):
        sites = make_sites(2, seed=200)
        val = make_validation_set(RULE, 10, seed=6).examples
        result = run_federation(
            fed_config(Strategy.INFLUENCE, 2), sites, val, Backbone.build(MODEL_CFG)
        )
        for transcript in result.transcripts:
            assert transcript.val_losses is not None
            assert set(transcript.weights) == {"site0", "site1"}
            assert sum(transcript.weights.values()) == pytest.approx(1.0, abs=1e-12)

    def test_influence_without_validation_set_rejected(self):
        sites = make_sites(2)
        with pytest.raises(ValueError):
            run_federation(
                fed_config(Strategy.INFLUENCE, 2), sites, None, Backbone.build(MODEL_CFG)
            )


class TestDeterminismAndIsolation:
    def test_bit_identical_reruns(self):
        sites = make_sites(3, seed=300)
        val = make_validation_set(RULE, 10, seed=7).examples
        backbone = Backbone.build(MODEL_CFG)
        config = fed_config(Strategy.INFLUENCE, 3, rounds=2, seed=17)
        one = run_federation(config, sites, val, backbone)
        two = run_federation(config, sites, val, backbone)
        assert adapters_equal(one.adapters, two.adapters)
        assert [t.checksum for t in one.transcripts] == [
            t.checksum for t in two.transcripts
        ]

    def test_backbone_untouched_by_run(self, fingerprint):
        sites = make_sites(2, seed=320)
        backbone = Backbone.build(MODEL_CFG)
        before = fingerprint(backbone)
        run_federation(fed_config(Strategy.FEDAVG, 2), sites, None, backbone)
        assert fingerprint(backbone) == before

    def test_transcript_bytes_are_serialized_adapter_bytes(self):
        sites = make_sites(2, seed=330)
        result = run_federation(
            fed_config(Strategy.FEDAVG, 2), sites, None, Backbone.build(MODEL_CFG)
        )
        expected_bytes = len(serialize_adapters(result.adapters))
        expected_params = result.adapters.param_count()
        for transcript in result.transcripts:
            for volume in list(transcript.uploads.values()) + list(
                transcript.downloads.values()
            ):
                assert volume.bytes == expected_bytes
                assert volume.params == expected_params


class TestShareA:
    def test_global_b_zero_and_a_aggregated(self):
        sites = make_sites(2, seed=400)
        result = run_federation(
            fed_config(Strategy.SHARE_A, 2), sites, None, Backbone.build(MODEL_CFG)
        )
        for key, pair in result.adapters.layers.items():
            assert np.array_equal(pair.b, np.zeros_like(pair.b))
        assert set(result.client_adapters) == {"site0", "site1"}

    def test_a_only_rule_keeps_b_local(self, monkeypatch):
        # every round's global set is a zero B and the size-weighted sum, in
        # ascending client id, of the A factors uploaded that round
        uploads = []
        real_aggregate = federation.aggregate

        def recording_aggregate(clients, weights):
            uploads.append(dict(clients))
            return real_aggregate(clients, weights)

        monkeypatch.setattr(federation, "aggregate", recording_aggregate)
        sites = [
            generate_site(SiteSpec(f"site{i}", n, dirichlet_alpha=5.0, seed=430 + i), RULE)
            for i, n in enumerate((40, 25, 33))
        ]
        result = run_federation(
            fed_config(Strategy.SHARE_A, 2, rounds=3), sites, None, Backbone.build(MODEL_CFG)
        )
        sizes = {site.spec.site_id: len(site) for site in sites}
        assert len(uploads) == len(result.transcripts) == 3
        for round_uploads, transcript in zip(uploads, result.transcripts):
            ids = sorted(round_uploads)
            assert tuple(ids) == transcript.sampled
            total = sum(sizes[cid] for cid in ids)
            layers = {}
            for key, (b, a) in round_uploads[ids[0]].layers.items():
                a_sum = np.zeros_like(a)
                for cid in ids:
                    a_sum += sizes[cid] / total * round_uploads[cid].layers[key].a
                layers[key] = AdapterPair(np.zeros_like(b), a_sum)
            expected = round_uploads[ids[0]].with_layers(layers)
            assert transcript.checksum == expected.checksum()
        for pair in result.adapters.layers.values():
            assert np.array_equal(pair.b, np.zeros_like(pair.b))
        assert result.adapters.checksum() == result.transcripts[-1].checksum

    def test_personalized_models_keep_distinct_b(self):
        sites = make_sites(2, seed=410)
        result = run_federation(
            fed_config(Strategy.SHARE_A, 2), sites, None, Backbone.build(MODEL_CFG)
        )
        b0 = result.client_adapters["site0"].layers["trunk"].b
        b1 = result.client_adapters["site1"].layers["trunk"].b
        assert not np.array_equal(b0, b1)
        a0 = result.client_adapters["site0"].layers["trunk"].a
        a1 = result.client_adapters["site1"].layers["trunk"].a
        assert np.array_equal(a0, a1)  # the shared factor is global

    def test_comm_volume_counts_a_only(self):
        sites = make_sites(2, seed=420)
        result = run_federation(
            fed_config(Strategy.SHARE_A, 2), sites, None, Backbone.build(MODEL_CFG)
        )
        expected_params = result.adapters.a_param_count()
        expected_bytes = serialized_a_size(result.adapters)
        volume = result.transcripts[0].uploads["site0"]
        assert volume.params == expected_params
        assert volume.bytes == expected_bytes


class TestSingleSite:
    def test_per_site_adapters_differ(self):
        sites = make_sites(2, seed=500, token_shift=0)
        result = run_federation(
            fed_config(Strategy.SINGLE_SITE, 2), sites, None, Backbone.build(MODEL_CFG)
        )
        assert result.adapters is None
        assert not adapters_equal(
            result.client_adapters["site0"], result.client_adapters["site1"]
        )

    def test_single_site_on_one_site_matches_centralized(self):
        sites = make_sites(1, seed=510)
        backbone = Backbone.build(MODEL_CFG)
        single = run_federation(fed_config(Strategy.SINGLE_SITE, 1), sites, None, backbone)
        central = run_federation(fed_config(Strategy.CENTRALIZED, 1), sites, None, backbone)
        assert adapters_equal(single.client_adapters["site0"], central.adapters)


class TestUnevenTasks:
    def test_all_tasks_everywhere_matches_plain_run(self):
        # a declared task set only gates which examples a site may hold;
        # declaring every task on a tagging-only site changes nothing
        sites = make_sites(2, seed=600, tasks=(Task.TAGGING,))
        declared_all = [
            SiteDataset(replace(site.spec, tasks=(Task.TAGGING, Task.RELATION)),
                        site.examples)
            for site in sites
        ]
        backbone = Backbone.build(MODEL_CFG)
        config = fed_config(Strategy.FEDAVG, 2)
        plain = run_federation(config, sites, None, backbone)
        everywhere = run_federation(config, declared_all, None, backbone)
        assert adapters_equal(plain.adapters, everywhere.adapters)

    def test_tagging_only_site_still_contributes_to_relation_head(self):
        full = make_sites(1, n_examples=40, seed=610)[0]
        tagging_only = generate_site(
            SiteSpec("site1", 40, dirichlet_alpha=5.0, seed=611, tasks=(Task.TAGGING,)),
            RULE,
        )
        backbone = Backbone.build(MODEL_CFG)
        config = fed_config(Strategy.FEDAVG, 2)
        result = run_federation(config, [full, tagging_only], None, backbone)
        # the tagging-only client never gets a relation-head gradient, so the
        # aggregate relation head is the weighted mix of one updated and one
        # unchanged copy; it must still differ from the initial adapters
        initial = backbone.init_adapters(derive_seed(config.seed, "adapter_init"))
        assert not np.array_equal(
            result.adapters.layers["rel_head"].a, initial.layers["rel_head"].a
        )

    def test_undeclared_task_rejected(self):
        site = make_sites(1, seed=620)[0]
        bad_spec = replace(site.spec, tasks=(Task.TAGGING,))
        with pytest.raises(ValueError):
            SiteDataset(bad_spec, site.examples)


class TestValidationErrors:
    def test_k_mismatch_rejected(self):
        sites = make_sites(2)
        with pytest.raises(ValueError):
            run_federation(
                fed_config(Strategy.FEDAVG, 3), sites, None, Backbone.build(MODEL_CFG)
            )

    def test_duplicate_site_ids_rejected(self):
        site = make_sites(1)[0]
        with pytest.raises(ValueError):
            run_federation(
                fed_config(Strategy.FEDAVG, 2), [site, site], None, Backbone.build(MODEL_CFG)
            )

    def test_literal_weight_mode_shrinks_aggregate(self):
        sites = make_sites(2, seed=700)
        backbone = Backbone.build(MODEL_CFG)
        literal_config = FederationConfig(
            strategy=Strategy.FEDAVG,
            clients_per_round=2,
            rounds=1,
            sgd=SGD,
            weight_mode=WeightMode.LITERAL,
            seed=11,
        )
        literal = run_federation(literal_config, sites, None, backbone)
        normalized = run_federation(fed_config(Strategy.FEDAVG, 2, rounds=1), sites, None, backbone)
        literal_norm = np.linalg.norm(literal.adapters.layers["trunk"].a)
        normalized_norm = np.linalg.norm(normalized.adapters.layers["trunk"].a)
        assert literal_norm < normalized_norm
