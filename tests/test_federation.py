import itertools
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
    shard,
)
from fedlora.evaluate import evaluate_result
from fedlora.federation import (
    FederationConfig,
    FederationResult,
    Strategy,
    pool_sites,
    run_federation,
    sample_clients,
)
from fedlora import federation
from fedlora.lora import AdapterPair, serialize_adapters, serialized_a_size
from fedlora.model import (
    Backbone,
    Diverged,
    ModelConfig,
    SgdConfig,
    Task,
    ToyModel,
)
from fedlora.seeding import derive_seed
from one_lane import run_alone, train_alone

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
        result = run_alone(config, sites, None, backbone)

        initial = backbone.init_adapters(derive_seed(config.seed, "adapter_init"))
        expected = train_alone(
            ToyModel(backbone, initial),
            sites[0].packed,
            SGD,
            derive_seed(config.seed, "local", 0),
        )
        assert adapters_equal(result.adapters, expected)

    def test_two_rounds_two_clients_transcript_shape(self):
        sites = make_sites(2)
        config = fed_config(Strategy.FEDAVG, 2, rounds=2)
        result = run_alone(config, sites, None, Backbone.build(MODEL_CFG))
        assert len(result.transcripts) == 2
        for transcript in result.transcripts:
            assert transcript.sampled == ("site0", "site1")

    def test_zero_shot_merged_model_equals_backbone(self):
        sites = make_sites(2)
        config = fed_config(Strategy.ZERO_SHOT, 2)
        backbone = Backbone.build(MODEL_CFG)
        result = run_alone(config, sites, None, backbone)
        merged = ToyModel(backbone, result.adapters).merged
        for key in result.adapters.layers:
            assert np.array_equal(merged[key], getattr(backbone, key))
        assert result.transcripts == []

    def test_centralized_equals_single_shard_federation(self):
        sites = make_sites(1, n_examples=60)
        backbone = Backbone.build(MODEL_CFG)
        fed = run_alone(fed_config(Strategy.FEDAVG, 1), sites, None, backbone)
        cen = run_alone(fed_config(Strategy.CENTRALIZED, 1), sites, None, backbone)
        assert adapters_equal(fed.adapters, cen.adapters)


class TestInfluenceReduction:
    def test_equal_sites_make_influence_equal_fedavg_bitwise(self):
        # two clients with literally identical data produce identical local
        # updates (the shuffle seed is shared per round), hence equal
        # validation losses, hence the exact FedAvg reduction
        site = make_sites(1, n_examples=30)[0]
        twins = [SiteDataset(cid, site.packed) for cid in ("site0", "site1")]
        backbone = Backbone.build(MODEL_CFG)
        val = make_validation_set(RULE, 10, seed=5).packed
        plain = run_alone(fed_config(Strategy.FEDAVG, 2), twins, val, backbone)
        plus = run_alone(fed_config(Strategy.INFLUENCE, 2), twins, val, backbone)
        assert adapters_equal(plain.adapters, plus.adapters)
        report = plus.transcripts[0].influence
        assert report.influences[0] == report.influences[1]

    def test_influence_weights_recorded_in_transcript(self):
        sites = make_sites(2, seed=200)
        val = make_validation_set(RULE, 10, seed=6).packed
        result = run_alone(
            fed_config(Strategy.INFLUENCE, 2), sites, val, Backbone.build(MODEL_CFG)
        )
        for transcript in result.transcripts:
            assert transcript.val_losses is not None
            assert set(transcript.weights) == {"site0", "site1"}
            assert sum(transcript.weights.values()) == pytest.approx(1.0, abs=1e-12)

    def test_influence_without_validation_set_rejected(self):
        sites = make_sites(2)
        with pytest.raises(ValueError):
            run_alone(
                fed_config(Strategy.INFLUENCE, 2), sites, None, Backbone.build(MODEL_CFG)
            )


class TestDeterminismAndIsolation:
    def test_bit_identical_reruns(self):
        sites = make_sites(3, seed=300)
        val = make_validation_set(RULE, 10, seed=7).packed
        backbone = Backbone.build(MODEL_CFG)
        config = fed_config(Strategy.INFLUENCE, 3, rounds=2, seed=17)
        one = run_alone(config, sites, val, backbone)
        two = run_alone(config, make_sites(3, seed=300), val, backbone)
        assert adapters_equal(one.adapters, two.adapters)
        assert [t.checksum for t in one.transcripts] == [
            t.checksum for t in two.transcripts
        ]

    def test_backbone_untouched_by_run(self, fingerprint):
        sites = make_sites(2, seed=320)
        backbone = Backbone.build(MODEL_CFG)
        before = fingerprint(backbone)
        run_alone(fed_config(Strategy.FEDAVG, 2), sites, None, backbone)
        assert fingerprint(backbone) == before

    def test_transcript_bytes_are_serialized_adapter_bytes(self):
        sites = make_sites(2, seed=330)
        result = run_alone(
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
        result = run_alone(
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
        result = run_alone(
            fed_config(Strategy.SHARE_A, 2, rounds=3), sites, None, Backbone.build(MODEL_CFG)
        )
        sizes = {site.site_id: len(site) for site in sites}
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
        result = run_alone(
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
        result = run_alone(
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
        result = run_alone(
            fed_config(Strategy.SINGLE_SITE, 2), sites, None, Backbone.build(MODEL_CFG)
        )
        assert result.adapters is None
        assert not adapters_equal(
            result.client_adapters["site0"], result.client_adapters["site1"]
        )

    def test_single_site_on_one_site_matches_centralized(self):
        sites = make_sites(1, seed=510)
        backbone = Backbone.build(MODEL_CFG)
        single = run_alone(fed_config(Strategy.SINGLE_SITE, 1), sites, None, backbone)
        central = run_alone(fed_config(Strategy.CENTRALIZED, 1), sites, None, backbone)
        assert adapters_equal(single.client_adapters["site0"], central.adapters)


class TestUnevenTasks:
    def test_tagging_only_site_still_contributes_to_relation_head(self):
        full = make_sites(1, n_examples=40, seed=610)[0]
        tagging_only = generate_site(
            SiteSpec("site1", 40, dirichlet_alpha=5.0, seed=611, tasks=(Task.TAGGING,)),
            RULE,
        )
        backbone = Backbone.build(MODEL_CFG)
        config = fed_config(Strategy.FEDAVG, 2)
        result = run_alone(config, [full, tagging_only], None, backbone)
        # the tagging-only client never gets a relation-head gradient, so the
        # aggregate relation head is the weighted mix of one updated and one
        # unchanged copy; it must still differ from the initial adapters
        initial = backbone.init_adapters(derive_seed(config.seed, "adapter_init"))
        assert not np.array_equal(
            result.adapters.layers["rel_head"].a, initial.layers["rel_head"].a
        )


class TestRunTimeSiteIds:
    """The ids that evaluation rows and the round loop read off each kind
    of site the program builds."""

    @staticmethod
    def scored_ids(splits):
        """The test set names, in row order, of the zero-shot model's rows on ``splits``."""
        backbone = Backbone.build(MODEL_CFG)
        result = FederationResult(fed_config(Strategy.ZERO_SHOT, 1), backbone.init_adapters(0), [])
        (rows,) = evaluate_result([result], backbone, splits)
        return list(dict.fromkeys(row.testset for row in rows))

    def test_generated_site_keeps_its_spec_id(self):
        specs = [SiteSpec(cid, 10, seed=140 + i) for i, cid in enumerate(("clinic_b", "clinic_a"))]
        assert self.scored_ids([generate_site(spec, RULE) for spec in specs]) == [
            "clinic_b", "clinic_a"]

    def test_pooled_site_is_named_pooled_whatever_the_order(self):
        sites = make_sites(3, n_examples=10, seed=141)
        for order in itertools.permutations(sites):
            assert self.scored_ids([pool_sites(list(order))]) == ["pooled"]

    def test_shard_i_is_named_pool_id_shard_i(self):
        pool = pool_sites(make_sites(2, n_examples=24, seed=142))
        shards = shard(pool, 12, seed=3)
        ids = [f"pooled_shard{i}" for i in range(12)]
        assert self.scored_ids(shards) == ids
        result = run_alone(fed_config(Strategy.FEDAVG, 12, rounds=1), shards, None,
                           Backbone.build(MODEL_CFG))
        # the round loop orders clients by id as strings: shard10 before shard2
        assert result.transcripts[0].sampled == tuple(sorted(ids))

    def test_validation_set_is_named_validation(self):
        assert self.scored_ids([make_validation_set(RULE, 10, seed=5)]) == ["validation"]


class TestValidationErrors:
    def test_k_mismatch_rejected(self):
        sites = make_sites(2)
        with pytest.raises(ValueError):
            run_alone(
                fed_config(Strategy.FEDAVG, 3), sites, None, Backbone.build(MODEL_CFG)
            )

    def test_duplicate_site_ids_rejected(self):
        site = make_sites(1)[0]
        with pytest.raises(ValueError):
            run_alone(
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
        literal = run_alone(literal_config, sites, None, backbone)
        normalized = run_alone(fed_config(Strategy.FEDAVG, 2, rounds=1), sites, None, backbone)
        literal_norm = np.linalg.norm(literal.adapters.layers["trunk"].a)
        normalized_norm = np.linalg.norm(normalized.adapters.layers["trunk"].a)
        assert literal_norm < normalized_norm


def site_of(sites):
    """A function from a lane's pack to the id of the site that holds it;
    any other pack is the pooled one."""
    ids = {id(site.packed): site.site_id for site in sites}
    return lambda pack: ids.get(id(pack), "pooled")


def checksums(result):
    """Every set a result holds, by checksum: each round's aggregate, the
    final set and each client's."""
    return ([t.checksum for t in result.transcripts],
            result.adapters.checksum() if result.adapters else None,
            {cid: a.checksum() for cid, a in result.client_adapters.items()})


class TestLockstepRounds:
    def test_a_round_trains_its_clients_as_lanes_of_one_call(self, local_updates):
        sites = make_sites(3)
        config = fed_config(Strategy.FEDAVG, 2, rounds=3)
        result = run_alone(config, sites, None, Backbone.build(MODEL_CFG))
        name = site_of(sites)
        calls = [[name(lane.pack) for lane in local_updates if lane.call == call]
                 for call in range(config.rounds)]
        assert calls == [list(t.sampled) for t in result.transcripts]
        assert len({lane.call for lane in local_updates}) == config.rounds

    def test_strategies_train_a_round_as_one_call_in_run_order(self, local_updates):
        # round 0: every strategy but centralized starts from the initial
        # set, so one lane per site plus the pooled one; round 1: every
        # loop's own lanes, run order first, then ascending client id
        sites = make_sites(3)
        configs = [fed_config(s, 2, rounds=2) for s in
                   (Strategy.CENTRALIZED, Strategy.FEDAVG, Strategy.SINGLE_SITE)]
        results = run_federation(configs, sites, None, Backbone.build(MODEL_CFG))
        name = site_of(sites)
        calls = [[name(lane.pack) for lane in local_updates if lane.call == call]
                 for call in range(2)]
        round_zero, round_one = (list(t.sampled) for t in results[1].transcripts)
        unsampled = [cid for cid in ("site0", "site1", "site2") if cid not in round_zero]
        assert calls[0] == ["pooled", *round_zero, *unsampled]
        assert calls[1] == ["pooled", *round_one, "site0", "site1", "site2"]
        assert len({lane.call for lane in local_updates}) == 2

    def test_one_sgd_config_per_call(self):
        configs = [fed_config(Strategy.FEDAVG, 2),
                   replace(fed_config(Strategy.INFLUENCE, 2), sgd=replace(SGD, epochs=2))]
        with pytest.raises(ValueError, match="SgdConfig"):
            run_federation(configs, make_sites(2), None, Backbone.build(MODEL_CFG))

    def test_no_config_no_result(self):
        assert run_federation([], make_sites(2), None, Backbone.build(MODEL_CFG)) == []


# each variant changes one thing a round-0 update reads, keeping the sites
REUSE_VARIANTS = {
    "backbone": lambda backbone, config: (Backbone.build(MODEL_CFG), config),
    "sgd": lambda backbone, config: (
        backbone, replace(config, sgd=replace(SGD, learning_rate=0.1))
    ),
    "master seed": lambda backbone, config: (backbone, replace(config, seed=config.seed + 1)),
}


class TestRoundZeroReuse:
    def test_strategies_share_round_zero_updates(self, local_updates):
        sites = make_sites(2)
        backbone = Backbone.build(MODEL_CFG)
        val = make_validation_set(RULE, 10, seed=5).packed
        strategies = (Strategy.FEDAVG, Strategy.INFLUENCE, Strategy.SHARE_A,
                      Strategy.SINGLE_SITE)
        configs = [fed_config(s, 2, rounds=1) for s in strategies]
        results = run_federation(configs, sites, val, backbone)
        # one call, one lane per site: share_a's start is a new set of the
        # same bits, and single_site's lone-site loops ask for the same lanes
        assert [(lane.call, lane.pack) for lane in local_updates] == [
            (0, site.packed) for site in sites]
        for config, result in zip(configs, results):
            assert checksums(result) == checksums(run_alone(config, sites, val, backbone))

    @pytest.mark.parametrize("variant", list(REUSE_VARIANTS))
    def test_no_reuse_across(self, local_updates, variant):
        # nothing outlives a call: a second run on the same sites trains anew
        sites = make_sites(2)
        backbone = Backbone.build(MODEL_CFG)
        config = fed_config(Strategy.FEDAVG, 2, rounds=1)
        run_alone(config, sites, None, backbone)
        assert len(local_updates) == 2
        other_backbone, other_config = REUSE_VARIANTS[variant](backbone, config)
        result = run_alone(other_config, sites, None, other_backbone)
        assert len(local_updates) == 4
        fresh = run_alone(other_config, make_sites(2), None, other_backbone)
        assert result.adapters.checksum() == fresh.adapters.checksum()

    def test_no_reuse_across_master_seeds_in_one_call(self, local_updates):
        sites = make_sites(2)
        backbone = Backbone.build(MODEL_CFG)
        configs = [fed_config(Strategy.FEDAVG, 2, rounds=1, seed=seed) for seed in (11, 12)]
        results = run_federation(configs, sites, None, backbone)
        assert len(local_updates) == 4
        assert {lane.call for lane in local_updates} == {0}
        for config, result in zip(configs, results):
            assert checksums(result) == checksums(run_alone(config, sites, None, backbone))

    def test_no_reuse_across_local_seed_or_start(self):
        site, twin = make_sites(1)[0], make_sites(1)[0]
        model = ToyModel.build(MODEL_CFG)
        copy = model.with_adapters(model.adapters.with_layers(dict(model.adapters.layers)))
        other = model.with_adapters(model.frozen.init_adapters(99))
        lane = federation._Lane
        lanes = [lane(model, site, 1), lane(copy, site, 1), lane(model, site, 2),
                 lane(other, site, 1), lane(model, twin, 1), lane(model, site, 1)]
        # the same bits in a new set share; another seed, another start or
        # another pack (of equal data) does not
        assert federation._distinct(lanes) == ([0, 0, 1, 2, 3, 0], [0, 2, 3, 4])

    def test_divergence_names_the_client_of_its_lane(self, monkeypatch):
        # single_site runs a loop per site; site1's lane diverges, and the
        # run stops with round 0's call
        sites = make_sites(3)
        calls = []
        train = federation.local_update

        def diverge(models, dataset, sgd, seeds):
            calls.append(dataset.packs)
            if len(dataset.packs) > 1:
                raise Diverged("layer 'trunk' has non-finite adapter factors", 1)
            return train(models, dataset, sgd, seeds)

        monkeypatch.setattr(federation, "local_update", diverge)
        with pytest.raises(Diverged) as raised:
            run_alone(fed_config(Strategy.SINGLE_SITE, 1, rounds=2), sites, None,
                      Backbone.build(MODEL_CFG))
        assert raised.value.__notes__ == ["client 'site1'", "round 0", "strategy single_site"]
        packs = [site.packed for site in sites]
        assert calls == [tuple(packs)]
