import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from fedlora.config import ConfigError, load_config, parse_config
from fedlora.federation import Strategy
from fedlora.model import Task

GOOD = {
    "seed": 7,
    "model": {"vocab_size": 60, "hidden": 32, "rank": 4, "alpha": 8.0},
    "sites": [
        {"site_id": "a", "n_examples": 100, "dirichlet_alpha": 0.5, "noise_rate": 0.1},
        {"site_id": "b", "n_examples": 200, "token_shift": 3, "tasks": ["tagging"]},
    ],
    "federation": {
        "strategy": "influence",
        "rounds": 2,
        "sgd": {"learning_rate": 0.2, "epochs": 2, "batch_size": 16},
    },
    "baselines": ["zero_shot", "centralized"],
    "validation": {"n_examples": 40},
    "eval": {"test_size": 50, "bootstrap": {"sample_size": 100, "reps": 10}},
    "comm": {"bytes_per_param": 4, "preset": "llama3_8b"},
}


def clone(overrides=None, drop=None):
    import copy

    raw = copy.deepcopy(GOOD)
    for path, value in (overrides or {}).items():
        node = raw
        parts = path.split(".")
        for part in parts[:-1]:
            node = node[int(part)] if part.isdigit() else node[part]
        last = parts[-1]
        if last.isdigit():
            node[int(last)] = value
        else:
            node[last] = value
    for path in drop or []:
        node = raw
        parts = path.split(".")
        for part in parts[:-1]:
            node = node[int(part)] if part.isdigit() else node[part]
        del node[parts[-1]]
    return raw


class TestParse:
    def test_good_config_parses(self):
        cfg = parse_config(clone())
        assert cfg.seed == 7
        assert cfg.model.tag_classes == 9
        assert cfg.model.relation_classes == 16
        assert cfg.federation.strategy is Strategy.INFLUENCE
        assert cfg.sites[1].tasks == (Task.TAGGING,)
        assert cfg.strategies() == [
            Strategy.INFLUENCE, Strategy.ZERO_SHOT, Strategy.CENTRALIZED,
        ]

    def test_site_seeds_derived_and_stable_under_new_sites(self):
        one = parse_config(clone())
        raw = clone()
        raw["sites"].append({"site_id": "c", "n_examples": 50})
        two = parse_config(raw)
        assert one.sites[0].seed == two.sites[0].seed
        assert one.sites[1].seed == two.sites[1].seed

    def test_with_seed_rederives_components(self):
        cfg = parse_config(clone())
        other = cfg.with_seed(99)
        assert other.seed == 99
        assert other.sites[0].seed != cfg.sites[0].seed
        assert other.model.seed != cfg.model.seed
        assert other.federation.sgd == cfg.federation.sgd

    @pytest.mark.parametrize("master", [7, 99])
    def test_with_seed_keeps_explicit_seeds(self, master):
        cfg = parse_config(
            clone({"model.seed": 999, "sites.0.seed": 12345, "federation.seed": 777})
        )
        assert (cfg.model.seed, cfg.sites[0].seed, cfg.federation.seed) == (999, 12345, 777)
        other = cfg.with_seed(master)
        assert other.seed == master
        assert other.model.seed == 999
        assert other.sites[0].seed == 12345
        assert other.federation.seed == 777
        # a site without a seed key still derives its seed from the master
        assert other.sites[1].seed == parse_config(clone({"seed": master})).sites[1].seed

    def test_with_seed_is_identity_at_the_master_seed(self):
        cfg = parse_config(clone())
        assert cfg.with_seed(cfg.seed) == cfg

    def test_unknown_top_level_key_fatal(self):
        with pytest.raises(ConfigError) as err:
            parse_config(clone({"bogus": 1}))
        assert "bogus" in str(err.value)

    def test_unknown_nested_key_fatal_with_path(self):
        raw = clone()
        raw["federation"]["momentum"] = 0.9
        with pytest.raises(ConfigError) as err:
            parse_config(raw)
        assert "federation" in str(err.value)
        assert "momentum" in str(err.value)

    def test_missing_required_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config(clone(drop=["federation.rounds"]))
        assert "rounds" in str(err.value)

    def test_bad_strategy_lists_options(self):
        with pytest.raises(ConfigError) as err:
            parse_config(clone({"federation.strategy": "fedprox"}))
        assert "fedavg" in str(err.value)

    def test_bad_type_reports_field(self):
        with pytest.raises(ConfigError) as err:
            parse_config(clone({"model.hidden": "many"}))
        assert "model.hidden" in str(err.value)

    def test_duplicate_site_ids_rejected(self):
        raw = clone()
        raw["sites"][1]["site_id"] = "a"
        with pytest.raises(ConfigError):
            parse_config(raw)

    def test_duplicate_external_site_ids_rejected(self):
        raw = clone()
        raw["external_sites"] = [
            {"site_id": "ext", "n_examples": 40, "token_shift": 1},
            {"site_id": "ext", "n_examples": 40, "token_shift": 5},
        ]
        with pytest.raises(ConfigError) as err:
            parse_config(raw)
        assert err.value.path == "<config>.external_sites"
        assert "'ext'" in err.value.message

    def test_vocab_misaligned_with_rule(self):
        with pytest.raises(ConfigError) as err:
            parse_config(clone({"model.vocab_size": 61}))
        assert "model" in str(err.value)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            parse_config(clone({"comm.preset": "gpt99"}))

    def test_rank_capped_by_tag_head(self):
        with pytest.raises(ConfigError):
            parse_config(clone({"model.rank": 12}))


class TestLoadFile:
    def test_round_trip_via_yaml(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text(yaml.safe_dump(clone()))
        cfg = load_config(str(path))
        assert cfg.seed == 7

    def test_parse_error_names_line(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("seed: 7\nmodel: {vocab_size: 60\n")
        with pytest.raises(ConfigError) as err:
            load_config(str(path))
        assert "line" in str(err.value)

    def test_merged_key_set_again_is_an_override_not_a_repeat(self, tmp_path):
        raw = clone()
        del raw["sites"]
        path = tmp_path / "merged.yaml"
        path.write_text(yaml.safe_dump(raw) + (
            "sites:\n"
            "  - &a {site_id: a, n_examples: 100, dirichlet_alpha: 0.5}\n"
            "  - {<<: *a, site_id: b, noise_rate: 0.1}\n"))
        a, b = load_config(str(path)).sites
        assert (b.site_id, b.n_examples, b.dirichlet_alpha, b.noise_rate) == ("b", 100, 0.5, 0.1)
        assert a.site_id == "a" and a.noise_rate == 0.0


# GOOD's keys by what a malformed value must be refused for
REQUIRED = [
    "seed", "model", "sites", "federation",
    "model.vocab_size", "model.hidden", "model.rank", "model.alpha",
    "sites.0.site_id", "sites.0.n_examples", "sites.1.site_id", "sites.1.n_examples",
    "federation.strategy", "federation.rounds", "federation.sgd",
    "federation.sgd.learning_rate", "federation.sgd.epochs", "federation.sgd.batch_size",
    "validation.n_examples",
]
INT_LEAVES = [
    "seed", "model.vocab_size", "model.hidden", "model.rank",
    "sites.0.n_examples", "sites.1.n_examples", "sites.1.token_shift",
    "federation.rounds", "federation.sgd.epochs", "federation.sgd.batch_size",
    "validation.n_examples", "eval.test_size", "eval.bootstrap.sample_size",
    "eval.bootstrap.reps", "comm.bytes_per_param",
]
FLOAT_LEAVES = [
    "model.alpha", "sites.0.dirichlet_alpha", "sites.0.noise_rate",
    "federation.sgd.learning_rate",
]
STR_LEAVES = ["sites.0.site_id", "sites.1.site_id", "federation.strategy", "comm.preset"]
SEEDS = ["seed", "model.seed", "sites.0.seed", "sites.1.seed", "federation.seed"]
LISTS = ["sites", "baselines", "sites.1.tasks"]
DROP = object()

MUTATIONS = st.one_of(
    st.tuples(st.sampled_from(REQUIRED), st.just(DROP)),
    st.tuples(
        st.sampled_from(INT_LEAVES),
        st.sampled_from(["seven", True, False, 2.5, None, [1], {"n": 1}]),
    ),
    st.tuples(st.sampled_from(FLOAT_LEAVES), st.sampled_from(["fast", True, None, [0.1]])),
    st.tuples(st.sampled_from(STR_LEAVES), st.sampled_from([5, True, 1.5, None, ["a"]])),
    st.tuples(
        st.sampled_from(FLOAT_LEAVES),
        # 10**400 overflows a float
        st.sampled_from([float("nan"), float("inf"), float("-inf"), 10**400]),
    ),
    st.tuples(st.sampled_from(SEEDS), st.integers(max_value=-1)),
    st.tuples(
        st.sampled_from(LISTS),
        st.one_of(st.integers(), st.floats(), st.booleans(), st.text(max_size=8)),
    ),
)


@settings(max_examples=300, deadline=None)
@given(MUTATIONS)
def test_any_malformed_config_is_a_config_error_naming_the_key(mutation):
    path, value = mutation
    raw = clone(drop=[path]) if value is DROP else clone({path: value})
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    key = [part for part in path.split(".") if not part.isdigit()][-1]
    assert key in str(err.value)
