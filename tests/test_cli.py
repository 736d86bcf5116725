import csv
import itertools
import json
import os
import re
import subprocess
import sys
from dataclasses import asdict, dataclass, replace

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import fedlora.cli
import fedlora.federation
from fedlora.cli import _record, _seed_run, cmd_run, main
from fedlora.config import ConfigError, load_config, parse_config
from fedlora.datasim import SiteDataset
from fedlora.federation import Strategy
from fedlora.model import Diverged, LabelRangeError, Pack, TokenRangeError

BASE_CONFIG = {
    "seed": 3,
    "model": {"vocab_size": 60, "hidden": 16, "rank": 4, "alpha": 8.0},
    "sites": [
        {"site_id": "site_a", "n_examples": 40, "dirichlet_alpha": 5.0, "noise_rate": 0.1},
        {"site_id": "site_b", "n_examples": 40, "dirichlet_alpha": 5.0, "token_shift": 3},
    ],
    "federation": {
        "strategy": "influence",
        "rounds": 2,
        "sgd": {"learning_rate": 0.2, "epochs": 1, "batch_size": 16},
    },
    "baselines": ["zero_shot", "single_site", "fedavg", "centralized"],
    "validation": {"n_examples": 10},
    "eval": {"test_size": 30, "bootstrap": {"sample_size": 30, "reps": 5}},
}


def write_config(tmp_path, raw, name="exp.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(raw))
    return str(path)


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


class TestCmdRun:
    def test_minimal_zero_shot_run(self, tmp_path):
        raw = dict(BASE_CONFIG)
        raw = json_roundtrip(raw)
        raw["sites"] = [raw["sites"][0]]
        raw["federation"] = dict(raw["federation"], strategy="zero_shot")
        raw["baselines"] = []
        config = write_config(tmp_path, raw)
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out-dir", str(out)]) == 0
        rows = read_csv(out / "results.csv")
        # 1 strategy x 1 testset x 2 tasks x 2 schemes
        assert len(rows) == 4
        assert {r["strategy"] for r in rows} == {"zero_shot"}

    def test_five_strategy_run_row_count(self, tmp_path):
        config = write_config(tmp_path, json_roundtrip(BASE_CONFIG))
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out-dir", str(out)]) == 0
        rows = read_csv(out / "results.csv")
        # 5 strategies x 2 testsets x 2 tasks x 2 schemes for one seed
        assert len(rows) == 40
        assert os.path.exists(out / "transcript.json")
        assert os.path.exists(out / "comm.csv")

    def test_run_is_byte_deterministic(self, tmp_path):
        config = write_config(tmp_path, json_roundtrip(BASE_CONFIG))
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["run", "--config", config, "--out-dir", str(out_a)]) == 0
        assert main(["run", "--config", config, "--out-dir", str(out_b)]) == 0
        for name in ("results.csv", "transcript.json", "comm.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_multiple_seeds_multiply_rows(self, tmp_path):
        config = write_config(tmp_path, json_roundtrip(BASE_CONFIG))
        out = tmp_path / "out"
        assert main(
            ["run", "--config", config, "--out-dir", str(out), "--seeds", "1,2"]
        ) == 0
        rows = read_csv(out / "results.csv")
        assert len(rows) == 80
        assert {r["seed"] for r in rows} == {"1", "2"}

    def test_comm_csv_schema(self, tmp_path):
        config = write_config(tmp_path, json_roundtrip(BASE_CONFIG))
        out = tmp_path / "out"
        main(["run", "--config", config, "--out-dir", str(out)])
        rows = read_csv(out / "comm.csv")
        assert list(rows[0]) == [
            "seed", "strategy", "round", "client", "direction", "params", "bytes",
        ]
        for row in rows:
            assert int(row["bytes"]) == int(row["params"]) * 4

    def test_invalid_config_exits_2(self, tmp_path):
        raw = json_roundtrip(BASE_CONFIG)
        raw["federation"]["strategy"] = "sgd"
        config = write_config(tmp_path, raw)
        assert main(["run", "--config", config, "--out-dir", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize(
        "field, value",
        [
            ("baselines", 5),
            ("external_sites", 5),
            ("federation.sgd.learning_rate", float("nan")),
            ("model.alpha", float("inf")),
            ("sites[0].dirichlet_alpha", float("nan")),
            ("model.seed", -5),
            ("sites[0].seed", -1),
            ("federation.clients_per_round", 3),
            # range checks inside the config dataclasses
            ("federation.clients_per_round", 0),
            ("federation.rounds", 0),
            ("federation.sgd.batch_size", 0),
            ("federation.sgd.epochs", 0),
            ("federation.sgd.learning_rate", -0.1),
            ("model.hidden", 0),
            ("model.rank", 0),
            ("model.rank", 40),
            ("model.alpha", -1.0),
            ("model.vocab_size", 5),
            ("sites[0].n_examples", 0),
            ("sites[0].noise_rate", 1.5),
            ("sites[0].dirichlet_alpha", 0.0),
            ("validation.n_examples", 0),
            ("eval.test_size", 0),
            ("eval.bootstrap.sample_size", 0),
            ("eval.bootstrap.reps", 0),
            ("eval.bootstrap.level", 1.0),
        ],
    )
    def test_malformed_value_exits_2_naming_field(self, tmp_path, capsys, field, value):
        raw = json_roundtrip(BASE_CONFIG)
        *parents, key = field.replace("[0]", ".0").split(".")
        node = raw
        for part in parents:
            node = node[int(part)] if part.isdigit() else node[part]
        node[key] = value
        config = write_config(tmp_path, raw)
        assert main(["run", "--config", config, "--out-dir", str(tmp_path / "o")]) == 2
        assert f"{config}.{field}: " in capsys.readouterr().err

    def test_site_order_never_matters(self, tmp_path):
        raw = json_roundtrip(BASE_CONFIG)
        raw["sites"].append({"site_id": "site_c", "n_examples": 30, "tasks": ["tagging"]})
        raw["federation"]["clients_per_round"] = 2
        raw["baselines"] = ["zero_shot", "single_site", "fedavg", "centralized", "share_a"]
        outputs = []
        for i, order in enumerate(itertools.permutations(raw["sites"])):
            config = write_config(tmp_path, dict(raw, sites=list(order)), name=f"{i}.yaml")
            out = tmp_path / str(i)
            assert main(["run", "--config", config, "--out-dir", str(out)]) == 0
            outputs.append((
                (out / "transcript.json").read_bytes(),
                (out / "comm.csv").read_bytes(),
                sorted(tuple(row.items()) for row in read_csv(out / "results.csv")),
            ))
        assert len(outputs) == 6
        assert all(output == outputs[0] for output in outputs)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_exits_3_naming_where(self, tmp_path, capsys):
        with open(os.path.join(os.path.dirname(__file__), "..", "configs", "two_site.yaml")) as f:
            raw = yaml.safe_load(f)
        for site in raw["sites"]:
            site["n_examples"] = 200
        raw["federation"]["sgd"]["learning_rate"] = 500
        raw["eval"]["test_size"] = 20
        config = write_config(tmp_path, raw)
        assert main(["run", "--config", config, "--out-dir", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        pattern = r"seed 1, strategy influence, round 0, client 'site_a', step \d+: layer '\w+'"
        assert re.search(pattern, err), err
        assert err.count("\n") == 1, err
        assert not (tmp_path / "o").exists()

    def test_malformed_yaml_exits_2_naming_line_and_column(self, tmp_path, capsys):
        config = tmp_path / "bad.yaml"
        config.write_text("seed: 3\nmodel: {vocab_size: 60}\nsites: a: b\n")
        assert main(["run", "--config", str(config), "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {config}: YAML parse error at line 3, column 9: "), err

    @pytest.mark.parametrize("after, repeat, key", [
        ("seed: 1\n", "seed: 2\n", "seed"),
        ("  rounds: 2\n", "  rounds: 5\n", "rounds"),
        ("    n_examples: 2000\n", "    n_examples: 30\n", "n_examples"),
    ], ids=["top level", "federation", "site"])
    def test_repeated_key_exits_2_naming_line_and_key(self, tmp_path, capsys, after, repeat,
                                                       key):
        # PyYAML alone keeps the last of two equal keys of one mapping
        with open(os.path.join(os.path.dirname(__file__), "..", "configs", "two_site.yaml")) as f:
            text = f.read()
        head, tail = text.split(after, 1)
        config = tmp_path / "repeated.yaml"
        config.write_text(head + after + repeat + tail)
        line = (head + after).count("\n") + 1
        column = len(repeat) - len(repeat.lstrip()) + 1
        assert main(["run", "--config", str(config), "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"config error: {config}: YAML parse error at line {line}, column {column}: "), err
        assert f"duplicate key '{key}'" in err, err
        assert not (tmp_path / "o").exists()

    def test_run_never_imports_numpy_ma(self, tmp_path):
        # np.percentile imports numpy.ma (about 12 ms and 1 MB) on first use;
        # the bootstrap reproduces its rule without it
        config = write_config(tmp_path, json_roundtrip(BASE_CONFIG))
        script = ("import sys\nfrom fedlora.cli import main\n"
                  "code = main(['run', '--config', sys.argv[1], '--out-dir', sys.argv[2]])\n"
                  "print(code, 'numpy.ma' in sys.modules)")
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
        paths = [src, os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
        proc = subprocess.run([sys.executable, "-c", script, config, str(tmp_path / "o")],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 False"

    def test_missing_config_file_exits_3(self, tmp_path):
        assert main(
            ["run", "--config", str(tmp_path / "nope.yaml"), "--out-dir", str(tmp_path)]
        ) == 3

    @pytest.mark.parametrize("name, where", [
        ("influence_report", "round 0"),
        ("validation_loss", "round 0, client 'site_a'"),
    ])
    def test_round_loop_failure_exits_3_naming_where(
        self, tmp_path, capsys, monkeypatch, name, where
    ):
        def overflow(*args, **kwargs):
            raise OverflowError("math range error")

        monkeypatch.setattr(fedlora.federation, name, overflow)
        config = write_config(tmp_path, json_roundtrip(BASE_CONFIG))
        assert main(["run", "--config", config, "--out-dir", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert err == f"error: seed 3, strategy influence, {where}: math range error\n"

    def test_config_error_in_round_loop_exits_2_naming_where(
        self, tmp_path, capsys, monkeypatch
    ):
        def unknown_mode(*args, **kwargs):
            raise ConfigError("federation.weight_mode", "unknown mode")

        monkeypatch.setattr(fedlora.federation, "size_weights", unknown_mode)
        config = write_config(tmp_path, json_roundtrip(BASE_CONFIG))
        assert main(["run", "--config", config, "--out-dir", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err == (
            "config error: seed 3, strategy single_site, round 0: "
            "federation.weight_mode: unknown mode\n"
        )


TRAINED = ["influence", "fedavg", "share_a", "single_site", "centralized"]


@st.composite
def tiny_configs(draw):
    """A tiny config that runs every strategy, in a drawn order."""
    n_sites = draw(st.integers(1, 3))
    sites = [
        {
            "site_id": f"site_{i}",
            "n_examples": draw(st.integers(4, 16)),
            "dirichlet_alpha": 5.0,
            "noise_rate": draw(st.sampled_from([0.0, 0.2])),
            "token_shift": draw(st.integers(0, 3)),
        }
        for i in range(n_sites)
    ]
    strategies = draw(st.permutations(TRAINED))
    return parse_config({
        "seed": draw(st.integers(0, 1000)),
        "model": {"vocab_size": 20, "hidden": 8, "rank": 2, "alpha": 4.0},
        "sites": sites,
        "federation": {
            "strategy": strategies[0],
            "rounds": draw(st.integers(1, 3)),
            "clients_per_round": draw(st.integers(1, n_sites)),
            "sgd": {
                "learning_rate": 0.1,
                "epochs": draw(st.integers(1, 2)),
                "batch_size": draw(st.integers(2, 8)),
            },
        },
        "baselines": ["zero_shot", *strategies[1:]],
        "validation": {"n_examples": 4},
        "eval": {"test_size": 6, "bootstrap": {"sample_size": 6, "reps": 2}},
    })


def outcome(result, metric_rows) -> str:
    """Everything ``run`` writes of one strategy, plus its client sets."""
    return repr((
        [asdict(row) for row in metric_rows],
        [asdict(t) for t in result.transcripts],
        result.adapters.checksum() if result.adapters else None,
        sorted((cid, a.checksum()) for cid, a in result.client_adapters.items()),
    ))


class TestRoundZeroReuse:
    @settings(max_examples=12, deadline=None)
    @given(config=tiny_configs())
    def test_shared_updates_match_each_strategy_alone(self, config):
        cfg, sites, train_and_score = _seed_run(config, config.seed)
        fed_cfgs = [replace(cfg.federation, strategy=s) for s in cfg.strategies()]
        together = [outcome(*scored) for scored in train_and_score(fed_cfgs, sites)]
        for fed_cfg, shared in zip(fed_cfgs, together):
            ((result, rows),) = train_and_score([fed_cfg], sites)
            assert outcome(result, rows) == shared, fed_cfg.strategy

    def test_headline_seed_trains_ten_local_updates(self, tmp_path, local_updates):
        config = load_config(os.path.join(os.path.dirname(__file__), "..", "configs", "two_site.yaml"))
        assert cmd_run(config, str(tmp_path), [1]) == 0
        # influence, fedavg, single_site (one loop per site) and centralized
        # train 2 rounds each, 14 updates.  Round 0 trains each site once
        # for the first four, plus the pooled data: 3 lanes.  Round 1 trains
        # each loop's own: 7 lanes
        calls = [lane.call for lane in local_updates]
        assert [calls.count(call) for call in sorted(set(calls))] == [3, 7]
        keys = {
            (lane.model.adapters.checksum(), id(lane.pack), lane.seed) for lane in local_updates
        }
        assert len(keys) == 10


def diverging_update(lanes_to_fail):
    """``local_update`` that trains for real, but raises ``Diverged`` at the
    lowest lane that ``lanes_to_fail(call, packs)`` names, as the real one
    raises at the lowest lane that diverged at its first diverging step."""
    train = fedlora.federation.local_update
    calls = []

    def update(models, dataset, sgd, seeds):
        calls.append(len(dataset.packs))
        failing = lanes_to_fail(len(calls) - 1, dataset.packs)
        if failing:
            err = Diverged("layer 'trunk' has non-finite adapter factors", min(failing))
            err.add_note("step 7")
            raise err
        return train(models, dataset, sgd, seeds)

    return update, calls


def pooled(call, packs):
    """The lanes on the pooled data: 80 examples, against a site's 40."""
    return [lane for lane, pack in enumerate(packs) if len(pack) == 80]


class TestRunOrder:
    """Strategies train together, and a seed's run stops at the first error
    it meets: round by round, the training call first, then each strategy's
    own work in run order (influence, zero_shot, single_site, fedavg,
    centralized).  No call follows the first error."""

    def run(self, tmp_path, monkeypatch, lanes_to_fail):
        update, calls = diverging_update(lanes_to_fail)
        monkeypatch.setattr(fedlora.federation, "local_update", update)
        config = write_config(tmp_path, json_roundtrip(BASE_CONFIG))
        code = main(["run", "--config", config, "--out-dir", str(tmp_path / "o")])
        return code, calls

    def test_earlier_round_diverging_is_named(self, tmp_path, capsys, monkeypatch):
        # centralized (80 pooled examples) would diverge in round 0,
        # influence's site_b lane (lane 1 of round 1's call) in round 1
        def fail(call, packs):
            return pooled(call, packs) if call == 0 else [1] if call == 1 else []

        code, calls = self.run(tmp_path, monkeypatch, fail)
        assert code == 3
        assert capsys.readouterr().err == (
            "error: seed 3, strategy centralized, round 0, client 'pooled', step 7: "
            "layer 'trunk' has non-finite adapter factors\n")
        # round 0's call is the last
        assert calls == [3]

    def test_two_strategies_diverging_in_one_call_name_the_lowest_lane(
        self, tmp_path, capsys, monkeypatch
    ):
        # round 0's call trains site_a, site_b (influence's lanes first, and
        # single_site's and fedavg's alike) and pooled; site_b and pooled diverge
        def fail(call, packs):
            return [1] + pooled(call, packs) if call == 0 else []

        code, calls = self.run(tmp_path, monkeypatch, fail)
        assert code == 3
        assert capsys.readouterr().err == (
            "error: seed 3, strategy influence, round 0, client 'site_b', step 7: "
            "layer 'trunk' has non-finite adapter factors\n")
        assert calls == [3]

    def test_later_strategy_diverging_alone_is_named(self, tmp_path, capsys, monkeypatch):
        code, calls = self.run(tmp_path, monkeypatch, pooled)
        assert code == 3
        assert capsys.readouterr().err == (
            "error: seed 3, strategy centralized, round 0, client 'pooled', step 7: "
            "layer 'trunk' has non-finite adapter factors\n")
        # no strategy trains on after round 0's call
        assert calls == [3]

    def test_earlier_strategy_error_of_another_kind_is_named(
        self, tmp_path, capsys, monkeypatch
    ):
        # influence's scoring of round 1's updates is the first error met
        score = fedlora.federation.validation_loss
        scored = []

        def overflow_in_round_one(*args):
            scored.append(args)
            if len(scored) > 2:
                raise OverflowError("math range error")
            return score(*args)

        monkeypatch.setattr(fedlora.federation, "validation_loss", overflow_in_round_one)
        code, calls = self.run(tmp_path, monkeypatch, lambda call, packs: [])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: seed 3, strategy influence, round 1, client 'site_a': math range error\n")
        # influence raises before the other strategies aggregate round 1
        assert calls == [3, 7]

    def test_call_error_of_another_kind_names_its_round(self, tmp_path, capsys, monkeypatch):
        # round 1's call, which holds centralized's lane, raises; the call
        # holds every strategy's lanes, so no strategy is named
        train = fedlora.federation.local_update
        calls = []

        def broken(models, dataset, sgd, seeds):
            calls.append(len(dataset.packs))
            if len(calls) > 1 and pooled(None, dataset.packs):
                raise RuntimeError("out of lanes")
            return train(models, dataset, sgd, seeds)

        monkeypatch.setattr(fedlora.federation, "local_update", broken)
        config = write_config(tmp_path, json_roundtrip(BASE_CONFIG))
        assert main(["run", "--config", config, "--out-dir", str(tmp_path / "o")]) == 3
        assert capsys.readouterr().err == "error: seed 3, round 1: out of lanes\n"
        assert calls == [3, 7]


def corrupt_first_split(monkeypatch, maker, field, value):
    """Make ``fedlora.cli``'s ``maker`` set, in the first split it returns,
    the last entry of its pack's array ``field`` to ``value``; the pack is
    rebuilt, so its ranges measure the corrupted array.  Returns the list
    that receives the corrupted split's site id."""
    make = getattr(fedlora.cli, maker)
    corrupted = []

    def make_corrupted(*args, **kwargs):
        split = make(*args, **kwargs)
        if corrupted:
            return split
        p = split.packed
        arrays = {"tokens": p.tokens, "tags": p.tags, "relations": p.relations}
        arrays[field] = arrays[field].copy()
        arrays[field][-1] = value
        corrupted.append(split.site_id)
        return SiteDataset(split.site_id, Pack.build(p.tagging, arrays["tokens"],
                                                     np.diff(p.starts), arrays["tags"], p.heads,
                                                     p.tails, arrays["relations"]))

    monkeypatch.setattr(fedlora.cli, maker, make_corrupted)
    return corrupted


MAKERS = ["generate_site", "make_validation_set", "make_test_split"]


class TestTokenRange:
    @pytest.mark.parametrize("maker", MAKERS)
    def test_out_of_range_token_fails_before_any_training_step(
        self, tmp_path, monkeypatch, local_updates, maker
    ):
        # one token past the vocabulary in the first training site, the
        # validation set or the first test split
        vocab = BASE_CONFIG["model"]["vocab_size"]
        corrupted = corrupt_first_split(monkeypatch, maker, "tokens", vocab)
        config = parse_config(json_roundtrip(BASE_CONFIG))
        with pytest.raises(TokenRangeError, match=f"token id {vocab} out of range"):
            cmd_run(config, str(tmp_path / "out"), [config.seed])
        assert corrupted and local_updates == []

    @pytest.mark.parametrize("maker", MAKERS)
    @pytest.mark.parametrize("kind", ["tag", "relation"])
    def test_out_of_range_label_fails_before_any_training_step(
        self, tmp_path, monkeypatch, local_updates, maker, kind
    ):
        # one label past the model's classes; as a bincount key, a tag past
        # the last class would land in the next token's row unnoticed
        config = parse_config(json_roundtrip(BASE_CONFIG))
        classes = getattr(config.model, f"{kind}_classes")
        corrupted = corrupt_first_split(monkeypatch, maker, f"{kind}s", classes)
        with pytest.raises(LabelRangeError, match=f"{kind} label {classes} out of range"):
            cmd_run(config, str(tmp_path / "out"), [config.seed])
        assert corrupted and local_updates == []


class TestCmdUneven:
    def test_uneven_run_reports_all_tasks(self, tmp_path):
        raw = json_roundtrip(BASE_CONFIG)
        raw["sites"][1]["tasks"] = ["tagging"]
        raw["baselines"] = ["zero_shot"]
        config = write_config(tmp_path, raw)
        out = tmp_path / "out"
        assert main(["uneven", "--config", config, "--out-dir", str(out)]) == 0
        rows = read_csv(out / "results.csv")
        tasks = {(r["testset"], r["task"]) for r in rows}
        assert ("site_b", "relation") in tasks  # evaluated even without training data
        # uneven is an alias of run: same outputs, byte for byte
        out_run = tmp_path / "out_run"
        assert main(["run", "--config", config, "--out-dir", str(out_run)]) == 0
        for name in ("results.csv", "transcript.json", "comm.csv"):
            assert (out / name).read_bytes() == (out_run / name).read_bytes()


@dataclass(frozen=True)
class Inner:
    a: int
    b: int | None = None


@dataclass(frozen=True)
class Outer:
    inner: Inner
    items: tuple[Inner, ...]
    note: str | None = None


class Plain:
    def __init__(self):
        self.a = 1


class TestTranscriptRecords:
    """``transcript.json`` writes its records through ``_record``, json's
    ``default`` hook, instead of copying them into dicts first."""

    def test_none_fields_of_nested_records_are_left_out(self):
        record = Outer(Inner(1), (Inner(2, 3), Inner(4, None)))
        text = json.dumps({"rounds": [record]}, default=_record, sort_keys=True)
        assert json.loads(text) == {
            "rounds": [{"inner": {"a": 1}, "items": [{"a": 2, "b": 3}, {"a": 4}]}]
        }

    def test_round_records_write_as_their_asdict_copies_did(self):
        cfg, sites, train_and_score = _seed_run(parse_config(json_roundtrip(BASE_CONFIG)), 3)
        fed_cfgs = [replace(cfg.federation, strategy=s) for s in cfg.strategies()]
        rounds = [t for result, _ in train_and_score(fed_cfgs, sites) for t in result.transcripts]
        # influence rounds carry nested records; fedavg rounds leave two fields None
        assert any(t.influence for t in rounds) and any(t.val_losses is None for t in rounds)
        copies = [{k: v for k, v in asdict(t).items() if v is not None} for t in rounds]
        assert json.dumps(rounds, sort_keys=True, indent=2, default=_record) == json.dumps(
            copies, sort_keys=True, indent=2
        )

    @pytest.mark.parametrize("value", [np.int64(1), Strategy.FEDAVG, Plain(), Inner],
                             ids=["numpy_int", "enum_member", "plain_object", "record_type"])
    def test_any_other_object_raises_naming_its_type(self, value):
        name = type(value).__name__
        with pytest.raises(TypeError, match=f"^Object of type {name} is not JSON serializable$"):
            json.dumps({"rounds": [value]}, default=_record)


class TestCommPreset:
    def test_preset_counts_clients_per_round(self, tmp_path):
        raw = json_roundtrip(BASE_CONFIG)
        raw["sites"].append({"site_id": "site_c", "n_examples": 40})
        raw["federation"]["clients_per_round"] = 2
        raw["baselines"] = []
        raw["comm"] = {"preset": "llama3_8b"}
        config = write_config(tmp_path, raw)
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out-dir", str(out)]) == 0
        rows = read_csv(out / "comm_preset.csv")
        assert [row["sites"] for row in rows] == ["2"]
        # two sampled clients move adapters each round, one site stays idle
        comm = read_csv(out / "comm.csv")
        for rnd in range(raw["federation"]["rounds"]):
            clients = {r["client"] for r in comm if r["round"] == str(rnd)}
            assert len(clients) == 2


class TestCmdScaleStudy:
    def test_scale_rows(self, tmp_path):
        raw = json_roundtrip(BASE_CONFIG)
        raw["sites"] = [raw["sites"][0]]
        raw["eval"]["test_size"] = 20
        config = write_config(tmp_path, raw)
        out = tmp_path / "out"
        assert main(
            [
                "scale-study", "--config", config, "--out-dir", str(out),
                "--k", "1,2", "--seeds", "1",
            ]
        ) == 0
        rows = read_csv(out / "scale.csv")
        # k in {1,2} x 3 strategies x 1 testset x 2 tasks x 2 schemes
        assert len(rows) == 24
        assert {r["k"] for r in rows} == {"1", "2"}

    def test_external_sites_scored(self, tmp_path):
        raw = json_roundtrip(BASE_CONFIG)
        raw["external_sites"] = [{"site_id": "ext", "n_examples": 40, "token_shift": 5}]
        raw["eval"]["test_size"] = 20
        config = write_config(tmp_path, raw)
        out = tmp_path / "out"
        argv = ["scale-study", "--config", config, "--out-dir", str(out), "--k", "1,2",
                "--seeds", "1"]
        assert main(argv) == 0
        rows = read_csv(out / "scale.csv")
        # k in {1,2} x 3 strategies x 3 testsets x 2 tasks x 2 schemes
        assert len(rows) == 72
        assert sum(r["testset"] == "ext" for r in rows) == 24

    def test_k1_influence_equals_centralized(self, tmp_path):
        raw = json_roundtrip(BASE_CONFIG)
        raw["sites"] = [raw["sites"][0]]
        config = write_config(tmp_path, raw)
        out = tmp_path / "out"
        main(["scale-study", "--config", config, "--out-dir", str(out), "--k", "1"])
        rows = read_csv(out / "scale.csv")
        influence = {
            (r["testset"], r["task"], r["scheme"]): r["f1"]
            for r in rows if r["strategy"] == "influence"
        }
        central = {
            (r["testset"], r["task"], r["scheme"]): r["f1"]
            for r in rows if r["strategy"] == "centralized"
        }
        assert influence == central


class TestCmdCompare:
    def test_self_comparison_gives_p_one(self, tmp_path):
        config = write_config(tmp_path, json_roundtrip(BASE_CONFIG))
        out = tmp_path / "out"
        main(["run", "--config", config, "--out-dir", str(out), "--seeds", "1,2,3"])
        cmp_dir = tmp_path / "cmp"
        assert main(
            [
                "compare", str(out / "results.csv"), str(out / "results.csv"),
                "--out-dir", str(cmp_dir),
            ]
        ) == 0
        rows = read_csv(cmp_dir / "compare.csv")
        assert rows
        assert list(rows[0]) == [
            "strategy", "testset", "task", "scheme", "n_a", "n_b", "p_value",
        ]
        for row in rows:
            assert float(row["p_value"]) == 1.0

    def test_key_mismatch_errors(self, tmp_path):
        config = write_config(tmp_path, json_roundtrip(BASE_CONFIG))
        out = tmp_path / "out"
        main(["run", "--config", config, "--out-dir", str(out)])
        raw = json_roundtrip(BASE_CONFIG)
        raw["baselines"] = []
        other_config = write_config(tmp_path, raw, name="other.yaml")
        out_b = tmp_path / "out_b"
        main(["run", "--config", other_config, "--out-dir", str(out_b)])
        code = main(
            [
                "compare", str(out / "results.csv"), str(out_b / "results.csv"),
                "--out-dir", str(tmp_path / "cmp"),
            ]
        )
        assert code == 3

    def test_separated_samples_significant(self, tmp_path):
        fields = ["strategy", "testset", "task", "scheme",
                  "precision", "recall", "f1", "ci_lo", "ci_hi", "seed"]

        def write_results(path, f1s):
            with open(path, "w", newline="") as handle:
                writer = csv.writer(handle)
                writer.writerow(fields)
                for i, f1 in enumerate(f1s):
                    writer.writerow(
                        ["fedavg", "s0", "tagging", "strict", f1, f1, f1, "", "", i]
                    )

        a_path = tmp_path / "a.csv"
        b_path = tmp_path / "b.csv"
        write_results(a_path, [0.9, 0.91, 0.92, 0.93, 0.94, 0.95])
        write_results(b_path, [0.1, 0.11, 0.12, 0.13, 0.14, 0.15])
        cmp_dir = tmp_path / "cmp"
        assert main(["compare", str(a_path), str(b_path), "--out-dir", str(cmp_dir)]) == 0
        rows = read_csv(cmp_dir / "compare.csv")
        assert float(rows[0]["p_value"]) < 0.05

    @pytest.mark.parametrize("text", ["a,b\n1,2\n", "strategy,testset,task,scheme\n", ""])
    def test_missing_columns_exit_2_naming_file(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        assert main(["compare", str(bad), str(bad), "--out-dir", str(tmp_path / "cmp")]) == 2
        err = capsys.readouterr().err
        assert f"config error: {bad}: missing columns [" in err
        assert "'f1'" in err
        assert not (tmp_path / "cmp").exists()


class TestCmdCommReport:
    def test_headline_numbers_on_stdout(self, tmp_path, capsys):
        assert main(["comm-report", "--preset", "llama3_8b", "--rounds", "2",
                     "--sites", "2,3", "--out-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "29.92" in out
        assert "99.48" in out
        assert "1.25" in out
        assert "1.88" in out
        assert "239" in out
        assert "359" in out
        rows = read_csv(tmp_path / "comm_report.csv")
        assert len(rows) == 2

    def test_unknown_preset_exits_2(self):
        assert main(["comm-report", "--preset", "nope"]) == 2


class TestListFlags:
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["run", "--seeds", ","], "--seeds"),
            (["run", "--seeds", "a"], "--seeds"),
            (["run", "--seeds", "1,-1"], "--seeds"),
            (["scale-study", "--k", ","], "--k"),
            (["scale-study", "--k", "0"], "--k"),
            (["scale-study", "--k", "1,x"], "--k"),
            (["comm-report", "--sites", ","], "--sites"),
            (["comm-report", "--sites", "2,x"], "--sites"),
            (["comm-report", "--sites", "0,2"], "--sites"),
            (["comm-report", "--rounds", "0"], "--rounds"),
            (["scale-study", "--k", "1,81"], "--k"),  # BASE_CONFIG pools 80 examples
        ],
    )
    def test_bad_value_exits_2_naming_flag(self, tmp_path, capsys, argv, flag):
        out = tmp_path / "o"
        if argv[0] != "comm-report":
            argv = argv + ["--config", write_config(tmp_path, BASE_CONFIG)]
        assert main(argv + ["--out-dir", str(out)]) == 2
        captured = capsys.readouterr()
        assert f"config error: {flag}: " in captured.err
        assert captured.out == ""
        assert not out.exists()


def json_roundtrip(raw):
    return json.loads(json.dumps(raw))
