import csv
import itertools
import json
import os
import re

import pytest
import yaml

from fedlora.cli import main

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

    def test_missing_config_file_exits_3(self, tmp_path):
        assert main(
            ["run", "--config", str(tmp_path / "nope.yaml"), "--out-dir", str(tmp_path)]
        ) == 3


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


def json_roundtrip(raw):
    return json.loads(json.dumps(raw))
