"""Self-tests of the benchmark.  Run with: python3 -m pytest perfbench"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys

import pytest
import yaml

import checks
import run
import spans
import workloads

ROOT = run.ROOT
sys.path.insert(0, os.path.join(ROOT, "src"))

TINY = {
    "seed": 3,
    "model": {"vocab_size": 60, "hidden": 16, "rank": 4, "alpha": 8.0},
    "sites": [
        {"site_id": "site_a", "n_examples": 30, "dirichlet_alpha": 5.0},
        {"site_id": "site_b", "n_examples": 30, "dirichlet_alpha": 5.0, "token_shift": 3},
    ],
    "federation": {
        "strategy": "influence",
        "rounds": 2,
        "sgd": {"learning_rate": 0.2, "epochs": 1, "batch_size": 16},
    },
    "baselines": ["share_a", "fedavg"],
    "validation": {"n_examples": 10},
    "eval": {"test_size": 20, "bootstrap": {"sample_size": 20, "reps": 5}},
}
TINY_ROWS = 3 * 2 * 2 * 2  # strategies x testsets x tasks x schemes


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    from fedlora.cli import main
    from fedlora.config import load_config

    import child

    base = tmp_path_factory.mktemp("tiny")
    config = base / "tiny.yaml"
    config.write_text(yaml.safe_dump(TINY))
    out = base / "out"
    exit_code = main(["run", "--config", str(config), "--out-dir", str(out)])
    return exit_code, out, child._layout(load_config(str(config)))


@pytest.fixture
def outputs(tiny_run, tmp_path):
    exit_code, out, layout = tiny_run
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    return exit_code, copy, layout


def _rewrite_csv(path, edit):
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    fields = list(rows[0])
    edit(rows)
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


class TestChecker:
    def test_real_outputs_pass(self, outputs):
        exit_code, out, layout = outputs
        assert exit_code == 0
        assert checks.check_run(exit_code, str(out), TINY_ROWS, 4, layout) == []
        assert checks.wire_bytes(str(out)) > 0
        assert set(checks.f1_means(str(out))) == {"strict", "lenient"}

    def test_rejects_nonzero_exit(self, outputs):
        _, out, layout = outputs
        assert checks.check_run(3, str(out), TINY_ROWS, 4, layout) == ["exit code 3"]

    def test_rejects_tampered_comm_row(self, outputs):
        _, out, layout = outputs

        def tamper(rows):
            rows[1]["bytes"] = str(int(rows[1]["bytes"]) + 1)

        _rewrite_csv(out / "comm.csv", tamper)
        problems = checks.check_run(0, str(out), TINY_ROWS, 4, layout)
        assert len(problems) == 1 and problems[0].startswith("comm.csv row 1")

    def test_rejects_miscounted_params(self, outputs):
        # bytes still equal params x 4, so only the layout count can catch it
        _, out, layout = outputs

        def tamper(rows):
            rows[2]["params"] = str(int(rows[2]["params"]) + 1)
            rows[2]["bytes"] = str(int(rows[2]["params"]) * 4)

        _rewrite_csv(out / "comm.csv", tamper)
        problems = checks.check_run(0, str(out), TINY_ROWS, 4, layout)
        assert len(problems) == 1 and problems[0].startswith("comm.csv row 2: params")

    def test_rejects_transcript_params_off_the_layout(self, outputs):
        _, out, layout = outputs
        path = out / "transcript.json"
        data = json.loads(path.read_text())
        fedavg = next(r for r in data["runs"] if r["strategy"] == "fedavg")
        client = sorted(fedavg["rounds"][1]["downloads"])[0]
        fedavg["rounds"][1]["downloads"][client]["params"] = layout["a_params"]
        path.write_text(json.dumps(data))
        problems = checks.check_run(0, str(out), TINY_ROWS, 4, layout)
        assert len(problems) == 1 and "fedavg round 1 downloads" in problems[0]

    def test_rejects_f1_outside_unit_interval(self, outputs):
        _, out, layout = outputs

        def tamper(rows):
            rows[0]["f1"] = "1.5"

        _rewrite_csv(out / "results.csv", tamper)
        assert checks.check_run(0, str(out), TINY_ROWS, 4, layout) == [
            "results.csv row 0: f1 1.5 outside [0, 1]"
        ]

    def test_rejects_wrong_row_count(self, outputs):
        _, out, layout = outputs
        problems = checks.check_run(0, str(out), TINY_ROWS + 4, 4, layout)
        assert problems == [f"results.csv: {TINY_ROWS} rows, expected {TINY_ROWS + 4}"]

    def test_rejects_transcript_size_off_the_layout(self, outputs):
        _, out, layout = outputs
        path = out / "transcript.json"
        data = json.loads(path.read_text())
        share_a = next(r for r in data["runs"] if r["strategy"] == "share_a")
        client = sorted(share_a["rounds"][0]["uploads"])[0]
        share_a["rounds"][0]["uploads"][client]["bytes"] = layout["full"]
        path.write_text(json.dumps(data))
        problems = checks.check_run(0, str(out), TINY_ROWS, 4, layout)
        assert len(problems) == 1 and "share_a round 0 uploads" in problems[0]

    def test_digests_see_a_changed_byte(self, outputs):
        _, out, _ = outputs
        before = checks.digests(str(out))
        with open(out / "transcript.json", "a") as handle:
            handle.write(" ")
        after = checks.digests(str(out))
        assert [name for name in before if before[name] != after[name]] == ["transcript.json"]


def _trace(span_list, counters=None, calls=None):
    names = {s[spans.NAME] for s in span_list}
    return spans.Trace({
        "spans": span_list,
        "counters": counters or {},
        "calls": calls if calls is not None else {n: 1 for n in names},
    })


class TestSpans:
    def test_self_time_of_nested_spans(self):
        trace = _trace([
            [0, -1, "a", 0.0, 10.0],
            [1, 0, "b", 1.0, 3.0],
            [2, 0, "c", 2.0, 5.0],  # overlaps b: the union counts once
            [3, 1, "d", 1.5, 2.5],  # grandchild of a: inside b already
            [4, 0, "b", 8.0, 12.0],  # runs past its parent: clipped
        ])
        assert trace.self_time("a") == pytest.approx(10.0 - 4.0 - 2.0)
        assert trace.self_time("b") == pytest.approx((2.0 - 1.0) + 4.0)
        assert trace.self_time("d") == pytest.approx(1.0)
        assert trace.total("b") == pytest.approx(6.0)
        assert trace.count("b") == 2

    def test_recorder_nests_and_counts(self):
        ticks = iter(range(100))
        recorder = spans.Recorder(clock=lambda: float(next(ticks)))

        def inner(items):
            return list(items)

        wrapped_inner = recorder.wrap(inner, "inner",
                                      {"items": lambda bound, r: len(bound["items"])})

        def outer():
            wrapped_inner([1, 2, 3])
            wrapped_inner([4])

        recorder.wrap(outer, "outer")()
        assert [s[:3] for s in recorder.spans] == [
            [0, -1, "outer"], [1, 0, "inner"], [2, 0, "inner"]
        ]
        assert recorder.counters == {"items": 4}
        trace = spans.Trace(json.loads(json.dumps({
            "spans": recorder.spans, "counters": recorder.counters, "calls": recorder.calls,
        })))
        # clock ticks: outer 0..5, inner 1..2 and 3..4
        assert trace.self_time("outer") == pytest.approx(3.0)

    def test_recorder_closes_span_on_error(self):
        recorder = spans.Recorder()

        def boom():
            raise RuntimeError("x")

        with pytest.raises(RuntimeError):
            recorder.wrap(boom, "boom")()
        assert recorder.spans[0][spans.END] >= recorder.spans[0][spans.START]
        assert recorder._stack == []

    def test_name_without_calls_is_missing_not_zero(self):
        calls = {"model.local_update": 0, "model.forward": 3, "evaluate.docs": 1}
        trace = _trace(
            [[0, -1, "model.forward", 0.0, 1.0]],
            counters={"evaluate.docs": 2, "model.example_grads": 0},
            calls=calls,
        )
        values = spans.layer_values(trace)
        assert values["model.local_update_s"] is None
        assert values["model.us_per_example_grad"] is None
        assert values["model.forward_s"] == pytest.approx(1.0)
        assert values["evaluate.forwards_per_doc"] == pytest.approx(0.5)
        assert spans.median_layers([trace])["model.local_update_s"] is None

    def test_failing_measure_leaves_counter_missing(self):
        recorder = spans.Recorder()
        wrapped = recorder.wrap(lambda data: len(data), "work",
                                {"examples": lambda bound, result: len(bound["dataset"])})
        assert wrapped([1, 2]) == 2
        trace = spans.Trace({"spans": recorder.spans, "counters": recorder.counters,
                             "calls": recorder.calls})
        assert trace.recorded("work") and not trace.recorded("examples")

    def test_unknown_name_is_recorded_as_unpatched(self):
        recorder = spans.Recorder()
        recorder.patch("fedlora.cli", "no_such_function", "x")
        assert recorder.unpatched == ["fedlora.cli.no_such_function"]


class TestWorkloads:
    @pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
    def test_deterministic_in_seed(self, name, tmp_path):
        texts = []
        for i, seed in enumerate((7, 7, 8)):
            work = tmp_path / str(i)
            work.mkdir()
            w = workloads.make_workload(name, seed, ROOT, str(work))
            with open(w.config_path) as handle:
                texts.append((handle.read(), w.master_seeds))
        assert texts[0] == texts[1]
        assert texts[0][0] != texts[2][0] and texts[0][1] != texts[2][1]

    def test_generated_configs_load(self, tmp_path):
        from fedlora.config import load_config

        for name in ("many_clients", "eval_heavy"):
            w = workloads.make_workload(name, 1, ROOT, str(tmp_path))
            config = load_config(w.config_path)
            assert [s.value for s in config.strategies()] == list(w.strategies)

    def test_two_site_is_the_committed_config_at_a_lower_learning_rate(self, tmp_path):
        w = workloads.make_workload("two_site", 1, ROOT, str(tmp_path))
        with open(w.config_path) as handle:
            generated = yaml.safe_load(handle)
        committed = workloads.load_two_site(ROOT)
        committed["federation"]["sgd"]["learning_rate"] = workloads.TWO_SITE_LEARNING_RATE
        committed["seed"] = 1
        assert generated == committed
        assert w.expected_rows == 5 * 2 * 2 * 2


def test_benchmark_json_lists_what_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    per_layer = {name: unit for name, (unit, _, _) in spans.PER_LAYER.items()}
    per_layer.update(run.TRACE_UNITS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer
    assert [w["name"] for w in spec["workloads"]] == list(workloads.GENERATORS)
    assert spec["paths"] == ["perfbench"]


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(os.path.dirname(os.path.abspath(__file__)), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "two_site", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
