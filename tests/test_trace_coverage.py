"""Every per-layer benchmark metric still finds the calls it times.

perfbench/spans.py wraps the program's functions where their callers look
them up (``fedlora.cli.generate_site``, ``fedlora.federation.local_update``
and so on).  A refactor that moves such a call into another namespace
silently turns its metric into "missing"; this test runs a traced
``fedlora run`` on a tiny all-strategy config and requires every metric to
read a value.  It also pins the wrapped names that no longer exist, so a
name leaving its namespace is a deliberate edit here rather than a silent
gap.  It runs in a subprocess so the patches never leak into other tests.
"""

import json
import os
import subprocess
import sys

import yaml

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")

SCRIPT = """
import json, sys
import spans
import fedlora.cli

recorder = spans.Recorder()
spans.instrument(recorder)
code = fedlora.cli.main(["run", "--config", sys.argv[1], "--out-dir", sys.argv[2]])
trace = spans.Trace({"spans": recorder.spans, "counters": recorder.counters,
                     "calls": recorder.calls})
print(json.dumps({"exit": code, "values": spans.layer_values(trace),
                  "unpatched": recorder.unpatched}))
"""

CONFIG = {
    "seed": 3,
    "model": {"vocab_size": 60, "hidden": 8, "rank": 2, "alpha": 4.0},
    "sites": [
        {"site_id": "site_a", "n_examples": 24, "dirichlet_alpha": 5.0, "noise_rate": 0.1},
        {"site_id": "site_b", "n_examples": 24, "token_shift": 3},
    ],
    "federation": {
        "strategy": "influence",
        "rounds": 2,
        "sgd": {"learning_rate": 0.2, "epochs": 1, "batch_size": 8},
    },
    "baselines": ["zero_shot", "single_site", "fedavg", "centralized", "share_a"],
    "validation": {"n_examples": 6},
    "eval": {"test_size": 10, "bootstrap": {"sample_size": 10, "reps": 3}},
}


def test_every_layer_metric_is_recorded(tmp_path):
    config = tmp_path / "tiny.yaml"
    config.write_text(yaml.safe_dump(CONFIG))
    paths = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench"),
             os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(config), str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["exit"] == 0
    missing = sorted(name for name, value in report["values"].items() if value is None)
    assert missing == []
    # the round loop sizes payloads arithmetically without serializing, and
    # relation documents score by label equality without the relation matcher
    assert report["unpatched"] == [
        "fedlora.federation.serialize_adapters",
        "fedlora.evaluate.relation_counts",
    ]
