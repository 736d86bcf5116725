"""Golden lock: a small three-seed run's outputs, pinned byte for byte.

The config derives from configs/two_site.yaml: both sites cut to 300
examples, plus a third, tagging-only site, so two of three clients take
part per round and one site declares an uneven task set.  Any change to
training, aggregation, evaluation, accounting or serialization that moves a
single bit of results.csv, transcript.json, comm.csv, comm_preset.csv or a
two-point scale.csv fails here.

The pins were taken with numpy 2.4.6.  The synthetic data relies on two
details of numpy's generator: ``Generator.choice(..., p=p)`` searches
``cumsum(p) / cumsum(p)[-1]`` with one uniform double per draw, and PCG64
buffers the 32-bit halves of its outputs across bounded-integer calls
(``fedlora.datasim`` reproduces both with array draws).  A numpy upgrade
that fails these pins points to ``datasim`` first.
"""

import hashlib
import os

import yaml

from fedlora.cli import main

CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs", "two_site.yaml")

# transcript.json was re-pinned when the kernel moved to the whole
# vocabulary: a mini-batch's tagging loss and gradient now sum per (token
# id, gold tag) weights instead of per token, so the adapter checksums and
# the validation losses and weights moved in their last bits (relative
# 1.5e-15); the other files held.
GOLDEN = {
    "results.csv": "900fdc5d1105df7d50b780c36beefbcc0c69563012edc19a2b11380f487141ab",
    "transcript.json": "d3978e816133a74db00babe9f895f0dd5dba71840a0c9055d317642fc3b512cd",
    "comm.csv": "ef6b3195852081a756837a52adbfc2d3c1a3099e385c3eedf8ae555d34b31ad2",
    "comm_preset.csv": "9d32d2f89edd98e124f7ae41b7e9cf3e01f6067b429cf696b3d1901854b62a99",
}
SCALE_GOLDEN = "9188474d12f0cc06b7ec9192292dff557409b3d5fb3fd810c45c5adf6c2feba4"


def golden_config() -> dict:
    with open(CONFIG, encoding="utf-8") as handle:
        raw = yaml.safe_load(handle)
    for site in raw["sites"]:
        site["n_examples"] = 300
    raw["sites"].append(
        {
            "site_id": "site_c",
            "n_examples": 200,
            "dirichlet_alpha": 2.0,
            "noise_rate": 0.05,
            "token_shift": 1,
            "tasks": ["tagging"],
        }
    )
    raw["federation"]["rounds"] = 3
    raw["baselines"] = ["zero_shot", "single_site", "fedavg", "centralized", "share_a"]
    raw["eval"] = {"test_size": 100, "bootstrap": {"sample_size": 100, "reps": 10, "level": 0.95}}
    return raw


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_config(tmp_path, raw):
    config = tmp_path / "golden.yaml"
    config.write_text(yaml.safe_dump(raw))
    return config


def test_golden_outputs_unchanged(tmp_path):
    raw = golden_config()
    assert raw["federation"]["clients_per_round"] == 2 < len(raw["sites"])
    config = _write_config(tmp_path, raw)
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out-dir", str(out), "--seeds", "1,2,3"]) == 0
    assert {name: _digest(out / name) for name in GOLDEN} == GOLDEN


def test_golden_scale_study_unchanged(tmp_path):
    config = _write_config(tmp_path, golden_config())
    out = tmp_path / "out"
    argv = ["scale-study", "--config", str(config), "--out-dir", str(out),
            "--seeds", "1", "--k", "1,3"]
    assert main(argv) == 0
    assert _digest(out / "scale.csv") == SCALE_GOLDEN
