"""Golden lock: a small three-seed run's outputs, pinned byte for byte.

The config derives from configs/two_site.yaml: both sites cut to 300
examples, plus a third, tagging-only site, so two of three clients take
part per round and one site declares an uneven task set.  Any change to
training, aggregation, evaluation, accounting or serialization that moves a
single bit of results.csv, transcript.json, comm.csv, comm_preset.csv or a
two-point scale.csv fails here.  ``compare`` and ``comm-report``, which
train nothing, are pinned on fixed inputs: compare.csv over two hand-written
results files and comm_report.csv for the LLaMA3-8B preset.

The pins were taken with numpy 2.4.6.  The synthetic data relies on
numpy's ``Generator`` streams for ``dirichlet``, ``random`` and bounded
``integers`` (``fedlora.datasim`` draws each site in whole-site calls of
these).  A numpy upgrade that fails these pins points to ``datasim`` first.
"""

import hashlib
import os

import yaml

from fedlora.cli import main

CONFIG = os.path.join(os.path.dirname(__file__), "..", "configs", "two_site.yaml")

# results.csv, transcript.json and scale.csv were re-pinned when sites
# came to be drawn in whole-site calls straight into their packs: every
# dataset changed, while comm.csv and comm_preset.csv, which depend only
# on adapter shapes and sampling, held.  transcript.json alone was
# re-pinned when training moved the trunk into factor space: its sums
# reassociate, so the adapters' last bits, and the losses and checksums
# the transcript records, moved, while every scored metric held.  It moved
# again when influence exponents came to be shifted by the largest negated
# loss instead of the smallest: the recorded shifts, and the influence
# weights and aggregates in their last bits, moved; every metric held.
GOLDEN = {
    "results.csv": "b2142cfe99339d48dd88b0ed7af97e7f4ebb6a46d25f1a364e5104957746933d",
    "transcript.json": "997d230fed88265cc82a55805569b776dd3ae6421fe3213faffa97946d8c37af",
    "comm.csv": "ef6b3195852081a756837a52adbfc2d3c1a3099e385c3eedf8ae555d34b31ad2",
    "comm_preset.csv": "9d32d2f89edd98e124f7ae41b7e9cf3e01f6067b429cf696b3d1901854b62a99",
}
SCALE_GOLDEN = "0469abfc6b3485b1a1140e9a06c6ac1ed6060044b46cf50615bd33ad4c670696"


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


# compare.csv over two results files written here.  The fedavg key holds
# ten rows a side, so its p-value takes the normal approximation (C(20, 10)
# exceeds the exact-enumeration limit); the influence key holds three and
# two rows and is enumerated exactly.  Both keys carry tied F1 values.
COMPARE_ROWS = {
    "a.csv": {
        ("fedavg", "site_a", "tagging", "strict"):
            [0.5, 0.6, 0.6, 0.7, 0.7, 0.7, 0.8, 0.55, 0.65, 0.75],
        ("influence", "site_b", "relation", "lenient"): [0.9, 0.8, 0.8],
    },
    "b.csv": {
        ("fedavg", "site_a", "tagging", "strict"):
            [0.4, 0.5, 0.5, 0.6, 0.45, 0.55, 0.6, 0.7, 0.35, 0.5],
        ("influence", "site_b", "relation", "lenient"): [0.8, 0.7],
    },
}
COMPARE_GOLDEN = "0893aad3decdc6255cc16b772f92b547a78538e5456f8b8e8584ca50821a057a"
COMM_REPORT_GOLDEN = "2ed3386af49ad6764cc3e3dcc80a93c071877b90ef17a6c11d575b2ee0583840"


def test_golden_compare_unchanged(tmp_path):
    paths = []
    for name, groups in COMPARE_ROWS.items():
        lines = ["strategy,testset,task,scheme,f1"]
        for key, values in groups.items():
            lines.extend(",".join((*key, f"{v:.6f}")) for v in values)
        path = tmp_path / name
        path.write_text("\n".join(lines) + "\n")
        paths.append(str(path))
    out = tmp_path / "out"
    assert main(["compare", *paths, "--out-dir", str(out)]) == 0
    assert _digest(out / "compare.csv") == COMPARE_GOLDEN


def test_golden_comm_report_unchanged(tmp_path):
    out = tmp_path / "out"
    assert main(["comm-report", "--rounds", "3", "--sites", "1,2,3", "--out-dir", str(out)]) == 0
    assert _digest(out / "comm_report.csv") == COMM_REPORT_GOLDEN
