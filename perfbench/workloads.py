"""Workload generator: one experiment config per (workload, seed).

Each workload is a ``fedlora run`` invocation on a config derived from
``configs/two_site.yaml`` (read, never written) and from the workload seed,
written as a new YAML file into the benchmark's work directory.  The same
seed always gives the same config text and the same master seeds.

Why each workload exists:

* ``two_site``: the paper's headline experiment, the committed config with
  all five strategies.  Training-bound (local updates dominate), so a
  faster gradient path shows here.
* ``many_clients``: 32 seed-drawn heterogeneous small sites, 8 sampled per
  round for 25 rounds, ``influence`` plus ``fedavg``.  Protocol-bound:
  validation scoring, aggregation, serialization, checksums and the
  transcript are a large share of the run, unlike ``two_site``.
* ``eval_heavy``: the two_site sites cut to 200 examples with milder label
  skew, one epoch, four rounds; five models to score on 1,000 test
  documents with a 1000 x 60 bootstrap.  The read path (forward passes,
  matching, bootstrap) dominates.  The test set is kept this size so that
  several runs fit in the run length: a median over three runs spread 22%
  across workload seeds.

``two_site`` trains at learning rate 0.1, not the committed 0.2: at 0.2,
2 of 60 master seeds diverged to non-finite adapters and the CLI exited 3
(single_site with seed 700762465; single_site, influence and fedavg with
seed 435254397), and a benchmark needs runs that finish.  At 0.1 none of
the 180 master seeds of workload seeds 1-30 diverged.  The other two
workloads keep 0.2; none of their 100 master seeds of workload seeds 1-10
diverged.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass

import yaml

TWO_SITE = os.path.join("configs", "two_site.yaml")

TWO_SITE_LEARNING_RATE = 0.1

# Distinct master seeds per run; the F1 metrics average over them, because
# one seed's mean F1 varies a lot across seeds: coefficient of variation
# 19% on two_site (48 seeds), 5% on many_clients and 10% on eval_heavy (4
# seeds each).  Resampling those 48 two_site seeds, the quartile spread of
# ten runs' F1 exceeds its 0.24 bound with chance 8% at 3 seeds per run, 2%
# at 4 and 0.4% at 5.  Every seed runs at least once per run, and one of
# them twice, so the counts also set a run's shortest length: 5 two_site
# children take about 35 s on the 2-core test host.
SEEDS_PER_RUN = {"two_site": 4, "many_clients": 3, "eval_heavy": 2}

# Every (testset, task) pair yields one strict and one lenient row per strategy.
TASKS = 2
SCHEMES = 2


@dataclass(frozen=True)
class Workload:
    name: str
    config_path: str
    master_seeds: tuple[int, ...]
    strategies: tuple[str, ...]
    testsets: int
    bytes_per_param: int

    @property
    def expected_rows(self) -> int:
        return len(self.strategies) * self.testsets * TASKS * SCHEMES


def _strategies(raw: dict) -> tuple[str, ...]:
    ordered = [raw["federation"]["strategy"]]
    for name in raw.get("baselines") or []:
        if name not in ordered:
            ordered.append(name)
    return tuple(ordered)


def master_seeds(name: str, seed: int) -> tuple[int, ...]:
    """The program's master seeds for one run of workload ``name``."""
    return tuple(
        int.from_bytes(hashlib.sha256(f"{name}/{seed}/{i}".encode()).digest()[:4], "little")
        for i in range(SEEDS_PER_RUN[name])
    )


def _describe(name: str, path: str, raw: dict, seed: int) -> Workload:
    return Workload(
        name=name,
        config_path=path,
        master_seeds=master_seeds(name, seed),
        strategies=_strategies(raw),
        testsets=len(raw["sites"]) + len(raw.get("external_sites") or []),
        bytes_per_param=(raw.get("comm") or {}).get("bytes_per_param", 4),
    )


def load_two_site(root: str) -> dict:
    with open(os.path.join(root, TWO_SITE), encoding="utf-8") as handle:
        return yaml.safe_load(handle)


def two_site_config(base: dict, seed: int) -> dict:
    """The committed config at learning rate 0.1."""
    raw = yaml.safe_load(yaml.safe_dump(base))  # deep copy
    raw["seed"] = seed
    raw["federation"]["sgd"]["learning_rate"] = TWO_SITE_LEARNING_RATE
    return raw


def many_clients_config(base: dict, seed: int) -> dict:
    """32 heterogeneous 40-example sites; the knobs are drawn from ``seed``."""
    rng = random.Random(f"many_clients/{seed}")
    sites = []
    for i in range(32):
        sites.append(
            {
                "site_id": f"c{i:02d}",
                "n_examples": 40,
                "dirichlet_alpha": round(10 ** rng.uniform(-0.5, 1.0), 3),
                "noise_rate": round(rng.uniform(0.0, 0.15), 3),
                "token_shift": rng.randrange(6),
                "tasks": ["tagging", "relation"],
            }
        )
    return {
        "seed": seed,
        "model": dict(base["model"]),
        "sites": sites,
        "external_sites": [],
        "federation": {
            "strategy": "influence",
            "rounds": 25,
            "clients_per_round": 8,
            "weight_mode": "normalized",
            "sgd": {
                "learning_rate": base["federation"]["sgd"]["learning_rate"],
                "epochs": 1,
                "batch_size": 8,
            },
        },
        "baselines": ["fedavg"],
        "validation": {"n_examples": 200},
        "eval": {"test_size": 20, "bootstrap": {"sample_size": 50, "reps": 10, "level": 0.95}},
        "comm": dict(base["comm"]),
    }


def eval_heavy_config(base: dict, seed: int) -> dict:
    """The two_site sites cut to 200 examples; evaluation scaled up.

    Two departures from the committed config keep the F1 metrics steady:
    label skew Dirichlet(5) instead of Dirichlet(0.5), and 4 rounds instead
    of 2.  Mean strict F1 of one seed was 0.07 and 0.16 on two seeds with
    two_site's skew and rounds, 0.14-0.24 over six seeds with Dirichlet(5)
    and 2 rounds, and 0.42-0.53 over nine seeds with both changes (on
    1,500 test documents).
    """
    raw = yaml.safe_load(yaml.safe_dump(base))  # deep copy
    raw["seed"] = seed
    for site in raw["sites"]:
        site["n_examples"] = 200
        site["dirichlet_alpha"] = 5.0
    raw["federation"]["strategy"] = "influence"
    raw["federation"]["rounds"] = 4
    raw["federation"]["sgd"]["epochs"] = 1
    raw["baselines"] = ["share_a", "single_site"]
    raw["eval"] = {
        "test_size": 1000,
        "bootstrap": {"sample_size": 1000, "reps": 60, "level": 0.95},
    }
    return raw


GENERATORS = {
    "two_site": two_site_config,
    "many_clients": many_clients_config,
    "eval_heavy": eval_heavy_config,
}


def make_workload(name: str, seed: int, root: str, work_dir: str) -> Workload:
    """Build workload ``name`` for ``seed``; its config is written to ``work_dir``."""
    if name not in GENERATORS:
        raise ValueError(f"unknown workload {name!r}, expected one of {sorted(GENERATORS)}")
    raw = GENERATORS[name](load_two_site(root), seed)
    path = os.path.join(work_dir, f"{name}-{seed}.yaml")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(yaml.safe_dump(raw, sort_keys=False))
    return _describe(name, path, raw, seed)
