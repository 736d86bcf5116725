"""Config-driven command line front end.

Subcommands:
    run          train the configured strategy plus baselines, evaluate,
                 write results.csv / transcript.json / comm.csv
    scale-study  shard the pooled data into k sites for each k in a list
    uneven       alias of run; per-site task subsets need no special command
    compare      per-key rank-sum significance between two results files
    comm-report  headline communication table for a parameter-count preset

All outputs are written atomically (temp file + rename) and are
byte-deterministic given (config, seeds).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import tempfile
from dataclasses import asdict, fields, replace

from .comm import PRESETS, CommEntry, PresetRow, entries_from_transcripts, preset_summary
from .config import ConfigError, ExperimentConfig, load_config
from .datasim import PlantedRule, generate_site, make_validation_set, shard
from .evaluate import MetricRow, evaluate_result, make_test_split
from .federation import FederationConfig, Strategy, pool_sites, run_federation
from .metrics import wilcoxon_rank_sum
from .model import Backbone, Diverged
from .seeding import derive_seed

RESULT_FIELDS = [f.name for f in fields(MetricRow)] + ["seed"]
COMM_FIELDS = ["seed", "strategy"] + [f.name for f in fields(CommEntry)]
PRESET_FIELDS = sorted(f.name for f in fields(PresetRow))
SCALE_FIELDS = ["k"] + RESULT_FIELDS
COMPARE_FIELDS = ["strategy", "testset", "task", "scheme", "n_a", "n_b", "p_value"]


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def _write_csv(path: str, fields: list[str], rows: list[dict]) -> None:
    import io

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(fields)
    for row in rows:
        writer.writerow([_fmt(row.get(f)) for f in fields])
    _atomic_write(path, buffer.getvalue())


def _seed_run(config: ExperimentConfig, seed: int):
    """One master seed's set-up, shared by ``run`` and ``scale-study``: the
    re-seeded config, its training sites, and a function that trains one
    strategy on given sites and scores it on every test split (external
    sites included)."""
    cfg = config.with_seed(seed)
    rule = PlantedRule(cfg.model.vocab_size)
    backbone = Backbone.build(cfg.model)
    sites = [generate_site(spec, rule) for spec in cfg.sites]
    specs = cfg.sites + cfg.external_sites
    tests = [make_test_split(spec, cfg.eval.test_size, rule) for spec in specs]
    val = make_validation_set(rule, cfg.validation.n_examples, derive_seed(cfg.seed, "validation"))
    # every split is packed and range-checked here, before any training step
    for split in (*sites, val, *tests):
        backbone.check_ranges(split.packed)

    def train_and_score(fed_cfg: FederationConfig, train_sites):
        try:
            result = run_federation(fed_cfg, train_sites, val.packed, backbone)
        except Diverged as err:
            raise Diverged(f"seed {seed}, strategy {fed_cfg.strategy.value}, {err}") from None
        return result, evaluate_result(result, backbone, tests, cfg.eval.bootstrap, seed=cfg.seed)

    return cfg, sites, train_and_score


def cmd_run(config: ExperimentConfig, out_dir: str, seeds: list[int]) -> int:
    all_rows = []
    all_runs = []
    all_comm = []
    for seed in seeds:
        cfg, sites, train_and_score = _seed_run(config, seed)
        for strategy in cfg.strategies():
            fed_cfg = replace(cfg.federation, strategy=strategy)
            result, metric_rows = train_and_score(fed_cfg, sites)
            all_rows.extend({**asdict(r), "seed": seed} for r in metric_rows)
            all_runs.append(
                {
                    "seed": seed,
                    "strategy": strategy.value,
                    # sort_keys orders every nested mapping when the transcript is written
                    "rounds": [
                        {k: v for k, v in asdict(t).items() if v is not None}
                        for t in result.transcripts
                    ],
                    "final_checksum": result.adapters.checksum() if result.adapters else None,
                }
            )
            all_comm.extend(
                {"seed": seed, "strategy": strategy.value, **asdict(entry)}
                for entry in entries_from_transcripts(result.transcripts, cfg.comm.bytes_per_param)
            )
    _write_csv(os.path.join(out_dir, "results.csv"), RESULT_FIELDS, all_rows)
    _atomic_write(
        os.path.join(out_dir, "transcript.json"),
        json.dumps({"runs": all_runs}, sort_keys=True, indent=2) + "\n",
    )
    _write_csv(os.path.join(out_dir, "comm.csv"), COMM_FIELDS, all_comm)
    if config.comm.preset:
        preset = PRESETS[config.comm.preset]
        # only the clients sampled in a round move adapters
        summary = preset_summary(
            preset, rounds=config.federation.rounds,
            site_counts=(config.federation.clients_per_round,),
        )
        _write_csv(os.path.join(out_dir, "comm_preset.csv"), PRESET_FIELDS, summary)
    print(f"wrote {len(all_rows)} result rows to {os.path.join(out_dir, 'results.csv')}")
    return 0


SCALE_STRATEGIES = (Strategy.INFLUENCE, Strategy.SINGLE_SITE, Strategy.CENTRALIZED)


def cmd_scale_study(config: ExperimentConfig, out_dir: str, seeds: list[int],
                    k_list: list[int]) -> int:
    rows = []
    for seed in seeds:
        cfg, sites, train_and_score = _seed_run(config, seed)
        pool = pool_sites(sites)
        for k in k_list:
            shards = shard(pool, k, derive_seed(cfg.seed, "shard", k))
            for strategy in SCALE_STRATEGIES:
                # shards always run full participation
                fed_cfg = replace(cfg.federation, strategy=strategy, clients_per_round=k)
                _, metric_rows = train_and_score(fed_cfg, shards)
                rows.extend({"k": k, **asdict(r), "seed": seed} for r in metric_rows)
    _write_csv(os.path.join(out_dir, "scale.csv"), SCALE_FIELDS, rows)
    print(f"wrote {len(rows)} scale rows to {os.path.join(out_dir, 'scale.csv')}")
    return 0


def cmd_compare(path_a: str, path_b: str, out_dir: str) -> int:
    def read_rows(path):
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.DictReader(handle)
            # an empty file has no header, so it misses every column
            header = reader.fieldnames or ()
            missing = [c for c in (*COMPARE_FIELDS[:4], "f1") if c not in header]
            if missing:
                raise ConfigError(path, f"missing columns {missing}")
            return list(reader)

    def group(rows):
        grouped: dict[tuple, list[float]] = {}
        for row in rows:
            key = (row["strategy"], row["testset"], row["task"], row["scheme"])
            grouped.setdefault(key, []).append(float(row["f1"]))
        return grouped

    a = group(read_rows(path_a))
    b = group(read_rows(path_b))
    if a.keys() != b.keys():
        missing_in_b = sorted(a.keys() - b.keys())
        missing_in_a = sorted(b.keys() - a.keys())
        raise RuntimeError(
            f"result keys differ; missing in {path_b}: {missing_in_b}; "
            f"missing in {path_a}: {missing_in_a}"
        )
    rows = [
        dict(zip(COMPARE_FIELDS, (*key, len(a[key]), len(b[key]),
                                  wilcoxon_rank_sum(a[key], b[key]))))
        for key in sorted(a)
    ]
    _write_csv(os.path.join(out_dir, "compare.csv"), COMPARE_FIELDS, rows)
    for row in rows:
        print(
            f"{row['strategy']}/{row['testset']}/{row['task']}/{row['scheme']}: "
            f"p={row['p_value']:.6f}"
        )
    return 0


def cmd_comm_report(preset_name: str, rounds: int, site_counts: list[int], out_dir: str | None) -> int:
    if preset_name not in PRESETS:
        raise ConfigError("--preset", f"unknown preset, expected one of {sorted(PRESETS)}")
    preset = PRESETS[preset_name]
    rows = preset_summary(preset, rounds=rounds, site_counts=tuple(site_counts))
    print(
        f"preset {preset.name}: full {preset.full_params:,} params, "
        f"adapters {preset.lora_params:,} params, "
        f"{preset.bytes_per_param} bytes/param"
    )
    print(
        f"full-model per site per round: {rows[0]['full_per_site_round_gb']} GB; "
        f"reduction {rows[0]['reduction_pct']:.2f}%"
    )
    for row in rows:
        print(
            f"  {row['sites']} sites x {row['rounds']} rounds: "
            f"adapters {row['lora_total_gb']} GB, full model {row['full_total_gb']} GB"
        )
    if out_dir:
        _write_csv(os.path.join(out_dir, "comm_report.csv"), PRESET_FIELDS, rows)
    return 0


def _flag_ints(flag: str, text: str, minimum: int) -> list[int]:
    """The comma-separated integers given to ``flag``; an empty list, a
    non-integer or a value below ``minimum`` is a config error naming it."""
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        values = []
    if not values or min(values) < minimum:
        raise ConfigError(flag, f"expected comma-separated integers >= {minimum}, got {text!r}")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedlora", description="Federated low-rank adapter training simulator"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config_required=True):
        p.add_argument("--config", required=config_required, help="YAML experiment config")
        p.add_argument("--out-dir", default="out", help="output directory")
        p.add_argument("--seeds", default=None, help="comma-separated master seeds")

    add_common(sub.add_parser(
        "run", aliases=["uneven"], help="train + evaluate the configured strategies"
    ))
    scale = sub.add_parser("scale-study", help="metric-vs-k shard curves")
    add_common(scale)
    scale.add_argument("--k", default="1,2,3,4,6,8,10", help="comma-separated shard counts")

    compare = sub.add_parser("compare", help="rank-sum significance between results files")
    compare.add_argument("results_a")
    compare.add_argument("results_b")
    compare.add_argument("--out-dir", default="out")

    comm = sub.add_parser("comm-report", help="communication table for a preset")
    comm.add_argument("--preset", default="llama3_8b")
    comm.add_argument("--rounds", type=int, default=2)
    comm.add_argument("--sites", default="2,3", help="comma-separated site counts")
    comm.add_argument("--out-dir", default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "comm-report":
            if args.rounds < 1:
                raise ConfigError("--rounds", f"must be >= 1, got {args.rounds}")
            sites = _flag_ints("--sites", args.sites, 1)
            return cmd_comm_report(args.preset, args.rounds, sites, args.out_dir)
        if args.command == "compare":
            return cmd_compare(args.results_a, args.results_b, args.out_dir)

        config = load_config(args.config)
        # master seeds feed numpy's SeedSequence, which takes no negative entropy
        seeds = [config.seed] if args.seeds is None else _flag_ints("--seeds", args.seeds, 0)
        if args.command in ("run", "uneven"):
            return cmd_run(config, args.out_dir, seeds)
        if args.command == "scale-study":
            k_list = _flag_ints("--k", args.k, 1)
            pooled = sum(spec.n_examples for spec in config.sites)
            if max(k_list) > pooled:
                raise ConfigError("--k", f"{max(k_list)} exceeds the {pooled} pooled examples")
            return cmd_scale_study(config, args.out_dir, seeds, k_list)
        parser.error(f"unknown command {args.command}")
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # noqa: BLE001 - CLI boundary
        print(f"error: {err}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
