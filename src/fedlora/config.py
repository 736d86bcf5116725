"""Experiment configuration: a strict, human-editable YAML schema.

Unknown keys are fatal and every diagnostic names the offending field path,
so a config that loads is a config that runs.  The master seed fans out to
per-component seeds via :mod:`fedlora.seeding`; a site's data seed derives
from its id, so adding a site never reshuffles another site's data.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import yaml

from .aggregation import WeightMode
from .datasim import PlantedRule, SiteSpec
from .evaluate import BootstrapConfig
from .federation import FederationConfig, Strategy
from .model import ModelConfig, SgdConfig, Task
from .seeding import derive_seed


class ConfigError(ValueError):
    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def _require_mapping(node, path):
    if not isinstance(node, dict):
        raise ConfigError(path, f"expected a mapping, got {type(node).__name__}")
    return node


def _check_keys(node: dict, path: str, required: set[str], optional: set[str] = frozenset()):
    unknown = set(node) - required - set(optional)
    if unknown:
        raise ConfigError(path, f"unknown keys: {sorted(unknown)}")
    missing = required - set(node)
    if missing:
        raise ConfigError(path, f"missing keys: {sorted(missing)}")


def _get(node, path, key, kind, default=None):
    if key not in node:
        return default
    value = node[key]
    if kind is float and isinstance(value, int):
        value = float(value)
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ConfigError(f"{path}.{key}", f"expected {kind.__name__}, got {value!r}")
    return value


@dataclass(frozen=True)
class EvalConfig:
    test_size: int = 250
    bootstrap: BootstrapConfig = field(default_factory=BootstrapConfig)


@dataclass(frozen=True)
class CommConfig:
    bytes_per_param: int = 4
    preset: str | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    model: ModelConfig
    sites: list[SiteSpec]
    external_sites: list[SiteSpec]
    federation: FederationConfig
    baselines: list[Strategy]
    validation_examples: int
    eval: EvalConfig
    comm: CommConfig
    # the mapping this config was parsed from, re-parsed by with_seed
    _raw: dict = field(repr=False, compare=False)

    def rule(self) -> PlantedRule:
        return PlantedRule(self.model.vocab_size)

    def strategies(self) -> list[Strategy]:
        ordered = [self.federation.strategy]
        for s in self.baselines:
            if s not in ordered:
                ordered.append(s)
        return ordered

    def with_seed(self, seed: int) -> "ExperimentConfig":
        """Re-derive every component seed the config leaves implicit from a
        new master seed; explicit ``seed`` keys are kept."""
        return parse_config({**self._raw, "seed": seed})


def _parse_sgd(node, path) -> SgdConfig:
    node = _require_mapping(node, path)
    _check_keys(node, path, {"learning_rate", "epochs", "batch_size"})
    try:
        return SgdConfig(
            learning_rate=_get(node, path, "learning_rate", float),
            epochs=_get(node, path, "epochs", int),
            batch_size=_get(node, path, "batch_size", int),
        )
    except ValueError as err:
        raise ConfigError(path, str(err)) from err


def _parse_tasks(node, path) -> tuple[Task, ...]:
    if not isinstance(node, list) or not node:
        raise ConfigError(path, "expected a non-empty list of task names")
    tasks = []
    for i, name in enumerate(node):
        try:
            tasks.append(Task(name))
        except ValueError:
            valid = [t.value for t in Task]
            raise ConfigError(f"{path}[{i}]", f"unknown task {name!r}, expected one of {valid}")
    return tuple(tasks)


def _parse_site(node, path, master_seed: int) -> SiteSpec:
    node = _require_mapping(node, path)
    _check_keys(
        node,
        path,
        {"site_id", "n_examples"},
        {"dirichlet_alpha", "noise_rate", "tasks", "token_shift", "seed"},
    )
    site_id = _get(node, path, "site_id", str)
    try:
        return SiteSpec(
            site_id=site_id,
            n_examples=_get(node, path, "n_examples", int),
            dirichlet_alpha=_get(node, path, "dirichlet_alpha", float, 1e6),
            noise_rate=_get(node, path, "noise_rate", float, 0.0),
            tasks=_parse_tasks(node["tasks"], f"{path}.tasks")
            if "tasks" in node
            else (Task.TAGGING, Task.RELATION),
            token_shift=_get(node, path, "token_shift", int, 0),
            seed=_get(node, path, "seed", int, derive_seed(master_seed, "site", site_id)),
        )
    except ConfigError:
        raise
    except ValueError as err:
        raise ConfigError(path, str(err)) from err


def _parse_enum(node, path, key, enum_cls, default):
    if key not in node:
        return default
    name = _get(node, path, key, str)
    try:
        return enum_cls(name)
    except ValueError:
        valid = [e.value for e in enum_cls]
        raise ConfigError(f"{path}.{key}", f"unknown value {name!r}, expected one of {valid}")


def parse_config(raw: dict, path: str = "<config>") -> ExperimentConfig:
    raw = _require_mapping(raw, path)
    _check_keys(
        raw,
        path,
        {"seed", "model", "sites", "federation"},
        {"external_sites", "baselines", "validation", "eval", "comm"},
    )
    master_seed = _get(raw, path, "seed", int)

    model_node = _require_mapping(raw["model"], f"{path}.model")
    _check_keys(
        model_node, f"{path}.model", {"vocab_size", "hidden", "rank", "alpha"}, {"seed"}
    )
    vocab = _get(model_node, f"{path}.model", "vocab_size", int)
    try:
        rule = PlantedRule(vocab)
        model = ModelConfig(
            vocab_size=vocab,
            hidden=_get(model_node, f"{path}.model", "hidden", int),
            tag_classes=rule.num_tags,
            relation_classes=rule.num_relations,
            rank=_get(model_node, f"{path}.model", "rank", int),
            alpha=_get(model_node, f"{path}.model", "alpha", float),
            seed=_get(model_node, f"{path}.model", "seed", int, derive_seed(master_seed, "model")),
        )
        if model.rank > rule.num_tags:
            raise ValueError(
                f"rank {model.rank} exceeds the tag-head width {rule.num_tags}"
            )
    except ConfigError:
        raise
    except ValueError as err:
        raise ConfigError(f"{path}.model", str(err)) from err

    if not isinstance(raw["sites"], list) or not raw["sites"]:
        raise ConfigError(f"{path}.sites", "expected a non-empty list")
    sites = [
        _parse_site(node, f"{path}.sites[{i}]", master_seed)
        for i, node in enumerate(raw["sites"])
    ]
    ids = [s.site_id for s in sites]
    if len(set(ids)) != len(ids):
        raise ConfigError(f"{path}.sites", f"duplicate site ids in {ids}")

    external = [
        _parse_site(node, f"{path}.external_sites[{i}]", master_seed)
        for i, node in enumerate(raw.get("external_sites", []) or [])
    ]
    for spec in external:
        if spec.site_id in ids:
            raise ConfigError(
                f"{path}.external_sites", f"external site {spec.site_id!r} shadows a training site"
            )

    fed_node = _require_mapping(raw["federation"], f"{path}.federation")
    _check_keys(
        fed_node,
        f"{path}.federation",
        {"strategy", "rounds", "sgd"},
        {"clients_per_round", "weight_mode", "seed"},
    )
    strategy = _parse_enum(fed_node, f"{path}.federation", "strategy", Strategy, None)
    if strategy is None:
        raise ConfigError(f"{path}.federation.strategy", "is required")
    try:
        federation = FederationConfig(
            strategy=strategy,
            total_clients=len(sites),
            clients_per_round=_get(
                fed_node, f"{path}.federation", "clients_per_round", int, len(sites)
            ),
            rounds=_get(fed_node, f"{path}.federation", "rounds", int),
            sgd=_parse_sgd(fed_node["sgd"], f"{path}.federation.sgd"),
            weight_mode=_parse_enum(
                fed_node, f"{path}.federation", "weight_mode", WeightMode, WeightMode.NORMALIZED
            ),
            seed=_get(
                fed_node, f"{path}.federation", "seed", int, derive_seed(master_seed, "federation")
            ),
        )
    except ConfigError:
        raise
    except ValueError as err:
        raise ConfigError(f"{path}.federation", str(err)) from err

    baselines = []
    for i, name in enumerate(raw.get("baselines", []) or []):
        try:
            baselines.append(Strategy(name))
        except ValueError:
            valid = [s.value for s in Strategy]
            raise ConfigError(
                f"{path}.baselines[{i}]", f"unknown strategy {name!r}, expected one of {valid}"
            )

    val_node = _require_mapping(raw.get("validation", {"n_examples": 40}), f"{path}.validation")
    _check_keys(val_node, f"{path}.validation", {"n_examples"})
    validation_examples = _get(val_node, f"{path}.validation", "n_examples", int)
    if validation_examples < 1:
        raise ConfigError(f"{path}.validation.n_examples", "must be >= 1")

    eval_node = _require_mapping(raw.get("eval", {}), f"{path}.eval")
    _check_keys(eval_node, f"{path}.eval", set(), {"test_size", "bootstrap"})
    bootstrap = BootstrapConfig()
    if "bootstrap" in eval_node:
        bs_node = _require_mapping(eval_node["bootstrap"], f"{path}.eval.bootstrap")
        _check_keys(bs_node, f"{path}.eval.bootstrap", set(), {"sample_size", "reps", "level"})
        try:
            bootstrap = BootstrapConfig(
                sample_size=_get(bs_node, f"{path}.eval.bootstrap", "sample_size", int, 200),
                reps=_get(bs_node, f"{path}.eval.bootstrap", "reps", int, 30),
                level=_get(bs_node, f"{path}.eval.bootstrap", "level", float, 0.95),
            )
        except ValueError as err:
            raise ConfigError(f"{path}.eval.bootstrap", str(err)) from err
    eval_cfg = EvalConfig(
        test_size=_get(eval_node, f"{path}.eval", "test_size", int, 250),
        bootstrap=bootstrap,
    )
    if eval_cfg.test_size < 1:
        raise ConfigError(f"{path}.eval.test_size", "must be >= 1")

    comm_node = _require_mapping(raw.get("comm", {}), f"{path}.comm")
    _check_keys(comm_node, f"{path}.comm", set(), {"bytes_per_param", "preset"})
    comm = CommConfig(
        bytes_per_param=_get(comm_node, f"{path}.comm", "bytes_per_param", int, 4),
        preset=_get(comm_node, f"{path}.comm", "preset", str, None),
    )
    if comm.bytes_per_param < 1:
        raise ConfigError(f"{path}.comm.bytes_per_param", "must be >= 1")
    if comm.preset is not None:
        from .comm import PRESETS

        if comm.preset not in PRESETS:
            raise ConfigError(
                f"{path}.comm.preset", f"unknown preset, expected one of {sorted(PRESETS)}"
            )

    return ExperimentConfig(
        seed=master_seed,
        model=model,
        sites=sites,
        external_sites=external,
        federation=federation,
        baselines=baselines,
        validation_examples=validation_examples,
        eval=eval_cfg,
        comm=comm,
        _raw=copy.deepcopy(raw),
    )


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            raw = yaml.safe_load(handle)
        except yaml.YAMLError as err:
            mark = getattr(err, "problem_mark", None)
            where = f"line {mark.line + 1}, column {mark.column + 1}" if mark else "unknown position"
            raise ConfigError(path, f"YAML parse error at {where}: {err}") from err
    return parse_config(raw, path)
