"""Experiment configuration: a strict, human-editable YAML schema.

Unknown keys are fatal and every diagnostic names the offending field path,
so a config that loads is a config that runs.  The master seed fans out to
per-component seeds via :mod:`fedlora.seeding`; a site's data seed derives
from its id, so adding a site never reshuffles another site's data.
"""

from __future__ import annotations

import copy
import enum
import functools
import math
import types
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from typing import Union, get_args, get_origin, get_type_hints

import yaml

from .comm import DEFAULT_BYTES_PER_PARAM, PRESETS
from .datasim import PlantedRule, SiteSpec
from .evaluate import BootstrapConfig
from .federation import FederationConfig, Strategy
from .model import FieldError, ModelConfig
from .seeding import derive_seed


class ConfigError(ValueError):
    def __init__(self, path: str, message: str):
        self.path = path
        self.message = message
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


def _value(value, path: str, kind):
    """Check one YAML value against a dataclass field's type and convert it."""
    origin = get_origin(kind)
    if origin in (list, tuple):
        if not isinstance(value, list) or not value:
            raise ConfigError(path, f"expected a non-empty list, got {value!r}")
        return origin(_value(v, f"{path}[{i}]", get_args(kind)[0]) for i, v in enumerate(value))
    if origin in (Union, types.UnionType):
        # an optional field: null is never written, the key is left out
        (kind,) = [k for k in get_args(kind) if k is not type(None)]
    if is_dataclass(kind):
        return _section(value, path, kind)
    if isinstance(kind, type) and issubclass(kind, enum.Enum):
        name = _value(value, path, str)
        try:
            return kind(name)
        except ValueError:
            valid = [e.value for e in kind]
            raise ConfigError(path, f"unknown value {name!r}, expected one of {valid}")
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        try:
            value = float(value)
        except OverflowError:
            value = math.inf
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ConfigError(path, f"expected {kind.__name__}, got {value!r}")
    if kind is float and not math.isfinite(value):
        raise ConfigError(path, f"expected a finite number, got {value!r}")
    # every seed feeds numpy's SeedSequence, which takes no negative entropy
    if path.endswith(".seed") and value < 0:
        raise ConfigError(path, f"expected a non-negative integer, got {value!r}")
    return value


# resolving string annotations costs ten times the rest of a parse
_field_types = functools.cache(get_type_hints)


def _section(node, path: str, cls, defaults=None, fixed=None):
    """Map the YAML mapping ``node`` onto dataclass ``cls``.

    The keys are the fields of ``cls`` outside ``fixed``, each checked
    against its field's type.  A key left out takes its value from
    ``defaults`` if named there, else the dataclass's own default.
    ``defaults`` and ``fixed`` map field names to functions of the checked
    keys.  A ``FieldError`` from those functions or from ``cls`` becomes a
    ``ConfigError`` at the field it names below ``path``; any other
    ``ValueError`` becomes one at ``path``.
    """
    defaults, fixed = defaults or {}, fixed or {}
    node = _require_mapping(node, path)
    keys = {f.name for f in fields(cls)} - set(fixed)
    required = {
        f.name for f in fields(cls)
        if f.default is MISSING and f.default_factory is MISSING
    } - set(fixed) - set(defaults)
    _check_keys(node, path, required, keys)
    hints = _field_types(cls)
    values = {key: _value(value, f"{path}.{key}", hints[key]) for key, value in node.items()}
    try:
        derived = {**defaults, **fixed}
        return cls(**values, **{k: f(values) for k, f in derived.items() if k not in values})
    except FieldError as err:
        raise ConfigError(f"{path}.{err.field}", err.message) from err
    except ValueError as err:
        raise ConfigError(path, str(err)) from err


@dataclass(frozen=True)
class EvalConfig:
    test_size: int = 250
    bootstrap: BootstrapConfig = field(default_factory=BootstrapConfig)

    def __post_init__(self):
        if self.test_size < 1:
            raise FieldError("test_size", "must be >= 1")


@dataclass(frozen=True)
class CommConfig:
    bytes_per_param: int = DEFAULT_BYTES_PER_PARAM
    preset: str | None = None

    def __post_init__(self):
        if self.bytes_per_param < 1:
            raise FieldError("bytes_per_param", "must be >= 1")
        if self.preset is not None and self.preset not in PRESETS:
            raise FieldError("preset", f"unknown preset, expected one of {sorted(PRESETS)}")


@dataclass(frozen=True)
class ValidationConfig:
    """The server-held validation set that influence weighting scores on."""

    n_examples: int

    def __post_init__(self):
        if self.n_examples < 1:
            raise FieldError("n_examples", "must be >= 1")


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int
    model: ModelConfig
    sites: list[SiteSpec]
    external_sites: list[SiteSpec]
    federation: FederationConfig
    baselines: list[Strategy]
    validation: ValidationConfig
    eval: EvalConfig
    comm: CommConfig
    # the mapping this config was parsed from, re-parsed by with_seed
    _raw: dict = field(repr=False, compare=False)

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


def _list(raw: dict, path: str, key: str) -> list:
    """A top-level list; left out or null reads as empty."""
    value = raw.get(key)
    if value is None:
        return []
    if not isinstance(value, list):
        raise ConfigError(f"{path}.{key}", f"expected a list, got {value!r}")
    return value


def _sites(raw: dict, path: str, key: str, master_seed: int) -> list[SiteSpec]:
    # a site's seed derives from its id, so adding a site leaves the others be
    seed = {"seed": lambda v: derive_seed(master_seed, "site", v["site_id"])}
    return [
        _section(node, f"{path}.{key}[{i}]", SiteSpec, seed)
        for i, node in enumerate(_list(raw, path, key))
    ]


def parse_config(raw: dict, path: str = "<config>") -> ExperimentConfig:
    raw = _require_mapping(raw, path)
    _check_keys(
        raw,
        path,
        {"seed", "model", "sites", "federation"},
        {"external_sites", "baselines", "validation", "eval", "comm"},
    )
    master_seed = _value(raw["seed"], f"{path}.seed", int)

    model = _section(
        raw["model"],
        f"{path}.model",
        ModelConfig,
        defaults={"seed": lambda v: derive_seed(master_seed, "model")},
        fixed={
            "tag_classes": lambda v: PlantedRule(v["vocab_size"]).num_tags,
            "relation_classes": lambda v: PlantedRule(v["vocab_size"]).num_relations,
        },
    )
    sites = _sites(raw, path, "sites", master_seed)
    if not sites:
        raise ConfigError(f"{path}.sites", "expected a non-empty list")
    ids = [s.site_id for s in sites]
    if len(set(ids)) != len(ids):
        raise ConfigError(f"{path}.sites", f"duplicate site ids in {ids}")
    external = _sites(raw, path, "external_sites", master_seed)
    external_ids = [s.site_id for s in external]
    for i, site_id in enumerate(external_ids):
        if site_id in ids:
            raise ConfigError(
                f"{path}.external_sites", f"external site {site_id!r} shadows a training site"
            )
        if site_id in external_ids[:i]:
            raise ConfigError(f"{path}.external_sites", f"duplicate external site id {site_id!r}")

    federation = _section(
        raw["federation"],
        f"{path}.federation",
        FederationConfig,
        defaults={
            "clients_per_round": lambda v: len(sites),
            "seed": lambda v: derive_seed(master_seed, "federation"),
        },
    )
    if federation.clients_per_round > len(sites):
        raise ConfigError(
            f"{path}.federation.clients_per_round",
            f"{federation.clients_per_round} exceeds the {len(sites)} sites",
        )
    baselines = [
        _value(name, f"{path}.baselines[{i}]", Strategy)
        for i, name in enumerate(_list(raw, path, "baselines"))
    ]

    return ExperimentConfig(
        seed=master_seed,
        model=model,
        sites=sites,
        external_sites=external,
        federation=federation,
        baselines=baselines,
        validation=_section(
            raw.get("validation", {"n_examples": 40}), f"{path}.validation", ValidationConfig
        ),
        eval=_section(raw.get("eval", {}), f"{path}.eval", EvalConfig),
        comm=_section(raw.get("comm", {}), f"{path}.comm", CommConfig),
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
