"""The communication-round protocol: sampling, serial local updates,
server aggregation, and the baseline strategies.

Only adapter sets ever cross the client boundary; the per-round transcript
accounts every byte that moved.  Runs are bit-deterministic given
(config, data, seed): client sampling derives from (seed, round), the local
shuffle seed derives from the round alone (so clients holding identical
data produce identical updates), and aggregation sums in ascending
client-id order.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

import numpy as np

from .aggregation import (
    InfluenceReport,
    WeightMode,
    aggregate,
    influence_report,
    size_weights,
    validation_loss,
)
from .datasim import SiteDataset, SiteSpec
from .lora import AdapterSet, serialized_a_size, serialized_size
from .model import (
    Backbone,
    Diverged,
    Example,
    FieldError,
    Pack,
    SgdConfig,
    Task,
    ToyModel,
    local_update,
)
from .seeding import derive_seed


class Strategy(enum.Enum):
    ZERO_SHOT = "zero_shot"
    SINGLE_SITE = "single_site"
    CENTRALIZED = "centralized"
    FEDAVG = "fedavg"  # size-weighted adapter averaging
    INFLUENCE = "influence"  # validation-influence-weighted averaging
    SHARE_A = "share_a"  # share A factors only, B stays client-local


@dataclass(frozen=True)
class FederationConfig:
    strategy: Strategy
    clients_per_round: int
    rounds: int
    sgd: SgdConfig
    weight_mode: WeightMode = WeightMode.NORMALIZED
    seed: int = 0

    def __post_init__(self):
        for name in ("clients_per_round", "rounds"):
            if getattr(self, name) < 1:
                raise FieldError(name, "must be >= 1")


@dataclass(frozen=True)
class CommVolume:
    """One client's adapter payload in one direction: ``bytes`` is the
    serialized size on the wire, not ``params * bytes_per_param``."""

    params: int
    bytes: int


@dataclass(frozen=True)
class RoundTranscript:
    """One round as transcript.json records it, field for field; ``checksum``
    is the aggregated global set's."""

    round: int
    sampled: tuple[str, ...]
    weights: dict[str, float]
    uploads: dict[str, CommVolume]
    downloads: dict[str, CommVolume]
    checksum: str
    val_losses: dict[str, float] | None = None
    influence: InfluenceReport | None = None


@dataclass
class FederationResult:
    config: FederationConfig
    adapters: AdapterSet | None
    transcripts: list[RoundTranscript]
    client_adapters: dict[str, AdapterSet] = field(default_factory=dict)


def sample_clients(total: int, per_round: int, seed: int, round_index: int) -> list[int]:
    """Uniform sample without replacement, deterministic in (seed, round)."""
    if per_round > total:
        raise ValueError("cannot sample more clients than exist")
    rng = np.random.default_rng(derive_seed(seed, "sample", round_index))
    picked = rng.choice(total, size=per_round, replace=False)
    return sorted(int(i) for i in picked)


def pool_sites(sites: list[SiteDataset]) -> SiteDataset:
    """All sites' examples as one dataset, in ascending site id like the
    round loop, so the order ``sites`` come in never matters."""
    sites = sorted(sites, key=lambda site: site.spec.site_id)
    examples: list[Example] = []
    tasks: list[Task] = []
    for site in sites:
        examples.extend(site.examples)
        for task in site.spec.tasks:
            if task not in tasks:
                tasks.append(task)
    spec = SiteSpec(
        site_id="pooled",
        n_examples=len(examples),
        tasks=tuple(tasks),
        seed=sites[0].spec.seed,
    )
    return SiteDataset(spec, examples)


def _comm_volume(adapters: AdapterSet, share_a: bool) -> CommVolume:
    if share_a:
        return CommVolume(adapters.a_param_count(), serialized_a_size(adapters))
    return CommVolume(adapters.param_count(), serialized_size(adapters))


def _with_client_b(global_adapters: AdapterSet, client_set: AdapterSet) -> AdapterSet:
    return global_adapters.with_layers({
        key: pair._replace(b=client_set.layers[key].b)
        for key, pair in global_adapters.layers.items()
    })


def _run_protocol(
    config: FederationConfig,
    sites: list[SiteDataset],
    val_set: Pack | None,
    backbone: Backbone,
    initial: AdapterSet,
) -> FederationResult:
    share_a = config.strategy is Strategy.SHARE_A
    by_id = {site.spec.site_id: site for site in sites}
    ids = sorted(by_id)
    sizes = {cid: len(by_id[cid]) for cid in ids}
    model = ToyModel(backbone, initial)

    global_adapters = initial
    retained_b: dict[str, AdapterSet] = {cid: initial for cid in ids}
    transcripts: list[RoundTranscript] = []

    for t in range(config.rounds):
        sampled_idx = sample_clients(
            len(ids), config.clients_per_round, config.seed, t
        )
        sampled = [ids[i] for i in sampled_idx]
        local_seed = derive_seed(config.seed, "local", t)

        updated = {}
        for cid in sampled:
            start = global_adapters
            if share_a:
                start = _with_client_b(global_adapters, retained_b[cid])
            try:
                updated[cid] = local_update(
                    model.with_adapters(start), by_id[cid].packed, config.sgd, local_seed
                )
            except Diverged as err:
                raise Diverged(f"round {t}, client {cid!r}, {err}") from None

        val_losses = None
        report = None
        if config.strategy is Strategy.INFLUENCE:
            val_losses = {
                cid: validation_loss(model, updated[cid], val_set) for cid in sampled
            }
            report = influence_report(
                sampled, [sizes[c] for c in sampled], [val_losses[c] for c in sampled]
            )
            weights = report.as_weight_map()
        else:
            weights = size_weights(sizes, sampled, mode=config.weight_mode)

        global_adapters = aggregate(updated, weights)
        if share_a:
            # only A travels: the global B stays the initial set's zeros
            global_adapters = _with_client_b(global_adapters, initial)
            retained_b.update(updated)

        upload = {cid: _comm_volume(updated[cid], share_a) for cid in sampled}
        download = {cid: _comm_volume(global_adapters, share_a) for cid in sampled}
        transcripts.append(
            RoundTranscript(
                round=t,
                sampled=tuple(sampled),
                weights=weights,
                uploads=upload,
                downloads=download,
                checksum=global_adapters.checksum(),
                val_losses=val_losses,
                influence=report,
            )
        )

    client_adapters = {}
    if share_a:
        # personalized model per client: its own B factors, the shared A
        client_adapters = {
            cid: _with_client_b(global_adapters, retained_b[cid]) for cid in ids
        }
    return FederationResult(config, global_adapters, transcripts, client_adapters)


def run_federation(
    config: FederationConfig,
    sites: list[SiteDataset],
    val_set: Pack | list[Example] | None,
    backbone: Backbone,
) -> FederationResult:
    """Execute the configured strategy over the given sites.

    ZERO_SHOT returns the freshly initialised adapters (zero B, so the
    merged model equals the backbone).  CENTRALIZED trains one pseudo-client
    holding the pooled data through the same round loop, so its compute
    budget is rounds x epochs like every federated client.  SINGLE_SITE
    trains each site independently on the same budget and returns
    per-site adapters; metric averaging happens at evaluation time.
    """
    if not sites:
        raise ValueError("no sites")
    ids = [site.spec.site_id for site in sites]
    if len(set(ids)) != len(ids):
        raise ValueError("site ids must be unique")
    if config.strategy is Strategy.INFLUENCE and not val_set:
        raise ValueError("influence-weighted aggregation requires a validation set")
    val_set = Pack.of(val_set) if val_set else None  # packed once, scored every round

    initial = backbone.init_adapters(derive_seed(config.seed, "adapter_init"))

    if config.strategy is Strategy.ZERO_SHOT:
        return FederationResult(config, initial, [])

    # the pooled data and each lone site run the round loop as one client
    solo = replace(config, clients_per_round=1)
    if config.strategy is Strategy.CENTRALIZED:
        pooled = pool_sites(sites)
        return _run_protocol(solo, [pooled], val_set, backbone, initial)

    if config.strategy is Strategy.SINGLE_SITE:
        client_adapters = {}
        for site in sites:
            result = _run_protocol(solo, [site], val_set, backbone, initial)
            client_adapters[site.spec.site_id] = result.adapters
        return FederationResult(config, None, [], client_adapters)

    return _run_protocol(config, sites, val_set, backbone, initial)
