"""The communication-round protocol: sampling, local updates trained as
lanes of one call in ascending client id, server aggregation, and the
baseline strategies.

Only adapter sets ever cross the client boundary; the per-round transcript
accounts every byte that moved.  Runs are bit-deterministic given
(config, data, seed): client sampling derives from (seed, round), the local
shuffle seed derives from the round alone (so clients holding identical
data produce identical updates), a lane trains bit for bit as it would
alone, and aggregation sums in ascending client-id order.  A round-0
update is trained once per site and distinct (backbone, start, sgd, local
seed) and shared by every strategy that asks for it, so sharing never
changes an output.
"""

from __future__ import annotations

import enum
from contextlib import contextmanager
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
    FieldError,
    Lanes,
    Pack,
    SgdConfig,
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
    packed = Pack.concat([site.packed for site in sites])
    tasks = tuple(dict.fromkeys(task for site in sites for task in site.spec.tasks))
    spec = SiteSpec(site_id="pooled", n_examples=len(packed), tasks=tasks,
                    seed=sites[0].spec.seed)
    return SiteDataset(spec, packed)


def _comm_volume(adapters: AdapterSet, share_a: bool) -> CommVolume:
    if share_a:
        return CommVolume(adapters.a_param_count(), serialized_a_size(adapters))
    return CommVolume(adapters.param_count(), serialized_size(adapters))


def _with_client_b(global_adapters: AdapterSet, client_set: AdapterSet) -> AdapterSet:
    return global_adapters.with_layers({
        key: pair._replace(b=client_set.layers[key].b)
        for key, pair in global_adapters.layers.items()
    })


@contextmanager
def located(place: str):
    """Note ``place`` on any exception raised inside, so that an error says
    where it happened; the CLI prints the notes, outermost first, before
    the message.  The exception keeps its type."""
    try:
        yield
    except Exception as err:
        err.add_note(place)
        raise


def _trained(models: list[ToyModel], sites: list[SiteDataset], sgd: SgdConfig, seed: int,
             first_round: bool) -> list[AdapterSet]:
    """Each ``models[i]``'s local update on ``sites[i]``, the sites in
    ascending id, trained as the lanes of one ``local_update`` call.  A
    round-0 update is trained once per distinct (backbone, adapters, sgd,
    seed) and kept on the site, so the strategies that start from the same
    initial set share it bit for bit; a lane that finds its update kept
    leaves the call.  Later rounds start from a strategy's own aggregate
    and never repeat, so they are not kept: that would hold rounds x
    clients sets.  The entry keeps the backbone it keys by identity, so the
    id cannot be reused while the entry lives."""
    out: list[AdapterSet | None] = [None] * len(models)
    if first_round:
        keys = [(id(m.frozen), m.adapters.checksum(), sgd, seed) for m in models]
        for i, (site, key) in enumerate(zip(sites, keys)):
            if key in site.first_updates:
                out[i] = site.first_updates[key][1]
    misses = [i for i, adapters in enumerate(out) if adapters is None]
    if misses:
        lanes = Lanes.of([sites[i].packed for i in misses])
        try:
            trained = local_update([models[i] for i in misses], lanes, sgd, [seed] * len(misses))
        except Diverged as err:
            err.add_note(f"client {sites[misses[err.lane]].spec.site_id!r}")
            raise
        for i, adapters in zip(misses, trained):
            out[i] = adapters
            if first_round:
                sites[i].first_updates[keys[i]] = (models[i].frozen, adapters)
    return out


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
        with located(f"round {t}"):
            sampled_idx = sample_clients(
                len(ids), config.clients_per_round, config.seed, t
            )
            sampled = [ids[i] for i in sampled_idx]
            local_seed = derive_seed(config.seed, "local", t)

            starts = [
                _with_client_b(global_adapters, retained_b[cid]) if share_a else global_adapters
                for cid in sampled
            ]
            trained = _trained([model.with_adapters(start) for start in starts],
                               [by_id[cid] for cid in sampled], config.sgd, local_seed, t == 0)
            updated = dict(zip(sampled, trained))

            val_losses = None
            report = None
            if config.strategy is Strategy.INFLUENCE:
                val_losses = {}
                for cid in sampled:
                    with located(f"client {cid!r}"):
                        val_losses[cid] = validation_loss(model, updated[cid], val_set)
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
    val_set: Pack | None,
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
