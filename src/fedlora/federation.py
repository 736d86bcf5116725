"""The communication-round protocol: sampling, local updates, server
aggregation, and the baseline strategies.

Only adapter sets ever cross the client boundary; the per-round transcript
accounts every byte that moved.  Runs are bit-deterministic given
(config, data, seed): client sampling derives from (seed, round), the local
shuffle seed derives from the round alone (so clients holding identical
data produce identical updates), a lane trains bit for bit as it would
alone, and aggregation sums in ascending client-id order.

Each strategy runs as round loops (one, or one per site for
``single_site``), and ``run_federation`` runs a seed's strategies
together: round t's local updates of every loop train as the lanes of one
``local_update`` call, in run order and then ascending client id.  Lanes
with the same start set, pack and local seed train once, as the round-0
updates of every strategy but ``centralized`` do, so sharing never changes
an output.
"""

from __future__ import annotations

import enum
import itertools
from collections.abc import Callable, Generator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .aggregation import (
    InfluenceReport,
    WeightMode,
    aggregate,
    influence_report,
    size_weights,
    validation_loss,
)
from .datasim import SiteDataset
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
    sites = sorted(sites, key=lambda site: site.site_id)
    return SiteDataset("pooled", Pack.concat([site.packed for site in sites]))


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


class _Lane(NamedTuple):
    """A local update as a round loop asks for it: the client's start
    model, its site and the round's local shuffle seed."""

    model: ToyModel
    site: SiteDataset
    seed: int


# a round loop yields each round's lanes and is sent their updates in order
RoundLoop = Generator[list[_Lane], list[AdapterSet], FederationResult]


def _round_loop(
    config: FederationConfig,
    sites: list[SiteDataset],
    val_set: Pack | None,
    backbone: Backbone,
    initial: AdapterSet,
) -> RoundLoop:
    """The round protocol of ``config`` over ``sites``.  Each round yields
    its lanes, one per sampled client in ascending id, and is sent their
    updates in that order."""
    share_a = config.strategy is Strategy.SHARE_A
    by_id = {site.site_id: site for site in sites}
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
            trained = yield [_Lane(model.with_adapters(start), by_id[cid], local_seed)
                             for cid, start in zip(sampled, starts)]
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


def _plan(
    config: FederationConfig,
    sites: list[SiteDataset],
    val_set: Pack | None,
    backbone: Backbone,
) -> tuple[list[RoundLoop], Callable[[list[FederationResult]], FederationResult]]:
    """``config``'s round loops, in run order, and the function that makes
    its result of theirs.

    ZERO_SHOT runs no loop: its result is the freshly initialised adapters
    (zero B, so the merged model equals the backbone).  CENTRALIZED runs
    one loop on a pseudo-client holding the pooled data, so its compute
    budget is rounds x epochs like every federated client.  SINGLE_SITE
    runs one loop per site on the same budget and returns per-site
    adapters; metric averaging happens at evaluation time.
    """
    if config.strategy is Strategy.INFLUENCE and not val_set:
        raise ValueError("influence-weighted aggregation requires a validation set")
    initial = backbone.init_adapters(derive_seed(config.seed, "adapter_init"))
    if config.strategy is Strategy.ZERO_SHOT:
        return [], lambda results: FederationResult(config, initial, [])
    # the pooled data and each lone site run the round loop as one client
    solo = replace(config, clients_per_round=1)
    if config.strategy is Strategy.CENTRALIZED:
        pooled = pool_sites(sites)
        return [_round_loop(solo, [pooled], val_set, backbone, initial)], itemgetter(0)
    if config.strategy is Strategy.SINGLE_SITE:
        loops = [_round_loop(solo, [site], val_set, backbone, initial) for site in sites]
        return loops, lambda results: FederationResult(config, None, [], {
            site.site_id: result.adapters for site, result in zip(sites, results)})
    return [_round_loop(config, sites, val_set, backbone, initial)], itemgetter(0)


def _distinct(lanes: list[_Lane]) -> tuple[list[int], list[int]]:
    """Each lane's index among the lanes that train differently, and the
    first lane of each index.  Lanes on one pack with one seed train alike
    when their start sets hold the same bits."""
    index: dict[tuple, int] = {}
    of = [index.setdefault((id(lane.site.packed), lane.seed, lane.model.adapters.checksum()),
                           len(index)) for lane in lanes]
    return of, [of.index(u) for u in range(len(index))]


def _lockstep(loops: list[RoundLoop], names: list[str], sgd: SgdConfig) -> list[FederationResult]:
    """Every loop's result, the loops run round by round: round t's lanes of
    every live loop, in run order, train as one ``local_update`` call, and
    equal lanes train once.

    The run stops at the first error it meets.  A loop's own error is
    noted with its strategy ``names[i]``.  A ``Diverged`` of the call is
    noted with the client of its lane, the round and then the strategy of
    the lane's loop.  Any other error of the call is noted with the round
    alone, as the call holds the lanes of every live loop."""
    results: list[FederationResult] = [None] * len(loops)
    updates: list[list[AdapterSet] | None] = [None] * len(loops)
    live = range(len(loops))
    for t in itertools.count():
        asks: list[tuple[int, list[_Lane]]] = []  # a live loop's position, its round's lanes
        for pos in live:
            try:
                asks.append((pos, loops[pos].send(updates[pos])))
            except StopIteration as done:
                results[pos] = done.value
            except Exception as err:
                err.add_note(f"strategy {names[pos]}")
                raise
        if not asks:
            return results
        live = [pos for pos, _ in asks]
        lanes = [lane for _, its in asks for lane in its]
        of, firsts = _distinct(lanes)
        try:
            trained = local_update([lanes[j].model for j in firsts],
                                   Lanes(tuple(lanes[j].site.packed for j in firsts)), sgd,
                                   [lanes[j].seed for j in firsts])
        except Diverged as err:
            # the first lane that trains like the diverging one is its loop's
            j = firsts[err.lane]
            pos = [pos for pos, its in asks for _ in its][j]
            for note in (f"client {lanes[j].site.site_id!r}", f"round {t}",
                         f"strategy {names[pos]}"):
                err.add_note(note)
            raise
        except Exception as err:
            err.add_note(f"round {t}")
            raise
        index = iter(of)
        for pos, its in asks:
            updates[pos] = [trained[next(index)] for _ in its]


def run_federation(
    configs: Sequence[FederationConfig],
    sites: list[SiteDataset],
    val_set: Pack | None,
    backbone: Backbone,
) -> list[FederationResult]:
    """Execute each config's strategy over the given sites: one result per
    config, in order.  The configs share one ``SgdConfig``; they may differ
    in anything else.

    The strategies train together, round by round: round t's local
    updates of every strategy train as the lanes of one ``local_update``
    call, and lanes with the same start set, pack and local seed train
    once.  A lane trains bit for bit as it would alone, so each result is
    the strategy's alone.  The run stops at the first error it meets: round
    by round, the training call first, then each strategy's scoring,
    aggregation and next round's planning in order (see ``_lockstep``).
    """
    if not sites:
        raise ValueError("no sites")
    ids = [site.site_id for site in sites]
    if len(set(ids)) != len(ids):
        raise ValueError("site ids must be unique")
    if any(config.sgd != configs[0].sgd for config in configs):
        raise ValueError("strategies trained together must share one SgdConfig")
    loops: list[RoundLoop] = []
    names: list[str] = []
    finishes = []
    for config in configs:
        with located(f"strategy {config.strategy.value}"):
            its, finish = _plan(config, sites, val_set, backbone)
        finishes.append((len(loops), len(loops) + len(its), finish))
        loops += its
        names += [config.strategy.value] * len(its)
    results = _lockstep(loops, names, configs[0].sgd) if loops else []
    return [finish(results[lo:hi]) for lo, hi, finish in finishes]
