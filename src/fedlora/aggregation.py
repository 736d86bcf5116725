"""Client weighting and weighted aggregation of adapter sets.

Weighting comes in two families: size-based (classic federated averaging)
and influence-aware, where each client's updated model is scored on a small
server-held validation set and the softmax of the negated losses scales its
contribution.  When all influences are equal the influence-aware weights
reduce to plain size weights: both call one normalization on the same sizes,
so the two strategies then aggregate bit-identically.

Summation order is fixed by ascending client id, which makes aggregation
bit-deterministic regardless of scheduling.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .lora import AdapterPair, AdapterSet, DimensionMismatch, check_shapes
from .model import Example, Pack, ToyModel, loss


class WeightMode(enum.Enum):
    # The printed size-weight formula carries a 1/m factor that makes full
    # participation weights sum to 1/m; it is kept behind LITERAL for
    # fidelity testing.  NORMALIZED renormalizes over the participants and
    # is the default everywhere.
    LITERAL = "literal"
    NORMALIZED = "normalized"


class IncompatibleAdapters(ValueError):
    def __init__(self, client_id: str, layer_key: str, detail: str):
        self.client_id = client_id
        self.layer_key = layer_key
        super().__init__(f"client {client_id!r}, layer {layer_key!r}: {detail}")


@dataclass(frozen=True)
class InfluenceReport:
    client_ids: tuple[str, ...]
    val_losses: tuple[float, ...]
    influences: tuple[float, ...]
    weights: tuple[float, ...]
    stability_shift: float

    def as_weight_map(self) -> dict[str, float]:
        return dict(zip(self.client_ids, self.weights))


def validation_loss(
    model: ToyModel, adapters: AdapterSet, val_set: Pack | list[Example]
) -> float:
    """Mean cross-entropy of the merged (backbone + adapters) model on D_v;
    an empty set fails to pack (``EmptyBatchError``)."""
    return loss(model.with_adapters(adapters), val_set)


def influence_scores(val_losses) -> tuple[list[float], float]:
    """Softmax of negated validation losses, plus the stability shift used.

    Exponents are shifted by c = min_i(-l_i) before exponentiation; the
    result is shift-invariant, strictly decreasing in the loss, and sums
    to one.
    """
    losses = [float(l) for l in val_losses]
    if not losses:
        raise ValueError("need at least one loss")
    if any(math.isnan(l) or math.isinf(l) for l in losses):
        raise ValueError("losses must be finite")
    shift = min(-l for l in losses)
    exps = [math.exp(-l - shift) for l in losses]
    total = math.fsum(exps)
    return [e / total for e in exps], shift


def _normalized(values: list[float]) -> list[float]:
    total = math.fsum(values)
    return [v / total for v in values]


def data_aware_weights(sizes, influences) -> list[float]:
    """Combine dataset sizes with influences: w_k proportional to n_k * I_k.

    When every influence is bit-equal this reduces exactly to normalized
    size weights — the same call on the same floats — so equal validation
    losses reproduce plain size-weighted averaging down to the last bit.
    """
    sizes = [float(n) for n in sizes]
    influences = [float(i) for i in influences]
    if len(sizes) != len(influences):
        raise ValueError("sizes and influences must align")
    if any(n <= 0 for n in sizes):
        raise ValueError("sizes must be positive")
    if max(influences) == min(influences):
        return _normalized(sizes)
    products = [n * i for n, i in zip(sizes, influences)]
    if math.fsum(products) <= 0:
        raise ValueError("all size-influence products vanished")
    return _normalized(products)


def influence_report(client_ids, sizes, val_losses) -> InfluenceReport:
    """Full influence pipeline for one round, clients in ascending id order."""
    order = sorted(range(len(client_ids)), key=lambda i: client_ids[i])
    ids = [client_ids[i] for i in order]
    losses = [float(val_losses[i]) for i in order]
    ordered_sizes = [sizes[i] for i in order]
    influences, shift = influence_scores(losses)
    weights = data_aware_weights(ordered_sizes, influences)
    return InfluenceReport(
        client_ids=tuple(ids),
        val_losses=tuple(losses),
        influences=tuple(influences),
        weights=tuple(weights),
        stability_shift=shift,
    )


def size_weights(
    sizes: dict[str, int],
    participants: list[str],
    mode: WeightMode = WeightMode.NORMALIZED,
) -> dict[str, float]:
    """Per-client size weights over the participating set.

    NORMALIZED: w_k = n_k / sum of participating sizes (sums to 1).
    LITERAL: w_k = (1/m) * n_k / N with N the total over every client in
    ``sizes``, exactly as the printed update rule has it; under full
    participation these sum to 1/m.
    """
    if not participants:
        raise ValueError("participant set is empty")
    ordered = sorted(participants)
    if mode is WeightMode.NORMALIZED:
        return dict(zip(ordered, _normalized([float(sizes[c]) for c in ordered])))
    n_global = float(sum(sizes.values()))
    m = len(ordered)
    return {c: sizes[c] / n_global / m for c in ordered}


def aggregate(clients: dict[str, AdapterSet], weights: dict[str, float]) -> AdapterSet:
    """Weighted sum of client adapter sets in ascending client id: per layer,
    global B = sum of w_k B_k and global A = sum of w_k A_k.  A set whose
    rank, alpha or layer shapes differ from the first set's raises
    ``IncompatibleAdapters`` naming the client and the layer."""
    if not clients:
        raise ValueError("no clients to aggregate")
    if set(weights) != set(clients):
        raise ValueError("weights must cover exactly the given clients")
    if any(w < 0 for w in weights.values()):
        raise ValueError("weights must be non-negative")
    ids = sorted(clients)
    reference = clients[ids[0]]
    shapes = reference.shapes()
    for cid in ids[1:]:
        candidate = clients[cid]
        if (candidate.rank, candidate.alpha) != (reference.rank, reference.alpha):
            raise IncompatibleAdapters(
                cid, "<set>", f"r={candidate.rank}, alpha={candidate.alpha} vs "
                f"r={reference.rank}, alpha={reference.alpha}",
            )
        try:
            check_shapes(shapes, candidate)
        except DimensionMismatch as err:
            raise IncompatibleAdapters(
                cid, err.layer_key, f"shape {err.actual} vs {err.expected}"
            ) from None
    layers = {}
    for key, (ref_b, ref_a) in reference.layers.items():
        b_sum = np.zeros_like(ref_b)
        a_sum = np.zeros_like(ref_a)
        for cid in ids:
            b, a = clients[cid].layers[key]
            w = weights[cid]
            b_sum += w * b
            a_sum += w * a
        layers[key] = AdapterPair(b_sum, a_sum)
    return reference.with_layers(layers)
