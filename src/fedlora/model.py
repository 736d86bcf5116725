"""A small differentiable model whose only trainable parameters are adapters.

The frozen part is a token embedding, one dense trunk and two task heads
(sequence tagging and pair relation classification).  Every dense layer
carries a low-rank adapter, so the trainable state is exactly an
AdapterSet and the whole model stays faithful to an adapters-only
communication protocol.

Per-token pipeline (no attention, tokens are independent):

    x = E[token]
    z = relu((W_trunk + s * B A)^T x)
    tag logits      = (H_tag + s * B A)^T z
    relation logits = (H_rel + s * B A)^T [z_head ; z_tail]

Data lives only in flat arrays (``Pack``), a site's as one pack, and every
entry point takes packs.  As tokens are independent, a pass runs the trunk
and both heads once per token id, not per token.  Scoring (``loss``) and
evaluation (``forward``) run over every token id of the vocabulary through
the merged weights.  Training (``local_update`` and ``grad``) never merges
the trunk, as unmerged LoRA, and runs each lane over its own tokens only:
a mini-batch (``Batch``) reaches the kernel as the token ids a lane reads,
its tagging loss weights per (row, gold tag) and its marked pairs, whose
head and tail name rows.  ``Lanes.batches`` builds every such batch, with
``Pack.take`` picking its examples, and ``grad``'s batch is one step of it.

Training runs k clients in lockstep, one lane each (``Lanes``); ``grad``,
scoring and evaluation run one lane.  Every array carries a leading lane
axis over the lanes still training, ascending; a lane past its last step
is left out of the batch and the stack.  Factors stack as (k, d, r) and
(k, r, l), a batch's rows as (k, U) and its weights as (k, U, C_tag), and
a pair carries its row in the stacked rows, slot * U + row, slot being its
lane's place in the batch.  ``Lanes.batches`` builds every index table of
a chunk of ``TABLE_STEPS`` steps at once, so a step's batch is slices of
them and one ``np.bincount`` of tagging weights.  Every lane of a step has
U rows, its read ids ascending and then unread ids as padding.  A padding
row weighs zero, so it adds exact zeros to every sum over rows, and a gemm
row's result does not depend on the rows beside it while U is a whole
number of ``ROW_BLOCK``s.  So ``np.matmul`` gives each lane's rows what
the lane alone gets, and lanes do not affect each other.

A call allocates its big arrays once.  Every lane's factors are a row of
one (k, P) buffer, P = sum of d * r + r * l over the layers, whose
``_split`` views are each layer's (B, A) stacks; ``_grads`` writes a
matching (k, P) gradient buffer and its rows, merged heads and weight
gradients into a ``_Workspace``, through views rebuilt only when the
lanes or U change.  A step updates the whole buffer in place and checks it
with one ``np.isfinite``; a lane leaves with a copy of its row.
"""

from __future__ import annotations

import enum
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .lora import AdapterSet, check_shapes, init_adapter_set


class Task(enum.Enum):
    TAGGING = "tagging"
    RELATION = "relation"


class FieldError(ValueError):
    """A value outside its field's range.  ``field`` names the field, so a
    config loader can report the full path to it."""

    def __init__(self, field: str, message: str):
        self.field = field
        self.message = message
        super().__init__(f"{field} {message}")


class TokenRangeError(ValueError):
    def __init__(self, token: int, vocab_size: int):
        super().__init__(f"token id {token} out of range for vocab of {vocab_size}")


class LabelRangeError(ValueError):
    def __init__(self, kind: str, label: int, classes: int):
        super().__init__(f"{kind} label {label} out of range for {classes} {kind} classes")


class EmptyBatchError(ValueError):
    pass


class Diverged(FloatingPointError):
    """Local training drove an adapter factor to inf or NaN.  The message
    names the layer, a note the first step it happened at and ``lane`` the
    lowest lane of ``local_update`` it happened in then; each caller that
    knows more notes where it ran."""

    def __init__(self, message: str, lane: int):
        super().__init__(message)
        self.lane = lane


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    hidden: int
    tag_classes: int
    relation_classes: int
    rank: int
    alpha: float
    seed: int = 0

    def __post_init__(self):
        for name in ("vocab_size", "hidden", "tag_classes", "relation_classes", "rank"):
            if getattr(self, name) < 1:
                raise FieldError(name, "must be positive")
        if self.alpha <= 0:
            raise FieldError("alpha", "must be positive")
        # the smallest dimension of the three adapted layers caps the rank
        limit = min(self.hidden, self.tag_classes, self.relation_classes)
        if self.rank > limit:
            raise FieldError(
                "rank", f"{self.rank} exceeds min(hidden, tag_classes, relation_classes) = {limit}"
            )


@dataclass(frozen=True)
class SgdConfig:
    learning_rate: float
    epochs: int
    batch_size: int

    def __post_init__(self):
        if self.learning_rate < 0:
            raise FieldError("learning_rate", "must be >= 0")
        for name in ("epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise FieldError(name, "must be >= 1")


class Batch(NamedTuple):
    """A lockstep mini-batch as the compute kernel reads it, over the lanes
    still training: slot i of every per-lane field is lane ``lanes[i]``.
    It holds the U token ids each slot runs over, each slot's tagging loss
    weights per (row, gold tag), and the marked pairs, each with the
    stacked rows slot * U + row of its head and tail tokens and their keys
    into a (k * U, C_rel) table of the pairs' logit gradients.
    ``Lanes.batches`` builds every field but ``weights`` once per chunk of
    steps, so a step's are slices."""

    lanes: np.ndarray  # (k,) the lanes still training, ascending
    tokens: np.ndarray  # (k, U) a slot's read token ids ascending, then unread ones as padding
    weights: np.ndarray  # (k, U, C_tag) summed 1/n_i of a slot's tagging tokens of that row and tag
    heads: np.ndarray  # (R,) stacked row slot * U + row of each pair's marked head token
    tails: np.ndarray  # (R,) stacked row of each pair's marked tail token
    relations: np.ndarray  # (R,) relation labels
    head_keys: np.ndarray  # (R * C_rel,) heads[i] * C_rel + j, entry j of pair i's head row
    tail_keys: np.ndarray  # (R * C_rel,) tails[i] * C_rel + j
    sizes: np.ndarray  # (k,) examples per slot; a lane's loss averages over its own
    scales: np.ndarray  # (k,) 1 / sizes
    pair_scales: np.ndarray  # (R,) 1 / size of each pair's lane


def _cat(arrays) -> np.ndarray:
    """Integer arrays end to end; none gives an empty integer array."""
    return np.concatenate([np.zeros(0, dtype=np.int64), *arrays])


@dataclass(frozen=True, eq=False)
class Pack:
    """Examples as flat arrays, each task's in example order; all data is
    packs, a site's one pack.  ``build`` is the one constructor: a site is
    drawn straight into it, and ``concat`` and ``take`` join packs and pick
    their rows.  ``ranges`` measures the tokens and labels on first use, so
    checking a pack against a model again costs a few comparisons."""

    tokens: np.ndarray  # (T,) every tagging token, examples back to back
    tags: np.ndarray  # (T,) their gold tags
    shares: np.ndarray  # (T,) 1/n_i, the loss weight of a token of an n_i-token example
    heads: np.ndarray  # (R,) marked head token of each pair
    tails: np.ndarray  # (R,) marked tail token of each pair
    relations: np.ndarray  # (R,) relation labels
    tagging: np.ndarray  # (n,) whether example i is a tagging example
    starts: np.ndarray  # (n_tag + 1,) offset of each tagging example in tokens

    @classmethod
    def build(cls, tagging, tokens, counts, tags, heads, tails, relations) -> "Pack":
        """The pack of examples whose tasks ``tagging`` marks: ``counts``
        tokens per tagging example, with ``tokens`` and ``tags`` back to
        back, and one pair (``heads``, ``tails``, ``relations``) per
        relation example.  Any integer sequences will do."""
        tagging = np.asarray(tagging, dtype=bool)
        tokens, counts, tags, heads, tails, relations = (
            np.asarray(a, dtype=np.int64) for a in (tokens, counts, tags, heads, tails, relations))
        if not len(tagging):
            raise EmptyBatchError("no examples to pack")
        if (counts == 0).any():
            raise ValueError("empty token sequence")
        n_tag = int(tagging.sum())
        if not (len(counts) == n_tag and counts.sum() == len(tokens) == len(tags)):
            raise ValueError("need one token count per tagging example and one tag per token")
        if not len(heads) == len(tails) == len(relations) == len(tagging) - n_tag:
            raise ValueError("need one head, tail and relation per relation example")
        return cls(tokens, tags, np.repeat(1.0 / counts, counts), heads, tails, relations,
                   tagging, np.concatenate([[0], np.cumsum(counts)]))

    @classmethod
    def concat(cls, packs: Sequence["Pack"]) -> "Pack":
        """``packs`` end to end; one pack is itself."""
        if len(packs) == 1:
            return packs[0]
        tokens, tags, heads, tails, relations = (
            _cat(getattr(pack, name) for pack in packs)
            for name in ("tokens", "tags", "heads", "tails", "relations"))
        return cls.build(np.concatenate([pack.tagging for pack in packs]), tokens,
                         _cat(np.diff(pack.starts) for pack in packs), tags, heads, tails,
                         relations)

    def take(self, rows: np.ndarray) -> "Pack":
        """Examples ``rows`` of this pack, in that order."""
        tagging = self.tagging[rows]
        # each example's row among the tagging examples or among the pairs
        index = np.where(self.tagging, np.cumsum(self.tagging), np.cumsum(~self.tagging))[rows] - 1
        tag_rows, pairs = index[tagging], index[~tagging]
        # the taken tagging examples' token positions: example i's run from
        # starts[i], and land after the tokens of those taken before it
        counts = np.diff(self.starts)[tag_rows]
        shift = self.starts[tag_rows] - np.cumsum(counts) + counts
        tok = np.repeat(shift, counts) + np.arange(int(counts.sum()))
        return Pack.build(tagging, self.tokens[tok], counts, self.tags[tok], self.heads[pairs],
                          self.tails[pairs], self.relations[pairs])

    @cached_property
    def ranges(self) -> dict[str, tuple[int, int]]:
        """(min, max) of "token" (tagging and marked alike), "tag" and
        "relation", each if present, measured on first use."""
        values = {"token": _cat([self.tokens, self.heads, self.tails]), "tag": self.tags,
                  "relation": self.relations}
        return {kind: (int(v.min()), int(v.max())) for kind, v in values.items() if len(v)}

    def __len__(self) -> int:
        return len(self.tagging)


# the steps whose per-token tables ``Lanes.batches`` builds at a time
TABLE_STEPS = 32


@dataclass(frozen=True, eq=False)
class Lanes:
    """Packs trained side by side, lane i on ``packs[i]``.  ``len`` counts
    the examples of every lane."""

    packs: tuple[Pack, ...]

    def __len__(self) -> int:
        return sum(len(pack) for pack in self.packs)

    def batches(self, step_of: np.ndarray, config: ModelConfig) -> Iterator[Batch]:
        """The lockstep mini-batches, in step order, that put example j of
        the lanes' examples (lane after lane) in step ``step_of[e, j]`` on
        pass e over the data; a step may hold only one pass of a lane.  A
        lane trains through the last step it has examples in and is left
        out of every step after it, so a step's batch holds the lanes still
        training, ascending.  One stable sort by step keeps each lane's
        examples of a step in list order, so its weights sum in the same
        order as the same examples packed alone.  A pack that several lanes
        train on is joined once, and ``Pack.take`` picks the examples
        ``TABLE_STEPS`` steps at a time.  Such a chunk's index tables (rows,
        pair rows and keys, 1/size scales) are built at once over its
        (step, live lane) cells, and a step's batch slices them; only its
        tagging weights are one ``np.bincount`` per step, so the per-token
        tables hold a few steps' tokens, not every pass's.  Every step of a
        chunk runs each lane over U rows (``_slots``), U set by the lane and
        step that read the most ids."""
        v, c, rel = config.vocab_size, config.tag_classes, config.relation_classes
        counts = [len(pack) for pack in self.packs]
        k = len(counts)
        distinct = list({id(pack): pack for pack in self.packs}.values())
        whole = Pack.concat(distinct)
        first = dict(zip(map(id, distinct), np.cumsum([0] + [len(pack) for pack in distinct])))
        # the row in ``whole`` of each example, lane after lane
        source = _cat(first[id(pack)] + np.arange(len(pack)) for pack in self.packs)
        lane = np.repeat(np.arange(k), counts)
        flat = step_of.reshape(-1)
        n_steps = int(flat.max()) + 1
        # the live cells, (step, lane) up to each lane's last step, step
        # after step: each one's step, lane and slot among its step's lanes
        last = np.maximum.reduceat(step_of.max(axis=0), np.cumsum([0] + counts[:-1]))
        live = np.arange(n_steps)[:, None] <= last
        cell_step, cell_lane = np.nonzero(live)
        bounds = np.searchsorted(cell_step, np.arange(n_steps + 1))
        cell_slot = np.arange(len(cell_lane)) - bounds[cell_step]
        order = np.argsort(flat, kind="stable")
        ex = order % len(lane)
        step = flat[order]
        # each example's row in ``whole`` and its live cell, in step order
        row, cell = source[ex], (np.cumsum(live.reshape(-1)) - 1)[step * k + lane[ex]]
        sizes = np.bincount(cell, minlength=len(cell_lane))
        scales = 1.0 / sizes
        cuts = np.searchsorted(step, np.arange(0, n_steps + TABLE_STEPS, TABLE_STEPS))

        # the per-example sort dies here; the steps keep what they read
        def steps() -> Iterator[Batch]:
            for g0, x0, x1 in zip(range(0, n_steps, TABLE_STEPS), cuts, cuts[1:]):
                g1 = min(g0 + TABLE_STEPS, n_steps)
                c0, c1 = int(bounds[g0]), int(bounds[g1])
                chunk = whole.take(row[x0:x1])
                # the cell in the chunk of each tagging token and of each pair
                at = cell[x0:x1] - c0
                tag_cell = np.repeat(at[chunk.tagging], np.diff(chunk.starts))
                pair_cell = at[~chunk.tagging]
                read = np.zeros((c1 - c0, v), dtype=bool)
                for cells, ids in ((tag_cell, chunk.tokens), (pair_cell, chunk.heads),
                                   (pair_cell, chunk.tails)):
                    read[cells, ids] = True
                u, rank = _slots(read)
                # the read ids ascending, then the unread ones
                tokens = np.ascontiguousarray(np.argsort(~read, axis=1, kind="stable")[:, :u])
                base = cell_slot[c0:c1] * u  # each cell's first row in its step's stack
                keys = (base[tag_cell] + rank[tag_cell, chunk.tokens]) * c + chunk.tags
                heads = base[pair_cell] + rank[pair_cell, chunk.heads]
                tails = base[pair_cell] + rank[pair_cell, chunk.tails]
                head_keys, tail_keys = ((rows[:, None] * rel + np.arange(rel)).reshape(-1)
                                        for rows in (heads, tails))
                pair_scales = scales[c0:c1][pair_cell]
                s_bounds = (bounds[g0:g1 + 1] - c0).tolist()
                t_bounds, q_bounds = (np.searchsorted(cell_step[c0 + cells], np.arange(g0, g1 + 1))
                                      .tolist() for cells in (tag_cell, pair_cell))
                for g in range(g1 - g0):
                    s0, s1, t0, t1 = s_bounds[g], s_bounds[g + 1], t_bounds[g], t_bounds[g + 1]
                    q0, q1 = q_bounds[g], q_bounds[g + 1]
                    weights = np.bincount(keys[t0:t1], weights=chunk.shares[t0:t1],
                                          minlength=(s1 - s0) * u * c)
                    yield Batch(cell_lane[c0 + s0:c0 + s1], tokens[s0:s1],
                                weights.reshape(s1 - s0, u, c), heads[q0:q1], tails[q0:q1],
                                chunk.relations[q0:q1], head_keys[q0 * rel:q1 * rel],
                                tail_keys[q0 * rel:q1 * rel], sizes[c0 + s0:c0 + s1],
                                scales[c0 + s0:c0 + s1], pair_scales[q0:q1])

        return steps()


# The row block of the kernel's gemms.  A gemm row's result must not depend
# on how many rows run with it, and OpenBLAS computes the (h, C_tag) tag
# logits of the rows past the last full block of 4 differently at h = 64.
ROW_BLOCK = 4


def _slots(read: np.ndarray) -> tuple[int, np.ndarray]:
    """U for the cells of ``read`` (n, V), whose True entries mark the
    token ids a lane reads in a step: the most ids any cell reads, rounded
    up to whole ``ROW_BLOCK``s, at most V.  Also the (n, V) table of each
    read id's row among its cell's read ids, ascending."""
    most = max(int(read.sum(axis=1).max()), 1)
    u = min(-(-most // ROW_BLOCK) * ROW_BLOCK, read.shape[1])
    slot = np.cumsum(read, axis=1, dtype=np.int32)
    slot -= 1
    return u, slot


@dataclass(frozen=True, eq=False)
class Backbone:
    """Frozen parameters, identical across clients and rounds.  ``==`` is
    identity, as its arrays would make a field-wise comparison raise."""

    config: ModelConfig
    embedding: np.ndarray  # V x h
    trunk: np.ndarray  # h x h
    tag_head: np.ndarray  # h x C_tag
    rel_head: np.ndarray  # 2h x C_rel
    base_hidden: np.ndarray = field(init=False, repr=False)  # V x h, E W0, cached

    def __post_init__(self):
        for name in ("embedding", "trunk", "tag_head", "rel_head"):
            arr = np.ascontiguousarray(np.asarray(getattr(self, name), dtype=np.float64))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "base_hidden", self.embedding @ self.trunk)
        self.base_hidden.flags.writeable = False

    @classmethod
    def build(cls, config: ModelConfig) -> "Backbone":
        rng = np.random.default_rng(config.seed)
        h = config.hidden
        return cls(
            config=config,
            embedding=rng.normal(0.0, 1.0, size=(config.vocab_size, h)),
            trunk=rng.normal(0.0, 1.0 / np.sqrt(h), size=(h, h)),
            tag_head=rng.normal(0.0, 1.0 / np.sqrt(h), size=(h, config.tag_classes)),
            rel_head=rng.normal(0.0, 1.0 / np.sqrt(2 * h), size=(2 * h, config.relation_classes)),
        )

    def adapter_shapes(self) -> dict[str, tuple[int, int]]:
        return {
            "trunk": self.trunk.shape,
            "tag_head": self.tag_head.shape,
            "rel_head": self.rel_head.shape,
        }

    def init_adapters(self, seed: int) -> AdapterSet:
        return init_adapter_set(
            self.adapter_shapes(), self.config.rank, self.config.alpha, seed
        )

    def check_ranges(self, pack: Pack) -> None:
        """Raise ``TokenRangeError`` unless every token of ``pack`` is in the
        vocabulary, and ``LabelRangeError`` unless every label is a class."""
        cfg = self.config
        limits = {"token": cfg.vocab_size, "tag": cfg.tag_classes,
                  "relation": cfg.relation_classes}
        for kind, bounds in pack.ranges.items():
            for value in bounds:
                if not 0 <= value < limits[kind]:
                    raise (TokenRangeError(value, limits[kind]) if kind == "token"
                           else LabelRangeError(kind, value, limits[kind]))


@dataclass(frozen=True)
class ToyModel:
    frozen: Backbone
    adapters: AdapterSet

    def __post_init__(self):
        check_shapes(self.frozen.adapter_shapes(), self.adapters)

    @classmethod
    def build(cls, config: ModelConfig, adapter_seed: int | None = None) -> "ToyModel":
        frozen = Backbone.build(config)
        seed = config.seed if adapter_seed is None else adapter_seed
        return cls(frozen, frozen.init_adapters(seed))

    def with_adapters(self, adapters: AdapterSet) -> "ToyModel":
        return ToyModel(self.frozen, adapters)

    @cached_property
    def merged(self) -> dict[str, np.ndarray]:
        """The adapted dense weights W0 + s * B A per layer, merged on first
        use; the model is frozen and its factor arrays read-only, so the
        cache cannot go stale."""
        return _effective(self.frozen, self.adapters.layers, self.adapters.scale)


# ---------------------------------------------------------------------------
# Forward / loss / gradients, every array with a leading lane axis.
# ---------------------------------------------------------------------------


def _effective(frozen: Backbone, factors: dict[str, tuple[np.ndarray, np.ndarray]],
               scale: float, out: dict[str, np.ndarray] | None = None) -> dict[str, np.ndarray]:
    """W0 + s * B A per layer, written into ``out``'s arrays if given."""
    merged = {}
    for key, (b, a) in factors.items():
        # in place, W0 + s * (B A) in the same rounding, with no temporaries
        w = np.matmul(b, a, out=None if out is None else out[key])
        w *= scale
        w += getattr(frozen, key)
        merged[key] = w
    return merged


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _forward(z: np.ndarray, eff: dict[str, np.ndarray], heads: np.ndarray, tails: np.ndarray):
    """One pass over the whole vocabulary in every lane: relu turns the
    trunk's pre-activations ``z`` (k, V, h) into hidden rows in place; the
    merged heads ``eff`` give their tag log-distributions (k, V, C_tag) and
    those of the pairs at stacked rows ``heads``/``tails``, the relation
    head's head half on the head token plus its tail half on the tail."""
    np.maximum(z, 0.0, out=z)
    h = z.shape[2]
    rel = eff["rel_head"]
    rows = z.shape[0] * z.shape[1]
    rel_logits = ((z @ rel[:, :h]).reshape(rows, -1)[heads]
                  + (z @ rel[:, h:]).reshape(rows, -1)[tails])
    return _log_softmax(z @ eff["tag_head"]), _log_softmax(rel_logits)


def _merged_pass(model: ToyModel, heads: np.ndarray, tails: np.ndarray):
    """``_forward`` through ``model``'s merged weights, as a stack of one lane."""
    eff = {key: w[None] for key, w in model.merged.items()}
    return _forward(model.frozen.embedding @ eff["trunk"], eff, heads, tails)


def forward(model: ToyModel, pack: Pack) -> tuple[np.ndarray, np.ndarray]:
    """Class probability distributions in one pass: (T, C_tag) for the
    tagging tokens and (R, C_rel) for the marked pairs, each in pack order."""
    model.frozen.check_ranges(pack)
    # in lane 0 a pair's row in the stacked vocabulary is its token id
    tag_logp, rel_logp = _merged_pass(model, pack.heads, pack.tails)
    return np.exp(tag_logp[0])[pack.tokens], np.exp(rel_logp)


def loss(model: ToyModel, batch: Pack) -> float:
    """Mean over the batch of per-example mean negative log-likelihood."""
    model.frozen.check_ranges(batch)
    v, c = model.frozen.config.vocab_size, model.frozen.config.tag_classes
    weights = np.bincount(batch.tokens * c + batch.tags, weights=batch.shares, minlength=v * c)
    # in lane 0 a pair's row in the stacked vocabulary is its token id
    tag_logp, rel_logp = _merged_pass(model, batch.heads, batch.tails)
    rel_nll = -rel_logp[np.arange(len(batch.relations)), batch.relations]
    return float(-(weights.reshape(1, v, c) * tag_logp).sum() + rel_nll.sum()) / len(batch)


def _split(flat: np.ndarray, like: dict) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Views of the last axis of ``flat`` as each layer's (B, A), one after
    the other in the key order and the trailing shapes of ``like``'s pairs;
    the leading axes of ``flat`` lead every view."""
    views, at = {}, 0
    lead = flat.shape[:-1]
    for key, (b, a) in like.items():
        (d, r), l = b.shape[-2:], a.shape[-1]
        views[key] = (flat[..., at:at + d * r].reshape(*lead, d, r),
                      flat[..., at + d * r:at + d * r + r * l].reshape(*lead, r, l))
        at += d * r + r * l
    return views


class _Workspace:
    """The arrays ``_grads`` writes every step, allocated once per call for
    up to k lanes of ``layers``' factors: the (k, P) gradients, laid out as
    the factors; each head's merged weights and weight gradient; and four
    row tables of k * V * h entries, which a step views as its (k, U, h) x,
    z, dz and E W0 gather, whose rows dz's later products reuse.  A step of
    fewer lanes or rows writes a leading part of each, through views that
    ``fit`` builds when the lanes or U change."""

    def __init__(self, frozen: Backbone, layers: dict, k: int):
        self.layers = layers
        self.grads = np.empty((k, sum(b.size + a.size for b, a in layers.values())))
        self.heads = {key: np.empty((2, k, *getattr(frozen, key).shape))
                      for key in ("tag_head", "rel_head")}
        # four arrays, not one block of four: on many_clients the one block
        # left the process about 1 MB more resident at its peak
        self.hidden = frozen.config.hidden
        n = k * frozen.config.vocab_size * self.hidden
        self.tables = [np.empty(n) for _ in range(4)]
        self.k = self.u = 0

    def fit(self, k: int, u: int) -> None:
        """Views for a step of k lanes of U rows: ``flat``, the leading k
        rows of the gradients, and ``split``, their ``_split`` by layer;
        ``merged`` and ``dw``, each head's merged weights and weight
        gradients; and ``rows``, the four (k, U, h) tables."""
        if k != self.k:
            self.k, self.u = k, 0
            self.flat = self.grads[:k]
            self.split = _split(self.flat, self.layers)
            self.merged = {key: w[0, :k] for key, w in self.heads.items()}
            self.dw = {key: w[1, :k] for key, w in self.heads.items()}
        if u != self.u:
            self.u = u
            self.rows = [t[:k * u * self.hidden].reshape(k, u, self.hidden) for t in self.tables]


def _grads(frozen: Backbone, factors: dict[str, tuple[np.ndarray, np.ndarray]], s: float,
           batch: Batch, work: _Workspace) -> np.ndarray:
    """Gradients of each lane's batch loss w.r.t. its factors (B, A),
    stacked (k, d, r) and (k, r, l), over each lane's rows ``batch.tokens``,
    written into ``work``: the result is its (k, P) gradient buffer, whose
    ``_split`` by ``factors`` is each layer's (dB, dA).  Every product is a
    ``np.matmul`` into a view of ``work``, so a step allocates nothing of
    the factors' or the rows' size.  The trunk is never merged: with E the
    embedding rows of those tokens and EB = E B, z = relu(E W0 + s * EB A),
    dB = s * E^T (dz A^T) and dA = s * EB^T dz.  The heads are merged
    (h x r x C) and their weight gradients dW give dB = s * dW A^T and
    dA = s * B^T dW.  The tag-logit gradient of row v is
    (m_v softmax_v - weights_v) / B, where m_v sums the row ``weights_v``
    and B is the lane's batch size; the pairs' logit gradients are summed
    into their head and tail rows.  The chain rule then runs once per row,
    like the forward pass."""
    b, a = factors["trunk"]
    (k, u), h = batch.tokens.shape, frozen.config.hidden
    work.fit(k, u)
    x, z, dz, spare = work.rows
    # mode="raise" would buffer ``out``; every token id is checked in range
    np.take(frozen.embedding, batch.tokens, axis=0, out=x, mode="clip")
    eb = x @ b
    np.matmul(eb, a, out=z)
    z *= s
    z += np.take(frozen.base_hidden, batch.tokens, axis=0, out=spare, mode="clip")
    head_factors = {key: pair for key, pair in factors.items() if key != "trunk"}
    eff = _effective(frozen, head_factors, s, work.merged)
    tag_logp, rel_logp = _forward(z, eff, batch.heads, batch.tails)
    weights = batch.weights
    g_tag = weights.sum(axis=-1, keepdims=True) * np.exp(tag_logp) - weights
    g_tag *= batch.scales[:, None, None]
    d_rel = np.exp(rel_logp)
    d_rel[np.arange(len(batch.relations)), batch.relations] -= 1.0
    d_rel *= batch.pair_scales[:, None]
    c = d_rel.shape[1]
    g_head, g_tail = (np.bincount(keys, weights=d_rel.reshape(-1), minlength=k * u * c)
                      .reshape(k, u, c) for keys in (batch.head_keys, batch.tail_keys))
    rel = eff["rel_head"]
    np.matmul(g_tag, eff["tag_head"].mT, out=dz)
    dz += np.matmul(g_head, rel[:, :h].mT, out=spare)
    dz += np.matmul(g_tail, rel[:, h:].mT, out=spare)
    dz *= z > 0
    dw = work.dw
    np.matmul(z.mT, g_tag, out=dw["tag_head"])
    np.matmul(z.mT, g_head, out=dw["rel_head"][:, :h])
    np.matmul(z.mT, g_tail, out=dw["rel_head"][:, h:])
    grads = work.split
    for key, (hb, ha) in head_factors.items():
        np.matmul(dw[key], ha.mT, out=grads[key][0])
        np.matmul(hb.mT, dw[key], out=grads[key][1])
    np.matmul(x.mT, dz @ a.mT, out=grads["trunk"][0])
    np.matmul(eb.mT, dz, out=grads["trunk"][1])
    work.flat *= s
    return work.flat


def grad(model: ToyModel, batch: Pack) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Analytic gradients of loss(model, batch) w.r.t. each adapter's (B, A),
    by ``local_update``'s kernel with one lane and its own one-lane
    ``_Workspace``, on ``batch`` as one step of ``Lanes.batches`` in pack
    order; each (dB, dA) is a view of that workspace's gradient buffer.
    Frozen parameters receive no gradient by construction."""
    model.frozen.check_ranges(batch)
    (step,) = Lanes((batch,)).batches(np.zeros((1, len(batch)), dtype=np.int64),
                                      model.frozen.config)
    layers = model.adapters.layers
    factors = {key: (b[None], a[None]) for key, (b, a) in layers.items()}
    work = _Workspace(model.frozen, layers, 1)
    return _split(_grads(model.frozen, factors, model.adapters.scale, step, work)[0], layers)


def _step_of(sizes: list[int], seeds: Sequence[int], sgd: SgdConfig) -> np.ndarray:
    """step_of[e, j]: the step of epoch e that example j (lane after lane,
    lane i holding ``sizes[i]``) joins; a lane counts its steps on across
    epochs.  Lanes of one size and one seed draw the same permutations, so
    each such pair is drawn once."""
    bs = sgd.batch_size
    drawn = {}
    for n, seed in zip(sizes, seeds):
        if (n, seed) in drawn:
            continue
        rng = np.random.default_rng(seed)
        per_epoch = -(-n // bs)
        steps = drawn[(n, seed)] = np.empty((sgd.epochs, n), dtype=np.int64)
        for epoch in range(sgd.epochs):
            # batch membership is shuffled; summation order inside a batch
            # is list order, so the result is independent of how members
            # were drawn
            steps[epoch, rng.permutation(n)] = np.arange(n) // bs + epoch * per_epoch
    return np.concatenate([drawn[key] for key in zip(sizes, seeds)], axis=1)


def local_update(
    models: Sequence[ToyModel], dataset: Lanes, sgd: SgdConfig, seeds: Sequence[int]
) -> list[AdapterSet]:
    """Seeded mini-batch SGD on the adapters only, k clients in lockstep:
    lane i trains ``models[i]`` on ``dataset.packs[i]`` with shuffle seed
    ``seeds[i]``, and the i-th set returned is its new adapters.

    The lanes share one backbone and one adapter scale.  Each lane draws
    its own permutation per epoch and runs its own steps; a lane leaves the
    stack when its steps run out, and its result is bit for bit that of the
    lane trained alone.  The input models are left untouched.

    The lanes' factors are the rows of one (k, P) buffer, whose ``_split``
    views are each layer's (B, A); row i is the batch's slot i, lane
    ``batch.lanes[i]``.  A step is ``g *= eta`` and ``buf -= g`` on
    ``_grads``' buffer, b - eta * (s * m) in two roundings, and one
    ``np.isfinite`` checks it; only a failed check scans by lane and layer,
    for the lowest lane left non-finite and its first non-finite layer,
    which ``Diverged`` names at once.  A lane that a batch leaves out has
    run its last step: its set holds a copy of its row, and the lanes left
    go on in the rows the batch keeps.
    """
    frozen = models[0].frozen
    scale = models[0].adapters.scale
    if not len(models) == len(dataset.packs) == len(seeds):
        raise ValueError("need one model, one pack and one seed per lane")
    if any(m.frozen is not frozen or m.adapters.scale != scale for m in models):
        raise ValueError("lanes must share one backbone and one adapter scale")
    for pack in dataset.packs:
        frozen.check_ranges(pack)
    sizes = [len(pack) for pack in dataset.packs]
    batches = dataset.batches(_step_of(sizes, seeds, sgd), frozen.config)
    layers = models[0].adapters.layers
    # every lane's factors, one row each, and each layer's (B, A) as views
    buf = np.array([np.concatenate([f.reshape(-1) for key in layers
                                    for f in m.adapters.layers[key]]) for m in models])
    factors = _split(buf, layers)
    work = _Workspace(frozen, layers, len(models))
    stack = np.arange(len(models))  # the lanes still training, in stack order
    done: dict[int, dict] = {}

    def leave(slots) -> None:
        # a returned set holds its own row, not the stack the call still writes
        for slot in slots:
            done[int(stack[slot])] = _split(buf[slot].copy(), layers)

    eta = sgd.learning_rate
    # a diverging step overflows before its factors turn non-finite; the
    # isfinite check below is what reports it, so numpy stays quiet
    with np.errstate(over="ignore", invalid="ignore"):
        for step, batch in enumerate(batches):
            if len(batch.lanes) < len(stack):
                kept = np.isin(stack, batch.lanes)
                leave(np.flatnonzero(~kept).tolist())
                stack, buf = batch.lanes, buf[kept]
                factors = _split(buf, layers)
            # b - eta * (s * m): two roundings, as eta * s folded in would move bits
            g = _grads(frozen, factors, scale, batch, work)
            g *= eta
            buf -= g
            if not np.isfinite(buf).all():
                slot = int(np.argmin(np.isfinite(buf).all(axis=1)))
                key = next(key for key, (b, a) in factors.items()
                           if not (np.isfinite(b[slot]).all() and np.isfinite(a[slot]).all()))
                err = Diverged(f"layer {key!r} has non-finite adapter factors", int(stack[slot]))
                err.add_note(f"step {step}")
                raise err
    leave(range(len(stack)))
    return [model.adapters.with_layers(done[lane]) for lane, model in enumerate(models)]
