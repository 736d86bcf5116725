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

A list of examples is packed once into flat arrays (``Pack``).  Training
(``local_update`` and ``grad``), scoring (``loss``) and evaluation
(``forward``) all run one kernel on packed batches: as tokens are
independent, it runs the trunk and the heads once per distinct token id a
batch reads, and every row looks its token up.
"""

from __future__ import annotations

import enum
import hashlib
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .lora import AdapterSet, DimensionMismatch, init_adapter_set

ADAPTED_LAYERS = ("trunk", "tag_head", "rel_head")


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


class EmptyBatchError(ValueError):
    pass


class Diverged(FloatingPointError):
    """Local training drove an adapter factor to inf or NaN.  The message
    starts at the step; each caller that knows more prefixes where it ran."""


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
        if self.rank > self.hidden:
            raise FieldError("rank", "must not exceed hidden width")


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


@dataclass(frozen=True)
class Example:
    """One training instance: a tagged token sequence or a marked pair."""

    task: Task
    tokens: np.ndarray
    tags: np.ndarray | None = None
    head: int | None = None
    tail: int | None = None
    relation: int | None = None

    def __post_init__(self):
        tokens = np.ascontiguousarray(np.asarray(self.tokens, dtype=np.int64))
        tokens.flags.writeable = False
        object.__setattr__(self, "tokens", tokens)
        if self.task is Task.TAGGING:
            if self.tags is None:
                raise ValueError("tagging example needs tags")
            tags = np.ascontiguousarray(np.asarray(self.tags, dtype=np.int64))
            if len(tags) != len(tokens):
                raise ValueError("tag sequence length must equal token length")
            tags.flags.writeable = False
            object.__setattr__(self, "tags", tags)
        else:
            if self.head is None or self.tail is None or self.relation is None:
                raise ValueError("relation example needs head, tail and relation")
            n = len(tokens)
            if not (0 <= self.head < n and 0 <= self.tail < n):
                raise ValueError("marked positions out of range")


class Batch(NamedTuple):
    """Examples as the compute kernel reads them: the tagging tokens back to
    back, and the marked pairs."""

    tokens: np.ndarray  # (T,) every tagging token, examples back to back
    tags: np.ndarray  # (T,) their tags
    lengths: np.ndarray  # (T,) length of each token's sequence, as a float
    heads: np.ndarray  # (R,) marked head token of each pair
    tails: np.ndarray  # (R,) marked tail token of each pair
    relations: np.ndarray  # (R,) relation labels
    size: int  # examples; the loss averages over them


def _cat(arrays) -> np.ndarray:
    """Integer arrays end to end; none gives an empty integer array."""
    return np.concatenate([np.zeros(0, dtype=np.int64), *arrays])


@dataclass(frozen=True, eq=False)
class Pack:
    """A list of examples packed once into flat arrays.

    ``whole`` holds every example, each task's in list order; ``take``
    gathers a mini-batch from it.  Packing measures the token range once,
    so checking a pack against a vocabulary costs two comparisons.
    """

    whole: Batch
    tagging: np.ndarray  # (n,) whether example i is a tagging example
    row: np.ndarray  # (n,) example i's index among the examples of its task
    starts: np.ndarray  # (n_tag + 1,) offset of each tagging example in whole.tokens
    low: int  # smallest and largest token id, marked or not
    high: int

    @classmethod
    def of(cls, examples: "Pack | Sequence[Example]") -> "Pack":
        """``examples`` packed; a pack is returned as it is."""
        if isinstance(examples, Pack):
            return examples
        if not examples:
            raise EmptyBatchError("no examples to pack")
        tagging = np.array([ex.task is Task.TAGGING for ex in examples])
        tagged = [ex for ex in examples if ex.task is Task.TAGGING]
        marked = [ex for ex in examples if ex.task is not Task.TAGGING]
        row = np.empty(len(examples), dtype=np.int64)
        row[tagging] = np.arange(len(tagged))
        row[~tagging] = np.arange(len(marked))
        counts = np.array([len(ex.tokens) for ex in tagged], dtype=np.int64)
        if (counts == 0).any():
            raise ValueError("empty token sequence")
        every = _cat(ex.tokens for ex in examples)
        whole = Batch(
            tokens=_cat(ex.tokens for ex in tagged),
            tags=_cat(ex.tags for ex in tagged),
            lengths=np.repeat(counts.astype(np.float64), counts),
            heads=np.array([ex.tokens[ex.head] for ex in marked], dtype=np.int64),
            tails=np.array([ex.tokens[ex.tail] for ex in marked], dtype=np.int64),
            relations=np.array([ex.relation for ex in marked], dtype=np.int64),
            size=len(examples),
        )
        starts = np.concatenate([[0], np.cumsum(counts)])
        return cls(whole, tagging, row, starts, int(every.min()), int(every.max()))

    def __len__(self) -> int:
        return self.whole.size

    def take(self, idx: np.ndarray) -> Batch:
        """The examples at the ascending indices ``idx``."""
        tagging = self.tagging[idx]
        tagged = self.row[idx[tagging]]
        marked = self.row[idx[~tagging]]
        starts = self.starts[tagged]
        counts = self.starts[tagged + 1] - starts
        # positions in whole.tokens of each picked example's tokens, back to back
        shift = np.repeat(starts - (np.cumsum(counts) - counts), counts)
        positions = np.arange(len(shift)) + shift
        whole = self.whole
        return Batch(whole.tokens[positions], whole.tags[positions], whole.lengths[positions],
                     whole.heads[marked], whole.tails[marked], whole.relations[marked],
                     len(idx))


@dataclass(frozen=True)
class Backbone:
    """Frozen parameters, identical across clients and rounds."""

    config: ModelConfig
    embedding: np.ndarray  # V x h
    trunk: np.ndarray  # h x h
    tag_head: np.ndarray  # h x C_tag
    rel_head: np.ndarray  # 2h x C_rel

    def __post_init__(self):
        for name in ("embedding", "trunk", "tag_head", "rel_head"):
            arr = np.ascontiguousarray(np.asarray(getattr(self, name), dtype=np.float64))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

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

    def check_tokens(self, pack: Pack) -> None:
        """Raise ``TokenRangeError`` unless every token of ``pack`` is in the vocabulary."""
        vocab = self.config.vocab_size
        for token in (pack.low, pack.high):
            if not 0 <= token < vocab:
                raise TokenRangeError(token, vocab)

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        for arr in (self.embedding, self.trunk, self.tag_head, self.rel_head):
            h.update(arr.tobytes())
        return h.hexdigest()


@dataclass(frozen=True)
class ToyModel:
    frozen: Backbone
    adapters: AdapterSet

    def __post_init__(self):
        missing = set(ADAPTED_LAYERS) - set(self.adapters.keys())
        if missing:
            raise ValueError(f"adapters missing layers: {sorted(missing)}")
        shapes = self.frozen.adapter_shapes()
        for key, pair in self.adapters.items():
            if key not in shapes:
                raise DimensionMismatch(key, ("<layer present>",), ("<layer missing>",))
            if (pair.d, pair.l) != shapes[key]:
                raise DimensionMismatch(key, shapes[key], (pair.d, pair.l))

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
        return _effective(self.frozen, _factors(self.adapters), _scales(self.adapters))


# ---------------------------------------------------------------------------
# Forward / loss / gradients.  A model merges its weights once (``merged``);
# the training loop re-merges from its raw factor arrays every step.  One
# kernel, ``_forward``, runs every packed batch: training, scoring and
# evaluation alike.
# ---------------------------------------------------------------------------


def _effective(frozen: Backbone, factors: dict[str, tuple[np.ndarray, np.ndarray]],
               scales: dict[str, float]) -> dict[str, np.ndarray]:
    return {
        key: getattr(frozen, key) + scales[key] * (b @ a) for key, (b, a) in factors.items()
    }


def _factors(adapters: AdapterSet) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    return {key: (pair.b, pair.a) for key, pair in adapters.items()}


def _scales(adapters: AdapterSet) -> dict[str, float]:
    return {key: pair.scale for key, pair in adapters.items()}


def _packed(frozen: Backbone, data: Pack | Sequence[Example]) -> Pack:
    pack = Pack.of(data)
    frozen.check_tokens(pack)
    return pack


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


class _Reads(NamedTuple):
    """The distinct token ids a batch reads, and each of its token arrays as
    indices into them."""

    ids: np.ndarray
    tokens: np.ndarray
    heads: np.ndarray
    tails: np.ndarray


def _forward(frozen: Backbone, eff: dict[str, np.ndarray], batch: Batch):
    """One pass over a batch.  The trunk and the heads run once per distinct
    token id the batch reads (``reads.ids``) and each row looks its token
    up: ``tag_logp[reads.tokens]`` are the tagging rows' log-distributions,
    and a pair's relation logits are the head half of the relation head
    applied to its head token plus the tail half applied to its tail token."""
    ids, index = np.unique(
        np.concatenate([batch.tokens, batch.heads, batch.tails]), return_inverse=True
    )
    t, r = len(batch.tokens), len(batch.heads)
    reads = _Reads(ids, index[:t], index[t : t + r], index[t + r :])
    h = frozen.config.hidden
    x = frozen.embedding[ids]
    z = np.maximum(x @ eff["trunk"], 0.0)
    rel = eff["rel_head"]
    rel_logits = (z @ rel[:h])[reads.heads] + (z @ rel[h:])[reads.tails]
    return (reads, x, z), _log_softmax(z @ eff["tag_head"]), _log_softmax(rel_logits)


def forward(model: ToyModel, data: Pack | Sequence[Example]) -> tuple[np.ndarray, np.ndarray]:
    """Class probability distributions in one pass: (T, C_tag) for the
    tagging tokens and (R, C_rel) for the marked pairs, each in list order."""
    (reads, _, _), tag_logp, rel_logp = _forward(
        model.frozen, model.merged, _packed(model.frozen, data).whole
    )
    return np.exp(tag_logp)[reads.tokens], np.exp(rel_logp)


def _batch_loss(frozen: Backbone, eff: dict[str, np.ndarray], batch: Batch) -> float:
    (reads, _, _), tag_logp, rel_logp = _forward(frozen, eff, batch)
    tag_nll = -tag_logp[reads.tokens, batch.tags]
    rel_nll = -rel_logp[np.arange(len(batch.relations)), batch.relations]
    return float((tag_nll / batch.lengths).sum() + rel_nll.sum()) / batch.size


def loss(model: ToyModel, batch: Pack | Sequence[Example]) -> float:
    """Mean over the batch of per-example mean negative log-likelihood."""
    return _batch_loss(model.frozen, model.merged, _packed(model.frozen, batch).whole)


def _by_token(index: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """(n, C) table whose row i sums the ``rows`` whose ``index`` is i."""
    c = rows.shape[1]
    flat = (index[:, None] * c + np.arange(c)).reshape(-1)
    return np.bincount(flat, weights=rows.reshape(-1), minlength=n * c).reshape(n, c)


def _weight_grads(frozen: Backbone, eff: dict[str, np.ndarray], batch: Batch):
    """Gradients of the batch loss w.r.t. the three effective weight matrices.

    Each row's logit gradient is summed into its token's row first, so the
    chain rule runs once per distinct token, like the forward pass."""
    (reads, x, z), tag_logp, rel_logp = _forward(frozen, eff, batch)
    inv_b = 1.0 / batch.size
    d_tag = np.exp(tag_logp)[reads.tokens]
    d_tag[np.arange(len(batch.tags)), batch.tags] -= 1.0
    d_tag *= (inv_b / batch.lengths)[:, None]
    d_rel = np.exp(rel_logp)
    d_rel[np.arange(len(batch.relations)), batch.relations] -= 1.0
    d_rel *= inv_b
    n, h = len(reads.ids), frozen.config.hidden
    g_tag = _by_token(reads.tokens, d_tag, n)
    g_head = _by_token(reads.heads, d_rel, n)
    g_tail = _by_token(reads.tails, d_rel, n)
    rel = eff["rel_head"]
    dz = g_tag @ eff["tag_head"].T + g_head @ rel[:h].T + g_tail @ rel[h:].T
    return {
        "trunk": x.T @ (dz * (z > 0)),
        "tag_head": z.T @ g_tag,
        "rel_head": np.concatenate([z.T @ g_head, z.T @ g_tail]),
    }


def _factor_grads(weight_grads, factors, scales):
    """Chain rule through W = W0 + s * B @ A: dB = s * dW A^T, dA = s * B^T dW."""
    out = {}
    for key, (b, a) in factors.items():
        dw = weight_grads[key]
        s = scales[key]
        out[key] = (s * (dw @ a.T), s * (b.T @ dw))
    return out


def grad(
    model: ToyModel, batch: Pack | Sequence[Example]
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Analytic gradients of loss(model, batch) w.r.t. each adapter's (B, A).

    Frozen parameters receive no gradient by construction.
    """
    weight_grads = _weight_grads(model.frozen, model.merged, _packed(model.frozen, batch).whole)
    return _factor_grads(weight_grads, _factors(model.adapters), _scales(model.adapters))


def local_update(
    model: ToyModel, dataset: Pack | Sequence[Example], sgd: SgdConfig, seed: int
) -> AdapterSet:
    """Seeded mini-batch SGD on the adapters only; returns new adapters.

    The input model is left untouched.  Identical (model, dataset, sgd, seed)
    give bit-identical results.  A step that leaves a factor non-finite
    raises ``Diverged`` at once.
    """
    frozen = model.frozen
    pack = _packed(frozen, dataset)
    scales = _scales(model.adapters)
    factors = {
        key: (pair.b.copy(), pair.a.copy()) for key, pair in model.adapters.items()
    }
    rng = np.random.default_rng(seed)
    n = len(pack)
    eta = sgd.learning_rate
    step = 0
    # a diverging step overflows before its factors turn non-finite; the
    # isfinite check below is what reports it, so numpy stays quiet
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(sgd.epochs):
            order = rng.permutation(n)
            for start in range(0, n, sgd.batch_size):
                # batch membership is shuffled; summation order inside a batch is
                # canonical so the result is independent of how members were drawn
                batch = pack.take(np.sort(order[start : start + sgd.batch_size]))
                eff = _effective(frozen, factors, scales)
                grads = _factor_grads(_weight_grads(frozen, eff, batch), factors, scales)
                for key, (b, a) in factors.items():
                    db, da = grads[key]
                    b -= eta * db
                    a -= eta * da
                    if not (np.isfinite(b).all() and np.isfinite(a).all()):
                        raise Diverged(f"step {step}: layer {key!r} has non-finite adapter factors")
                step += 1
    layers = {
        key: model.adapters[key].with_factors(b, a) for key, (b, a) in factors.items()
    }
    return AdapterSet(layers)
