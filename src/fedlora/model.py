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
(``forward``) all run one kernel.  As tokens are independent, it runs the
trunk and both heads over every token id of the vocabulary, and a
mini-batch reaches it as its tagging loss weights per (token id, gold tag)
plus its marked pairs (``Batch``): no batch needs its own gather, and a
step's cost grows with V * h rather than with the tokens the batch reads.
"""

from __future__ import annotations

import enum
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
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
    names the layer and a note the step; each caller that knows more notes
    where it ran."""


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
    """A mini-batch as the compute kernel reads it: its tagging loss weights
    per (token id, gold tag), and its marked pairs."""

    weights: np.ndarray  # (V, C_tag) summed 1/n_i of its tagging tokens with that id and tag
    heads: np.ndarray  # (R,) marked head token of each pair
    tails: np.ndarray  # (R,) marked tail token of each pair
    relations: np.ndarray  # (R,) relation labels
    size: int  # examples; the loss averages over them


def _cat(arrays) -> np.ndarray:
    """Integer arrays end to end; none gives an empty integer array."""
    return np.concatenate([np.zeros(0, dtype=np.int64), *arrays])


@dataclass(frozen=True, eq=False)
class Pack:
    """A list of examples packed once into flat arrays, each task's in list
    order.  Packing measures the range of the tokens, marked or not, and of
    each present task's labels once, so checking a pack against a model
    costs a few comparisons."""

    tokens: np.ndarray  # (T,) every tagging token, examples back to back
    tags: np.ndarray  # (T,) their gold tags
    shares: np.ndarray  # (T,) 1/n_i, the loss weight of a token of an n_i-token example
    heads: np.ndarray  # (R,) marked head token of each pair
    tails: np.ndarray  # (R,) marked tail token of each pair
    relations: np.ndarray  # (R,) relation labels
    tagging: np.ndarray  # (n,) whether example i is a tagging example
    starts: np.ndarray  # (n_tag + 1,) offset of each tagging example in tokens
    ranges: dict[str, tuple[int, int]]  # (min, max) of "token", "tag", "relation"

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
        counts = np.array([len(ex.tokens) for ex in tagged], dtype=np.int64)
        if (counts == 0).any():
            raise ValueError("empty token sequence")
        tags = _cat(ex.tags for ex in tagged)
        relations = np.array([ex.relation for ex in marked], dtype=np.int64)
        measured = {"token": _cat(ex.tokens for ex in examples), "tag": tags,
                    "relation": relations}
        return cls(
            tokens=_cat(ex.tokens for ex in tagged),
            tags=tags,
            shares=np.repeat(1.0 / counts, counts),
            heads=np.array([ex.tokens[ex.head] for ex in marked], dtype=np.int64),
            tails=np.array([ex.tokens[ex.tail] for ex in marked], dtype=np.int64),
            relations=relations,
            tagging=tagging,
            starts=np.concatenate([[0], np.cumsum(counts)]),
            ranges={kind: (int(values.min()), int(values.max()))
                    for kind, values in measured.items() if len(values)},
        )

    def __len__(self) -> int:
        return len(self.tagging)

    def batches(self, step_of: np.ndarray, config: ModelConfig) -> Iterator[Batch]:
        """The mini-batches that put example i in step ``step_of[i]``, in
        step order.  One stable sort by step keeps each step's tokens and
        pairs in list order, so a step's weights sum in the same order as
        the same examples packed alone."""
        v, c = config.vocab_size, config.tag_classes
        steps = int(step_of.max()) + 1
        token_step = np.repeat(step_of[self.tagging], np.diff(self.starts))
        pair_step = step_of[~self.tagging]
        by_token = np.argsort(token_step, kind="stable")
        by_pair = np.argsort(pair_step, kind="stable")
        keys, shares = (self.tokens * c + self.tags)[by_token], self.shares[by_token]
        pairs = self.heads[by_pair], self.tails[by_pair], self.relations[by_pair]
        sizes, token_counts, pair_counts = (
            np.bincount(s, minlength=steps).tolist() for s in (step_of, token_step, pair_step)
        )
        t0 = p0 = 0
        for size, t, p in zip(sizes, token_counts, pair_counts):
            t1, p1 = t0 + t, p0 + p
            weights = np.bincount(keys[t0:t1], weights=shares[t0:t1], minlength=v * c)
            yield Batch(weights.reshape(v, c), *(a[p0:p1] for a in pairs), size)
            t0, p0 = t1, p1


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
# Forward / loss / gradients.  A model merges its weights once (``merged``);
# the training loop re-merges from its raw factor arrays every step.  One
# kernel, ``_forward``, runs the whole vocabulary for training, scoring and
# evaluation alike.
# ---------------------------------------------------------------------------


def _effective(frozen: Backbone, factors: dict[str, tuple[np.ndarray, np.ndarray]],
               scale: float) -> dict[str, np.ndarray]:
    return {key: getattr(frozen, key) + scale * (b @ a) for key, (b, a) in factors.items()}


def _packed(frozen: Backbone, data: Pack | Sequence[Example]) -> Pack:
    pack = Pack.of(data)
    frozen.check_ranges(pack)
    return pack


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _forward(frozen: Backbone, eff: dict[str, np.ndarray], heads: np.ndarray,
             tails: np.ndarray):
    """One pass over the whole vocabulary: the hidden rows ``z`` (V, h) of
    every token id, their tag log-distributions (V, C_tag), and the relation
    log-distributions of the pairs ``heads``/``tails``, whose logits are the
    head half of the relation head applied to the head token plus the tail
    half applied to the tail token."""
    h = frozen.config.hidden
    z = np.maximum(frozen.embedding @ eff["trunk"], 0.0)
    rel = eff["rel_head"]
    rel_logits = (z @ rel[:h])[heads] + (z @ rel[h:])[tails]
    return z, _log_softmax(z @ eff["tag_head"]), _log_softmax(rel_logits)


def forward(model: ToyModel, data: Pack | Sequence[Example]) -> tuple[np.ndarray, np.ndarray]:
    """Class probability distributions in one pass: (T, C_tag) for the
    tagging tokens and (R, C_rel) for the marked pairs, each in list order."""
    pack = _packed(model.frozen, data)
    _, tag_logp, rel_logp = _forward(model.frozen, model.merged, pack.heads, pack.tails)
    return np.exp(tag_logp)[pack.tokens], np.exp(rel_logp)


def _whole(frozen: Backbone, data: Pack | Sequence[Example]) -> Batch:
    """Every example of ``data`` as one mini-batch."""
    pack = _packed(frozen, data)
    (batch,) = pack.batches(np.zeros(len(pack), dtype=np.int64), frozen.config)
    return batch


def loss(model: ToyModel, batch: Pack | Sequence[Example]) -> float:
    """Mean over the batch of per-example mean negative log-likelihood."""
    whole = _whole(model.frozen, batch)
    _, tag_logp, rel_logp = _forward(model.frozen, model.merged, whole.heads, whole.tails)
    rel_nll = -rel_logp[np.arange(len(whole.relations)), whole.relations]
    return float(-(whole.weights * tag_logp).sum() + rel_nll.sum()) / whole.size


def _by_token(index: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """(n, C) table whose row i sums the ``rows`` whose ``index`` is i."""
    c = rows.shape[1]
    flat = (index[:, None] * c + np.arange(c)).reshape(-1)
    return np.bincount(flat, weights=rows.reshape(-1), minlength=n * c).reshape(n, c)


def _weight_grads(frozen: Backbone, eff: dict[str, np.ndarray], batch: Batch):
    """Gradients of the batch loss w.r.t. the three effective weight matrices.

    The tag-logit gradient of token id v is (m_v softmax_v - weights_v) / B,
    where m_v sums the row ``weights_v``; the pairs' logit gradients are
    summed into their head and tail token rows.  The chain rule then runs
    once per token id, like the forward pass."""
    z, tag_logp, rel_logp = _forward(frozen, eff, batch.heads, batch.tails)
    inv_b = 1.0 / batch.size
    weights = batch.weights
    g_tag = (weights.sum(axis=1, keepdims=True) * np.exp(tag_logp) - weights) * inv_b
    d_rel = np.exp(rel_logp)
    d_rel[np.arange(len(batch.relations)), batch.relations] -= 1.0
    d_rel *= inv_b
    v, h = frozen.config.vocab_size, frozen.config.hidden
    g_head = _by_token(batch.heads, d_rel, v)
    g_tail = _by_token(batch.tails, d_rel, v)
    rel = eff["rel_head"]
    dz = g_tag @ eff["tag_head"].T + g_head @ rel[:h].T + g_tail @ rel[h:].T
    return {
        "trunk": frozen.embedding.T @ (dz * (z > 0)),
        "tag_head": z.T @ g_tag,
        "rel_head": np.concatenate([z.T @ g_head, z.T @ g_tail]),
    }


def _factor_grads(weight_grads, factors, s: float):
    """Chain rule through W = W0 + s * B @ A: dB = s * dW A^T, dA = s * B^T dW."""
    out = {}
    for key, (b, a) in factors.items():
        dw = weight_grads[key]
        out[key] = (s * (dw @ a.T), s * (b.T @ dw))
    return out


def grad(
    model: ToyModel, batch: Pack | Sequence[Example]
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Analytic gradients of loss(model, batch) w.r.t. each adapter's (B, A).

    Frozen parameters receive no gradient by construction.
    """
    weight_grads = _weight_grads(model.frozen, model.merged, _whole(model.frozen, batch))
    return _factor_grads(weight_grads, model.adapters.layers, model.adapters.scale)


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
    scale = model.adapters.scale
    factors = {key: (b.copy(), a.copy()) for key, (b, a) in model.adapters.layers.items()}
    rng = np.random.default_rng(seed)
    n = len(pack)
    eta = sgd.learning_rate
    step = 0
    # a diverging step overflows before its factors turn non-finite; the
    # isfinite check below is what reports it, so numpy stays quiet
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(sgd.epochs):
            # batch membership is shuffled; summation order inside a batch is
            # list order, so the result is independent of how members were drawn
            step_of = np.empty(n, dtype=np.int64)
            step_of[rng.permutation(n)] = np.arange(n) // sgd.batch_size
            for batch in pack.batches(step_of, frozen.config):
                eff = _effective(frozen, factors, scale)
                grads = _factor_grads(_weight_grads(frozen, eff, batch), factors, scale)
                for key, (b, a) in factors.items():
                    db, da = grads[key]
                    b -= eta * db
                    a -= eta * da
                    if not (np.isfinite(b).all() and np.isfinite(a).all()):
                        err = Diverged(f"layer {key!r} has non-finite adapter factors")
                        err.add_note(f"step {step}")
                        raise err
                step += 1
    return model.adapters.with_layers(factors)
