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
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .lora import AdapterSet, DimensionMismatch, init_adapter_set

ADAPTED_LAYERS = ("trunk", "tag_head", "rel_head")


class Task(enum.Enum):
    TAGGING = "tagging"
    RELATION = "relation"


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
                raise ValueError(f"{name} must be positive")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.rank > self.hidden:
            raise ValueError("rank must not exceed hidden width")


@dataclass(frozen=True)
class SgdConfig:
    learning_rate: float
    epochs: int
    batch_size: int

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")


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
# the training loop re-merges from its raw factor arrays every step.
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


def _check_tokens(tokens: np.ndarray, vocab_size: int) -> None:
    if len(tokens) == 0:
        raise ValueError("empty token sequence")
    bad = (tokens < 0) | (tokens >= vocab_size)
    if bad.any():
        raise TokenRangeError(int(tokens[bad][0]), vocab_size)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _example_logits(frozen: Backbone, eff: dict[str, np.ndarray], example: Example):
    _check_tokens(example.tokens, frozen.config.vocab_size)
    tagging = example.task is Task.TAGGING
    tokens = example.tokens if tagging else example.tokens[[example.head, example.tail]]
    x = frozen.embedding[tokens]  # n x h, or 2 x h for a pair
    u = x @ eff["trunk"]
    z = np.maximum(u, 0.0)
    if tagging:
        return z @ eff["tag_head"], (x, u, z)
    return z.reshape(-1) @ eff["rel_head"], (x, u, z)  # [z_head ; z_tail]


def forward(model: ToyModel, example: Example) -> np.ndarray:
    """Class probability distributions: (n, C_tag) for tagging, (C_rel,) for a pair."""
    logits, _ = _example_logits(model.frozen, model.merged, example)
    return np.exp(_log_softmax(logits))


def _example_loss(frozen: Backbone, eff: dict[str, np.ndarray], example: Example) -> float:
    logits, _ = _example_logits(frozen, eff, example)
    logp = _log_softmax(logits)
    if example.task is Task.TAGGING:
        return float(-logp[np.arange(len(example.tags)), example.tags].mean())
    return float(-logp[example.relation])


def loss(model: ToyModel, batch: list[Example]) -> float:
    """Mean over the batch of per-example mean negative log-likelihood."""
    if not batch:
        raise EmptyBatchError("loss of an empty batch is undefined")
    return sum(_example_loss(model.frozen, model.merged, ex) for ex in batch) / len(batch)


def _batch_weight_grads(frozen: Backbone, eff: dict[str, np.ndarray], batch: list[Example]):
    """Gradients of the batch loss w.r.t. the three effective weight matrices."""
    d_trunk = np.zeros_like(eff["trunk"])
    d_tag = np.zeros_like(eff["tag_head"])
    d_rel = np.zeros_like(eff["rel_head"])
    inv_b = 1.0 / len(batch)
    for ex in batch:
        logits, (x, u, z) = _example_logits(frozen, eff, ex)
        dlogits = np.exp(_log_softmax(logits))
        if ex.task is Task.TAGGING:
            n = len(ex.tags)
            dlogits[np.arange(n), ex.tags] -= 1.0
            dlogits *= inv_b / n
            d_tag += z.T @ dlogits
            dz = dlogits @ eff["tag_head"].T
        else:
            dlogits[ex.relation] -= 1.0
            dlogits *= inv_b
            d_rel += np.outer(z.reshape(-1), dlogits)
            dz = (eff["rel_head"] @ dlogits).reshape(2, -1)
        d_trunk += x.T @ (dz * (u > 0))
    return {"trunk": d_trunk, "tag_head": d_tag, "rel_head": d_rel}


def _factor_grads(weight_grads, factors, scales):
    """Chain rule through W = W0 + s * B @ A: dB = s * dW A^T, dA = s * B^T dW."""
    out = {}
    for key, (b, a) in factors.items():
        dw = weight_grads[key]
        s = scales[key]
        out[key] = (s * (dw @ a.T), s * (b.T @ dw))
    return out


def grad(model: ToyModel, batch: list[Example]) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Analytic gradients of loss(model, batch) w.r.t. each adapter's (B, A).

    Frozen parameters receive no gradient by construction.
    """
    if not batch:
        raise EmptyBatchError("gradient of an empty batch is undefined")
    weight_grads = _batch_weight_grads(model.frozen, model.merged, batch)
    return _factor_grads(weight_grads, _factors(model.adapters), _scales(model.adapters))


def local_update(
    model: ToyModel, dataset: list[Example], sgd: SgdConfig, seed: int
) -> AdapterSet:
    """Seeded mini-batch SGD on the adapters only; returns new adapters.

    The input model is left untouched.  Identical (model, dataset, sgd, seed)
    give bit-identical results.  A step that leaves a factor non-finite
    raises ``Diverged`` at once.
    """
    if not dataset:
        raise EmptyBatchError("cannot train on an empty dataset")
    frozen = model.frozen
    scales = _scales(model.adapters)
    factors = {
        key: (pair.b.copy(), pair.a.copy()) for key, pair in model.adapters.items()
    }
    rng = np.random.default_rng(seed)
    n = len(dataset)
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
                idx = np.sort(order[start : start + sgd.batch_size])
                batch = [dataset[i] for i in idx]
                eff = _effective(frozen, factors, scales)
                grads = _factor_grads(_batch_weight_grads(frozen, eff, batch), factors, scales)
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
