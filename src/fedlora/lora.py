"""Low-rank adapter algebra.

Matrices are plain float64 2-D numpy arrays (row-major, finite entries).
An adapter pair (B, A) for a frozen d-by-l weight contributes the effective
update ``(alpha / rank) * B @ A``; B is d-by-r and A is r-by-l.  Adapter
sets are the unit of communication between clients and server, so they also
carry a versioned bit-exact binary layout: the bytes a client would ship,
which ``checksum`` hashes and ``serialized_size`` counts.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field

import numpy as np

MAGIC = b"ADPTSET1"
FORMAT_VERSION = 1

# A-matrices are drawn uniformly from [-INIT_SPAN, INIT_SPAN]; B starts at
# zero so a freshly initialised adapter set leaves the backbone untouched.
INIT_SPAN = 0.05


class DimensionMismatch(ValueError):
    """Adapter shapes do not line up with the layer they target."""

    def __init__(self, layer_key: str, expected: tuple, actual: tuple):
        self.layer_key = layer_key
        self.expected = expected
        self.actual = actual
        super().__init__(
            f"layer {layer_key!r}: expected shape {expected}, got {actual}"
        )


def _as_matrix(arr, name: str) -> np.ndarray:
    out = np.asarray(arr, dtype=np.float64)
    if out.ndim != 2 or out.shape[0] < 1 or out.shape[1] < 1:
        raise ValueError(f"{name} must be a 2-D matrix, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} contains non-finite entries")
    out = np.ascontiguousarray(out)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class AdapterPair:
    """One layer's low-rank factors: B (d x r) and A (r x l)."""

    layer_key: str
    b: np.ndarray
    a: np.ndarray
    rank: int
    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "b", _as_matrix(self.b, f"{self.layer_key}.b"))
        object.__setattr__(self, "a", _as_matrix(self.a, f"{self.layer_key}.a"))
        if self.rank < 1:
            raise ValueError("rank must be positive")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.b.shape[1] != self.rank or self.a.shape[0] != self.rank:
            raise DimensionMismatch(
                self.layer_key,
                (self.b.shape[0], self.rank, self.a.shape[1]),
                (self.b.shape[0], self.b.shape[1], self.a.shape[0], self.a.shape[1]),
            )
        if self.rank > min(self.d, self.l):
            raise ValueError(
                f"layer {self.layer_key!r}: rank {self.rank} exceeds min(d, l) "
                f"= {min(self.d, self.l)}"
            )

    @property
    def d(self) -> int:
        return self.b.shape[0]

    @property
    def l(self) -> int:
        return self.a.shape[1]

    @property
    def scale(self) -> float:
        return self.alpha / self.rank

    def with_factors(self, b: np.ndarray, a: np.ndarray) -> "AdapterPair":
        return AdapterPair(self.layer_key, b, a, self.rank, self.alpha)

    def param_count(self) -> int:
        return self.d * self.rank + self.rank * self.l


@dataclass(frozen=True)
class AdapterSet:
    """Ordered collection of adapter pairs keyed by layer."""

    layers: dict[str, AdapterPair] = field(default_factory=dict)

    def __post_init__(self):
        for key, pair in self.layers.items():
            if key != pair.layer_key:
                raise ValueError(f"key {key!r} does not match pair key {pair.layer_key!r}")

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, key: str) -> AdapterPair:
        return self.layers[key]

    def keys(self):
        return self.layers.keys()

    def items(self):
        return self.layers.items()

    def param_count(self) -> int:
        return sum(p.param_count() for p in self.layers.values())

    def a_param_count(self) -> int:
        """Parameters in the A-matrices alone (the share-A payload)."""
        return sum(p.rank * p.l for p in self.layers.values())

    def checksum(self) -> str:
        return hashlib.sha256(serialize_adapters(self)).hexdigest()


def init_adapter_set(
    shapes: dict[str, tuple[int, int]], rank: int, alpha: float, seed: int
) -> AdapterSet:
    """Fresh adapters: B = 0, A ~ U(-0.05, 0.05) from the given seed.

    With B at zero the merged model equals the backbone exactly.
    """
    rng = np.random.default_rng(seed)
    layers = {}
    for key, (d, l) in shapes.items():
        b = np.zeros((d, rank))
        a = rng.uniform(-INIT_SPAN, INIT_SPAN, size=(rank, l))
        layers[key] = AdapterPair(key, b, a, rank, alpha)
    return AdapterSet(layers)


def param_counts(d: int, l: int, r: int) -> tuple[int, int]:
    """(full, lora) parameter counts for one d-by-l weight at rank r."""
    if d < 1 or l < 1 or r < 1:
        raise ValueError("dimensions and rank must be positive")
    return d * l, d * r + r * l


# ---------------------------------------------------------------------------
# Reference target-module preset.
#
# LLaMA3-8B decoder layers carry seven adapted projections.  With hidden size
# 4096, KV projection width 1024 (8 KV heads x 128), MLP width 14336 and
# rank 16, the adapter total over all 32 decoder layers is exactly
# 41,943,040 parameters; the full model holds 8,030,261,248.
# ---------------------------------------------------------------------------

LLAMA3_8B_LAYER_SHAPES: tuple[tuple[str, int, int], ...] = (
    ("q_proj", 4096, 4096),
    ("k_proj", 4096, 1024),
    ("v_proj", 4096, 1024),
    ("o_proj", 4096, 4096),
    ("gate_proj", 4096, 14336),
    ("up_proj", 4096, 14336),
    ("down_proj", 14336, 4096),
)
LLAMA3_8B_DECODER_LAYERS = 32
LLAMA3_8B_FULL_PARAMS = 8_030_261_248


def llama3_8b_lora_params(rank: int = 16) -> int:
    """Adapter parameter total for the LLaMA3-8B target-module preset."""
    per_layer = sum(
        param_counts(d, l, rank)[1] for _, d, l in LLAMA3_8B_LAYER_SHAPES
    )
    return per_layer * LLAMA3_8B_DECODER_LAYERS


# ---------------------------------------------------------------------------
# Binary adapter format (versioned, bit-exact):
#   magic (8 bytes) | version (1 byte) | entry count (u64 LE)
#   per entry: key length (u64 LE) | UTF-8 key | d, l, r (u64 LE each)
#              | alpha (f64 LE) | B payload | A payload
#   payloads are row-major little-endian float64.
# ---------------------------------------------------------------------------

_U64 = struct.Struct("<Q")
_F64 = struct.Struct("<d")


def serialized_size(adapters: AdapterSet) -> int:
    """Exact byte length serialize_adapters will produce."""
    total = len(MAGIC) + 1 + _U64.size
    for key, pair in adapters.items():
        total += _U64.size + len(key.encode("utf-8"))
        total += 3 * _U64.size + _F64.size
        total += 8 * pair.param_count()
    return total


def serialized_a_size(adapters: AdapterSet) -> int:
    """Byte length of an A-only payload (same format, B blocks omitted)."""
    return serialized_size(adapters) - sum(8 * p.d * p.rank for p in adapters.layers.values())


def serialize_adapters(adapters: AdapterSet) -> bytes:
    chunks = [MAGIC, bytes([FORMAT_VERSION]), _U64.pack(len(adapters))]
    for key, pair in adapters.items():
        raw_key = key.encode("utf-8")
        chunks.append(_U64.pack(len(raw_key)))
        chunks.append(raw_key)
        chunks.append(_U64.pack(pair.d))
        chunks.append(_U64.pack(pair.l))
        chunks.append(_U64.pack(pair.rank))
        chunks.append(_F64.pack(pair.alpha))
        chunks.append(pair.b.astype("<f8").tobytes(order="C"))
        chunks.append(pair.a.astype("<f8").tobytes(order="C"))
    return b"".join(chunks)
