"""Low-rank adapter algebra.

Matrices are plain float64 2-D numpy arrays (row-major, finite entries).
An adapter pair (B, A) for a frozen d-by-l weight contributes the effective
update ``(alpha / rank) * B @ A``; B is d-by-r and A is r-by-l.  An adapter
set holds one rank and one alpha for all of its layers, as in LoRA, so the
scale alpha / rank is the set's.  Adapter sets are the unit of
communication between clients and server, so they also carry a versioned
bit-exact binary layout: the bytes a client would ship, which ``checksum``
hashes and ``serialized_size`` counts.  Every entry of the layout repeats
the set's rank and alpha.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import NamedTuple

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


class AdapterPair(NamedTuple):
    """One layer's low-rank factors: B (d x r) and A (r x l)."""

    b: np.ndarray
    a: np.ndarray


@dataclass(frozen=True, eq=False)
class AdapterSet:
    """Adapter pairs keyed by layer, all of one rank and one alpha, so every
    layer's update carries the same scale alpha / rank.  ``layers`` may map
    a key to any (B, A); the set keeps them as read-only ``AdapterPair``s.
    Sets compare by identity; ``checksum()`` compares their contents."""

    rank: int
    alpha: float
    layers: dict[str, AdapterPair]

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be positive")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        layers = {}
        for key, (b, a) in self.layers.items():
            b, a = _as_matrix(b, f"{key}.b"), _as_matrix(a, f"{key}.a")
            if b.shape[1] != self.rank or a.shape[0] != self.rank:
                raise DimensionMismatch(
                    key, (b.shape[0], self.rank, a.shape[1]), (*b.shape, *a.shape)
                )
            if self.rank > min(b.shape[0], a.shape[1]):
                raise ValueError(
                    f"layer {key!r}: rank {self.rank} exceeds min(d, l) "
                    f"= {min(b.shape[0], a.shape[1])}"
                )
            layers[key] = AdapterPair(b, a)
        object.__setattr__(self, "layers", layers)

    @property
    def scale(self) -> float:
        return self.alpha / self.rank

    def shapes(self) -> dict[str, tuple[int, int]]:
        """(d, l) of the weight each layer's pair adapts."""
        return {key: (b.shape[0], a.shape[1]) for key, (b, a) in self.layers.items()}

    def with_layers(self, layers: dict[str, AdapterPair]) -> "AdapterSet":
        """New factors of this set's rank and alpha."""
        return AdapterSet(self.rank, self.alpha, layers)

    def param_count(self) -> int:
        return sum(b.size + a.size for b, a in self.layers.values())

    def a_param_count(self) -> int:
        """Parameters in the A-matrices alone (the share-A payload)."""
        return sum(a.size for _, a in self.layers.values())

    def checksum(self) -> str:
        return hashlib.sha256(serialize_adapters(self)).hexdigest()


def init_adapter_set(
    shapes: dict[str, tuple[int, int]], rank: int, alpha: float, seed: int
) -> AdapterSet:
    """Fresh adapters: B = 0, A ~ U(-0.05, 0.05) from the given seed.

    With B at zero the merged model equals the backbone exactly.
    """
    rng = np.random.default_rng(seed)
    layers = {
        key: AdapterPair(np.zeros((d, rank)), rng.uniform(-INIT_SPAN, INIT_SPAN, size=(rank, l)))
        for key, (d, l) in shapes.items()
    }
    return AdapterSet(rank, alpha, layers)


def check_shapes(expected: dict[str, tuple[int, int]], adapters: AdapterSet) -> None:
    """Raise ``DimensionMismatch`` at the first layer, in key order, whose (d, l)
    differs from ``expected``; a missing or an extra layer's shape reads None."""
    shapes = adapters.shapes()
    for key in sorted(expected.keys() | shapes.keys()):
        if shapes.get(key) != expected.get(key):
            raise DimensionMismatch(key, expected.get(key), shapes.get(key))


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
    per_layer = sum(rank * (d + l) for _, d, l in LLAMA3_8B_LAYER_SHAPES)
    return per_layer * LLAMA3_8B_DECODER_LAYERS


# ---------------------------------------------------------------------------
# Binary adapter format (versioned, bit-exact):
#   magic (8 bytes) | version (1 byte) | entry count (u64 LE)
#   per entry: key length (u64 LE) | UTF-8 key | d, l, r (u64 LE each)
#              | alpha (f64 LE) | B payload | A payload
#   payloads are row-major little-endian float64.
# ---------------------------------------------------------------------------

_U64 = struct.Struct("<Q")
_ENTRY = struct.Struct("<3Qd")  # d, l, r, alpha


def serialized_size(adapters: AdapterSet) -> int:
    """Exact byte length serialize_adapters will produce."""
    total = len(MAGIC) + 1 + _U64.size + 8 * adapters.param_count()
    for key in adapters.layers:
        total += _U64.size + len(key.encode("utf-8")) + _ENTRY.size
    return total


def serialized_a_size(adapters: AdapterSet) -> int:
    """Byte length of an A-only payload (same format, B blocks omitted)."""
    return serialized_size(adapters) - sum(8 * b.size for b, _ in adapters.layers.values())


def serialize_adapters(adapters: AdapterSet) -> bytes:
    chunks = [MAGIC, bytes([FORMAT_VERSION]), _U64.pack(len(adapters.layers))]
    for key, (b, a) in adapters.layers.items():
        raw_key = key.encode("utf-8")
        chunks.append(_U64.pack(len(raw_key)))
        chunks.append(raw_key)
        chunks.append(_ENTRY.pack(b.shape[0], a.shape[1], adapters.rank, adapters.alpha))
        chunks.append(b.astype("<f8").tobytes(order="C"))
        chunks.append(a.astype("<f8").tobytes(order="C"))
    return b"".join(chunks)
