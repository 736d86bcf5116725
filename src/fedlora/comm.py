"""Exact communication-volume accounting.

Every count is integer arithmetic: an entry's byte volume is exactly
``params * bytes_per_param`` (4 bytes/param by default, the float32 wire
convention).  Quoted "GB" figures use binary gibibytes (2^30 bytes) — the
convention under which an 8,030,261,248-parameter full model comes out at
29.92 per site per round and the rank-16 adapter run at 1.25 for two
sites over two rounds.  Upload and download are both counted; a sampled
client moves its payload once in each direction per round.

The reduction percentage is the pure parameter-count ratio
100 * (1 - lora/full), half-up to two decimals; figures computed under
other accounting conventions for the same model class will differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal

from .federation import RoundTranscript
from .lora import LLAMA3_8B_FULL_PARAMS, llama3_8b_lora_params

GIB = 2**30
DEFAULT_BYTES_PER_PARAM = 4


@dataclass(frozen=True)
class CommEntry:
    """One comm.csv row after its seed and strategy: ``bytes`` is
    ``params * bytes_per_param``, not the serialized size."""

    round: int
    client: str
    direction: str  # "upload" | "download"
    params: int
    bytes: int


@dataclass(frozen=True)
class CommPreset:
    name: str
    full_params: int
    lora_params: int
    bytes_per_param: int = DEFAULT_BYTES_PER_PARAM


PRESETS = {
    "llama3_8b": CommPreset(
        "llama3_8b", LLAMA3_8B_FULL_PARAMS, llama3_8b_lora_params(16)
    ),
}


def reduction_pct(full_params: int, lora_params: int) -> float:
    """100 * (1 - lora/full), rounded half-up to two decimals."""
    if lora_params > full_params:
        raise ValueError("lora parameter count exceeds the full model")
    if full_params < 1:
        raise ValueError("full parameter count must be positive")
    ratio = Decimal(lora_params) / Decimal(full_params)
    pct = (Decimal(100) * (Decimal(1) - ratio)).quantize(
        Decimal("0.01"), rounding=ROUND_HALF_UP
    )
    return float(pct)


def format_gb(nbytes: int, decimals: int = 2) -> str:
    """Binary-gibibyte display value, half-up at the given precision."""
    quantum = Decimal(1).scaleb(-decimals) if decimals else Decimal(1)
    value = (Decimal(nbytes) / Decimal(GIB)).quantize(quantum, rounding=ROUND_HALF_UP)
    return f"{value:.{decimals}f}" if decimals else str(value)


def entries_from_transcripts(
    transcripts: list[RoundTranscript], bytes_per_param: int = DEFAULT_BYTES_PER_PARAM
) -> list[CommEntry]:
    entries = []
    for transcript in transcripts:
        for direction, volumes in (
            ("upload", transcript.uploads),
            ("download", transcript.downloads),
        ):
            for client in sorted(volumes):
                params = volumes[client].params
                entries.append(
                    CommEntry(transcript.round, client, direction, params, params * bytes_per_param)
                )
    return entries


@dataclass(frozen=True)
class PresetRow:
    """One comm_preset.csv row: a preset's adapter and full-model traffic
    for one site count; the ``_gb`` fields are display strings."""

    sites: int
    rounds: int
    lora_params: int
    full_params: int
    lora_total_bytes: int
    full_total_bytes: int
    full_per_site_round_bytes: int
    lora_total_gb: str
    full_total_gb: str
    full_per_site_round_gb: str
    reduction_pct: float


def preset_summary(
    preset: CommPreset, rounds: int = 2, site_counts: tuple[int, ...] = (2, 3)
) -> list[dict]:
    """Headline table for a named preset: adapter vs full-model traffic, one
    ``PresetRow``'s fields (its ``vars``) per site count."""
    per_site_round = preset.full_params * preset.bytes_per_param
    rows = []
    for clients in site_counts:
        moves = rounds * clients * 2  # every site uploads and downloads each round
        lora_total = moves * preset.lora_params * preset.bytes_per_param
        row = PresetRow(
            sites=clients,
            rounds=rounds,
            lora_params=preset.lora_params,
            full_params=preset.full_params,
            lora_total_bytes=lora_total,
            full_total_bytes=moves * per_site_round,
            full_per_site_round_bytes=per_site_round,
            lora_total_gb=format_gb(lora_total, 2),
            full_total_gb=format_gb(moves * per_site_round, 0),
            full_per_site_round_gb=format_gb(per_site_round, 2),
            reduction_pct=reduction_pct(preset.full_params, preset.lora_params),
        )
        rows.append(vars(row))
    return rows
