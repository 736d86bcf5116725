"""Desk-scale federated LoRA training simulator.

Clients fine-tune low-rank adapters on a frozen toy backbone over synthetic
multi-site data; the server aggregates adapter sets with size-based or
influence-aware weights.  Ships span-level evaluation, communication
accounting, and a config-driven experiment CLI.
"""

from .aggregation import (
    AggregationRule,
    AggregationWeights,
    InfluenceReport,
    WeightMode,
    aggregate,
    data_aware_weights,
    influence_scores,
    size_weights,
    validation_loss,
)
from .datasim import (
    PlantedRule,
    SiteDataset,
    SiteSpec,
    generate_site,
    make_validation_set,
    shard,
)
from .federation import (
    FederationConfig,
    FederationResult,
    RoundTranscript,
    Strategy,
    run_federation,
    sample_clients,
)
from .lora import (
    AdapterPair,
    AdapterSet,
    deserialize_adapters,
    init_adapter_set,
    param_counts,
    serialize_adapters,
)
from .metrics import (
    EvalReport,
    RelationInstance,
    Scheme,
    Span,
    decode_bio,
    lenient_f1,
    relation_f1,
    strict_f1,
    wilcoxon_rank_sum,
)
from .model import (
    Backbone,
    Example,
    ModelConfig,
    SgdConfig,
    Task,
    ToyModel,
    forward,
    grad,
    local_update,
    loss,
)

__version__ = "0.1.0"
