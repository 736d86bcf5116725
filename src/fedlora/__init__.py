"""Desk-scale federated LoRA training simulator.

Clients fine-tune low-rank adapters on a frozen toy backbone over synthetic
multi-site data; the server aggregates adapter sets with size-based or
influence-aware weights.  Ships span-level evaluation, communication
accounting, and a config-driven experiment CLI.
"""

__version__ = "0.1.0"
